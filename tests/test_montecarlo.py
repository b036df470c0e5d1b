import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import l2_enum, l2_ordered
from ustatmc import (
    BudgetExceeded,
    Distribution,
    ExperimentConfig,
    FiniteKernel,
    SllnConfig,
    SymmetricKernelFn,
    certify_rho,
    exact_l2,
    hoeffding_project,
    joint_law,
    l2_estimate,
    mix64,
    product_kernel,
    replicate_u_grid,
    run_slln_experiment,
    run_variance_experiment,
)
from ustatmc import montecarlo
from ustatmc.ustats import count_cells


def _config(kernel, profile, h, **kw):
    defaults = dict(
        kernel=kernel,
        mu0=Distribution.dirac(0, kernel.size),
        profile=profile,
        h=h,
        n_grid=[8],
        replicates=4000,
        master_seed=5150,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def _slln(kernel, h, **kw):
    return SllnConfig(**{"kernel": kernel, "mu0": Distribution.dirac(0, kernel.size), "h": h, "seed": 5150, **kw})


def test_mix64_avalanche_and_determinism():
    a = mix64(1234, 0)
    assert a == mix64(1234, 0)
    assert a != mix64(1234, 1)
    assert a != mix64(1235, 0)
    # published splitmix64 vector: state 0 -> first output
    assert mix64(0, 0) == 0xE220A8397B1DCDAF


def test_exact_l2_zero_kernel(two_state_kernel):
    mu = Distribution.dirac(0, 2)
    assert exact_l2(mu, two_state_kernel, SymmetricKernelFn(np.zeros((2, 2))), 6, 2) == 0.0


def test_exact_l2_single_combination(two_state_kernel, canonical_product_h):
    # n = m: U is the single evaluation h(Y_0, Y_1)
    mu = Distribution.dirac(0, 2)
    got = exact_l2(mu, two_state_kernel, canonical_product_h, 2, 2)
    law = joint_law(mu, two_state_kernel, (0, 1))
    expected = math.sqrt(float(np.tensordot(law, canonical_product_h.table**2, law.ndim)))
    assert got == pytest.approx(expected, rel=1e-12)


@st.composite
def oracle_cases(draw):
    s = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # some transitions impossible, every row still a law
    matrix = rng.random((s, s)) * (rng.random((s, s)) > 0.3) + 0.01 * np.eye(s)
    mu = rng.random(s)
    # every entry takes the value at its sorted index: exactly symmetric
    table = rng.normal(size=(s,) * m)[tuple(np.sort(np.indices((s,) * m), axis=0))]
    return mu / mu.sum(), matrix / matrix.sum(axis=1, keepdims=True), table, n


@settings(max_examples=100, deadline=None)
@given(oracle_cases())
def test_exact_l2_matches_path_enumeration(case):
    mu, matrix, table, n = case
    kernel = FiniteKernel(np.arange(len(mu), dtype=float), matrix)
    got = exact_l2(Distribution(mu), kernel, SymmetricKernelFn(table), n, table.ndim)
    assert got == pytest.approx(l2_enum(mu, matrix, table, n), rel=1e-12)


@st.composite
def oracle_grids(draw):
    s, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    # at most 3^8 paths to enumerate
    ns = sorted(draw(st.sets(st.integers(m, 8 if s < 4 else 6), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.random((s, s)) * (rng.random((s, s)) > 0.3) + 0.01 * np.eye(s)
    mu = rng.random(s)
    table = rng.normal(size=(s,) * m)[tuple(np.sort(np.indices((s,) * m), axis=0))]
    return mu / mu.sum(), matrix / matrix.sum(axis=1, keepdims=True), table, ns


@settings(max_examples=40, deadline=None)
@given(oracle_grids())
def test_exact_l2_matches_the_ordered_recursion_on_grids(case):
    # the multiset pass against the ordered-tuple pass it replaced and against path enumeration
    mu, matrix, table, ns = case
    kernel = FiniteKernel(np.arange(len(mu), dtype=float), matrix)
    for n in ns:
        got = exact_l2(Distribution(mu), kernel, SymmetricKernelFn(table), n, table.ndim)
        assert got == pytest.approx(l2_ordered(mu, matrix, table, n), rel=1e-12, abs=1e-300)
        assert got == pytest.approx(l2_enum(mu, matrix, table, n), rel=1e-12, abs=1e-300)


def test_exact_l2_refuses_a_degree_other_than_the_kernels(two_state_kernel, canonical_product_h, monkeypatch):
    # a degree-2 kernel read at m = 3 is refused by name before the index is built
    monkeypatch.setattr(montecarlo, "_multisets", lambda *a: pytest.fail("the index was built"))
    with pytest.raises(ValueError, match=r"h\.degree"):
        exact_l2(Distribution.dirac(0, 2), two_state_kernel, canonical_product_h, 6, 3)


def test_replicate_u_grid_refuses_zero_replicates(monkeypatch, two_state_kernel, canonical_product_h):
    monkeypatch.setattr(montecarlo, "mix64", lambda *a: pytest.fail("a seed was mixed"))
    with pytest.raises(ValueError, match="replicates"):
        replicate_u_grid(two_state_kernel, Distribution.dirac(0, 2), [canonical_product_h], [6], 0, 1)


def test_exact_l2_budget(two_state_kernel, canonical_product_h):
    mu = Distribution.dirac(0, 2)
    with pytest.raises(BudgetExceeded):
        exact_l2(mu, two_state_kernel, canonical_product_h, 50, 2)


def test_exact_l2_matches_monte_carlo(two_state_kernel, canonical_product_h):
    mu = Distribution.dirac(0, 2)
    exact = exact_l2(mu, two_state_kernel, canonical_product_h, 6, 2)
    u = replicate_u_grid(two_state_kernel, mu, [canonical_product_h], [6], 100_000, 5150)[0, 0]
    point, stderr = l2_estimate(u)
    assert abs(point - exact) <= 3.0 * stderr


def test_estimate_l2_constant_kernel(two_state_kernel):
    h = SymmetricKernelFn(np.full((2, 2), -2.5))
    u = replicate_u_grid(two_state_kernel, Distribution.dirac(0, 2), [h], [10], 50, 5150)[0, 0]
    point, stderr = l2_estimate(u)
    assert point == pytest.approx(2.5, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_estimate_l2_deterministic_across_jobs(monkeypatch, two_state_kernel, canonical_product_h):
    # budgets that hold the count of 101 and of 38 replicates beside the seeds and results
    # of all 301 cut them into 3 and 8 blocks; every value matches the run in one block
    mu = Distribution.dirac(0, 2)
    whole = replicate_u_grid(two_state_kernel, mu, [canonical_product_h], [37], 301, 888)[0, 0]
    blocks, sample_paths = [], montecarlo.sample_paths

    def counted(kernel, mu0, n, seeds):
        blocks.append(len(seeds))
        return sample_paths(kernel, mu0, n, seeds)

    for rows, count in ((101, 3), (38, 8)):
        budget = count_cells(rows, 37, 2, 2, replicates=301)
        blocks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "sample_paths", counted)
            got = replicate_u_grid(two_state_kernel, mu, [canonical_product_h], [37], 301, 888, budget=budget)[0, 0]
        assert len(blocks) == count and sum(blocks) == 301
        assert got.tobytes() == whole.tobytes()


def test_estimate_l2_same_seed_identical(two_state_kernel, canonical_product_h):
    a, b = (l2_estimate(
        replicate_u_grid(two_state_kernel, Distribution.dirac(0, 2), [canonical_product_h], [12], 128, 5150)[0, 0]
    ) for _ in range(2))
    assert a == b


@pytest.mark.parametrize("bad", [1.5, True, np.True_, 2**64, 2**64 + 1, -1, "1", None])
def test_replicate_u_refuses_a_master_seed_outside_uint64_before_any_work(
    monkeypatch, two_state_kernel, canonical_product_h, bad
):
    # mix64 works in uint64, so True would alias master seed 1 and 1.5 or 2^64 + 1 would die
    # inside numpy: each is refused as sample_paths refuses it, before a seed is mixed
    # and before 10^4 replicates of 10^4 steps are charged or sampled
    monkeypatch.setattr(montecarlo, "mix64", lambda *a: pytest.fail("a seed was mixed"))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="seed .* is not an integer in"):
            replicate_u_grid(two_state_kernel, Distribution.dirac(0, 2), [canonical_product_h], [10**4], 10**4, bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_replicate_u_takes_numpy_integer_master_seeds(two_state_kernel, canonical_product_h):
    mu = Distribution.dirac(0, 2)
    for plain, seeds in ((5, [np.int64(5), np.int8(5), np.uint64(5)]), (2**64 - 1, [np.uint64(2**64 - 1)])):
        want = replicate_u_grid(two_state_kernel, mu, [canonical_product_h], [20], 4, plain).tobytes()
        for seed in seeds:
            assert replicate_u_grid(two_state_kernel, mu, [canonical_product_h], [20], 4, seed).tobytes() == want


def test_replicate_u_matches_per_path_dp(two_state_kernel, canonical_product_h):
    from ustatmc import simulate, u_statistic

    mu = Distribution.dirac(0, 2)
    u = replicate_u_grid(two_state_kernel, mu, [canonical_product_h], [19], 7, 4242)[0, 0]
    for r in range(7):
        path = simulate(two_state_kernel, mu, 19, mix64(4242, r))
        assert u[r] == u_statistic(path, canonical_product_h)


def test_replicate_u_degree_three(two_state_kernel):
    from ustatmc import simulate, u_statistic

    mu = Distribution.dirac(0, 2)
    h3 = product_kernel(3).tabulated(two_state_kernel.states)
    u = replicate_u_grid(two_state_kernel, mu, [h3], [11], 5, 77)[0, 0]
    for r in range(5):
        path = simulate(two_state_kernel, mu, 11, mix64(77, r))
        assert u[r] == u_statistic(path, h3)


def test_variance_experiment_exact_and_mc_regimes(two_state_kernel, two_state_profile, canonical_product_h):
    config = _config(
        two_state_kernel,
        two_state_profile,
        canonical_product_h,
        n_grid=[6, 60],
        replicates=500,
        bounds=[{"name": "theorem1"}],
    )
    rows = run_variance_experiment(config)
    assert [r["l2_kind"] for r in rows] == ["exact", "monte-carlo"]
    assert all(r["pass"] for r in rows)
    assert all(r["bound_name"] == "theorem1" for r in rows)


def test_variance_experiment_routes_non_canonical_to_corollary2(two_state_kernel, two_state_profile):
    h = SymmetricKernelFn(np.array([[1.0, 0.1], [0.1, 0.6]]))
    config = _config(
        two_state_kernel, two_state_profile, h,
        n_grid=[40], replicates=400, bounds=[{"name": "theorem1"}],
    )
    rows = run_variance_experiment(config)
    assert len(rows) == 1
    assert rows[0]["statistic"] == "u_centered"
    assert rows[0]["bound_name"] == "corollary2"
    assert rows[0]["pass"]


def test_variance_experiment_single_state_degenerate_chain():
    # rho vanishes identically on one state; the only canonical kernel is 0,
    # so bound and L2 are both exactly zero and the margin-0 row passes
    kernel = FiniteKernel([0.0], [[1.0]])
    profile = certify_rho(kernel, np.ones(1), k_max=4)
    assert all(profile.rho_at(k) == 0.0 for k in range(5))
    h = SymmetricKernelFn(np.zeros((1, 1)))
    config = _config(kernel, profile, h, n_grid=[4], bounds=[{"name": "theorem1"}], replicates=2)
    rows = run_variance_experiment(config)
    assert rows[0]["estimate"] == 0.0
    assert rows[0]["bound"] == 0.0
    assert rows[0]["pass"]


def test_slln_constant_kernel_zero_error(two_state_kernel):
    h = SymmetricKernelFn(np.full((2, 2), 3.0))
    result = run_slln_experiment(_slln(two_state_kernel, h, n_max=2000))
    assert all(row["abs_error"] <= 1e-12 for row in result["rows"])


def test_slln_product_kernel_target(two_state_kernel):
    h = product_kernel(2).tabulated(two_state_kernel.states)
    pi = two_state_kernel.stationary()
    result = run_slln_experiment(_slln(two_state_kernel, h, n_max=5000))
    target = pi.expect(two_state_kernel.states) ** 2
    assert result["target"] == pytest.approx(target, abs=1e-12)
    assert result["rows"][-1]["n"] == 5000


def test_slln_incremental_matches_direct(two_state_kernel):
    from ustatmc import simulate, u_statistic

    h = product_kernel(2).tabulated(two_state_kernel.states)
    result = run_slln_experiment(_slln(two_state_kernel, h, n_max=600, checkpoints=[8, 64, 600], seed=31))
    path = simulate(two_state_kernel, Distribution.dirac(0, 2), 600, 31)
    for row in result["rows"]:
        n = row["n"]
        assert row["u_n"] == pytest.approx(u_statistic(path[:n], h), rel=1e-12, abs=1e-15)


def test_slln_degree_three_incremental(two_state_kernel):
    from ustatmc import simulate, u_statistic

    h3 = product_kernel(3).tabulated(two_state_kernel.states)
    result = run_slln_experiment(_slln(two_state_kernel, h3, n_max=300, checkpoints=[16, 300], seed=5))
    path = simulate(two_state_kernel, Distribution.dirac(0, 2), 300, 5)
    for row in result["rows"]:
        assert row["u_n"] == pytest.approx(u_statistic(path[: row["n"]], h3), rel=1e-12, abs=1e-15)


def test_both_bounds_reported_when_both_apply(two_state_kernel, two_state_profile, canonical_product_h):
    config = _config(
        two_state_kernel, two_state_profile, canonical_product_h,
        n_grid=[40], replicates=400,
        bounds=[{"name": "theorem1"}, {"name": "corollary3", "p": 1.0}],
    )
    rows = run_variance_experiment(config)
    assert {(r["n"], r["statistic"]) for r in rows} == {(40, "u")}
    assert [r["bound_name"] for r in rows] == ["theorem1", "corollary3[p=1]"]
    # neither bound uniformly dominates; both must hold
    assert all(r["pass"] for r in rows)


def test_slln_error_within_extrapolated_scale(two_state_kernel):
    # final strong-law error stays below 10x the small-n exact L2 of the
    # centered statistic extrapolated at the n^{-1/2} rate
    h = product_kernel(2).tabulated(two_state_kernel.states)
    pi = two_state_kernel.stationary()
    mu = Distribution.dirac(0, 2)
    centered = h.shifted(float(hoeffding_project(h, pi, 0).table))
    base = exact_l2(mu, two_state_kernel, centered, 12, 2)
    result = run_slln_experiment(_slln(two_state_kernel, h, n_max=100_000, seed=20240))
    scale = base * math.sqrt(12 / 100_000)
    assert result["rows"][-1]["abs_error"] <= 10.0 * scale


def test_experiment_config_validation(two_state_kernel, two_state_profile, canonical_product_h):
    with pytest.raises(ValueError):
        _config(two_state_kernel, two_state_profile, canonical_product_h, replicates=1)
    with pytest.raises(ValueError):
        _config(two_state_kernel, two_state_profile, canonical_product_h, n_grid=[10, 10])
    with pytest.raises(ValueError):
        _config(two_state_kernel, two_state_profile, SymmetricKernelFn(np.array(1.0)))  # degree 0
    with pytest.raises(ValueError):
        _slln(two_state_kernel, canonical_product_h, n_max=1)
    with pytest.raises(ValueError):
        _slln(two_state_kernel, SymmetricKernelFn(np.array(1.0)), n_max=100)  # degree 0
    assert _config(two_state_kernel, two_state_profile, canonical_product_h).m == 2


def test_l2_estimate_delta_method():
    # U^2 = (1, 1, 4): mean 2, sample variance 3, so the stderr of the mean
    # is 1 and the delta method divides it by 2 sqrt(2)
    point, stderr = l2_estimate(np.array([1.0, -1.0, 2.0]))
    assert point == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert stderr == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-15)
    assert l2_estimate(np.array([3.0])) == (3.0, 0.0)
    assert l2_estimate(np.zeros(4)) == (0.0, 0.0)
