import math

import numpy as np
import pytest

from ustatmc import (
    BudgetExceeded,
    Distribution,
    ExperimentConfig,
    FiniteKernel,
    SllnConfig,
    certify_rho,
    estimate_l2,
    exact_l2,
    hoeffding_project,
    joint_law,
    mix64,
    product_kernel,
    replicate_u_values,
    run_slln_experiment,
    run_variance_experiment,
    table_kernel,
)


def _config(kernel, profile, h, **kw):
    defaults = dict(
        kernel=kernel,
        mu0=Distribution.dirac(0, kernel.size),
        profile=profile,
        h=h,
        m=h.degree,
        n_grid=[8],
        replicates=4000,
        master_seed=5150,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_mix64_avalanche_and_determinism():
    a = mix64(1234, 0)
    assert a == mix64(1234, 0)
    assert a != mix64(1234, 1)
    assert a != mix64(1235, 0)
    # published splitmix64 vector: state 0 -> first output
    assert mix64(0, 0) == 0xE220A8397B1DCDAF


def test_exact_l2_zero_kernel(two_state_kernel):
    mu = Distribution.dirac(0, 2)
    assert exact_l2(mu, two_state_kernel, table_kernel(np.zeros((2, 2))), 6, 2) == 0.0


def test_exact_l2_single_combination(two_state_kernel, canonical_product_h):
    # n = m: U is the single evaluation h(Y_0, Y_1)
    mu = Distribution.dirac(0, 2)
    got = exact_l2(mu, two_state_kernel, canonical_product_h, 2, 2)
    law = joint_law(mu, two_state_kernel, (0, 1))
    expected = math.sqrt(law.expect(canonical_product_h.table**2))
    assert got == pytest.approx(expected, rel=1e-12)


def test_exact_l2_budget(two_state_kernel, canonical_product_h):
    mu = Distribution.dirac(0, 2)
    with pytest.raises(BudgetExceeded):
        exact_l2(mu, two_state_kernel, canonical_product_h, 50, 2)


def test_exact_l2_matches_monte_carlo(two_state_kernel, two_state_profile, canonical_product_h):
    mu = Distribution.dirac(0, 2)
    exact = exact_l2(mu, two_state_kernel, canonical_product_h, 6, 2)
    config = _config(two_state_kernel, two_state_profile, canonical_product_h, replicates=100_000)
    est = estimate_l2(config, 6)
    assert abs(est.point - exact) <= 3.0 * est.stderr


def test_estimate_l2_constant_kernel(two_state_kernel, two_state_profile):
    h = table_kernel(np.full((2, 2), -2.5))
    config = _config(two_state_kernel, two_state_profile, h, replicates=50)
    est = estimate_l2(config, 10)
    assert est.point == pytest.approx(2.5, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_estimate_l2_deterministic_across_jobs(two_state_kernel, two_state_profile, canonical_product_h):
    u1 = replicate_u_values(two_state_kernel, Distribution.dirac(0, 2), canonical_product_h, 37, 301, 888, jobs=1)
    u3 = replicate_u_values(two_state_kernel, Distribution.dirac(0, 2), canonical_product_h, 37, 301, 888, jobs=3)
    u8 = replicate_u_values(two_state_kernel, Distribution.dirac(0, 2), canonical_product_h, 37, 301, 888, jobs=8)
    assert np.array_equal(u1, u3) and np.array_equal(u1, u8)


def test_estimate_l2_same_seed_identical(two_state_kernel, two_state_profile, canonical_product_h):
    config = _config(two_state_kernel, two_state_profile, canonical_product_h, replicates=128)
    a = estimate_l2(config, 12)
    b = estimate_l2(config, 12)
    assert a == b


def test_replicate_u_matches_per_path_dp(two_state_kernel, canonical_product_h):
    from ustatmc import simulate, u_statistic

    mu = Distribution.dirac(0, 2)
    u = replicate_u_values(two_state_kernel, mu, canonical_product_h, 19, 7, 4242)
    for r in range(7):
        traj = simulate(two_state_kernel, mu, 19, mix64(4242, r))
        assert u[r] == u_statistic(traj, canonical_product_h)


def test_replicate_u_degree_three(two_state_kernel):
    from ustatmc import simulate, u_statistic

    mu = Distribution.dirac(0, 2)
    h3 = product_kernel(3).tabulated(two_state_kernel.states)
    u = replicate_u_values(two_state_kernel, mu, h3, 11, 5, 77)
    for r in range(5):
        traj = simulate(two_state_kernel, mu, 11, mix64(77, r))
        assert u[r] == u_statistic(traj, h3)


def test_variance_experiment_exact_and_mc_regimes(two_state_kernel, two_state_profile, canonical_product_h):
    config = _config(
        two_state_kernel,
        two_state_profile,
        canonical_product_h,
        n_grid=[6, 60],
        replicates=500,
        bounds=[{"name": "theorem1"}],
    )
    reports = run_variance_experiment(config)
    assert [r.l2_kind for r in reports] == ["exact", "monte-carlo"]
    assert all(r.passed for r in reports)
    assert all(e.name == "theorem1" for r in reports for e in r.entries)


def test_variance_experiment_routes_non_canonical_to_corollary2(two_state_kernel, two_state_profile):
    h = table_kernel(np.array([[1.0, 0.1], [0.1, 0.6]]), two_state_kernel.states)
    config = _config(
        two_state_kernel, two_state_profile, h,
        n_grid=[40], replicates=400, bounds=[{"name": "theorem1"}],
    )
    reports = run_variance_experiment(config)
    assert len(reports) == 1
    assert reports[0].statistic == "u_centered"
    assert reports[0].entries[0].name == "corollary2"
    assert reports[0].passed


def test_variance_experiment_single_state_degenerate_chain():
    # rho vanishes identically on one state; the only canonical kernel is 0,
    # so bound and L2 are both exactly zero and the margin-0 report passes
    kernel = FiniteKernel([0.0], [[1.0]])
    profile = certify_rho(kernel, np.ones(1), k_max=4)
    assert all(profile.rho_at(k) == 0.0 for k in range(5))
    h = table_kernel(np.zeros((1, 1)))
    config = _config(kernel, profile, h, n_grid=[4], bounds=[{"name": "theorem1"}], replicates=2)
    reports = run_variance_experiment(config)
    assert reports[0].l2_value == 0.0
    assert reports[0].entries[0].value == 0.0
    assert reports[0].passed


def test_slln_constant_kernel_zero_error(two_state_kernel, two_state_profile):
    h = table_kernel(np.full((2, 2), 3.0))
    config = _config(two_state_kernel, two_state_profile, h, slln=SllnConfig(n_max=2000), replicates=2)
    result = run_slln_experiment(config)
    assert all(row["abs_error"] <= 1e-12 for row in result["rows"])


def test_slln_product_kernel_target(two_state_kernel, two_state_profile):
    h = product_kernel(2).tabulated(two_state_kernel.states)
    pi = two_state_kernel.stationary()
    config = _config(two_state_kernel, two_state_profile, h, slln=SllnConfig(n_max=5000), replicates=2)
    result = run_slln_experiment(config)
    target = pi.expect(two_state_kernel.states) ** 2
    assert result["target"] == pytest.approx(target, abs=1e-12)
    assert result["rows"][-1]["n"] == 5000


def test_slln_incremental_matches_direct(two_state_kernel, two_state_profile):
    from ustatmc import simulate, u_statistic

    h = product_kernel(2).tabulated(two_state_kernel.states)
    config = _config(
        two_state_kernel, two_state_profile, h,
        slln=SllnConfig(n_max=600, checkpoints=[8, 64, 600]), replicates=2, master_seed=31,
    )
    result = run_slln_experiment(config)
    traj = simulate(two_state_kernel, Distribution.dirac(0, 2), 600, 31)
    for row in result["rows"]:
        n = row["n"]
        sub = type(traj)(traj.values[:n], traj.seed, traj.initial)
        assert row["u_n"] == pytest.approx(u_statistic(sub, h), rel=1e-12, abs=1e-15)


def test_slln_degree_three_incremental(two_state_kernel, two_state_profile):
    from ustatmc import simulate, u_statistic

    h3 = product_kernel(3).tabulated(two_state_kernel.states)
    config = _config(
        two_state_kernel, two_state_profile, h3,
        slln=SllnConfig(n_max=300, checkpoints=[16, 300]), replicates=2, master_seed=5,
    )
    result = run_slln_experiment(config)
    traj = simulate(two_state_kernel, Distribution.dirac(0, 2), 300, 5)
    for row in result["rows"]:
        sub = type(traj)(traj.values[: row["n"]], traj.seed, traj.initial)
        assert row["u_n"] == pytest.approx(u_statistic(sub, h3), rel=1e-12, abs=1e-15)


def test_both_bounds_reported_when_both_apply(two_state_kernel, two_state_profile, canonical_product_h):
    config = _config(
        two_state_kernel, two_state_profile, canonical_product_h,
        n_grid=[40], replicates=400,
        bounds=[{"name": "theorem1"}, {"name": "corollary3", "p": 1.0}],
    )
    (report,) = run_variance_experiment(config)
    names = [e.name for e in report.entries]
    assert names == ["theorem1", "corollary3[p=1]"]
    # neither bound uniformly dominates; both must hold
    assert report.passed


def test_slln_error_within_extrapolated_scale(two_state_kernel, two_state_profile):
    # final strong-law error stays below 10x the small-n exact L2 of the
    # centered statistic extrapolated at the n^{-1/2} rate
    h = product_kernel(2).tabulated(two_state_kernel.states)
    pi = two_state_kernel.stationary()
    mu = Distribution.dirac(0, 2)
    centered = h.shifted(hoeffding_project(h, pi, 0).value)
    base = exact_l2(mu, two_state_kernel, centered, 12, 2)
    config = _config(
        two_state_kernel, two_state_profile, h,
        slln=SllnConfig(n_max=100_000), replicates=2, master_seed=20240,
    )
    result = run_slln_experiment(config)
    scale = base * math.sqrt(12 / 100_000)
    assert result["rows"][-1]["abs_error"] <= 10.0 * scale


def test_experiment_config_validation(two_state_kernel, two_state_profile, canonical_product_h):
    with pytest.raises(ValueError):
        _config(two_state_kernel, two_state_profile, canonical_product_h, replicates=1)
    with pytest.raises(ValueError):
        _config(two_state_kernel, two_state_profile, canonical_product_h, n_grid=[10, 10])
    with pytest.raises(ValueError):
        SllnConfig(n_max=1)


def test_l2_estimate_invariants():
    from ustatmc import L2Estimate

    with pytest.raises(ValueError):
        L2Estimate(point=-0.1, stderr=0.0, replicates=2)
