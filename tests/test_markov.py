import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import dirac_pair_rho, float_path_repeat, pair_loop_rho_table
from ustatmc import markov
from ustatmc import (
    BudgetExceeded,
    Distribution,
    ErgodicityProfile,
    ExplicitRho,
    FiniteKernel,
    NotErgodic,
    certify_rho,
    evolve,
    random_ergodic_kernel,
    sample_paths,
    simulate,
    stationary,
    tv_distance,
)


def test_stationary_two_state(two_state_kernel):
    pi = stationary(two_state_kernel)
    # pi = (b, a) / (a + b) for the two-state chain
    assert np.allclose(pi.weights, [0.4, 0.6], atol=1e-12)
    assert np.abs(pi.weights @ two_state_kernel.matrix - pi.weights).sum() <= 1e-12


def test_stationary_doubly_stochastic_is_uniform():
    mat = np.array([[0.5, 0.3, 0.2], [0.3, 0.2, 0.5], [0.2, 0.5, 0.3]])
    pi = stationary(FiniteKernel([0.0, 1.0, 2.0], mat))
    assert np.allclose(pi.weights, 1 / 3, atol=1e-10)


def test_stationary_single_state():
    pi = stationary(FiniteKernel([0.0], [[1.0]]))
    assert pi.weights.tolist() == [1.0]


def test_stationary_power_iteration_matches_direct_solve(monkeypatch):
    # past 2000 states stationary() iterates pi P instead of solving
    s = 2001
    rng = np.random.default_rng(2001)
    matrix = rng.random((s, s)) * (rng.random(s) ** 3 + 1e-3)
    matrix /= matrix.sum(axis=1, keepdims=True)
    kernel = FiniteKernel(np.arange(s, dtype=float), matrix)
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: pytest.fail("took the direct solve at S > 2000"))
    pi = stationary(kernel).weights
    monkeypatch.undo()
    a = matrix.T - np.eye(s)
    a[-1] = 1.0
    direct = np.linalg.solve(a, np.eye(s)[-1])
    assert np.abs(pi - direct).sum() <= 1e-12
    assert pi.max() > 2.0 / s  # far from uniform, so the iteration had work to do


def test_stationary_rejects_periodic():
    flip = FiniteKernel([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotErgodic):
        stationary(flip)


def test_evolve_examples(two_state_kernel, mu_dirac0):
    assert evolve(mu_dirac0, two_state_kernel, 0) is mu_dirac0
    assert np.allclose(evolve(mu_dirac0, two_state_kernel, 1).weights, [0.7, 0.3], atol=1e-15)
    pi = stationary(two_state_kernel)
    for k in (1, 5, 40):
        assert np.abs(evolve(pi, two_state_kernel, k).weights - pi.weights).max() <= 1e-12


def test_evolve_semigroup(two_state_kernel):
    mu = Distribution.normalized([0.25, 0.75])
    for j, k in [(1, 1), (3, 4), (10, 7)]:
        lhs = evolve(mu, two_state_kernel, j + k).weights
        rhs = evolve(evolve(mu, two_state_kernel, j), two_state_kernel, k).weights
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_tv_distance_values():
    d0, d1 = Distribution.dirac(0, 2), Distribution.dirac(1, 2)
    assert tv_distance(d0, d0) == 0.0
    assert tv_distance(d0, d1) == 2.0
    assert tv_distance(Distribution([0.5, 0.5]), Distribution([0.9, 0.1])) == pytest.approx(0.8, abs=1e-15)


def test_certify_rho_two_state_closed_form(two_state_kernel):
    # eigen-gap gives rho(k) = |1 - a - b|^k = 0.5^k when V = 1
    profile = certify_rho(two_state_kernel, np.ones(2), k_max=30)
    assert np.allclose(profile.rho.table(30), 0.5 ** np.arange(31), rtol=1e-12)
    # cross-check against the independent matrix-power oracle
    v = np.ones(2)
    for k in (0, 1, 3, 9):
        assert profile.rho_at(k) == pytest.approx(dirac_pair_rho(two_state_kernel.matrix, v, k), rel=1e-12)


def test_certify_rho_identical_rows_one_step_coupling():
    row = [0.3, 0.5, 0.2]
    kernel = FiniteKernel([0.0, 1.0, 2.0], [row, row, row])
    profile = certify_rho(kernel, np.ones(3), k_max=5)
    assert profile.rho_at(0) == pytest.approx(1.0)
    assert all(profile.rho_at(k) == 0.0 for k in range(1, 6))


def test_certify_rho_k0_upper_bound():
    rng = np.random.default_rng(5)
    mat = rng.random((4, 4)) + 0.1
    mat /= mat.sum(axis=1, keepdims=True)
    profile = certify_rho(FiniteKernel(np.arange(4.0), mat), np.ones(4), k_max=10)
    assert profile.rho_at(0) <= 1.0  # TV <= 2 = V(x) + V(x')


def test_certify_rho_dirac_inequality_exact(two_state_kernel):
    v = np.array([1.0, 2.0])
    profile = certify_rho(two_state_kernel, v, k_max=25)
    assert np.all(np.diff(profile.rho.values) <= 0.0)
    for k in range(26):
        for x in range(2):
            for y in range(2):
                lhs = tv_distance(
                    evolve(Distribution.dirac(x, 2), two_state_kernel, k),
                    evolve(Distribution.dirac(y, 2), two_state_kernel, k),
                )
                assert lhs <= profile.rho_at(k) * (v[x] + v[y])


def test_certify_rho_extends_to_random_pairs_by_convexity(two_state_kernel):
    rng = np.random.default_rng(17)
    profile = certify_rho(two_state_kernel, np.array([1.0, 3.0]), k_max=20)
    v = profile.v_values
    for _ in range(50):
        mu = Distribution.normalized(rng.random(2) + 1e-3)
        nu = Distribution.normalized(rng.random(2) + 1e-3)
        bound_mass = mu.expect(v) + nu.expect(v)
        for k in (0, 1, 2, 5, 11, 20):
            lhs = tv_distance(evolve(mu, two_state_kernel, k), evolve(nu, two_state_kernel, k))
            assert lhs <= profile.rho_at(k) * bound_mass + 1e-12


def test_certify_rho_refuses_no_decay():
    lazy_flip = FiniteKernel([0.0, 1.0], [[1e-15, 1 - 1e-15], [1 - 1e-15, 1e-15]])
    with pytest.raises(NotErgodic):
        certify_rho(lazy_flip, np.ones(2), k_max=1)


@st.composite
def cycle_chains_with_weights(draw):
    """2 to 40 states: a positive cycle x -> x + 1 and a positive diagonal
    (so the chain is ergodic), plus random extra entries at a drawn density
    (below 1, rows keep zero entries); V = 1 or a random V >= 1.
    numpy draws the entries from a hypothesis-drawn seed."""
    s = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    matrix = rng.random((s, s)) * (rng.random((s, s)) < density)
    states = np.arange(s)
    matrix[states, (states + 1) % s] += 0.1 + rng.random(s)
    matrix[states, states] += 0.1 + rng.random(s)
    matrix /= matrix.sum(axis=1, keepdims=True)
    v = 1.0 + 9.0 * rng.random(s) if draw(st.booleans()) else np.ones(s)
    return matrix, v


@settings(max_examples=100, deadline=None)
@given(cycle_chains_with_weights(), st.integers(0, 80), st.integers(2, 7))
def test_certify_rho_equals_pair_loop(chain, k_max, steps):
    # bit for bit against the per-Dirac pair loop, with block edges after
    # every step (caps 1 and S^2), after every `steps` steps, and nowhere
    # (10^9); a table that shows no decay by k_max is refused on every cap
    matrix, v = chain
    s = len(v)
    kernel = FiniteKernel(np.arange(float(s)), matrix)
    expected = pair_loop_rho_table(matrix, v, k_max)
    for cap in (1, s * s, steps * s * s + s, 10**9):
        with mock.patch.object(markov, "_RHO_CELLS", cap):
            if expected[k_max] < expected[0] * (1.0 - 1e-9):
                assert np.array_equal(certify_rho(kernel, v, k_max).rho.values, expected)
            else:
                with pytest.raises(NotErgodic):
                    certify_rho(kernel, v, k_max)


def test_certify_rho_memory_does_not_grow_with_pairs():
    # S = 200, k_max = 2: gaps of all 19 900 Dirac pairs at once traced 123 MiB
    rng = np.random.default_rng(7)
    matrix = rng.random((200, 200))
    matrix /= matrix.sum(axis=1, keepdims=True)
    kernel = FiniteKernel(np.arange(200.0), matrix)
    tracemalloc.start()
    try:
        profile = certify_rho(kernel, np.ones(200), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert np.array_equal(profile.rho.values, pair_loop_rho_table(matrix, np.ones(200), 2))


# (S, seed) of dense chains whose float paths enter cycles of period 3 to 6 with numpy 2.4 on
# x86-64; elsewhere they are simply more dense chains
CYCLING_DENSE = [(4, 73), (8, 0), (9, 42), (10, 69), (11, 79)]


@st.composite
def repeating_chains_with_weights(draw):
    """Dense chains, whose float paths mostly reach a fixed point or a cycle
    of period 2 to 6 within a few dozen steps; sticky chains, which repeat
    later; and near-permutations, which repeat no step within a few hundred
    and show no decay.  V = 1 or a random V >= 1."""
    kind = draw(st.sampled_from(["dense", "cycling", "sticky", "near-permutation"]))
    if kind == "cycling":
        s, seed = draw(st.sampled_from(CYCLING_DENSE))
    else:
        s, seed = draw(st.integers(2, 10)), draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    matrix = rng.random((s, s)) + 0.05
    if kind == "sticky":
        matrix += np.eye(s) * s * draw(st.sampled_from([3.0, 30.0]))
    elif kind == "near-permutation":
        matrix = matrix * 1e-13 + np.eye(s)[np.roll(np.arange(s), 1)]
    matrix /= matrix.sum(axis=1, keepdims=True)
    v = 1.0 + 9.0 * rng.random(s) if draw(st.booleans()) else np.ones(s)
    return matrix, v


def _block_ends(steps_per_block, k_max):
    # the last step of each certify_rho block: 16 steps first, doubling up to the cap
    ends, size = [], min(16, steps_per_block)
    while not ends or ends[-1] < k_max:
        ends.append(min(k_max, (ends[-1] if ends else -1) + size))
        size = min(2 * size, steps_per_block)
    return ends


@settings(max_examples=80, deadline=None)
@given(repeating_chains_with_weights(), st.integers(48, 400))
def test_certify_rho_tiles_the_repeat_of_its_float_path(chain, k_max):
    # bit for bit against the pair loop, which replays every step, well past the first
    # repeat (b, a), with blocks of one step (caps 1 and S^2), blocks whose edges put a
    # at the end of a block or at the start of one, and one block of up to k_max + 1
    # steps (10^9); a table that shows no decay by k_max is still refused
    matrix, v = chain
    s = len(v)
    kernel = FiniteKernel(np.arange(float(s)), matrix)
    expected = pair_loop_rho_table(matrix, v, k_max)
    repeat = float_path_repeat(matrix, k_max)
    steps = set()
    if repeat is not None:
        a = repeat[1]
        edges = [q for q in range(2, k_max + 2) if {a - 1, a} & set(_block_ends(q, k_max))]
        steps.update(edges[:2] + edges[-2:])
    for cap in (1, s * s, *(q * s * s for q in sorted(steps)), 10**9):
        with mock.patch.object(markov, "_RHO_CELLS", cap):
            if expected[k_max] < expected[0] * (1.0 - 1e-9):
                assert np.array_equal(certify_rho(kernel, v, k_max).rho.values, expected)
            else:
                with pytest.raises(NotErgodic):
                    certify_rho(kernel, v, k_max)


class _CountingMatmul(np.ndarray):
    """A transition matrix that counts the products taken with it."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingMatmul.products += 1
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


def test_certify_rho_stops_at_the_first_repeat(monkeypatch):
    # S = 8, k_max = 10^6: replaying every step took about 4 s; the float path repeats
    # within a few dozen steps, and one stacked product is taken per step evolved
    rng = np.random.default_rng(8)
    matrix = rng.random((8, 8)) + 0.05
    matrix /= matrix.sum(axis=1, keepdims=True)
    kernel = FiniteKernel(np.arange(8.0), matrix)
    monkeypatch.setattr(kernel, "matrix", kernel.matrix.view(_CountingMatmul))
    monkeypatch.setattr(_CountingMatmul, "products", 0)
    values = certify_rho(kernel, np.ones(8), 10**6).rho.values
    assert 0 < _CountingMatmul.products <= 300
    # past the repeat the ratios cycle, so the head matches a replay of 400 steps
    assert np.array_equal(values[:300], pair_loop_rho_table(matrix, np.ones(8), 400)[:300])


def test_profile_serialization_round_trip(two_state_kernel, two_state_profile):
    from ustatmc.config import build_profile

    d = two_state_profile.to_dict()
    assert d["provenance"] == "certified"
    assert d["rho"]["tail_rate"] == 1.0
    back = build_profile({"profile": {"kind": "declared", **d}}, two_state_kernel, np.ones(2), 0)
    assert np.array_equal(back.rho.values, two_state_profile.rho.values)
    assert back.rho.tail_rate == 1.0
    geo = ErgodicityProfile(np.ones(2), ExplicitRho(np.array([2.0]), 0.25), provenance="declared", declared_m=1.5)
    geo2 = build_profile({"profile": {"kind": "declared", **geo.to_dict()}}, two_state_kernel, np.ones(2), 0)
    assert geo2.rho_at(3) == pytest.approx(2.0 * 0.25**3)
    assert geo2.declared_m == 1.5


def test_explicit_rho_tail_and_monotonicity():
    rho = ExplicitRho(np.array([1.0, 0.5, 0.25]), tail_rate=0.5)
    assert rho.at(2) == 0.25
    assert rho.at(4) == pytest.approx(0.0625)
    assert rho.uses_tail(3) and not rho.uses_tail(2)
    with pytest.raises(ValueError):
        ExplicitRho(np.array([0.5, 0.6]), tail_rate=0.5)
    with pytest.raises(ValueError):
        ExplicitRho(np.array([0.5]), tail_rate=1.5)


def test_declared_geometric_rho_is_a_one_entry_table():
    # c * varrho^k in the float order of the closed form, at every k and in tables; np.float_power
    # is the C library's pow, as Python's ** is, where numpy's ** on arrays is dispatched per CPU
    for c, varrho in [(1.0, 0.5), (2.0, 0.9), (0.37, 0.123), (5.5, 0.999)]:
        rho = ExplicitRho(np.array([c]), varrho)
        assert all(rho.at(k) == c * varrho**k for k in range(200))
        assert np.array_equal(rho.table(150), c * np.float_power(varrho, np.arange(151)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_lookup_is_its_table_entry_bit_for_bit(data):
    # a certified table (tail rate 1) of a random chain, or a declared c * varrho^k
    if data.draw(st.booleans(), label="certified"):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        s = data.draw(st.integers(2, 6), label="S")
        kernel = random_ergodic_kernel(s, rng)
        rho = certify_rho(kernel, 1.0 + rng.exponential(1.0, s), k_max=data.draw(st.integers(1, 60))).rho
    else:
        rho = ExplicitRho(np.array([data.draw(st.floats(0.0, 10.0), label="c")]),
                          data.draw(st.floats(0.0, 1.0), label="varrho"))
    n = data.draw(st.integers(0, 2000), label="n")
    assert np.array([rho.at(k) for k in range(n + 1)]).tobytes() == rho.table(n).tobytes()


def test_certified_tail_is_flat(two_state_kernel):
    profile = certify_rho(two_state_kernel, np.ones(2), k_max=5)
    assert profile.rho.tail_rate == 1.0
    assert all(profile.rho_at(k) == profile.rho_at(5) for k in range(6, 40))
    assert np.array_equal(profile.rho.table(12)[5:], np.full(8, profile.rho_at(5)))


def test_profile_requires_v_at_least_one():
    with pytest.raises(ValueError):
        ErgodicityProfile(np.array([0.5, 1.0]), ExplicitRho(np.array([1.0]), 0.5))


@st.composite
def sparse_chains_with_weights(draw):
    """Rows with zero entries, not reversible in general; V = 1 or a random
    V >= 1.  Chains that are not ergodic, or show no decay by k_max, are
    refused by certify_rho and skipped by the test."""
    s = draw(st.integers(2, 7))
    entries = st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=s, max_size=s)
    matrix = np.array([draw(entries) for _ in range(s)])
    # a positive entry per row keeps every row a distribution
    matrix[np.arange(s), draw(st.lists(st.integers(0, s - 1), min_size=s, max_size=s))] += 0.05
    matrix /= matrix.sum(axis=1, keepdims=True)
    v = np.array(draw(st.lists(st.floats(1.0, 10.0), min_size=s, max_size=s))) if draw(st.booleans()) else np.ones(s)
    return matrix, v


@settings(max_examples=200, deadline=None)
@given(sparse_chains_with_weights(), st.integers(2, 25))
def test_certified_tail_dominates_a_longer_table(chain, k_max):
    matrix, v = chain
    kernel = FiniteKernel(np.arange(float(len(v))), matrix)
    try:
        short = certify_rho(kernel, v, k_max)
    except NotErgodic:
        assume(False)
    long = certify_rho(kernel, v, 4 * k_max).rho.values
    # 1e-15 is the float resolution of the table itself
    assert all(short.rho_at(k) >= long[k] - 1e-15 for k in range(4 * k_max + 1))


def test_simulate_deterministic_and_seeded(two_state_kernel, mu_dirac0):
    a = simulate(two_state_kernel, mu_dirac0, 500, seed=123)
    b = simulate(two_state_kernel, mu_dirac0, 500, seed=123)
    assert np.array_equal(a, b)
    assert a[0] == 0  # dirac start
    c = simulate(two_state_kernel, mu_dirac0, 500, seed=124)
    assert not np.array_equal(a, c)


def test_simulate_permutation_kernel_is_deterministic():
    perm = FiniteKernel([0.0, 1.0, 2.0], [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    path = simulate(perm, Distribution.dirac(0, 3), 7, seed=9)
    assert path.tolist() == [0, 1, 2, 0, 1, 2, 0]


def test_simulate_occupation_matches_stationary(two_state_kernel, mu_dirac0):
    path = simulate(two_state_kernel, mu_dirac0, 100_000, seed=31)
    occupation = float(np.mean(path == 0))
    assert occupation == pytest.approx(0.4, abs=0.01)


def test_sample_paths_rows_match_simulate(two_state_kernel, mu_dirac0):
    seeds = [11, 99, 12345]
    paths = sample_paths(two_state_kernel, mu_dirac0, 64, seeds)
    for row, seed in zip(paths, seeds):
        assert np.array_equal(row, simulate(two_state_kernel, mu_dirac0, 64, seed))


def test_kernel_validation():
    with pytest.raises(ValueError):
        FiniteKernel([0.0, 1.0], [[0.6, 0.3], [0.2, 0.8]])
    with pytest.raises(ValueError):
        FiniteKernel([0.0, 1.0], [[1.1, -0.1], [0.2, 0.8]])
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, 0.6]))


def test_stationary_bounds_m_by_pi_v(two_state_kernel, two_state_profile):
    from ustatmc import m_sup

    v = np.array([1.0, 2.0])
    profile = certify_rho(two_state_kernel, v, k_max=60)
    pi_v = stationary(two_state_kernel).expect(v)
    for w in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.9, 0.1]):
        assert m_sup(Distribution(np.array(w)), profile, two_state_kernel) >= pi_v - 1e-12


def test_sample_paths_refuses_an_oversized_next_state_table(monkeypatch):
    # a dense 250-state chain has about 62 500 distinct CDF values: its
    # next-state table would hold 250 * 62 501 cells, over TENSOR_BUDGET
    rng = np.random.default_rng(3)
    matrix = rng.random((250, 250))
    matrix /= matrix.sum(axis=1, keepdims=True)
    kernel = FiniteKernel(np.arange(250.0), matrix)
    monkeypatch.setattr(np.random, "PCG64", lambda *a: pytest.fail("a stream was seeded"))
    monkeypatch.setattr(markov, "_seed_sequence_words", lambda *a: pytest.fail("a seed was hashed"))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="next-state table"):
            sample_paths(kernel, Distribution.uniform(250), 10, [1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


_SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
def test_stream_replica_is_numpys_pcg64(seeds):
    # rows of one array hash over the whole seed list seed numpy's own PCG64, as sample_paths hands
    # them over: PCG64 reads a row's buffer raw, so a non-contiguous row would seed another stream
    seeds = seeds + _SEED_EDGES
    words = markov._seed_sequence_words(np.array(seeds, dtype=np.uint64))
    for seed, row in zip(seeds, words):
        assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))
        bits, reference = np.random.PCG64(markov._hashed_seed()(row)), np.random.PCG64(seed)
        assert bits.state == reference.state
        assert np.array_equal(np.random.Generator(bits).random(5), np.random.Generator(reference).random(5))


def test_sample_paths_takes_numpy_integer_seeds(two_state_kernel, mu_dirac0):
    seeds = [np.uint64(2**64 - 1), np.int64(5), np.int8(3), 2**63]
    paths = sample_paths(two_state_kernel, mu_dirac0, 40, seeds)
    for row, seed in zip(paths, seeds):
        assert np.array_equal(row, simulate(two_state_kernel, mu_dirac0, 40, int(seed)))


@pytest.mark.parametrize("bad", [1.5, 1.0, True, np.True_, 2**64, 2**64 + 1, -1, np.int64(-1), "1", None])
def test_sample_paths_refuses_a_seed_outside_uint64_before_any_work(monkeypatch, two_state_kernel, mu_dirac0, bad):
    # a float, a bool or an out-of-range integer would alias some other seed's stream;
    # refused before the hash and before the (n, rows) store of 10 MB exists
    monkeypatch.setattr(markov, "_seed_sequence_words", lambda *a: pytest.fail("a seed was hashed"))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="seed .* is not an integer in"):
            sample_paths(two_state_kernel, mu_dirac0, 5 * 10**6, [7, bad])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
