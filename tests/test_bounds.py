import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import c_nm_squared_rational, geometric_partial_sums
from ustatmc import (
    ConfigError,
    Distribution,
    DomainError,
    ErgodicityProfile,
    ExperimentConfig,
    ExplicitRho,
    FiniteKernel,
    NotCanonical,
    PNotPositive,
    SymmetricKernelFn,
    Unbounded,
    b_q,
    bound_requests,
    certify_rho,
    c_nm,
    corollary2_bound,
    corollary3_bound,
    d_constant,
    evaluate_bounds,
    exact_l2,
    geometric_sum_bound,
    hoeffding_project,
    lemma6_constant,
    m_sup,
    theorem1_bound,
)
from ustatmc.bounds import _inputs_hasher

GEO_HALF = ErgodicityProfile(np.ones(2), ExplicitRho(np.array([1.0]), 0.5))
ZERO_RHO = ErgodicityProfile(np.ones(2), ExplicitRho(np.zeros(8), 0.0), provenance="declared", declared_m=1.0)


def test_m_sup_stationary_start(two_state_kernel):
    v = np.array([1.0, 2.0])
    profile = certify_rho(two_state_kernel, v, k_max=80)
    pi = two_state_kernel.stationary()
    assert m_sup(pi, profile, two_state_kernel) == pytest.approx(pi.expect(v), abs=1e-12)


def test_m_sup_constant_v(two_state_kernel, two_state_profile, mu_dirac0):
    assert m_sup(mu_dirac0, two_state_profile, two_state_kernel) == pytest.approx(1.0, abs=1e-12)


def test_m_sup_matches_direct_iteration(two_state_kernel, mu_dirac0):
    v = np.array([1.0, 2.0])
    profile = certify_rho(two_state_kernel, v, k_max=220)
    # brute force over k <= 200; limit pi(V) = 1.6
    w = mu_dirac0.weights.copy()
    best = float(w @ v)
    for _ in range(200):
        w = w @ two_state_kernel.matrix
        best = max(best, float(w @ v))
    got = m_sup(mu_dirac0, profile, two_state_kernel)
    assert got == pytest.approx(best, abs=1e-9)
    assert got >= 1.6 - 1e-12


@st.composite
def chains_weights_and_starts(draw):
    """Strictly positive rows, V = 1 or V >= 1 on a log scale up to 1e6, and
    a Dirac or a random initial law."""
    s = draw(st.integers(2, 7))
    entries = st.lists(st.floats(0.01, 1.0), min_size=s, max_size=s)
    matrix = np.array([draw(entries) for _ in range(s)])
    matrix /= matrix.sum(axis=1, keepdims=True)
    v = np.ones(s)
    if draw(st.booleans()):
        v = 10.0 ** np.array(draw(st.lists(st.floats(0.0, 6.0), min_size=s, max_size=s)))
    if draw(st.booleans()):
        mu = Distribution.dirac(draw(st.integers(0, s - 1)), s)
    else:
        mu = Distribution.normalized(draw(st.lists(st.floats(0.01, 1.0), min_size=s, max_size=s)))
    return FiniteKernel(np.arange(float(s)), matrix), v, mu


@settings(max_examples=100, deadline=None)
@given(chains_weights_and_starts())
def test_m_sup_ignores_rho_and_matches_brute_force(case):
    kernel, v, mu = case
    got = m_sup(mu, certify_rho(kernel, v, 3), kernel)
    assert got == m_sup(mu, certify_rho(kernel, v, 40), kernel)
    w, best = mu.weights, mu.expect(v)
    for _ in range(2000):
        w = w @ kernel.matrix
        best = max(best, float(w @ v))
    assert abs(got - best) <= 1e-9 * kernel.stationary().expect(v)


def test_m_sup_declared_profile():
    declared = ErgodicityProfile(np.ones(3), ExplicitRho(np.array([2.0]), 0.9), provenance="declared", declared_m=4.5)
    assert m_sup(Distribution.uniform(3), declared, None) == 4.5
    missing = ErgodicityProfile(np.ones(3), ExplicitRho(np.array([2.0]), 0.9), provenance="declared")
    with pytest.raises(Unbounded):
        m_sup(Distribution.uniform(3), missing, None)


def test_c_nm_hand_value():
    # n = 1, m = 1, rho = 2^-k: C = 2^{3/2} sqrt(2) sqrt(1 + 2/2) = 4 sqrt(2)
    assert c_nm(1, 1, GEO_HALF) == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)


def test_c_nm_zero_mixing():
    assert c_nm(5, 2, ZERO_RHO) == 0.0


def test_c_nm_m1_binomial_identity():
    # n^m / binom(n, m) = 1 for m = 1
    for n in (1, 4, 9):
        s = sum((k + 1) * 0.5**k for k in range(n + 1))
        expected = 2.0**1.5 * math.sqrt(2.0) * math.sqrt(s)
        assert c_nm(n, 1, GEO_HALF) == pytest.approx(expected, rel=1e-12)


def test_c_nm_exact_rational_cross_check(two_state_profile):
    # certified rho of the two-state chain is exactly 0.5^k, a dyadic rational
    for n, m in [(6, 2), (12, 2), (9, 3), (20, 4), (30, 6)]:
        fracs = [Fraction(1, 2) ** k for k in range(n + 1)]
        exact_sq = c_nm_squared_rational(n, m, fracs)
        got = c_nm(n, m, two_state_profile)
        assert got == pytest.approx(math.sqrt(float(exact_sq)), rel=1e-10)


def test_c_nm_monotone_in_each_rho_value():
    base = np.array([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125])
    ref = c_nm(5, 2, ErgodicityProfile(np.ones(2), ExplicitRho(base, 0.0), "declared", 1.0))
    for k in range(6):
        bumped = base.copy()
        bumped[k:] = np.maximum(bumped[k:], bumped[k] * 1.05)  # keep non-increasing
        prof = ErgodicityProfile(np.ones(2), ExplicitRho(bumped, 0.0), "declared", 1.0)
        assert c_nm(5, 2, prof) >= ref


def _m_value(two_state_kernel, two_state_profile, mu_dirac0):
    return m_sup(mu_dirac0, two_state_profile, two_state_kernel)


def test_theorem1_zero_cases(two_state_kernel, two_state_profile, mu_dirac0):
    m_val = _m_value(two_state_kernel, two_state_profile, mu_dirac0)
    assert theorem1_bound(100, 2, two_state_profile, m_val, 0.0, 2) == 0.0
    assert theorem1_bound(10, 2, ZERO_RHO, m_sup(Distribution.uniform(2), ZERO_RHO, None), 3.0, 2) == 0.0


def test_theorem1_requires_canonical(two_state_kernel, two_state_profile, mu_dirac0):
    with pytest.raises(NotCanonical):
        theorem1_bound(100, 2, two_state_profile, _m_value(two_state_kernel, two_state_profile, mu_dirac0), 1.44, 1)


def test_theorem1_log_space_cross_check(two_state_kernel, two_state_profile, mu_dirac0):
    m_val = _m_value(two_state_kernel, two_state_profile, mu_dirac0)
    got = theorem1_bound(100, 2, two_state_profile, m_val, 1.44, 2)
    fracs = [Fraction(1, 2) ** k for k in range(101)]
    c_exact = math.sqrt(float(c_nm_squared_rational(100, 2, fracs)))
    assert got == pytest.approx(c_exact * math.sqrt(m_val) * 1.44 / 100.0, rel=1e-10)


def test_corollary2_collapses_to_theorem1(two_state_kernel, two_state_profile, mu_dirac0):
    args = (100, 2, two_state_profile, _m_value(two_state_kernel, two_state_profile, mu_dirac0), 1.44, 2)
    assert corollary2_bound(*args) == pytest.approx(4.0 * theorem1_bound(*args), rel=1e-12)


def test_corollary2_term_by_term(two_state_kernel, two_state_profile, mu_dirac0):
    m_val = _m_value(two_state_kernel, two_state_profile, mu_dirac0)
    expected = math.sqrt(m_val) * 3.0 * sum(
        math.comb(2, c) * 2.0**c * c_nm(100, c, two_state_profile) * 100.0 ** (-c / 2.0)
        for c in (1, 2)
    )
    assert corollary2_bound(100, 2, two_state_profile, m_val, 3.0, 1) == pytest.approx(expected, rel=1e-12)
    assert corollary2_bound(100, 2, two_state_profile, m_val, 0.0, 1) == 0.0


def test_corollary2_empty_sum_when_all_projections_vanish(two_state_kernel, two_state_profile, mu_dirac0):
    m_val = _m_value(two_state_kernel, two_state_profile, mu_dirac0)
    assert corollary2_bound(100, 2, two_state_profile, m_val, 1.44, 3) == 0.0


def test_b_q_trivial_cases(two_state_profile):
    ones = SymmetricKernelFn(np.ones((2, 2)))
    assert b_q(ones, two_state_profile, q=2.0) == pytest.approx(0.5, abs=1e-14)
    zeros = SymmetricKernelFn(np.zeros((2, 2)))
    assert b_q(zeros, two_state_profile, q=4.0) == 0.0


def test_b_q_matches_brute_force():
    rng = np.random.default_rng(44)
    table = rng.standard_normal((3, 3))
    table = (table + table.T) / 2
    v = 1.0 + rng.random(3) * 3.0
    profile = ErgodicityProfile(v, ExplicitRho(np.array([1.0]), 0.5), "declared", 1.0)
    q = 4.0
    best = max(
        abs(table[i, j]) / (v[i] ** (1 / q) + v[j] ** (1 / q))
        for i in range(3)
        for j in range(3)
    )
    assert b_q(SymmetricKernelFn(table), profile, q) == pytest.approx(best, rel=1e-12)


def test_d_constant_p1_hand_value():
    # bracket at p = 1 is [1 + 1] = 2
    assert d_constant(1.0, 4.0, 0.5) == pytest.approx(2.0**0.75 * math.sqrt(2.0) * 2.0 * 0.5, rel=1e-12)
    with pytest.raises(PNotPositive):
        d_constant(0.0, 1.0, 1.0)


def test_lemma6_constant_continuity():
    grid = np.linspace(0.05, 4.0, 400)
    vals = np.array([lemma6_constant(p) for p in grid])
    assert np.all(np.isfinite(vals))
    assert np.abs(np.diff(vals)).max() < 0.25  # no branch jumps


def test_corollary3_zero_and_guards(two_state_kernel, two_state_profile, mu_dirac0, canonical_product_h):
    m_val = _m_value(two_state_kernel, two_state_profile, mu_dirac0)
    zero_bq = b_q(SymmetricKernelFn(np.zeros((2, 2))), two_state_profile, 4.0)
    assert corollary3_bound(100, 2, two_state_profile, m_val, zero_bq, 1.0, 2) == 0.0
    bq = b_q(canonical_product_h, two_state_profile, 4.0)
    for p in (0.0, -1.0):
        with pytest.raises(PNotPositive):
            corollary3_bound(100, 2, two_state_profile, m_val, bq, p, 2)
    with pytest.raises(NotCanonical):
        corollary3_bound(100, 2, two_state_profile, m_val, bq, 1.0, 1)


def test_corollary3_formula_cross_check(two_state_kernel, two_state_profile, mu_dirac0, canonical_product_h):
    p = 1.0
    m_val = _m_value(two_state_kernel, two_state_profile, mu_dirac0)
    bq = b_q(canonical_product_h, two_state_profile, 2 * (p + 1))
    got = corollary3_bound(100, 2, two_state_profile, m_val, bq, p, 2)
    mix = sum((k + 1) ** 2 * two_state_profile.rho_at(k) ** 0.5 for k in range(101))
    expected = (
        2.0 * 2 * math.sqrt(24.0) * d_constant(p, m_val, bq) * math.sqrt(mix) * 100.0 / math.comb(100, 2)
    )
    assert got == pytest.approx(expected, rel=1e-10)


def test_geometric_sum_bound_dominates_partial_sums():
    for m in (1, 2, 3):
        for varrho in (0.2, 0.5, 0.8, 0.9, math.exp(-m)):
            bound = geometric_sum_bound(varrho, m)
            sums = geometric_partial_sums(varrho, m, 10_000)
            assert float(sums.max()) <= bound
            assert bound >= 1.0  # n = 0 partial sum


def test_geometric_sum_bound_limit_branch_continuity():
    for m in (1, 2, 3):
        at = geometric_sum_bound(math.exp(-m), m)
        near = geometric_sum_bound(math.exp(-m) * (1 + 1e-7), m)
        assert at == pytest.approx(near, rel=1e-5)


def test_geometric_sum_bound_domain():
    with pytest.raises(DomainError):
        geometric_sum_bound(1.0, 2)
    with pytest.raises(DomainError):
        geometric_sum_bound(0.0, 2)


def test_hand_value_geometric_sum_m1():
    varrho = 0.5
    lam = math.log(2.0)
    expected = (1.0 - lam**2) / ((1.0 + math.log(0.5)) * 0.5 * lam**2)
    assert geometric_sum_bound(0.5, 1) == pytest.approx(expected, rel=1e-12)


def test_bound_inputs_digest_stability(two_state_profile, mu_dirac0):
    # pinned hashes: a bound's inputs hash keeps its bytes across refactors,
    # p is hashed as written (1 and 1.0 differ), and bq/bq_q stay null keys
    hasher = _inputs_hasher(2, two_state_profile, mu_dirac0, 1.44, 2)
    assert hasher(100, None) == hasher(100, None) == "853037f6a613e08d"
    assert _inputs_hasher(2, two_state_profile, mu_dirac0, 2.0, 2)(100, None) == "13f2ae5bca2243ac"
    assert hasher(100, 1.0) == "2b6f67e13dcd6981"
    assert hasher(100, 1) == "ed0075054cfaf7a9"
    assert _inputs_hasher(2, two_state_profile, mu_dirac0, 1.44, 1)(100, None) == "4f153686153f543a"


def test_bound_inputs_hash_is_the_sorted_json_of_every_input(two_state_kernel):
    # the hash of the whole payload encoded at once, on a certified table with many entries
    profile = certify_rho(two_state_kernel, [1.0, 2.5], k_max=300)
    mu = Distribution.normalized([0.3, 0.7])
    for m, sup_h, d in [(2, 1.44, 2), (3, 0.1 + 0.2, 1)]:
        hasher = _inputs_hasher(m, profile, mu, sup_h, d)
        for n, p in [(10, None), (1600, 0.5), (7, 1), (400, 2.0)]:
            payload = {"n": n, "m": m, "profile": profile.to_dict(), "mu": mu.weights.tolist(), "sup_h": sup_h,
                       "bq": None, "bq_q": None, "p": p, "d": d}
            blob = json.dumps(payload, sort_keys=True).encode()
            assert hasher(n, p) == hashlib.sha256(blob).hexdigest()[:16]


def _parsed(bounds, two_state_kernel, two_state_profile, mu_dirac0, canonical_product_h):
    return ExperimentConfig(kernel=two_state_kernel, mu0=mu_dirac0, profile=two_state_profile,
                            h=canonical_product_h, n_grid=[10], replicates=2, master_seed=0, bounds=bounds).bounds


def test_bound_requests_route_and_deduplicate(two_state_kernel, two_state_profile, mu_dirac0, canonical_product_h):
    bounds = [{"name": "theorem1"}, {"name": "corollary3", "p": 1.0}, {"name": "corollary3", "p": 1},
              {"name": "corollary2", "p": 2.0}, {"name": "corollary3", "p": 0.5}]
    requests = _parsed(bounds, two_state_kernel, two_state_profile, mu_dirac0, canonical_product_h)
    assert requests == [
        ("theorem1", None), ("corollary3", 1.0), ("corollary3", 1), ("corollary2", None), ("corollary3", 0.5),
    ]
    assert type(requests[1][1]) is float and type(requests[2][1]) is int  # p is kept as written
    assert bound_requests(requests, d=2, m=2) == [
        ("theorem1", None), ("corollary3", 1.0), ("corollary2", None), ("corollary3", 0.5),
    ]
    assert bound_requests(requests, d=1, m=2) == [("corollary2", None)]
    assert bound_requests(requests, d=3, m=2) == bound_requests(requests, d=2, m=2)


@pytest.mark.parametrize("bad", [
    {"name": "theorem9"}, {"p": 1.0}, "theorem1", {"name": "corollary3"}, {"name": "corollary3", "p": 0},
    {"name": "corollary3", "p": "1"}, {"name": "theorem1", "p": -1.0}, {"name": "corollary3", "p": True},
    {"name": "corollary3", "p": math.inf}, {"name": "corollary3", "p": math.nan},
])
def test_bound_requests_reject_bad_requests(two_state_kernel, two_state_profile, mu_dirac0, canonical_product_h,
                                            bad):
    with pytest.raises(ConfigError):
        _parsed([{"name": "corollary2"}, bad], two_state_kernel, two_state_profile, mu_dirac0, canonical_product_h)


def test_evaluate_bounds_matches_the_bound_functions(two_state_kernel, two_state_profile, mu_dirac0,
                                                      canonical_product_h):
    requests = [("theorem1", None), ("corollary2", None), ("corollary3", 1.0)]
    d, got = evaluate_bounds(requests, [30, 60], canonical_product_h, two_state_profile, mu_dirac0,
                             two_state_kernel)
    assert d == 2
    m_val = _m_value(two_state_kernel, two_state_profile, mu_dirac0)
    sup_h = canonical_product_h.sup_norm()
    bq = b_q(canonical_product_h, two_state_profile, 4.0)
    args = (2, two_state_profile, m_val)
    inputs_hash = _inputs_hasher(2, two_state_profile, mu_dirac0, sup_h, 2)
    assert got == {
        n: [
            ("u", "theorem1", theorem1_bound(n, *args, sup_h, 2), inputs_hash(n, None)),
            ("u_centered", "corollary2", corollary2_bound(n, *args, sup_h, 2), inputs_hash(n, None)),
            ("u", "corollary3[p=1]", corollary3_bound(n, *args, bq, 1.0, 2), inputs_hash(n, 1.0)),
        ]
        for n in (30, 60)
    }


EVERY_BOUND = [("theorem1", None), ("corollary2", None), ("corollary3", 0.5), ("corollary3", 1), ("corollary3", 2)]


@st.composite
def bounded_experiments(draw):
    """A random ergodic chain (lazy, so some mix slowly), V = 1 or a random
    V >= 1, a Dirac or a random initial law, a raw or a canonical kernel,
    and a grid of n <= 10 inside the exact oracle's pair cap."""
    s, m = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jump = rng.random((s, s)) + 0.05
    lazy = draw(st.floats(0.1, 1.0))
    matrix = lazy * jump / jump.sum(axis=1, keepdims=True) + (1.0 - lazy) * np.eye(s)
    kernel = FiniteKernel(np.arange(s, dtype=float), matrix)
    v = np.ones(s) if draw(st.booleans()) else 1.0 + rng.exponential(3.0, s)
    mu = Distribution.dirac(draw(st.integers(0, s - 1)), s) if draw(st.booleans()) else Distribution.normalized(
        rng.random(s) + 0.01)
    h = SymmetricKernelFn(rng.normal(size=(s,) * m)[tuple(np.sort(np.indices((s,) * m), axis=0))])
    if draw(st.booleans()):
        h = hoeffding_project(h, kernel.stationary(), m)
    ns = sorted(draw(st.sets(st.integers(m, 10), min_size=1, max_size=3)))
    return kernel, v, mu, h, ns


@settings(max_examples=300, deadline=None)
@given(bounded_experiments())
def test_every_routed_bound_dominates_the_exact_l2(case):
    # theorem1, corollary2 and corollary3 (p = 0.5, 1, 2), routed as verify-variance routes
    # them, against the exact L2 of the statistic each one bounds
    kernel, v, mu, h, ns = case
    profile = certify_rho(kernel, v, max(ns))
    _, entries = evaluate_bounds(EVERY_BOUND, ns, h, profile, mu, kernel)
    stats = {"u": h, "u_centered": h.shifted(float(hoeffding_project(h, kernel.stationary(), 0).table))}
    for n in ns:
        exact = {name: exact_l2(mu, kernel, stat, n, h.degree) for name, stat in stats.items()}
        for statistic, label, value, _ in entries[n]:
            assert value >= exact[statistic], (
                f"{label} = {value!r} < exact L2 {exact[statistic]!r} of {statistic} at n = {n}: "
                f"P = {kernel.matrix.tolist()}, V = {v.tolist()}, mu = {mu.weights.tolist()}, "
                f"h = {h.table.tolist()}"
            )
