import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import c_nm_squared_rational, geometric_partial_sums
from ustatmc import (
    BoundInputs,
    ConfigError,
    Distribution,
    DomainError,
    ErgodicityProfile,
    ExplicitRho,
    GeometricRho,
    NeedDeclaredEnvelope,
    NotCanonical,
    PNotPositive,
    SymmetricKernelFn,
    Unbounded,
    b_q,
    bound_requests,
    c_nm,
    corollary2_bound,
    corollary3_bound,
    d_constant,
    evaluate_bounds,
    geometric_sum_bound,
    lemma6_constant,
    m_sup,
    table_kernel,
    theorem1_bound,
)

GEO_HALF = ErgodicityProfile(np.ones(2), GeometricRho(1.0, 0.5))
ZERO_RHO = ErgodicityProfile(np.ones(2), ExplicitRho(np.zeros(8), 0.0), provenance="declared", declared_m=1.0)


def test_m_sup_stationary_start(two_state_kernel):
    v = np.array([1.0, 2.0])
    from ustatmc import certify_rho

    profile = certify_rho(two_state_kernel, v, k_max=80)
    pi = two_state_kernel.stationary()
    assert m_sup(pi, profile, two_state_kernel) == pytest.approx(pi.expect(v), abs=1e-12)


def test_m_sup_constant_v(two_state_kernel, two_state_profile, mu_dirac0):
    assert m_sup(mu_dirac0, two_state_profile, two_state_kernel) == pytest.approx(1.0, abs=1e-12)


def test_m_sup_matches_direct_iteration(two_state_kernel, mu_dirac0):
    from ustatmc import certify_rho

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


def test_m_sup_declared_profile():
    declared = ErgodicityProfile(np.ones(3), GeometricRho(2.0, 0.9), provenance="declared", declared_m=4.5)
    assert m_sup(Distribution.uniform(3), declared, None) == 4.5
    missing = ErgodicityProfile(np.ones(3), GeometricRho(2.0, 0.9), provenance="declared")
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


def _inputs(two_state_kernel, profile, mu, **kw):
    defaults = dict(n=100, m=2, profile=profile, mu=mu, kernel=two_state_kernel, sup_h=1.44, d=2)
    defaults.update(kw)
    return BoundInputs(**defaults)


def test_theorem1_zero_cases(two_state_kernel, two_state_profile, mu_dirac0):
    assert theorem1_bound(_inputs(two_state_kernel, two_state_profile, mu_dirac0, sup_h=0.0)) == 0.0
    inputs = BoundInputs(n=10, m=2, profile=ZERO_RHO, mu=Distribution.uniform(2), sup_h=3.0, d=2)
    assert theorem1_bound(inputs) == 0.0


def test_theorem1_requires_canonical(two_state_kernel, two_state_profile, mu_dirac0):
    with pytest.raises(NotCanonical):
        theorem1_bound(_inputs(two_state_kernel, two_state_profile, mu_dirac0, d=1))


def test_theorem1_log_space_cross_check(two_state_kernel, two_state_profile, mu_dirac0):
    inputs = _inputs(two_state_kernel, two_state_profile, mu_dirac0)
    got = theorem1_bound(inputs)
    fracs = [Fraction(1, 2) ** k for k in range(101)]
    c_exact = math.sqrt(float(c_nm_squared_rational(100, 2, fracs)))
    m_val = m_sup(mu_dirac0, two_state_profile, two_state_kernel)
    assert got == pytest.approx(c_exact * math.sqrt(m_val) * 1.44 / 100.0, rel=1e-10)


def test_corollary2_collapses_to_theorem1(two_state_kernel, two_state_profile, mu_dirac0):
    inputs = _inputs(two_state_kernel, two_state_profile, mu_dirac0, d=2)
    assert corollary2_bound(inputs) == pytest.approx(4.0 * theorem1_bound(inputs), rel=1e-12)


def test_corollary2_term_by_term(two_state_kernel, two_state_profile, mu_dirac0):
    inputs = _inputs(two_state_kernel, two_state_profile, mu_dirac0, d=1, sup_h=3.0)
    m_val = m_sup(mu_dirac0, two_state_profile, two_state_kernel)
    expected = math.sqrt(m_val) * 3.0 * sum(
        math.comb(2, c) * 2.0**c * c_nm(100, c, two_state_profile) * 100.0 ** (-c / 2.0)
        for c in (1, 2)
    )
    assert corollary2_bound(inputs) == pytest.approx(expected, rel=1e-12)
    assert corollary2_bound(_inputs(two_state_kernel, two_state_profile, mu_dirac0, sup_h=0.0, d=1)) == 0.0


def test_corollary2_empty_sum_when_all_projections_vanish(two_state_kernel, two_state_profile, mu_dirac0):
    inputs = _inputs(two_state_kernel, two_state_profile, mu_dirac0, d=3)
    assert corollary2_bound(inputs) == 0.0


def test_b_q_trivial_cases(two_state_profile):
    ones = table_kernel(np.ones((2, 2)))
    assert b_q(ones, two_state_profile, q=2.0) == pytest.approx(0.5, abs=1e-14)
    zeros = table_kernel(np.zeros((2, 2)))
    assert b_q(zeros, two_state_profile, q=4.0) == 0.0


def test_b_q_matches_brute_force():
    rng = np.random.default_rng(44)
    table = rng.standard_normal((3, 3))
    table = (table + table.T) / 2
    v = 1.0 + rng.random(3) * 3.0
    profile = ErgodicityProfile(v, GeometricRho(1.0, 0.5), "declared", 1.0)
    q = 4.0
    best = max(
        abs(table[i, j]) / (v[i] ** (1 / q) + v[j] ** (1 / q))
        for i in range(3)
        for j in range(3)
    )
    assert b_q(table_kernel(table), profile, q) == pytest.approx(best, rel=1e-12)


def test_b_q_needs_envelope_without_table(two_state_profile):
    h = SymmetricKernelFn(2, fn=lambda x, y: x * y)
    with pytest.raises(NeedDeclaredEnvelope):
        b_q(h, two_state_profile, q=4.0)
    h_decl = SymmetricKernelFn(2, fn=lambda x, y: x * y, declared_bq={4.0: 2.5})
    assert b_q(h_decl, two_state_profile, q=4.0) == 2.5


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
    zero_h = table_kernel(np.zeros((2, 2)))
    inputs = _inputs(two_state_kernel, two_state_profile, mu_dirac0, p=1.0)
    assert corollary3_bound(inputs, zero_h) == 0.0
    with pytest.raises(PNotPositive):
        corollary3_bound(_inputs(two_state_kernel, two_state_profile, mu_dirac0), canonical_product_h)
    with pytest.raises(NotCanonical):
        corollary3_bound(_inputs(two_state_kernel, two_state_profile, mu_dirac0, p=1.0, d=1), canonical_product_h)


def test_corollary3_formula_cross_check(two_state_kernel, two_state_profile, mu_dirac0, canonical_product_h):
    p = 1.0
    inputs = _inputs(two_state_kernel, two_state_profile, mu_dirac0, p=p)
    got = corollary3_bound(inputs, canonical_product_h)
    m_val = m_sup(mu_dirac0, two_state_profile, two_state_kernel)
    bq = b_q(canonical_product_h, two_state_profile, 2 * (p + 1))
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


def test_bound_inputs_digest_stability(two_state_kernel, two_state_profile, mu_dirac0):
    a = _inputs(two_state_kernel, two_state_profile, mu_dirac0)
    b = _inputs(two_state_kernel, two_state_profile, mu_dirac0)
    assert a.digest() == b.digest()
    c = _inputs(two_state_kernel, two_state_profile, mu_dirac0, sup_h=2.0)
    assert a.digest() != c.digest()


def test_bound_requests_route_and_deduplicate():
    bounds = [{"name": "theorem1"}, {"name": "corollary3", "p": 1.0}, {"name": "corollary3", "p": 1},
              {"name": "corollary2", "p": 2.0}, {"name": "corollary3", "p": 0.5}]
    assert bound_requests(bounds, d=2, m=2) == [
        ("theorem1", None), ("corollary3", 1.0), ("corollary2", None), ("corollary3", 0.5),
    ]
    assert bound_requests(bounds, d=1, m=2) == [("corollary2", None)]
    assert bound_requests(bounds, d=3, m=2) == bound_requests(bounds, d=2, m=2)


@pytest.mark.parametrize("bad", [
    {"name": "theorem9"}, {"p": 1.0}, "theorem1", {"name": "corollary3"}, {"name": "corollary3", "p": 0},
    {"name": "corollary3", "p": "1"}, {"name": "theorem1", "p": -1.0},
])
def test_bound_requests_reject_bad_requests(bad):
    with pytest.raises(ConfigError):
        bound_requests([{"name": "corollary2"}, bad], d=1, m=2)


def test_evaluate_bounds_matches_the_bound_functions(two_state_kernel, two_state_profile, mu_dirac0,
                                                      canonical_product_h):
    requests = [("theorem1", None), ("corollary2", None), ("corollary3", 1.0)]
    got = evaluate_bounds(requests, 30, canonical_product_h, two_state_profile, mu_dirac0, two_state_kernel, d=2)
    inputs = {p: _inputs(two_state_kernel, two_state_profile, mu_dirac0, n=30, p=p, d=2,
                         sup_h=canonical_product_h.sup_norm()) for p in (None, 1.0)}
    assert got == [
        ("u", "theorem1", theorem1_bound(inputs[None]), inputs[None].digest()),
        ("u_centered", "corollary2", corollary2_bound(inputs[None]), inputs[None].digest()),
        ("u", "corollary3[p=1]", corollary3_bound(inputs[1.0], canonical_product_h), inputs[1.0].digest()),
    ]
