import itertools
import math

import numpy as np
import pytest

from oracles import naive_joint_law
from ustatmc import (
    Distribution,
    FiniteKernel,
    NotCanonical,
    OrderedTuple,
    PNotPositive,
    certify_rho,
    count_tuples,
    counting_bound,
    evolve,
    f_sigma_expectation,
    j_indices,
    joint_law,
    jstar_histogram,
    proposition_grid_check,
    random_canonical_kernel,
    random_ergodic_kernel,
    sample_paths,
    table_kernel,
    tilde_law,
    verify_lemma6,
    verify_prop5,
    verify_prop7,
)


def test_j_indices_worked_examples():
    assert j_indices(OrderedTuple((1, 1, 1, 1))) == ([0, 0], 0, 1)
    assert j_indices(OrderedTuple((2, 5, 6, 9))) == ([1, 1], 1, 1)
    assert j_indices(OrderedTuple((1, 2, 8, 9))) == ([0, 1], 1, 2)


def test_ordered_tuple_validation():
    with pytest.raises(ValueError):
        OrderedTuple((3, 2, 4, 5))
    with pytest.raises(ValueError):
        OrderedTuple((0, 1, 2, 3))
    with pytest.raises(ValueError):
        OrderedTuple((1, 2, 3))


def test_joint_law_matches_naive_oracle(two_state_kernel):
    rng = np.random.default_rng(3)
    mu = Distribution.normalized(rng.random(2) + 0.1)
    for ks in [(0,), (2,), (0, 1, 4), (1, 1, 3, 3), (2, 5, 6, 9)]:
        got = joint_law(mu, two_state_kernel, ks).tensor
        expected = naive_joint_law(mu.weights, two_state_kernel.matrix, ks)
        assert np.abs(got - expected).max() <= 1e-13


def test_joint_law_arity_one_is_evolve(two_state_kernel):
    mu = Distribution.normalized([0.3, 0.7])
    for k in (0, 1, 6):
        assert np.allclose(
            joint_law(mu, two_state_kernel, (k,)).tensor,
            evolve(mu, two_state_kernel, k).weights,
            atol=1e-14,
        )


def test_joint_law_repeated_index_fully_correlated(two_state_kernel):
    mu = Distribution.dirac(0, 2)
    law = joint_law(mu, two_state_kernel, (3, 3)).tensor
    assert np.abs(law - np.diag(np.diag(law))).max() == 0.0
    assert np.allclose(np.diag(law), evolve(mu, two_state_kernel, 3).weights)


def test_joint_law_marginalization_consistency():
    rng = np.random.default_rng(8)
    kernel = random_ergodic_kernel(3, rng)
    mu = Distribution.normalized(rng.random(3) + 0.1)
    full = joint_law(mu, kernel, (1, 2, 5, 7))
    prefix = joint_law(mu, kernel, (1, 2, 5))
    assert np.abs(full.tensor.sum(axis=-1) - prefix.tensor).max() <= 1e-12


def test_joint_law_monte_carlo_cross_check(two_state_kernel):
    mu = Distribution.normalized([0.3, 0.7])
    ks = (1, 3, 6)
    law = joint_law(mu, two_state_kernel, ks)
    f = np.cos(np.arange(8, dtype=float)).reshape(2, 2, 2)
    exact = law.expect(f)
    paths = sample_paths(two_state_kernel, mu, 7, [7000 + r for r in range(40_000)])
    sample = f[paths[:, ks[0]], paths[:, ks[1]], paths[:, ks[2]]]
    se = float(sample.std(ddof=1)) / math.sqrt(sample.size)
    assert abs(float(sample.mean()) - exact) <= 4.0 * se


def test_tilde_law_first_branch_marginal_is_pi(two_state_kernel):
    mu = Distribution.dirac(0, 2)
    pi = two_state_kernel.stationary()
    tup = OrderedTuple((2, 5, 6, 9))  # ell* = 1
    tilted = tilde_law(mu, two_state_kernel, pi, tup)
    first = tilted.tensor.sum(axis=(1, 2, 3))
    assert np.abs(first - pi.weights).max() <= 1e-13
    # the replaced coordinate is independent of the rest: exact product form
    rest = tilted.tensor.sum(axis=0)
    assert np.abs(tilted.tensor - np.multiply.outer(pi.weights, rest)).max() <= 1e-14


def test_tilde_law_second_branch_structure(two_state_kernel):
    mu = Distribution.dirac(0, 2)
    pi = two_state_kernel.stationary()
    tup = OrderedTuple((1, 2, 8, 9))  # ell* = 2: replace coordinate 3
    tilted = tilde_law(mu, two_state_kernel, pi, tup)
    third = tilted.tensor.sum(axis=(0, 1, 3))
    assert np.abs(third - pi.weights).max() <= 1e-13
    left = joint_law(mu, two_state_kernel, (1, 2)).tensor
    right = joint_law(mu, two_state_kernel, (9,)).tensor
    expected = np.multiply.outer(np.multiply.outer(left, pi.weights), right)
    assert np.abs(tilted.tensor - expected).max() <= 1e-14


def test_tilde_law_m1_hand_tensor(two_state_kernel):
    mu = Distribution.normalized([0.25, 0.75])
    pi = two_state_kernel.stationary()
    tup = OrderedTuple((2, 7))
    tilted = tilde_law(mu, two_state_kernel, pi, tup)
    hand = np.multiply.outer(pi.weights, evolve(mu, two_state_kernel, 7).weights)
    assert np.abs(tilted.tensor - hand).max() <= 1e-14


def test_f_sigma_identity_constant_kernel(two_state_kernel):
    mu = Distribution.dirac(0, 2)
    law = joint_law(mu, two_state_kernel, (1, 2, 3, 4))
    ones = table_kernel(np.ones((2, 2)))
    assert f_sigma_expectation(law, ones, (0, 1, 2, 3)) == pytest.approx(1.0, abs=1e-12)


def test_f_sigma_vanishes_under_tilde_for_canonical():
    rng = np.random.default_rng(10)
    kernel = random_ergodic_kernel(3, rng)
    pi = kernel.stationary()
    mu = Distribution.normalized(rng.random(3) + 0.1)
    h = random_canonical_kernel(kernel, 2, rng)
    for tup in [OrderedTuple(t) for t in [(1, 1, 2, 2), (1, 3, 3, 7), (2, 4, 6, 8)]]:
        tilted = tilde_law(mu, kernel, pi, tup)
        for sigma in itertools.permutations(range(4)):
            assert abs(f_sigma_expectation(tilted, h, sigma)) <= 1e-12


def test_f_sigma_monte_carlo_cross_check(two_state_kernel):
    rng = np.random.default_rng(123)
    mu = Distribution.normalized([0.6, 0.4])
    raw = rng.standard_normal((2, 2))
    h = table_kernel((raw + raw.T) / 2, two_state_kernel.states)
    tup = OrderedTuple((1, 2, 4, 6))
    sigma = (2, 0, 3, 1)
    exact = f_sigma_expectation(joint_law(mu, two_state_kernel, tup.indices), h, sigma)
    paths = sample_paths(two_state_kernel, mu, 7, [31_000 + r for r in range(40_000)])
    y = paths[:, list(tup.indices)]
    vals = h.table[y[:, sigma[0]], y[:, sigma[1]]] * h.table[y[:, sigma[2]], y[:, sigma[3]]]
    se = float(vals.std(ddof=1)) / math.sqrt(vals.size)
    assert abs(float(vals.mean()) - exact) <= 4.0 * se + 1e-12


def test_prop5_identical_rows_tilde_is_exact_beyond_one_step():
    row = [0.4, 0.35, 0.25]
    kernel = FiniteKernel([-1.0, 0.0, 1.0], [row, row, row])
    profile = certify_rho(kernel, np.ones(3), k_max=10)
    mu = Distribution.dirac(2, 3)
    for combo in itertools.combinations_with_replacement(range(1, 6), 4):
        tup = OrderedTuple(combo)
        _, j_star, _ = j_indices(tup)
        tv, bound = verify_prop5(mu, kernel, profile, tup)
        assert tv <= bound + 1e-15
        if j_star >= 1:
            assert bound == 0.0
            assert tv <= 1e-13


def test_prop5_trivial_bound_at_j_zero(two_state_kernel, two_state_profile):
    mu = Distribution.dirac(0, 2)
    tup = OrderedTuple((1, 1, 1, 1))
    tv, bound = verify_prop5(mu, two_state_kernel, two_state_profile, tup)
    assert bound >= 2.0  # 4 * rho(0) * M >= 4 * 1/2 * 1
    assert tv <= bound


def test_prop5_exhaustive_small_grid():
    rng = np.random.default_rng(14)
    kernel = random_ergodic_kernel(3, rng)
    profile = certify_rho(kernel, np.ones(3), k_max=10)
    mu = Distribution.normalized(rng.random(3) + 0.1)
    for combo in itertools.combinations_with_replacement(range(1, 9), 4):
        tv, bound = verify_prop5(mu, kernel, profile, OrderedTuple(combo))
        assert tv <= bound


def test_lemma6_trivial_cases():
    xi = Distribution.normalized([0.2, 0.3, 0.5])
    lhs, rhs = verify_lemma6(xi, xi, [1.0, -2.0, 3.0], p=1.0)
    assert lhs == 0.0 and rhs >= 0.0
    other = Distribution.normalized([0.5, 0.25, 0.25])
    lhs, rhs = verify_lemma6(xi, other, [4.0, 4.0, 4.0], p=0.5)
    assert lhs <= 1e-14
    with pytest.raises(PNotPositive):
        verify_lemma6(xi, other, [1.0, 0.0, 0.0], p=0.0)


def test_lemma6_randomized_instances():
    rng = np.random.default_rng(99)
    for _ in range(300):
        xi = Distribution.normalized(rng.random(10) + 1e-4)
        xi_p = Distribution.normalized(rng.random(10) + 1e-4)
        f = rng.standard_normal(10) * rng.uniform(0.1, 20.0)
        p = float(rng.choice([0.5, 1.0, 2.0]))
        lhs, rhs = verify_lemma6(xi, xi_p, f, p)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_lemma6_vanishing_tv_rate():
    # rhs scales like TV^{p/(p+1)} as xi' -> xi with bounded f
    base = np.array([0.3, 0.4, 0.3])
    f = np.array([1.0, -0.5, 2.0])
    p = 1.0
    rhss = []
    epss = [1e-2, 1e-4, 1e-6]
    for eps in epss:
        shift = np.array([eps, -eps, 0.0])
        lhs, rhs = verify_lemma6(Distribution(base), Distribution(base + shift), f, p)
        assert lhs <= rhs
        rhss.append(rhs)
    slope = np.polyfit(np.log(epss), np.log(rhss), 1)[0]
    assert slope == pytest.approx(p / (p + 1.0), abs=0.05)


def test_prop7_bounds_hold_on_ladder(two_state_kernel, two_state_profile, canonical_product_h):
    mu = Distribution.dirac(0, 2)
    prev = None
    for gap in (1, 2, 4, 8, 16):
        tup = OrderedTuple((gap, 2 * gap, 3 * gap, 4 * gap))
        lhs, bound1, bound2 = verify_prop7(
            mu, two_state_kernel, two_state_profile, canonical_product_h, tup, (0, 1, 2, 3), p=1.0
        )
        assert lhs <= bound1
        assert lhs <= bound2
        prev = lhs
    assert prev <= 1e-6  # large gaps drive the cross moment to zero


def test_prop7_zero_kernel(two_state_kernel, two_state_profile):
    mu = Distribution.dirac(0, 2)
    zero = table_kernel(np.zeros((2, 2)))
    lhs, bound1, bound2 = verify_prop7(
        mu, two_state_kernel, two_state_profile, zero, OrderedTuple((1, 3, 5, 7)), (0, 1, 2, 3)
    )
    assert lhs == 0.0 and bound1 >= 0.0 and bound2 is None


def test_prop7_rejects_non_canonical(two_state_kernel, two_state_profile):
    mu = Distribution.dirac(0, 2)
    h = table_kernel(np.array([[1.0, 0.2], [0.2, 0.9]]), two_state_kernel.states)
    with pytest.raises(NotCanonical):
        verify_prop7(mu, two_state_kernel, two_state_profile, h, OrderedTuple((1, 3, 5, 7)), (0, 1, 2, 3))


def test_count_tuples_examples():
    # gaps cannot exceed n
    assert count_tuples(4, 1, k=5) == 0
    hist = jstar_histogram(4, 1)
    assert sum(hist.values()) == math.comb(4 + 1, 2)  # 10 ordered pairs
    for k, cnt in hist.items():
        assert cnt <= counting_bound(4, 1, k)


def test_count_tuples_stars_and_bars_identity():
    for n in (3, 6, 10):
        for m in (1, 2):
            hist = jstar_histogram(n, m)
            assert sum(hist.values()) == math.comb(n + 2 * m - 1, 2 * m)
            assert all(cnt <= counting_bound(n, m, k) for k, cnt in hist.items())


def test_proposition_grid_check_passes_quickly():
    report = proposition_grid_check(num_chains=1, size=3, m=2, i_max=5, seed=3, lemma6_trials=50, counting_n_max=5)
    assert report["pass"]
    assert report["eq19"]["max_abs_residual"] <= 1e-11
    assert report["prop5"]["instances"] == math.comb(5 + 3, 4)
