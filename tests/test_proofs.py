import itertools
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import f_sigma_expectation, f_sigma_rows, naive_joint_law
from ustatmc import (
    BudgetExceeded,
    Distribution,
    FiniteKernel,
    NotCanonical,
    OrderedTuple,
    PNotPositive,
    SymmetricKernelFn,
    certify_rho,
    counting_bound,
    evolve,
    f_sigma_values,
    j_indices,
    joint_law,
    jstar_histogram,
    proposition_grid_check,
    random_canonical_kernel,
    random_ergodic_kernel,
    sample_paths,
    tilde_law,
    verify_lemma6,
    verify_prop5,
    verify_prop7,
)
from ustatmc import errors, proofs, tv_distance
from ustatmc.bounds import lemma6_constant
from ustatmc.proofs import _ChainTables, _gaps, _prop5_step, _split_column, _splits
from ustatmc.ustats import _multisets


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
        got = joint_law(mu, two_state_kernel, ks)
        expected = naive_joint_law(mu.weights, two_state_kernel.matrix, ks)
        assert np.abs(got - expected).max() <= 1e-13


def test_joint_law_arity_one_is_evolve(two_state_kernel):
    mu = Distribution.normalized([0.3, 0.7])
    for k in (0, 1, 6):
        assert np.allclose(
            joint_law(mu, two_state_kernel, (k,)),
            evolve(mu, two_state_kernel, k).weights,
            atol=1e-14,
        )


def test_a_law_at_a_late_time_keeps_only_the_powers_it_reads():
    # a stack of every P^k, k <= 20000, traced 41 MB to return these 10 cells
    rng = np.random.default_rng(4)
    kernel = random_ergodic_kernel(10, rng)
    mu = Distribution.normalized(rng.random(10) + 0.05)
    joint_law(mu, kernel, [3])  # a first call loads what numpy loads once
    tracemalloc.start()
    try:
        law = joint_law(mu, kernel, [20000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    power = kernel.matrix
    for _ in range(19999):
        power = power @ kernel.matrix
    assert law.tobytes() == (mu.weights @ power).tobytes()


def test_joint_law_repeated_index_fully_correlated(two_state_kernel):
    mu = Distribution.dirac(0, 2)
    law = joint_law(mu, two_state_kernel, (3, 3))
    assert np.abs(law - np.diag(np.diag(law))).max() == 0.0
    assert np.allclose(np.diag(law), evolve(mu, two_state_kernel, 3).weights)


def test_joint_law_marginalization_consistency():
    rng = np.random.default_rng(8)
    kernel = random_ergodic_kernel(3, rng)
    mu = Distribution.normalized(rng.random(3) + 0.1)
    full = joint_law(mu, kernel, (1, 2, 5, 7))
    prefix = joint_law(mu, kernel, (1, 2, 5))
    assert np.abs(full.sum(axis=-1) - prefix).max() <= 1e-12


def test_joint_law_monte_carlo_cross_check(two_state_kernel):
    mu = Distribution.normalized([0.3, 0.7])
    ks = (1, 3, 6)
    law = joint_law(mu, two_state_kernel, ks)
    f = np.cos(np.arange(8, dtype=float)).reshape(2, 2, 2)
    exact = float(np.tensordot(law, f, law.ndim))
    paths = sample_paths(two_state_kernel, mu, 7, [7000 + r for r in range(40_000)])
    sample = f[paths[:, ks[0]], paths[:, ks[1]], paths[:, ks[2]]]
    se = float(sample.std(ddof=1)) / math.sqrt(sample.size)
    assert abs(float(sample.mean()) - exact) <= 4.0 * se


def test_tilde_law_first_branch_marginal_is_pi(two_state_kernel):
    mu = Distribution.dirac(0, 2)
    pi = two_state_kernel.stationary()
    tup = OrderedTuple((2, 5, 6, 9))  # ell* = 1
    tilted = tilde_law(mu, two_state_kernel, tup)
    first = tilted.sum(axis=(1, 2, 3))
    assert np.abs(first - pi.weights).max() <= 1e-13
    # the replaced coordinate is independent of the rest: exact product form
    rest = tilted.sum(axis=0)
    assert np.abs(tilted - np.multiply.outer(pi.weights, rest)).max() <= 1e-14


def test_tilde_law_second_branch_structure(two_state_kernel):
    mu = Distribution.dirac(0, 2)
    pi = two_state_kernel.stationary()
    tup = OrderedTuple((1, 2, 8, 9))  # ell* = 2: replace coordinate 3
    tilted = tilde_law(mu, two_state_kernel, tup)
    third = tilted.sum(axis=(0, 1, 3))
    assert np.abs(third - pi.weights).max() <= 1e-13
    left = joint_law(mu, two_state_kernel, (1, 2))
    right = joint_law(mu, two_state_kernel, (9,))
    expected = np.multiply.outer(np.multiply.outer(left, pi.weights), right)
    assert np.abs(tilted - expected).max() <= 1e-14


def test_tilde_law_m1_hand_tensor(two_state_kernel):
    mu = Distribution.normalized([0.25, 0.75])
    pi = two_state_kernel.stationary()
    tup = OrderedTuple((2, 7))
    tilted = tilde_law(mu, two_state_kernel, tup)
    hand = np.multiply.outer(pi.weights, evolve(mu, two_state_kernel, 7).weights)
    assert np.abs(tilted - hand).max() <= 1e-14


@settings(max_examples=40, deadline=None)
@given(size=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       times=st.lists(st.integers(1, 12), min_size=1, max_size=6))
def test_laws_are_probability_tensors_with_the_tilted_structure(size, seed, times):
    rng = np.random.default_rng(seed)
    kernel = random_ergodic_kernel(size, rng)
    mu = Distribution.normalized(rng.random(size) + 0.01)
    ks = tuple(sorted(times))
    law = joint_law(mu, kernel, ks)
    assert np.abs(law - naive_joint_law(mu.weights, kernel.matrix, ks)).max() <= 1e-13
    assert law.min() >= 0.0 and abs(float(law.sum()) - 1.0) <= 1e-12
    if len(ks) > 1:
        assert np.abs(law.sum(axis=-1) - joint_law(mu, kernel, ks[:-1])).max() <= 1e-12

    tup = OrderedTuple(ks + ks[-1:] * (len(ks) % 2))
    tilted = tilde_law(mu, kernel, tup)
    assert tilted.min() >= 0.0 and abs(float(tilted.sum()) - 1.0) <= 1e-12
    q = 2 * j_indices(tup)[2] - 2  # the coordinate i_{2l*-1} drawn from pi
    pi = kernel.stationary().weights
    assert np.abs(tilted.sum(axis=tuple(a for a in range(tilted.ndim) if a != q)) - pi).max() <= 1e-13
    left = tilted.sum(axis=tuple(range(q, tilted.ndim)))
    right = tilted.sum(axis=tuple(range(q + 1)))
    assert np.abs(tilted - np.multiply.outer(np.multiply.outer(left, pi), right)).max() <= 1e-14
    assert np.abs(right - joint_law(mu, kernel, tup.indices[q + 1 :])).max() <= 1e-13
    if q > 0:
        assert np.abs(left - joint_law(mu, kernel, tup.indices[:q])).max() <= 1e-13


def test_f_sigma_identity_constant_kernel(two_state_kernel):
    mu = Distribution.dirac(0, 2)
    law = joint_law(mu, two_state_kernel, (1, 2, 3, 4))
    ones = SymmetricKernelFn(np.ones((2, 2)))
    assert f_sigma_values([law], ones) == pytest.approx(np.ones((1, 3)), abs=1e-12)


def test_f_sigma_vanishes_under_tilde_for_canonical():
    rng = np.random.default_rng(10)
    kernel = random_ergodic_kernel(3, rng)
    mu = Distribution.normalized(rng.random(3) + 0.1)
    h = random_canonical_kernel(kernel, 2, rng)
    for tup in [OrderedTuple(t) for t in [(1, 1, 2, 2), (1, 3, 3, 7), (2, 4, 6, 8)]]:
        values = f_sigma_values([tilde_law(mu, kernel, tup)], h)
        assert values.shape == (1, 3)
        assert np.abs(values).max() <= 1e-12


def test_f_sigma_monte_carlo_cross_check(two_state_kernel):
    rng = np.random.default_rng(123)
    mu = Distribution.normalized([0.6, 0.4])
    raw = rng.standard_normal((2, 2))
    h = SymmetricKernelFn((raw + raw.T) / 2)
    tup = OrderedTuple((1, 2, 4, 6))
    sigma = (2, 0, 3, 1)
    column = _splits(2).index((0, 2, 1, 3))  # sigma splits the positions into {0, 2} and {1, 3}
    exact = f_sigma_values([joint_law(mu, two_state_kernel, tup.indices)], h)[0, column]
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


def test_prop7_takes_every_permutation_through_its_split(two_state_kernel, two_state_profile, canonical_product_h):
    mu = Distribution.normalized([0.6, 0.4])
    tup = OrderedTuple((1, 2, 4, 6))
    law = joint_law(mu, two_state_kernel, tup.indices)
    lhs_of_split = {}
    for sigma in itertools.permutations(range(4)):
        lhs, _, _ = verify_prop7(mu, two_state_kernel, two_state_profile, canonical_product_h, tup, list(sigma))
        split = frozenset((frozenset(sigma[:2]), frozenset(sigma[2:])))
        assert lhs_of_split.setdefault(split, lhs) == lhs
        assert abs(lhs - abs(f_sigma_expectation(law, canonical_product_h, sigma))) <= 1e-12
    assert len(lhs_of_split) == 3


def test_prop7_zero_kernel(two_state_kernel, two_state_profile):
    mu = Distribution.dirac(0, 2)
    zero = SymmetricKernelFn(np.zeros((2, 2)))
    lhs, bound1, bound2 = verify_prop7(
        mu, two_state_kernel, two_state_profile, zero, OrderedTuple((1, 3, 5, 7)), (0, 1, 2, 3)
    )
    assert lhs == 0.0 and bound1 >= 0.0 and bound2 is None


def test_prop7_rejects_non_canonical(two_state_kernel, two_state_profile):
    mu = Distribution.dirac(0, 2)
    h = SymmetricKernelFn(np.array([[1.0, 0.2], [0.2, 0.9]]))
    with pytest.raises(NotCanonical):
        verify_prop7(mu, two_state_kernel, two_state_profile, h, OrderedTuple((1, 3, 5, 7)), (0, 1, 2, 3))


def test_count_tuples_examples():
    # gaps cannot exceed n
    hist = jstar_histogram(4, 1)
    assert 5 not in hist
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
    report = proposition_grid_check(num_chains=1, size=3, m=2, i_max=5, seed=3)
    assert report["pass"]
    assert report["eq19"]["max_abs_residual"] <= 1e-11
    assert report["prop5"]["instances"] == math.comb(5 + 3, 4)


def test_proposition_grid_check_degree_three():
    report = proposition_grid_check(num_chains=1, size=2, m=3, i_max=5, seed=3)
    assert report["pass"]
    assert report["eq19"]["instances"] == report["prop7_bound1"]["instances"] == math.comb(5 + 5, 6) * 720


def test_degree_five_grid_runs_within_its_work_cap():
    # m = 5, S = 2, i_max = 2: 11 tuples x 126 splits of work and a 126 x 2^10 f_sigma split
    # matrix; the 11 x 10! (tuple, sigma) instances are counted, never listed
    report = proposition_grid_check(num_chains=1, size=2, m=5, i_max=2, seed=3)
    assert report["pass"]
    assert report["prop5"]["instances"] == math.comb(2 + 9, 10) == 11
    assert report["eq19"]["instances"] == report["prop7_bound1"]["instances"] == 11 * math.factorial(10)


@pytest.mark.parametrize("grid", [{"m": 6}, {"i_max": 10_000}, {"size": 60}], ids=["m6", "i_max", "size"])
def test_oversized_proposition_grid_is_refused_before_allocating(grid):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            proposition_grid_check(num_chains=1, **grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_f_sigma_split_matrix_is_refused_before_listing_splits(monkeypatch):
    # S = 4, m = 5, i_max = 1: the 4^10 law cells and the 126 splits of work fit the
    # budget, but the f_sigma split matrix, 126 splits x 4^10 cells, is 1.1 GB
    def no_work(*args, **kwargs):
        raise AssertionError("the grid listed its splits before its size was checked")

    monkeypatch.setattr(proofs, "_splits", no_work)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="f_sigma"):
            proposition_grid_check(num_chains=1, size=4, m=5, i_max=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pair_partitions_group_permutations_by_split(m):
    splits = _splits(m)
    assert len(splits) == math.comb(2 * m, m) // 2 == {1: 1, 2: 3, 3: 10, 4: 35}[m]
    # brute force: the permutations grouped by the two halves they split range(2m) into,
    # each group named by its first permutation in itertools order
    first_of_split = {}
    for sigma in itertools.permutations(range(2 * m)):
        split = frozenset((frozenset(sigma[:m]), frozenset(sigma[m:])))
        first = first_of_split.setdefault(split, sigma)
        assert splits[_split_column(m, sigma)] == first
        assert _split_column(m, list(sigma)) == _split_column(m, sigma)
    assert splits == tuple(first_of_split.values())


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from([2, 3]), m=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_split_contraction_matches_every_f_sigma(size, m, seed, data):
    times = data.draw(st.lists(st.integers(1, 8), min_size=2 * m, max_size=2 * m))
    tup = OrderedTuple(tuple(sorted(times)))
    rng = np.random.default_rng(seed)
    kernel = random_ergodic_kernel(size, rng)
    mu = Distribution.normalized(rng.random(size) + 0.05)
    raw = rng.standard_normal((size,) * m)
    h = SymmetricKernelFn(sum(np.transpose(raw, perm) for perm in itertools.permutations(range(m))) / math.factorial(m))
    laws = (joint_law(mu, kernel, tup.indices), tilde_law(mu, kernel, tup))
    values = f_sigma_values(laws, h)
    assert values.shape == (2, math.comb(2 * m, m) // 2)
    tol = 1e-12 * h.sup_norm() ** 2
    for law, row in zip(laws, values):
        for sigma in itertools.permutations(range(2 * m)):
            assert abs(row[_split_column(m, sigma)] - f_sigma_expectation(law, h, sigma)) <= tol


@settings(max_examples=40, deadline=None)
@given(size=st.integers(2, 4), m=st.integers(1, 3), lead=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_split_matrix_matches_the_row_stack_and_the_einsum_oracle(size, m, lead, seed, data):
    # stacks of several sequences of signed tensors, so no sum-to-one cancels an error
    rng = np.random.default_rng(seed)
    laws = rng.standard_normal(tuple(lead) + (size,) * (2 * m))
    raw = rng.standard_normal((size,) * m)
    h = SymmetricKernelFn(sum(np.transpose(raw, perm) for perm in itertools.permutations(range(m))) / math.factorial(m))
    splits = _splits(m)
    values = f_sigma_values(laws, h)
    assert values.shape == tuple(lead) + (len(splits),)
    rows = f_sigma_rows(laws, h, splits)
    sigma = data.draw(st.permutations(range(2 * m)))
    for at in np.ndindex(*lead):
        tol = 1e-12 * np.abs(laws[at]).sum() * h.sup_norm() ** 2
        assert np.abs(values[at] - rows[at]).max() <= tol
        for column, rep in enumerate(splits):
            assert abs(values[at][column] - f_sigma_expectation(laws[at], h, rep)) <= tol
        assert abs(values[at][_split_column(m, sigma)] - f_sigma_expectation(laws[at], h, sigma)) <= tol


@pytest.mark.parametrize("size, m, i_max, seed", [(3, 2, 6, 5), (2, 3, 4, 11), (4, 1, 9, 23)])
def test_verifiers_replay_the_grid_worst_cases_bit_for_bit(size, m, i_max, seed):
    report = proposition_grid_check(num_chains=1, size=size, m=m, i_max=i_max, seed=seed, p_values=(1.0,))
    # the grid's draws for its one chain, in its order
    rng = np.random.default_rng(seed)
    kernel = random_ergodic_kernel(size, rng)
    mu = Distribution.normalized(rng.random(size) + 0.05)
    profile = certify_rho(kernel, np.ones(size), k_max=i_max + 1)
    h = random_canonical_kernel(kernel, m, rng)
    worst = report["prop5"]["worst_case"]
    assert verify_prop5(mu, kernel, profile, OrderedTuple(worst["tuple"])) == (worst["tv"], worst["bound"])
    worst = report["prop7_bound1"]["worst_case"]
    lhs, bound1, _ = verify_prop7(mu, kernel, profile, h, OrderedTuple(worst["tuple"]), worst["sigma"])
    assert (lhs, bound1) == (worst["lhs"], worst["bound"])
    worst = report["prop7_bound2_p1.0"]["worst_case"]
    lhs, _, bound2 = verify_prop7(mu, kernel, profile, h, OrderedTuple(worst["tuple"]), worst["sigma"], p=1.0)
    assert (lhs, bound2) == (worst["lhs"], worst["bound"])


def test_f_sigma_values_rejects_a_law_of_the_wrong_arity(two_state_kernel):
    law = joint_law(Distribution.dirac(0, 2), two_state_kernel, (1, 2, 3))
    # a list of laws is read as the array np.asarray stacks, and held to its shape
    with pytest.raises(ValueError, match=r"laws of shape \(1, 2, 2, 2\) are not tensors over S\^\(2m\), S = 2"):
        f_sigma_values([law], SymmetricKernelFn(np.ones((2, 2))))


@pytest.mark.parametrize("sigma", [(0, 1, 2, 2), (0, 1, 2), (1, 2, 3, 4)])
def test_prop7_rejects_a_sigma_that_is_not_a_permutation(two_state_kernel, two_state_profile, canonical_product_h, sigma):
    mu = Distribution.dirac(0, 2)
    with pytest.raises(ValueError, match="permutation"):
        verify_prop7(mu, two_state_kernel, two_state_profile, canonical_product_h, OrderedTuple((1, 3, 5, 7)), sigma)


def test_grid_reads_p_values_as_distinct_floats():
    grid = {"num_chains": 1, "size": 2, "m": 1, "i_max": 3}
    report = proposition_grid_check(p_values=(1, 1.0), **grid)
    assert [key for key in report if key.startswith("prop7_bound2")] == ["prop7_bound2_p1.0"]
    assert report["prop7_bound2_p1.0"]["instances"] == math.comb(3 + 1, 2) * 2
    assert report == proposition_grid_check(p_values=(1.0,), **grid)


def test_grid_record_keeps_first_worst_case_and_zero_identity():
    from ustatmc.proofs import _Record

    record = _Record("lhs")
    sigmas = [(0, 1), (1, 0), (0, 1)]
    names = lambda t: {"tuple": [t + 1]}  # noqa: E731
    # one block of two tuples, both with excess -0.25: the first maximum in scan order is kept
    record.update(np.array([[0.5, 0.75, 0.75], [0.25, 0.5, 0.5]]), np.array([1.0, 0.75]), names, sigmas)
    record.update(np.array([[0.25, 0.0, 0.0]]), np.array([0.5]), names, sigmas)  # same excess -0.25: not kept
    assert record.report() == {
        "instances": 9, "max_ratio": 0.75, "max_violation": -0.25, "pass": True,
        "worst_case": {"tuple": [1], "sigma": [1, 0], "lhs": 0.75, "bound": 1.0},
    }
    identity = _Record(tolerance=1e-11)
    identity.update(np.zeros((2, 3)), np.zeros(2), names, sigmas)
    assert identity.report() == {
        "instances": 6, "max_abs_residual": 0.0, "worst_case": None, "tolerance": 1e-11, "pass": True,
    }
    # a tuple with a zero bound counts as instances and may be the worst case, but takes no ratio
    zero_bound = _Record("tv")
    with np.errstate(all="raise"):
        zero_bound.update(np.array([[0.5], [0.0]]), np.array([1.0, 0.0]), names)
    assert zero_bound.report() == {
        "instances": 2, "max_ratio": 0.5, "max_violation": 0.0, "pass": True,
        "worst_case": {"tuple": [2], "tv": 0.0, "bound": 0.0},
    }


@settings(max_examples=25, deadline=None)
@given(size=st.integers(2, 4), m=st.integers(1, 3), i_max=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_blocks_match_one_tuple_calls_bit_for_bit_and_the_oracles(size, m, i_max, seed, data):
    rng = np.random.default_rng(seed)
    kernel = random_ergodic_kernel(size, rng)
    mu = Distribution.normalized(rng.random(size) + 0.05)
    h = random_canonical_kernel(kernel, m, rng)
    tuples = _multisets(i_max, 2 * m)[0] + 1
    js, j_star, ell_star = _gaps(tuples)
    laws, tv, _ = _prop5_step(_ChainTables(mu, kernel, tuples), tuples, ell_star, np.zeros(len(tuples)), 1.0)
    values = f_sigma_values(laws, h)
    assert laws.shape == (len(tuples), 2) + (size,) * (2 * m)
    assert values.shape == (len(tuples), 2, math.comb(2 * m, m) // 2)
    for row, times in enumerate(tuples.tolist()):
        tup = OrderedTuple(times)
        assert j_indices(tup) == (js[row].tolist(), j_star[row], ell_star[row])
        law, tilted = joint_law(mu, kernel, times), tilde_law(mu, kernel, tup)
        assert laws[row, 1].tobytes() == law.tobytes() and laws[row, 0].tobytes() == tilted.tobytes()
        assert tv[row] == np.abs(law - tilted).sum()
        assert values[row].tobytes() == f_sigma_values([tilted, law], h).tobytes()

    # one drawn row against the independent oracles
    row = data.draw(st.integers(0, len(tuples) - 1))
    times, q = tuples[row].tolist(), 2 * int(ell_star[row]) - 2
    naive = lambda ks: naive_joint_law(mu.weights, kernel.matrix, ks) if ks else np.ones(())  # noqa: E731
    naive_tilted = np.multiply.outer(np.multiply.outer(naive(times[:q]), kernel.stationary().weights),
                                     naive(times[q + 1 :]))
    assert np.abs(laws[row, 1] - naive(times)).max() <= 1e-12
    assert np.abs(laws[row, 0] - naive_tilted).max() <= 1e-12
    tol = 1e-12 * h.sup_norm() ** 2
    for law, law_values in zip(laws[row], values[row]):
        for sigma in itertools.permutations(range(2 * m)):
            assert abs(law_values[_split_column(m, sigma)] - f_sigma_expectation(law, h, sigma)) <= tol

    # the records take the first maximum, so any block size gives the same report, byte for byte
    grid = {"num_chains": 2, "size": size, "m": m, "i_max": i_max, "seed": seed}
    report = json.dumps(proposition_grid_check(**grid))
    cells = data.draw(st.sampled_from([1, size ** (2 * m), 3 * size ** (2 * m), 2**14]))
    with mock.patch.object(proofs, "_BLOCK_CELLS", cells):
        assert json.dumps(proposition_grid_check(**grid)) == report


def test_batched_lemma6_matches_the_trial_by_trial_check(monkeypatch):
    generators = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: generators.append(default_rng(seed)) or generators[-1])
    report = proposition_grid_check(num_chains=1, size=2, m=1, i_max=2, seed=17)["lemma6"]
    # the grid's draws, in its order: one chain, then the trials
    rng = default_rng(17)
    kernel = random_ergodic_kernel(2, rng)
    rng.random(2)
    random_canonical_kernel(kernel, 1, rng)
    violations, max_ratio = 0, 0.0
    for _ in range(proofs._LEMMA6_TRIALS):
        xi = Distribution.normalized(rng.random(proofs._LEMMA6_POINTS) + 1e-3)
        xi_p = Distribution.normalized(rng.random(proofs._LEMMA6_POINTS) + 1e-3)
        f = rng.standard_normal(proofs._LEMMA6_POINTS) * 10.0
        p = float(rng.choice([0.5, 1.0, 2.0]))
        lhs, rhs = verify_lemma6(xi, xi_p, f, p)
        # the scalar formula, one Distribution at a time, each |f|^{1+p} by Python's pow
        g = np.array([abs(x) ** (1 + p) for x in f.tolist()])
        moment = xi.expect(g) + xi_p.expect(g)
        assert lhs == abs(xi.expect(f) - xi_p.expect(f))
        assert rhs == lemma6_constant(p) * moment ** (1.0 / (p + 1.0)) * tv_distance(xi, xi_p) ** (p / (p + 1.0))
        if rhs > 0:
            max_ratio = max(max_ratio, lhs / rhs)
        violations += lhs > rhs * (1 + 1e-12)
    assert report == {"instances": proofs._LEMMA6_TRIALS, "violations": violations, "max_ratio": max_ratio,
                      "pass": violations == 0}
    assert generators[0].bit_generator.state == rng.bit_generator.state


def _grid_peak(m, i_max):
    """The traced peak of a 3-chain grid on 4 states; a first small grid loads what numpy loads once."""
    proposition_grid_check(num_chains=1, size=4, m=m, i_max=2, seed=1)
    tracemalloc.start()
    try:
        report = proposition_grid_check(num_chains=3, size=4, m=m, i_max=i_max, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"] and report["prop5"]["instances"] == 3 * math.comb(i_max + 2 * m - 1, 2 * m)
    return peak


# both traced 0.84 and 1.28 MiB when a block stacked its two laws into a third array and the last
# block's laws lived on through the next block's build
def test_proposition_grid_peak_memory_on_the_benchmark_shape():
    assert _grid_peak(2, 10) <= 0.75 * 2**20  # 0.59 MiB


def test_proposition_grid_peak_memory_at_degree_three():
    assert _grid_peak(3, 8) <= 1.1 * 2**20  # 0.97 MiB


@pytest.mark.parametrize("size, m, i_max", [(4, 2, 10), (4, 3, 8), (2, 3, 8), (2, 2, 12), (3, 1, 60), (6, 3, 2)])
def test_the_grid_refusal_charges_what_a_block_holds(monkeypatch, size, m, i_max):
    # the charge, read off the refusal of a grid whose cap is 0
    monkeypatch.setattr(errors, "TENSOR_BUDGET", 0)
    with pytest.raises(BudgetExceeded) as refused:
        proposition_grid_check(num_chains=1, size=size, m=m, i_max=i_max)
    cells = size ** (2 * m)
    charge = int(re.search(r"grid of (\d+) f_sigma cells", str(refused.value))[1]) - math.comb(2 * m, m) // 2 * cells
    monkeypatch.undo()
    rng = np.random.default_rng(1)
    kernel = random_ergodic_kernel(size, rng)
    mu = Distribution.normalized(rng.random(size) + 0.05)
    tuples = (_multisets(i_max, 2 * m)[0] + 1)[: max(1, proofs._BLOCK_CELLS // cells)]  # a full block
    assert len(tuples) == max(1, proofs._BLOCK_CELLS // cells)
    args = (_ChainTables(mu, kernel, tuples), tuples, _gaps(tuples)[2], np.zeros(len(tuples)), 1.0)
    _prop5_step(*args)  # a first call loads what numpy loads once
    tracemalloc.start()
    try:
        _prop5_step(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the charge: numpy's iteration buffers (at most two of getbufsize() cells) and a few small objects
    assert 8 * charge <= peak <= 8 * charge + 16 * np.getbufsize() + 4096


def test_one_chain_builds_both_laws_of_a_block(monkeypatch):
    chains = []
    law_chain = proofs._law_chain
    monkeypatch.setattr(proofs, "_law_chain", lambda tables, index: chains.append(index.shape) or law_chain(
        tables, index))
    # the benchmark's shape: 715 tuples a chain, in 11 blocks of 64 and one of 11
    report = proposition_grid_check(num_chains=3, size=4, m=2, i_max=10, seed=1)
    assert report["pass"] and chains == ([(64, 2, 4)] * 11 + [(11, 2, 4)]) * 3


def test_a_large_grid_holds_one_block_of_record_values_at_a_time():
    # S = 2, m = 3, i_max = 14: 27 132 tuples x 10 splits.  Arrays of the TV, certificate and
    # |f_sigma| values of a whole chain, and their record temporaries, traced 12.2 MiB; record
    # updates per block hold the peak near the 1.3 MiB tuple list and one block
    grid = {"num_chains": 1, "size": 2, "m": 3, "seed": 3}
    proposition_grid_check(**grid, i_max=3)  # a first small grid loads what numpy loads once
    tracemalloc.start()
    try:
        report = proposition_grid_check(**grid, i_max=14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"] and report["prop5"]["instances"] == math.comb(19, 6)
    assert peak < 6 * 2**20


def test_the_grid_builds_one_split_matrix_per_chain(monkeypatch):
    builds = []
    split_matrix = proofs._split_matrix
    monkeypatch.setattr(proofs, "_split_matrix", lambda h: builds.append(h) or split_matrix(h))
    # the benchmark's shape: 715 tuples a chain, in 12 blocks of 64
    report = proposition_grid_check(num_chains=3, size=4, m=2, i_max=10, seed=1)
    assert report["pass"] and len(builds) == 3


def test_a_grid_with_s_to_the_2m_over_the_block_cap_runs_one_tuple_per_block(monkeypatch):
    blocks = []
    step = proofs._prop5_step
    monkeypatch.setattr(proofs, "_prop5_step", lambda tables, tuples, *rest: blocks.append(len(tuples)) or step(
        tables, tuples, *rest))
    assert 6**6 > proofs._BLOCK_CELLS
    report = proposition_grid_check(num_chains=1, size=6, m=3, i_max=2, seed=9)
    assert report["pass"] and blocks == [1] * math.comb(7, 6)
