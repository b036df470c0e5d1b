import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_projection, per_cell_table, scalar_family_fn, u_stat_enum
from ustatmc import (
    BudgetExceeded,
    DegreeTooLarge,
    Distribution,
    FiniteKernel,
    SymmetricKernelFn,
    additive_kernel,
    degeneracy_order,
    gaussian_rbf_kernel,
    hoeffding_project,
    indicator_diag_kernel,
    product_kernel,
    random_ergodic_kernel,
    simulate,
    u_statistic,
    verify_hoeffding,
)


def _random_symmetric_table(rng, s, m):
    raw = rng.standard_normal((s,) * m)
    out = np.zeros_like(raw)
    for perm in itertools.permutations(range(m)):
        out += np.transpose(raw, perm)
    return out / math.factorial(m)


def test_u_statistic_worked_example():
    states = np.array([1.0, 2.0, 3.0])
    h = product_kernel(2).tabulated(states)
    assert u_statistic(np.array([0, 1, 2]), h) == pytest.approx(11 / 3, abs=1e-14)


def test_u_statistic_constant_kernel_is_one():
    h = SymmetricKernelFn(np.ones((4, 4, 4)))
    for n in (3, 5, 9):
        path = np.arange(n) % 4
        assert u_statistic(path, h) == pytest.approx(1.0, abs=1e-13)


def test_u_statistic_m1_is_sample_mean():
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(5)
    h = SymmetricKernelFn(vals)
    idx = rng.integers(0, 5, size=40)
    assert u_statistic(idx, h) == pytest.approx(float(vals[idx].mean()), abs=1e-13)


def test_u_statistic_counting_matches_enumeration_oracle():
    rng = np.random.default_rng(7)
    for m in (1, 2, 3, 4):
        s = 4
        table = _random_symmetric_table(rng, s, m)
        h = SymmetricKernelFn(table)
        idx = rng.integers(0, s, size=14)
        expected = u_stat_enum(idx.tolist(), m, lambda *ix: float(table[tuple(ix)]))
        assert u_statistic(idx, h) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_u_statistic_linearity():
    rng = np.random.default_rng(9)
    s = 3
    t1 = _random_symmetric_table(rng, s, 2)
    t2 = _random_symmetric_table(rng, s, 2)
    path = rng.integers(0, s, size=15)
    a, b = 0.7, -2.5
    lhs = u_statistic(path, SymmetricKernelFn(a * t1 + b * t2))
    rhs = a * u_statistic(path, SymmetricKernelFn(t1)) + b * u_statistic(path, SymmetricKernelFn(t2))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_u_statistic_errors():
    h = SymmetricKernelFn(np.zeros((2, 2)))
    with pytest.raises(DegreeTooLarge):
        u_statistic(np.array([0]), h)
    # counting the path holds its 300 cells and more (count_cells), refused before any count
    with pytest.raises(BudgetExceeded):
        u_statistic(np.zeros(300, dtype=int), h, budget=10)


def test_u_statistic_refuses_a_batch_of_paths():
    # a path is one 1-D index array; a (rows, n) batch belongs to tuple_sums
    with pytest.raises(ValueError, match="1-D"):
        u_statistic(np.zeros((2, 5), dtype=np.int64), SymmetricKernelFn(np.ones((2, 2))))


def test_degree_zero_kernel_is_its_constant():
    h = SymmetricKernelFn(np.array(2.5))
    assert h.degree == 0 and h.sup_norm() == 2.5
    assert u_statistic(np.array([0, 1, 1]), h) == 2.5
    assert hoeffding_project(h, Distribution.uniform(2), 0).table == 2.5


def test_table_symmetry_validation():
    with pytest.raises(ValueError):
        SymmetricKernelFn(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        SymmetricKernelFn(np.zeros((2, 3)))  # one axis per argument, all of length S
    gaussian_rbf_kernel(3, bandwidth=0.8).tabulated(np.array([-1.0, 0.0, 2.0]))  # symmetric builtin


def test_projection_matches_naive_expansion():
    rng = np.random.default_rng(12)
    kernel = random_ergodic_kernel(4, rng)
    pi = kernel.stationary()
    for m in (2, 3):
        table = _random_symmetric_table(rng, 4, m)
        h = SymmetricKernelFn(table)
        for c in range(m + 1):
            proj = hoeffding_project(h, pi, c)
            expected = naive_projection(table, pi.weights, c)
            assert proj.degree == c
            assert np.abs(proj.table - expected).max() <= (1e-12 if c == 0 else 1e-11)


def test_projection_canonicity_in_every_prefix():
    rng = np.random.default_rng(13)
    kernel = random_ergodic_kernel(5, rng)
    pi = kernel.stationary()
    h = SymmetricKernelFn(_random_symmetric_table(rng, 5, 3))
    for c in (1, 2, 3):
        proj = hoeffding_project(h, pi, c)
        integral = np.tensordot(proj.table, pi.weights, axes=([-1], [0]))
        assert np.abs(integral).max() <= 1e-10


def test_projection_worked_examples(two_state_kernel):
    pi = two_state_kernel.stationary()
    # additive kernel has no degree-2 canonical part
    h_add = additive_kernel(2).tabulated(two_state_kernel.states)
    assert hoeffding_project(h_add, pi, 2).sup_norm() <= 1e-12
    # product of centered factors is untouched by the full projection
    center = pi.expect(two_state_kernel.states)
    h_prod = product_kernel(2, center=center).tabulated(two_state_kernel.states)
    proj = hoeffding_project(h_prod, pi, 2)
    assert np.abs(proj.table - h_prod.table).max() <= 1e-12
    # first projection of an additive kernel: f(y) - pi(f)
    f = two_state_kernel.states
    expected = (f - pi.expect(f))
    assert np.abs(hoeffding_project(h_add, pi, 1).table - expected).max() <= 1e-12


def test_degeneracy_orders(two_state_kernel):
    pi = two_state_kernel.stationary()
    states = two_state_kernel.states
    center = pi.expect(states)
    assert degeneracy_order(product_kernel(2, center=center).tabulated(states), pi) == 2
    assert degeneracy_order(SymmetricKernelFn(np.full((2, 2), 5.0)), pi) == 0
    # uncentered additive kernel has a nonzero mean, so its first
    # nonvanishing projection is the degree-0 one
    assert degeneracy_order(additive_kernel(2).tabulated(states), pi) == 0
    # centering the factors kills the mean; the degree-1 part survives
    assert degeneracy_order(additive_kernel(2, center=center).tabulated(states), pi) == 1
    # all projections vanish only for the zero kernel
    assert degeneracy_order(SymmetricKernelFn(np.zeros((2, 2))), pi) == 3


@pytest.mark.parametrize("m", [1, 2, 3])
def test_degeneracy_order_does_not_change_when_h_is_scaled(m):
    rng = np.random.default_rng(40 + m)
    for _ in range(4):
        kernel = random_ergodic_kernel(3, rng)
        pi = kernel.stationary()
        h = SymmetricKernelFn(_random_symmetric_table(rng, 3, m))
        # generic (d = 0), mean-free (d = 1) and completely degenerate (d = m)
        for kernel_fn, d in ((h, 0), (h.shifted(float(hoeffding_project(h, pi, 0).table)), 1),
                             (hoeffding_project(h, pi, m), m)):
            for c in (1e-12, 1.0, 1e8):
                assert degeneracy_order(SymmetricKernelFn(c * kernel_fn.table), pi) == d


def test_degeneracy_zero_mean_value(two_state_kernel):
    pi = two_state_kernel.stationary()
    h = SymmetricKernelFn(np.full((2, 2), 5.0))
    assert float(hoeffding_project(h, pi, 0).table) == pytest.approx(5.0, abs=1e-14)


def test_hoeffding_identity_small_grid():
    rng = np.random.default_rng(21)
    for s, m, n in [(3, 2, 12), (4, 3, 10), (3, 4, 9), (6, 2, 30)]:
        kernel = random_ergodic_kernel(s, rng)
        pi = kernel.stationary()
        h = SymmetricKernelFn(_random_symmetric_table(rng, s, m))
        path = simulate(kernel, Distribution.uniform(s), n, seed=int(rng.integers(1 << 30)))
        u = u_statistic(path, h)
        assert verify_hoeffding(path, h, pi) <= 1e-10 * (1.0 + abs(u))


def test_hoeffding_identity_large_mean_kernel():
    # An uncentered product kernel on states near 300: pi^{(3)}h is about
    # 2.7e7 while the canonical parts are orders of magnitude smaller, so
    # every projection must come out symmetric despite that cancellation.
    rng = np.random.default_rng(22)
    for seed in range(5):
        kernel = FiniteKernel(300.0 + rng.standard_normal(5), random_ergodic_kernel(5, rng).matrix)
        pi = kernel.stationary()
        h = product_kernel(3).tabulated(kernel.states)
        for c in range(4):
            proj = hoeffding_project(h, pi, c)
            for axes in itertools.permutations(range(c)):
                assert np.array_equal(proj.table, np.transpose(proj.table, axes))
        path = simulate(kernel, Distribution.uniform(5), 15, seed=seed)
        u = u_statistic(path, h)
        assert verify_hoeffding(path, h, pi) <= 1e-10 * (1.0 + abs(u))


def test_hoeffding_identity_constant_kernel(two_state_kernel):
    pi = two_state_kernel.stationary()
    h = SymmetricKernelFn(np.full((2, 2), 3.25))
    path = simulate(two_state_kernel, pi, 18, seed=6)
    assert verify_hoeffding(path, h, pi) <= 1e-12


def test_hoeffding_identity_m1(two_state_kernel):
    pi = two_state_kernel.stationary()
    h = SymmetricKernelFn(np.array([2.0, -1.0]))
    path = simulate(two_state_kernel, Distribution.dirac(1, 2), 40, seed=77)
    assert verify_hoeffding(path, h, pi) <= 1e-12


def test_canonicalize_produces_canonical(two_state_kernel):
    rng = np.random.default_rng(30)
    pi = two_state_kernel.stationary()
    h = SymmetricKernelFn(_random_symmetric_table(rng, 2, 2))
    hc = hoeffding_project(h, pi, h.degree)
    assert degeneracy_order(hc, pi) >= 2


def test_indicator_diag_kernel_values():
    h = indicator_diag_kernel(3).tabulated(np.array([0.0, 1.0]))
    assert h.table[0, 0, 0] == 1.0 and h.table[1, 1, 1] == 1.0
    assert h.table[0, 1, 0] == 0.0
    assert h.sup_norm() == 1.0


def test_builtin_families_need_degree_one():
    for family in (product_kernel, additive_kernel, indicator_diag_kernel, gaussian_rbf_kernel):
        with pytest.raises(ValueError):
            family(0)


# each family's second argument is its center or bandwidth; indicator_diag has none
FAMILIES = {
    "product": product_kernel,
    "additive": additive_kernel,
    "indicator_diag": lambda m, _: indicator_diag_kernel(m),
    "gaussian_rbf": gaussian_rbf_kernel,
}


@st.composite
def family_cases(draw):
    """A family, a degree 1 to 4, up to 8 state values with duplicates,
    negatives and a wide range, and a random center or bandwidth on the
    scale of the states (drawn but unused for indicator_diag)."""
    name = draw(st.sampled_from(sorted(FAMILIES)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    values = draw(st.lists(st.floats(-4.0, 4.0).map(lambda y: y * scale), min_size=1, max_size=6))
    states = np.array(draw(st.permutations(values + draw(st.lists(st.sampled_from(values), max_size=2)))))
    low = {"product": -4.0, "additive": -4.0, "indicator_diag": 0.0, "gaussian_rbf": 0.01}[name]
    return name, draw(st.integers(1, 4)), states, draw(st.floats(low, 4.0)) * scale


@settings(max_examples=200, deadline=None)
@given(family_cases())
# (a - b)^2 by Python's ** rounds differently from (a - b) * (a - b) here
@example(("gaussian_rbf", 2, np.array([-1.565451, -0.033631]), 1.0))
def test_builtin_tables_match_the_scalar_formula_per_cell(case):
    # one broadcast call per table holds every cell to the scalar formula bit for bit
    name, m, states, param = case
    table = FAMILIES[name](m, param).tabulated(states).table
    assert np.array_equal(table, per_cell_table(scalar_family_fn(name, param), m, states))
