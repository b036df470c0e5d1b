import itertools
import math

import numpy as np
import pytest

from oracles import naive_projection, u_stat_enum
from ustatmc import (
    BudgetExceeded,
    DegreeTooLarge,
    Distribution,
    NonIntegrable,
    SymmetricKernelFn,
    Trajectory,
    additive_kernel,
    canonicalize,
    degeneracy_order,
    gaussian_rbf_kernel,
    hoeffding_project,
    indicator_diag_kernel,
    product_kernel,
    random_ergodic_kernel,
    simulate,
    table_kernel,
    u_statistic,
    verify_hoeffding,
)


def _traj(indices, size):
    return Trajectory(np.asarray(indices), seed=0, initial=Distribution.uniform(size))


def _random_symmetric_table(rng, s, m):
    raw = rng.standard_normal((s,) * m)
    out = np.zeros_like(raw)
    for perm in itertools.permutations(range(m)):
        out += np.transpose(raw, perm)
    return out / math.factorial(m)


def test_u_statistic_worked_example():
    states = np.array([1.0, 2.0, 3.0])
    h = product_kernel(2).tabulated(states)
    assert u_statistic(_traj([0, 1, 2], 3), h) == pytest.approx(11 / 3, abs=1e-14)


def test_u_statistic_constant_kernel_is_one():
    h = table_kernel(np.ones((4, 4, 4)))
    for n in (3, 5, 9):
        traj = _traj(np.arange(n) % 4, 4)
        assert u_statistic(traj, h) == pytest.approx(1.0, abs=1e-13)


def test_u_statistic_m1_is_sample_mean():
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(5)
    h = table_kernel(vals)
    idx = rng.integers(0, 5, size=40)
    assert u_statistic(_traj(idx, 5), h) == pytest.approx(float(vals[idx].mean()), abs=1e-13)


def test_u_statistic_counting_matches_enumeration_oracle():
    rng = np.random.default_rng(7)
    for m in (1, 2, 3, 4):
        s = 4
        table = _random_symmetric_table(rng, s, m)
        states = np.linspace(-1, 1, s)
        h = table_kernel(table, states)
        idx = rng.integers(0, s, size=14)
        expected = u_stat_enum(idx.tolist(), m, lambda *ix: float(table[tuple(ix)]))
        assert u_statistic(_traj(idx, s), h) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_u_statistic_linearity():
    rng = np.random.default_rng(9)
    s = 3
    t1 = _random_symmetric_table(rng, s, 2)
    t2 = _random_symmetric_table(rng, s, 2)
    idx = rng.integers(0, s, size=15)
    traj = _traj(idx, s)
    a, b = 0.7, -2.5
    lhs = u_statistic(traj, table_kernel(a * t1 + b * t2))
    rhs = a * u_statistic(traj, table_kernel(t1)) + b * u_statistic(traj, table_kernel(t2))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_u_statistic_errors():
    h = table_kernel(np.zeros((2, 2)))
    with pytest.raises(DegreeTooLarge):
        u_statistic(_traj([0], 2), h)
    fn_only = SymmetricKernelFn(2, fn=lambda x, y: x * y, states=np.array([0.0, 1.0]))
    with pytest.raises(BudgetExceeded):
        u_statistic(_traj(np.zeros(300, dtype=int), 2), fn_only, budget=10)
    # a callable is tabulated before counting, so its S^m table must fit the budget
    fn_wide = SymmetricKernelFn(2, fn=lambda x, y: x * y, states=np.arange(4.0))
    with pytest.raises(BudgetExceeded):
        u_statistic(_traj([0, 1], 4), fn_wide, budget=10)
    with pytest.raises(ValueError):
        u_statistic(_traj([0, 1], 2), SymmetricKernelFn(2, fn=lambda x, y: x * y))


def test_callable_path_matches_table_path(two_state_kernel):
    traj = simulate(two_state_kernel, Distribution.dirac(0, 2), 25, seed=4)
    h_fn = SymmetricKernelFn(2, fn=lambda x, y: (x + y) ** 2, states=two_state_kernel.states)
    h_tab = h_fn.tabulated(two_state_kernel.states)
    assert u_statistic(traj, h_fn) == u_statistic(traj, h_tab)


def test_table_symmetry_validation():
    with pytest.raises(ValueError):
        table_kernel(np.array([[0.0, 1.0], [2.0, 0.0]]))
    gaussian_rbf_kernel(3, bandwidth=0.8).tabulated(np.array([-1.0, 0.0, 2.0]))  # symmetric builtin


def test_projection_matches_naive_expansion():
    rng = np.random.default_rng(12)
    kernel = random_ergodic_kernel(4, rng)
    pi = kernel.stationary()
    for m in (2, 3):
        table = _random_symmetric_table(rng, 4, m)
        h = table_kernel(table, kernel.states)
        for c in range(m + 1):
            proj = hoeffding_project(h, pi, c)
            expected = naive_projection(table, pi.weights, c)
            if c == 0:
                assert proj.value == pytest.approx(expected, abs=1e-12)
            else:
                assert np.abs(proj.table - expected).max() <= 1e-11


def test_projection_canonicity_in_every_prefix():
    rng = np.random.default_rng(13)
    kernel = random_ergodic_kernel(5, rng)
    pi = kernel.stationary()
    h = table_kernel(_random_symmetric_table(rng, 5, 3), kernel.states)
    for c in (1, 2, 3):
        proj = hoeffding_project(h, pi, c)
        integral = np.tensordot(proj.table, pi.weights, axes=([-1], [0]))
        assert np.abs(integral).max() <= 1e-10


def test_projection_worked_examples(two_state_kernel):
    pi = two_state_kernel.stationary()
    # additive kernel has no degree-2 canonical part
    h_add = additive_kernel(2).tabulated(two_state_kernel.states)
    assert hoeffding_project(h_add, pi, 2).max_abs() <= 1e-12
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
    assert degeneracy_order(table_kernel(np.full((2, 2), 5.0)), pi) == 0
    # uncentered additive kernel has a nonzero mean, so its first
    # nonvanishing projection is the degree-0 one
    assert degeneracy_order(additive_kernel(2).tabulated(states), pi) == 0
    # centering the factors kills the mean; the degree-1 part survives
    assert degeneracy_order(additive_kernel(2, center=center).tabulated(states), pi) == 1
    # all projections vanish only for the zero kernel
    assert degeneracy_order(table_kernel(np.zeros((2, 2))), pi) == 3


def test_degeneracy_zero_mean_value(two_state_kernel):
    pi = two_state_kernel.stationary()
    h = table_kernel(np.full((2, 2), 5.0))
    assert hoeffding_project(h, pi, 0).value == pytest.approx(5.0, abs=1e-14)


def test_hoeffding_identity_small_grid():
    rng = np.random.default_rng(21)
    for s, m, n in [(3, 2, 12), (4, 3, 10), (3, 4, 9), (6, 2, 30)]:
        kernel = random_ergodic_kernel(s, rng)
        pi = kernel.stationary()
        h = table_kernel(_random_symmetric_table(rng, s, m), kernel.states)
        traj = simulate(kernel, Distribution.uniform(s), n, seed=int(rng.integers(1 << 30)))
        u = u_statistic(traj, h)
        assert verify_hoeffding(traj, h, pi) <= 1e-10 * (1.0 + abs(u))


def test_hoeffding_identity_constant_kernel(two_state_kernel):
    pi = two_state_kernel.stationary()
    h = table_kernel(np.full((2, 2), 3.25))
    traj = simulate(two_state_kernel, pi, 18, seed=6)
    assert verify_hoeffding(traj, h, pi) <= 1e-12


def test_hoeffding_identity_m1(two_state_kernel):
    pi = two_state_kernel.stationary()
    h = table_kernel(np.array([2.0, -1.0]))
    traj = simulate(two_state_kernel, Distribution.dirac(1, 2), 40, seed=77)
    assert verify_hoeffding(traj, h, pi) <= 1e-12


def test_canonicalize_produces_canonical(two_state_kernel):
    rng = np.random.default_rng(30)
    pi = two_state_kernel.stationary()
    h = table_kernel(_random_symmetric_table(rng, 2, 2), two_state_kernel.states)
    hc = canonicalize(h, pi)
    assert degeneracy_order(hc, pi) >= 2


def test_projection_requires_table():
    pi = Distribution.uniform(2)
    h = SymmetricKernelFn(2, fn=lambda x, y: x * y)
    with pytest.raises(NonIntegrable):
        hoeffding_project(h, pi, 1)


def test_indicator_diag_kernel_values():
    h = indicator_diag_kernel(3).tabulated(np.array([0.0, 1.0]))
    assert h.table[0, 0, 0] == 1.0 and h.table[1, 1, 1] == 1.0
    assert h.table[0, 1, 0] == 0.0
    assert h.sup_norm() == 1.0


def test_declared_sup_envelope_enforced():
    with pytest.raises(ValueError):
        SymmetricKernelFn(2, table=np.full((2, 2), 3.0), declared_sup=1.0)
