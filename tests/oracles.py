"""Independent brute-force oracles the tests freeze expected values from.

Everything here is deliberately naive (explicit loops, fsum, Fractions,
np.linalg.matrix_power, one einsum per permutation) and shares no code
path with the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from ustatmc import SymmetricKernelFn


def u_stat_enum(values, m, fn) -> float:
    """U-statistic by direct enumeration of index combinations."""
    n = len(values)
    total = math.fsum(fn(*combo) for combo in itertools.combinations(values, m))
    return total / math.comb(n, m)


def naive_projection(table: np.ndarray, pi: np.ndarray, c: int) -> np.ndarray | float:
    """pi_{c,m}h by literal expansion of (delta - pi) x ... x pi^{(m-c)}.

    For every subset T of the first c argument slots, fix those arguments
    and integrate all the others against pi with explicit loops.
    """
    m = table.ndim
    s = table.shape[0]

    def integrated(fixed: dict[int, int]) -> float:
        free = [axis for axis in range(m) if axis not in fixed]
        total = 0.0
        for z in itertools.product(range(s), repeat=len(free)):
            idx = [0] * m
            weight = 1.0
            for axis, val in fixed.items():
                idx[axis] = val
            for axis, val in zip(free, z):
                idx[axis] = val
                weight *= pi[val]
            total += weight * table[tuple(idx)]
        return total

    if c == 0:
        return integrated({})
    out = np.zeros((s,) * c)
    for y in itertools.product(range(s), repeat=c):
        acc = 0.0
        for size in range(c + 1):
            for positions in itertools.combinations(range(c), size):
                fixed = {p: y[p] for p in positions}
                acc += (-1.0) ** (c - size) * integrated(fixed)
        out[y] = acc
    return out


def naive_joint_law(mu: np.ndarray, p: np.ndarray, ks) -> np.ndarray:
    """Joint law tensor by elementwise products of matrix powers."""
    ks = list(ks)
    s = p.shape[0]
    powers = [np.linalg.matrix_power(p, ks[0])] + [
        np.linalg.matrix_power(p, b - a) for a, b in zip(ks, ks[1:])
    ]
    out = np.zeros((s,) * len(ks))
    for y in itertools.product(range(s), repeat=len(ks)):
        total = 0.0
        for y0 in range(s):
            prob = mu[y0] * powers[0][y0, y[0]]
            for i in range(1, len(ks)):
                prob *= powers[i][y[i - 1], y[i]]
            total += prob
        out[y] = total
    return out


def geometric_partial_sums(varrho: float, m: int, n: int) -> np.ndarray:
    """All partial sums sum_{k=0}^{j} (k+1)^m varrho^k for j = 0..n."""
    k = np.arange(n + 1, dtype=float)
    return np.cumsum((k + 1.0) ** m * varrho**k)


def c_nm_squared_rational(n: int, m: int, rho_fracs) -> Fraction:
    """C_{n,m}^2 with exact rational arithmetic (rho given as Fractions)."""
    mix = sum(Fraction(k + 1) ** m * rho_fracs[k] for k in range(n + 1))
    return (
        Fraction(2) ** (m + 2)
        * Fraction(math.factorial(2 * m))
        * mix
        * Fraction(n) ** (2 * m)
        / Fraction(math.comb(n, m)) ** 2
    )


def dirac_pair_rho(p: np.ndarray, v: np.ndarray, k: int) -> float:
    """max over Dirac pairs of TV(P^k(x,.), P^k(x',.)) / (V(x) + V(x'))."""
    pk = np.linalg.matrix_power(p, k)
    s = p.shape[0]
    best = 0.0
    for x in range(s):
        for y in range(x + 1, s):
            best = max(best, float(np.abs(pk[x] - pk[y]).sum()) / (v[x] + v[y]))
    return best


def multiset_counts_enum(path, s: int, m: int) -> np.ndarray:
    """counts[a] = #{t_1 < ... < t_m : the states path[t_i] form multiset a},
    for the multisets a of m states in itertools.combinations_with_replacement
    order, by listing every increasing index tuple."""
    multisets = list(itertools.combinations_with_replacement(range(s), m))
    counts = dict.fromkeys(multisets, 0)
    for combo in itertools.combinations(path, m):
        counts[tuple(sorted(combo))] += 1
    return np.array([counts[a] for a in multisets], dtype=np.int64)


def replay_path(matrix: np.ndarray, mu0: np.ndarray, n: int, seed: int) -> list[int]:
    """The documented sampler, one step at a time: n PCG64 uniforms, and
    state t is the number of CDF entries of row (state t-1) at or below
    u[t], capped at S-1 (state 0 inverts the CDF of mu0)."""
    u = np.random.Generator(np.random.PCG64(seed)).random(n)
    cdf = np.cumsum(matrix, axis=1)
    last = len(mu0) - 1
    path = [min(int((np.cumsum(mu0) <= u[0]).sum()), last)]
    for t in range(1, n):
        path.append(min(int((cdf[path[-1]] <= u[t]).sum()), last))
    return path


def pair_loop_rho_table(matrix: np.ndarray, v: np.ndarray, k_max: int) -> np.ndarray:
    """rho(0..k_max) by the pair loop: each Dirac evolved by one w @ P per
    step and normalized, then max over pairs x < y of sum |norm_x - norm_y|
    / (V(x) + V(y)), made non-increasing by a reversed running maximum."""
    s = matrix.shape[0]
    raw = [np.eye(s)[x] for x in range(s)]
    measured = []
    for k in range(k_max + 1):
        if k:
            raw = [w @ matrix for w in raw]
        norm = [w / w.sum() for w in raw]
        measured.append(max(
            float(np.abs(norm[x] - norm[y]).sum()) / (v[x] + v[y]) for x in range(s) for y in range(x + 1, s)
        ))
    return np.maximum.accumulate(np.array(measured)[::-1])[::-1]


def float_path_repeat(matrix: np.ndarray, k_max: int) -> tuple[int, int] | None:
    """(b, a): the first step a <= k_max at which the Diracs of
    :func:`pair_loop_rho_table`, each moved by one w @ P per step, hold the
    same bits as at an earlier step b; None when no step up to k_max
    repeats."""
    s = matrix.shape[0]
    raw = [np.eye(s)[x] for x in range(s)]
    seen = {np.array(raw).tobytes(): 0}
    for k in range(1, k_max + 1):
        raw = [w @ matrix for w in raw]
        b = seen.setdefault(np.array(raw).tobytes(), k)
        if b != k:
            return b, k
    return None


def scalar_family_fn(name: str, param: float):
    """The builtin kernel families as scalar formulas of m Python floats:
    ``param`` is the center (product, additive) or bandwidth (gaussian_rbf),
    and indicator_diag, which has no parameter, ignores it."""
    if name == "product":
        return lambda *ys: math.prod(y - param for y in ys)
    if name == "additive":
        return lambda *ys: sum(y - param for y in ys)
    if name == "indicator_diag":
        return lambda *ys: 1.0 if len(set(ys)) == 1 else 0.0
    if name == "gaussian_rbf":
        inv = 1.0 / (2.0 * param * param)
        return lambda *ys: math.exp(-sum((a - b) ** 2 for a, b in itertools.combinations(ys, 2)) * inv)
    raise ValueError(f"unknown family {name!r}")


def per_cell_table(fn, m: int, states: np.ndarray) -> np.ndarray:
    """fn called once per cell of the (S,) * m grid of state values."""
    grids = np.meshgrid(*([np.asarray(states, dtype=float)] * m), indexing="ij")
    return np.vectorize(fn, otypes=[float])(*grids)


def l2_enum(mu: np.ndarray, p: np.ndarray, table: np.ndarray, n: int) -> float:
    """||U_{n,m}(h)||_2 for Y_0 ~ mu by listing all S^n paths: each path's
    probability times the square of its U-statistic, summed with fsum."""
    s, m = len(mu), table.ndim
    terms = []
    for path in itertools.product(range(s), repeat=n):
        prob = mu[path[0]]
        for a, b in zip(path, path[1:]):
            prob *= p[a, b]
        u = math.fsum(table[combo] for combo in itertools.combinations(path, m)) / math.comb(n, m)
        terms.append(prob * u * u)
    return math.sqrt(math.fsum(terms))


def l2_ordered(mu: np.ndarray, p: np.ndarray, table: np.ndarray, n: int) -> float:
    """||U_{n,m}(h)||_2 for Y_0 ~ mu by the ordered tuple recursion: a
    path's count vector l = (L_0, ..., L_m) holds L_0 = 1 and, in block c,
    the increasing c-tuples of times by their states (S^c lines, newest
    index first); seeing state x adds L_{c-1} to the slice L_c[x].  The
    pass carries second[x] = E[l l^T ; Y_t = x] and moves it through P;
    the block m x m of sum_x second[x] is E[L_m L_m^T], read against the
    flat table."""
    s, m = len(mu), table.ndim
    offsets = [sum(s**j for j in range(c)) for c in range(m + 2)]
    k = offsets[-1]
    lines = [None] + [offsets[c] + np.arange(s**c).reshape(s, -1) for c in range(1, m + 1)]
    seen = np.arange(s)[:, None]
    second = np.zeros((s, k, k))
    second[:, 0, 0] = mu
    for t in range(n):
        if t:
            second = np.tensordot(p, second, axes=(0, 0))
        for moments in (second, second.swapaxes(1, 2)):
            for c in range(m, 0, -1):
                moments[seen, lines[c]] += moments[:, offsets[c - 1] : offsets[c]]
    w = table.ravel()
    mean_sq = float(w @ second[:, offsets[m] :, offsets[m] :].sum(axis=0) @ w) / math.comb(n, m) ** 2
    return math.sqrt(max(mean_sq, 0.0))


def f_sigma_expectation(law: np.ndarray, h: SymmetricKernelFn, sigma: Sequence[int]) -> float:
    """E_law[ h(y_{sigma(1..m)}) * h(y_{sigma(m+1..2m)}) ] by exact tensor
    contraction.  ``sigma`` is a 0-based permutation of range(2m)."""
    m = h.degree
    if law.ndim != 2 * m:
        raise ValueError(f"law arity {law.ndim} does not match 2m = {2 * m}")
    if sorted(sigma) != list(range(2 * m)):
        raise ValueError("sigma must be a permutation of range(2m)")
    out = np.einsum(
        law,
        list(range(2 * m)),
        h.table,
        [sigma[j] for j in range(m)],
        h.table,
        [sigma[m + j] for j in range(m)],
        [],
    )
    return float(out)


def f_sigma_rows(laws: np.ndarray, h: SymmetricKernelFn, reps: Sequence[Sequence[int]]) -> np.ndarray:
    """E_law[f_sigma] for each law of ``laws`` (..., S, ..., S) and each
    permutation of ``reps`` (the last axis of the result), by a stack of
    rows: one copy of each law transposed by each permutation, times
    vec(h (x) h)."""
    m, s = h.degree, h.table.shape[0]
    laws = np.asarray(laws)
    lead = laws.shape[: laws.ndim - 2 * m]
    rows = np.empty(lead + (len(reps),) + (s,) * (2 * m))
    for row, rep in zip(np.moveaxis(rows, len(lead), 0), reps):
        row[...] = laws.transpose(tuple(range(len(lead))) + tuple(len(lead) + a for a in rep))
    return rows.reshape(lead + (len(reps), -1)) @ np.multiply.outer(h.table, h.table).ravel()
