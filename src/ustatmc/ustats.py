"""U-statistics, Hoeffding projections, and degeneracy detection.

For a symmetric degree-m function h and a path Y_0, ..., Y_{n-1},

    U_{n,m}(h) = binom(n, m)^{-1} * sum_{t_1 < ... < t_m} h(Y_{t_1}, ..., Y_{t_m})

with the convention that a degree-0 kernel is the constant it holds.  The
projection pi_{c,m}h applies (delta_{y_1} - pi) x ... x (delta_{y_c} - pi) x
pi^{(m-c)} to h; the signed product is expanded exactly over the 2^c subsets
of fixed arguments, so every identity here is checkable to float precision
on finite state spaces.

Every path is evaluated by one counting engine, :func:`tuple_counts`
(cost n * S^{m-1} instead of binom(n, m) kernel calls), which serves
:func:`u_statistic`, the replicate estimator and the strong-law run.  It
counts increasing index tuples by state in int64, so the counts are exact
and do not depend on how a path is cut or batched; the final contraction
with the kernel table runs in one fixed float order.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetExceeded, DegreeTooLarge, NonIntegrable
from .markov import Distribution, Trajectory

DEFAULT_BUDGET = 10**8
DEGENERACY_EPS = 1e-10


def _check_table_symmetry(table: np.ndarray) -> None:
    """Adjacent transpositions generate the symmetric group, so m-1 swap
    comparisons certify full permutation invariance."""
    m = table.ndim
    scale = 1.0 + float(np.abs(table).max(initial=0.0))
    for i in range(m - 1):
        axes = list(range(m))
        axes[i], axes[i + 1] = axes[i + 1], axes[i]
        if np.abs(table - np.transpose(table, axes)).max() > 1e-12 * scale:
            raise ValueError(f"kernel table is not symmetric in axes ({i}, {i + 1})")


@dataclass
class SymmetricKernelFn:
    """Symmetric function of m state values, optionally tabulated.

    ``fn`` evaluates on raw state values; ``table`` (indexed by state
    indices, one axis per argument) is the exact dense form used by every
    finite-space operation.  ``declared_sup`` and ``declared_bq`` are user
    envelopes for sampler-backed chains where no table exists.
    """

    degree: int
    fn: Callable[..., float] | None = None
    table: np.ndarray | None = None
    states: np.ndarray | None = None
    declared_sup: float | None = None
    declared_bq: dict[float, float] | None = None

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.fn is None and self.table is None:
            raise ValueError("kernel needs a callable or a table")
        if self.table is not None:
            t = np.array(self.table, dtype=float)
            if t.ndim != self.degree or len(set(t.shape)) != 1:
                raise ValueError("table must be a hypercube with one axis per argument")
            _check_table_symmetry(t)
            t.setflags(write=False)
            self.table = t
        if self.states is not None:
            self.states = np.asarray(self.states, dtype=float)
        if self.declared_sup is not None and self.table is not None:
            if np.abs(self.table).max() > self.declared_sup * (1 + 1e-12):
                raise ValueError("table exceeds declared sup-norm envelope")

    def tabulated(self, states: Sequence[float]) -> "SymmetricKernelFn":
        """Dense evaluation over a finite state embedding."""
        if self.table is not None:
            return self
        states = np.asarray(states, dtype=float)
        grids = np.meshgrid(*([states] * self.degree), indexing="ij")
        table = np.vectorize(self.fn, otypes=[float])(*grids)
        return SymmetricKernelFn(
            self.degree,
            fn=self.fn,
            table=table,
            states=states,
            declared_sup=self.declared_sup,
            declared_bq=self.declared_bq,
        )

    def sup_norm(self) -> float:
        """Exact sup |h| from the table, else the declared envelope."""
        if self.table is not None:
            return float(np.abs(self.table).max())
        if self.declared_sup is not None:
            return float(self.declared_sup)
        raise ValueError("no table and no declared sup-norm")

    def shifted(self, offset: float) -> "SymmetricKernelFn":
        """h - offset (a degree-m kernel; U_{n,m}(h - offset) = U_{n,m}(h) - offset)."""
        if self.table is not None:
            return SymmetricKernelFn(self.degree, table=self.table - offset, states=self.states)
        fn = self.fn
        return SymmetricKernelFn(self.degree, fn=lambda *ys: fn(*ys) - offset, states=self.states)


@dataclass
class ProjectedKernel:
    """pi_{c,m}h: the degree-c canonical component of a symmetric kernel.

    For c = 0 the projection is the scalar pi^{(m)}h held in ``value``;
    otherwise ``table`` is its dense form over c state indices.
    """

    base: SymmetricKernelFn
    c: int
    pi: Distribution
    table: np.ndarray | None
    value: float = 0.0

    @property
    def degree(self) -> int:
        return self.c

    def as_kernel(self) -> SymmetricKernelFn:
        if self.c == 0:
            raise ValueError("a degree-0 projection is a scalar, not a kernel")
        return SymmetricKernelFn(self.c, table=self.table, states=self.base.states)

    def max_abs(self) -> float:
        return abs(self.value) if self.c == 0 else float(np.abs(self.table).max())


# ---------------------------------------------------------------------------
# builtin kernel families (config interface)

def product_kernel(m: int, center: float = 0.0) -> SymmetricKernelFn:
    """h(y_1..y_m) = prod_j (y_j - center)."""
    return SymmetricKernelFn(m, fn=lambda *ys: math.prod(y - center for y in ys))


def additive_kernel(m: int, center: float = 0.0) -> SymmetricKernelFn:
    """h(y_1..y_m) = sum_j (y_j - center)."""
    return SymmetricKernelFn(m, fn=lambda *ys: sum(y - center for y in ys))


def indicator_diag_kernel(m: int, atol: float = 0.0) -> SymmetricKernelFn:
    """1 if all arguments coincide (within atol), else 0."""
    return SymmetricKernelFn(
        m, fn=lambda *ys: 1.0 if max(ys) - min(ys) <= atol else 0.0, declared_sup=1.0
    )


def gaussian_rbf_kernel(m: int, bandwidth: float = 1.0) -> SymmetricKernelFn:
    """exp(-sum_{i<j} (y_i - y_j)^2 / (2 * bandwidth^2)); symmetric for any m."""
    inv = 1.0 / (2.0 * bandwidth * bandwidth)

    def fn(*ys: float) -> float:
        sq = sum((a - b) ** 2 for a, b in itertools.combinations(ys, 2))
        return math.exp(-sq * inv)

    return SymmetricKernelFn(m, fn=fn, declared_sup=1.0)


def table_kernel(table: np.ndarray, states: Sequence[float] | None = None) -> SymmetricKernelFn:
    t = np.asarray(table, dtype=float)
    return SymmetricKernelFn(t.ndim, table=t, states=None if states is None else np.asarray(states, dtype=float))


# ---------------------------------------------------------------------------
# evaluation

def tuple_counts(
    paths: np.ndarray,
    s: int,
    m: int,
    checkpoints: Sequence[int] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Exact counts of increasing index m-tuples by state, oldest index first:

        counts[..., v_1, ..., v_m] = #{t_1 < ... < t_m : path[t_i] = v_i}.

    ``paths`` is one path (n,) or a batch (rows, n) counted row by row.  The
    engine keeps int64 level tensors L_c (count of c-tuples by state,
    newest index first) for c = 1..m and, at each time step, adds L_{c-1}
    into the slice L_c[x_t] of every row at once.  A single path is first
    cut into about sqrt(n) equal pieces (at most budget // S^m), counted as
    a batch, and the pieces are joined in order by Chen's identity
    L_c(A B) = sum_j L_j(B) (x) L_{c-j}(A).  With ``checkpoints`` (single
    path only) the result holds one tensor per checkpoint c: the counts
    over path[:c], read from level snapshots inside the pieces.

    Counts are exact while binom(n, m) < 2^63 (checked), and do not depend
    on the budget; the S^m level cells of each row of a batch, or of one
    piece of a path, must fit it.
    """
    paths = np.asarray(paths)
    n = paths.shape[-1]
    if n < m:
        raise DegreeTooLarge(f"n = {n} < m = {m}")
    # the largest cell of any level L_c, c <= m, is at most binom(n, min(m, n // 2))
    if math.comb(n, min(m, n // 2)) >= 2**63:
        raise BudgetExceeded(f"tuple counts of n = {n}, m = {m} overflow int64")
    rows = len(paths) if paths.ndim == 2 else 1
    if rows * s**m > budget:
        raise BudgetExceeded(f"level tensors rows*S^m = {rows * s**m} exceed budget {budget}")
    if paths.ndim == 2:
        if checkpoints is not None:
            raise ValueError("checkpoints apply to a single path")
        return _oldest_first(_count_rows(paths, np.full(rows, n), s, m, {})[0][m], s, m)
    pieces = min(math.isqrt(n), budget // s**m)
    bounds = [n * i // pieces for i in range(pieces + 1)]
    marks = [n] if checkpoints is None else [int(c) for c in checkpoints]
    if any(not m <= c <= n for c in marks):
        raise ValueError(f"checkpoints must lie in [{m}, {n}]")
    # checkpoint c is the prefix ending `offset` steps into piece p
    where = {}
    for c in marks:
        p = bisect.bisect_left(bounds, c) - 1
        where[c] = (p, c - bounds[p])
    snaps: dict = {}
    for p, offset in where.values():
        snaps.setdefault(offset, set()).add(p)
    lengths = np.diff(bounds)
    grid = np.zeros((lengths.size, int(lengths.max())), dtype=np.int64)
    for p, (a, b) in enumerate(zip(bounds, bounds[1:])):
        grid[p, : b - a] = paths[a:b]
    pieces_levels, snapped = _count_rows(grid, lengths, s, m, snaps)
    acc = _empty_levels(1, s, m)
    out = {}
    for p in range(len(bounds) - 1):
        for c, (q, offset) in where.items():
            if q == p:
                out[c] = _join(acc, snapped[p, offset], m)[m]
        acc = _join(acc, [lv[p : p + 1] for lv in pieces_levels], m)
    counts = _oldest_first(np.concatenate([out[c] for c in marks]), s, m)
    return counts[0] if checkpoints is None else counts


def _empty_levels(rows: int, s: int, m: int) -> list:
    return [np.ones((rows, 1), dtype=np.int64)] + [np.zeros((rows, s**c), dtype=np.int64) for c in range(1, m + 1)]


def _count_rows(grid: np.ndarray, lengths: np.ndarray, s: int, m: int, snaps: dict) -> tuple[list, dict]:
    """Level tensors of each row grid[i, :lengths[i]], in one pass over
    time vectorized across rows, plus copies of row p's levels after
    ``offset`` steps for each p in snaps[offset]."""
    levels = _empty_levels(grid.shape[0], s, m)
    # L_c viewed as (rows * S, S^(c-1)): row i, newest state x is line i * S + x
    lines = [None] + [lv.reshape(-1, s ** (c - 1)) for c, lv in enumerate(levels) if c]
    base = np.arange(grid.shape[0]) * s
    full = int(lengths.min())
    snapped = {}
    for t in range(grid.shape[1]):
        live = slice(None) if t < full else lengths > t
        idx = (base + grid[:, t])[live]
        for c in range(m, 0, -1):
            lines[c][idx] += levels[c - 1][live]
        for p in snaps.get(t + 1, ()):
            snapped[p, t + 1] = [lv[p : p + 1].copy() for lv in levels]
    return levels, snapped


def _join(a: list, b: list, m: int) -> list:
    """Levels of the concatenation A B (A first) by Chen's identity; the
    newest-first layout puts B's indices before A's."""
    return [a[0]] + [
        sum(np.einsum("ri,rj->rij", b[j], a[c - j]).reshape(len(a[0]), -1) for j in range(c + 1))
        for c in range(1, m + 1)
    ]


def _oldest_first(level: np.ndarray, s: int, m: int) -> np.ndarray:
    """(rows, S^m) newest-first counts as a (rows, S, ..., S) oldest-first view."""
    return level.reshape((level.shape[0],) + (s,) * m).transpose(0, *range(m, 0, -1))


def contract_counts(counts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_v counts[..., v] * table[v] for each leading index of ``counts``.

    One BLAS dot product per count tensor over its oldest-first C order:
    the float order of ``np.tensordot(counts_i, table, axes=m)``, so a value
    never depends on the batch it was counted in.  Counts convert to
    float64 exactly below 2^53.
    """
    t = table.ravel()
    tensors = counts.reshape((-1,) + table.shape)
    return np.array([np.dot(c.astype(np.float64, order="C").ravel(), t) for c in tensors])


def u_statistic(traj: Trajectory, h, budget: int = DEFAULT_BUDGET) -> float:
    """Average of h over all strictly increasing index m-tuples of the path.

    Accepts a :class:`SymmetricKernelFn` or a :class:`ProjectedKernel`; a
    degree-0 projection evaluates to its constant.  Every path is counted
    by the exact engine :func:`tuple_counts` and contracted with the kernel
    table; a callable-only kernel is first tabulated over its state
    embedding, whose S^m cells must fit the budget.
    """
    m = h.degree
    if m == 0:
        return float(h.value)
    n = len(traj)
    if n < m:
        raise DegreeTooLarge(f"n = {n} < m = {m}")
    table = h.table
    if table is None:
        if h.states is None:
            raise ValueError("raw-callable kernels need a state embedding to evaluate a path")
        if h.states.size**m > budget:
            raise BudgetExceeded(f"kernel table S^m = {h.states.size**m} exceeds budget {budget}")
        table = h.tabulated(h.states).table
    s = table.shape[0]
    if n * s ** (m - 1) > budget:
        raise BudgetExceeded(f"counting cost n*S^(m-1) = {n * s ** (m - 1)} exceeds budget {budget}")
    counts = tuple_counts(traj.values, s, m, budget=budget)
    return float(contract_counts(counts, table)[0]) / math.comb(n, m)


def hoeffding_project(h: SymmetricKernelFn, pi: Distribution, c: int) -> ProjectedKernel:
    """Exact pi_{c,m}h by signed-measure expansion.

    Expanding the product of (delta - pi) factors gives

        pi_{c,m}h(y_1..y_c) = sum_{T subset {1..c}} (-1)^{c-|T|} g_{|T|}(y_T)

    where g_k fixes k arguments and integrates the remaining m-k against
    pi.  The partial integrals g_k are shared across subsets (computed once
    by repeated tensor contraction).
    """
    m = h.degree
    if not 0 <= c <= m:
        raise ValueError(f"c must lie in [0, {m}]")
    if h.table is None:
        raise NonIntegrable("projection needs a dense table (finite state space)")
    if pi.size != h.table.shape[0]:
        raise ValueError("pi dimension does not match the kernel table")
    w = pi.weights
    partial = [None] * (m + 1)
    partial[m] = h.table
    for k in range(m - 1, -1, -1):
        partial[k] = np.tensordot(partial[k + 1], w, axes=([-1], [0]))
    if c == 0:
        return ProjectedKernel(base=h, c=0, pi=pi, table=None, value=float(partial[0]))
    s = pi.size
    out = np.zeros((s,) * c)
    for k in range(c + 1):
        sign = (-1.0) ** (c - k)
        for positions in itertools.combinations(range(c), k):
            shape = tuple(s if p in positions else 1 for p in range(c))
            out += sign * np.asarray(partial[k]).reshape(shape)
    return ProjectedKernel(base=h, c=c, pi=pi, table=out)


def degeneracy_order(h: SymmetricKernelFn, pi: Distribution, eps: float = DEGENERACY_EPS) -> int:
    """Smallest d with pi_{d,m}h not identically zero; m+1 if all vanish
    (then h integrates to zero against every product argument and
    U_{n,m}(h) is identically pi^{(m)}h = 0)."""
    for d in range(h.degree + 1):
        if hoeffding_project(h, pi, d).max_abs() > eps:
            return d
    return h.degree + 1


def verify_hoeffding(
    traj: Trajectory, h: SymmetricKernelFn, pi: Distribution, budget: int = DEFAULT_BUDGET
) -> float:
    """Residual of the decomposition of U_{n,m}(h) into canonical parts:

        |U_{n,m}(h) - sum_{c=0}^m binom(m, c) U_{n,c}(pi_{c,m}h)|

    which is zero up to float roundoff for every path.
    """
    lhs = u_statistic(traj, h, budget)
    rhs = 0.0
    for c in range(h.degree + 1):
        proj = hoeffding_project(h, pi, c)
        term = proj.value if c == 0 else u_statistic(traj, proj, budget)
        rhs += math.comb(h.degree, c) * term
    return abs(lhs - rhs)


def canonicalize(h: SymmetricKernelFn, pi: Distribution) -> SymmetricKernelFn:
    """The completely degenerate part pi_{m,m}h as a standalone kernel."""
    proj = hoeffding_project(h, pi, h.degree)
    return SymmetricKernelFn(h.degree, table=proj.table, states=h.states)
