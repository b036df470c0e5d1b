"""U-statistics, Hoeffding projections, and degeneracy detection.

For a symmetric degree-m function h and a path Y_0, ..., Y_{n-1},

    U_{n,m}(h) = binom(n, m)^{-1} * sum_{t_1 < ... < t_m} h(Y_{t_1}, ..., Y_{t_m})

with the convention that a degree-0 kernel is the constant it holds.  A
kernel is always its dense table over the S states of the chain
(:class:`SymmetricKernelFn`, one axis per argument; a 0-d table for degree
0).  The builtin families are recipes (:class:`KernelFamily`) that become
kernels only when tabulated over the state values.  The projection
pi_{c,m}h applies (delta_{y_1} - pi) x ... x (delta_{y_c} - pi) x
pi^{(m-c)} to h and is again a kernel, of degree c; the signed product is
expanded exactly over the 2^c subsets of fixed arguments, so every identity
here is checkable to float precision.

Every path is evaluated by one counting call, :func:`tuple_sums` (cost
n * S^{m-1} per path instead of binom(n, m) kernel calls), which takes one
path or a batch and serves :func:`u_statistic`, the replicate estimator and
the strong-law run.  It counts increasing index tuples by state in
integers of the narrowest exact width (int32 when no count can reach
2^31, else int64), so the counts are exact and do not depend on how a
path is cut or batched; at each checkpoint the counts are contracted
with the kernel tables in one fixed float order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import TENSOR_BUDGET, BudgetExceeded, DegreeTooLarge
from .markov import Distribution, index_dtype

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
    """A symmetric function of m states, held as its dense table: one axis
    per argument, indexed by state index, so that every finite-space
    quantity (sup |h|, B_q(h), projections, U-statistics) is exact.

    The degree m is ``table.ndim``.  A 0-d table is the degree-0 kernel: the
    constant it holds, as a degree-0 Hoeffding projection is.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.array(self.table, dtype=float)
        if len(set(t.shape)) > 1:
            raise ValueError("table must be a hypercube with one axis per argument")
        if not np.isfinite(t).all():
            raise ValueError("kernel table entries must be finite")
        _check_table_symmetry(t)
        t.setflags(write=False)
        self.table = t

    @property
    def degree(self) -> int:
        return self.table.ndim

    def sup_norm(self) -> float:
        """Exact sup |h| over the table."""
        return float(np.abs(self.table).max())

    def shifted(self, offset: float) -> "SymmetricKernelFn":
        """h - offset (a degree-m kernel; U_{n,m}(h - offset) = U_{n,m}(h) - offset)."""
        return SymmetricKernelFn(self.table - offset)


# ---------------------------------------------------------------------------
# builtin kernel families (config interface)

@dataclass(frozen=True)
class KernelFamily:
    """A builtin kernel recipe: a symmetric function ``fn`` of ``degree``
    raw state values, which only becomes a kernel once tabulated over a
    finite state embedding."""

    degree: int
    fn: Callable[..., float]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")

    def tabulated(self, states: Sequence[float]) -> SymmetricKernelFn:
        """fn evaluated on every m-tuple of state values, once S^m fits ``TENSOR_BUDGET``."""
        states = np.asarray(states, dtype=float)
        if states.size**self.degree > TENSOR_BUDGET:
            raise BudgetExceeded(f"kernel table S^m = {states.size**self.degree} exceeds tensor budget {TENSOR_BUDGET}")
        grids = np.meshgrid(*([states] * self.degree), indexing="ij")
        return SymmetricKernelFn(np.vectorize(self.fn, otypes=[float])(*grids))


def product_kernel(m: int, center: float = 0.0) -> KernelFamily:
    """h(y_1..y_m) = prod_j (y_j - center)."""
    return KernelFamily(m, lambda *ys: math.prod(y - center for y in ys))


def additive_kernel(m: int, center: float = 0.0) -> KernelFamily:
    """h(y_1..y_m) = sum_j (y_j - center)."""
    return KernelFamily(m, lambda *ys: sum(y - center for y in ys))


def indicator_diag_kernel(m: int, atol: float = 0.0) -> KernelFamily:
    """1 if all arguments coincide (within atol), else 0."""
    return KernelFamily(m, lambda *ys: 1.0 if max(ys) - min(ys) <= atol else 0.0)


def gaussian_rbf_kernel(m: int, bandwidth: float = 1.0) -> KernelFamily:
    """exp(-sum_{i<j} (y_i - y_j)^2 / (2 * bandwidth^2)); symmetric for any m."""
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError("bandwidth must be a finite number > 0")
    inv = 1.0 / (2.0 * bandwidth * bandwidth)

    def fn(*ys: float) -> float:
        sq = sum((a - b) ** 2 for a, b in itertools.combinations(ys, 2))
        return math.exp(-sq * inv)

    return KernelFamily(m, fn)


# ---------------------------------------------------------------------------
# evaluation

def tuple_sums(
    paths: np.ndarray,
    tables: Sequence[np.ndarray],
    checkpoints: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Kernel sums over the increasing index m-tuples of every checkpoint
    prefix of one path (n,), giving out[k, j], or of every row i of a
    batch (rows, n), giving out[k, j, i]:

        out[k, j, i] = sum_{t_1 < ... < t_m < checkpoints[j]} tables[k][paths[i, t_1], ..., paths[i, t_m]]

    for tables of one shape (S,) * m.  The engine keeps integer level tensors
    L_c (count of c-tuples by state, newest index first) for c = 1..m and,
    at each time step, adds L_{c-1} into the slice L_c[x_t] of every row at
    once.  A batch is counted whole, so its rows * S^m level cells must
    fit the budget.  One path is first cut into about sqrt(n) equal pieces
    and at every checkpoint, the pieces are counted as rows in sub-batches
    of budget // S^m rows, and they are joined by Chen's identity
    L_c(A B) = sum_j L_j(B) (x) L_{c-j}(A): the pieces of each run that
    ends at a checkpoint (or at its sub-batch's end) are joined as a tree,
    adjacent pairs in one batched call per level (:func:`_join_run`), and
    the run is then joined onto the prefix before it.  The padded grid of a
    sub-batch is freed before its joins.  Either way, as the count passes a
    checkpoint the live counts are contracted with every table by
    :func:`_contract`, so no count tensor outlives its checkpoint.

    No cell of any level of rows of at most n steps exceeds
    binom(n, min(m, n // 2)), so the levels of a count are int32 when that
    bound is below 2^31 (n = ``max(checkpoints)`` for a batch, the longest
    piece for one path) and int64 otherwise; the pieces of one path are
    joined in int64.  Counts are exact while the bound is below 2^63 (checked),
    so a sum does not depend on the budget, on how a path is cut or on the
    batch it is counted in; one path counts as one row.  The budget counts
    level cells whatever their width.  State indices must lie in [0, S),
    in any integer type; the padded piece grid of one path holds them in
    the sampler's type, ``index_dtype(S)`` (int8 up to 11 states).
    """
    paths = np.asarray(paths)
    s, m = tables[0].shape[0], tables[0].ndim
    _check_counting(paths, s, m, budget)
    marks = _checkpoints(checkpoints, m, paths.shape[-1])
    top = max(marks)

    def read(levels: list) -> list:
        counts = _oldest_first(levels[m], s, m)
        return [_contract(counts, table) for table in tables]

    def stack(sums: dict) -> np.ndarray:
        return np.array([[sums[c][k] for c in marks] for k in range(len(tables))])

    if paths.ndim == 2:
        return stack(_count_rows(paths[:, :top], np.full(len(paths), top), s, m, dict.fromkeys(marks, read))[1])
    # about sqrt(n) equal pieces, also cut at every checkpoint
    pieces, wanted, batch = math.isqrt(top), set(marks), budget // s**m
    cuts = sorted({top * i // pieces for i in range(pieces + 1)} | wanted)
    acc = _empty_levels(1, s, m)
    sums = {}
    for lo in range(0, len(cuts) - 1, batch):
        ends = cuts[lo : lo + batch + 1]
        lengths = np.diff(ends)
        # rows longest first, as _count_rows needs: piece p is row rank[p]
        order = np.argsort(-lengths, kind="stable")
        rank = np.argsort(order)
        grid = np.zeros((lengths.size, int(lengths.max())), dtype=index_dtype(s))
        for p, (a, b) in enumerate(zip(ends, ends[1:])):
            grid[rank[p], : b - a] = paths[a:b]
        levels = _count_rows(grid, lengths[order], s, m, {})[0]
        del grid
        # the pieces in path order, in int64: a join of pieces counts more than any piece
        levels = [lv.astype(np.int64).take(rank, axis=0) for lv in levels]
        # runs of pieces that end at a checkpoint, and the sub-batch's last run
        stops = sorted({p for p, end in enumerate(ends) if p and end in wanted} | {len(ends) - 1})
        for a, b in zip([0] + stops, stops):
            acc = _join(acc, _join_run([lv[a:b] for lv in levels], m), m)
            if ends[b] in wanted:
                sums[ends[b]] = read(acc)
    return stack(sums)[..., 0]


def _check_counting(paths: np.ndarray, s: int, m: int, budget: int) -> None:
    """Refuse, before anything is allocated, what the engine cannot count
    exactly within the budget."""
    n = paths.shape[-1]
    if n < m:
        raise DegreeTooLarge(f"n = {n} < m = {m}")
    # the largest cell of any level L_c, c <= m, is at most binom(n, min(m, n // 2))
    if math.comb(n, min(m, n // 2)) >= 2**63:
        raise BudgetExceeded(f"tuple counts of n = {n}, m = {m} overflow int64")
    rows = len(paths) if paths.ndim == 2 else 1
    if rows * s**m > budget:
        raise BudgetExceeded(f"level tensors of {rows} row(s), rows * S^m = {rows * s**m}, exceed budget {budget}")
    # an index >= S would be counted in the next row's slice of the level tensors
    if paths.size and (paths.min() < 0 or paths.max() >= s):
        raise ValueError(f"state indices must lie in [0, {s})")


def check_path_cost(n: int, s: int, m: int, budget: int) -> None:
    """Refuse one path of n steps whose counting cost n * S^(m-1) exceeds
    the budget."""
    if n * s ** (m - 1) > budget:
        raise BudgetExceeded(f"counting cost n*S^(m-1) = {n * s ** (m - 1)} exceeds budget {budget}")


def _checkpoints(checkpoints: Sequence[int], m: int, n: int) -> list[int]:
    marks = [int(c) for c in checkpoints]
    if not marks or any(not m <= c <= n for c in marks):
        raise ValueError(f"checkpoints must lie in [{m}, {n}]")
    return marks


def _empty_levels(rows: int, s: int, m: int, dtype: type = np.int64) -> list:
    return [np.ones((rows, 1), dtype=dtype)] + [np.zeros((rows, s**c), dtype=dtype) for c in range(1, m + 1)]


def _count_rows(grid: np.ndarray, lengths: np.ndarray, s: int, m: int, reads: dict) -> tuple[list, dict]:
    """Level tensors of each row grid[i, :lengths[i]], in one pass over
    time vectorized across rows, and for each step count t in ``reads``
    the value reads[t](levels) of the live levels after t steps.  Rows come
    longest first (``lengths`` non-increasing), so the rows still live at
    any step are a prefix, updated through views."""
    # the narrowest exact width: no cell of any L_c, c <= m, over rows of at
    # most n steps exceeds binom(n, min(m, n // 2))
    n = grid.shape[1]
    levels = _empty_levels(grid.shape[0], s, m, np.int32 if math.comb(n, min(m, n // 2)) < 2**31 else np.int64)
    # L_c viewed as (rows * S, S^(c-1)): row i, newest state x is line i * S + x
    lines = [None] + [lv.reshape(-1, s ** (c - 1)) for c, lv in enumerate(levels) if c]
    base = np.arange(grid.shape[0]) * s
    # rows live at step t: the first alive[t], those with lengths > t
    alive = np.searchsorted(-lengths, -np.arange(n), side="left")
    read_out = {}
    for t in range(n):
        live = slice(alive[t])
        idx = (base + grid[:, t])[live]
        for c in range(m, 0, -1):
            lines[c][idx] += levels[c - 1][live]
        if t + 1 in reads:
            read_out[t + 1] = reads[t + 1](levels)
    return levels, read_out


def _join(a: list, b: list, m: int) -> list:
    """Levels of the concatenation A B (A first) by Chen's identity; the
    newest-first layout puts B's indices before A's.  The result has A's
    width (B may be narrower)."""
    b = [lv.astype(a[0].dtype, copy=False) for lv in b]
    return [a[0]] + [
        sum((b[j][:, :, None] * a[c - j][:, None, :]).reshape(len(a[0]), -1) for j in range(c + 1))
        for c in range(1, m + 1)
    ]


def _join_run(levels: list, m: int) -> list:
    """Levels of the concatenation of the rows of ``levels``, in order:
    adjacent pairs are joined in one batched :func:`_join` per round, so a
    run of k rows takes about log2(k) calls.  The counts are integers, so
    the grouping does not change them."""
    while len(levels[0]) > 1:
        pairs = len(levels[0]) // 2
        joined = _join([lv[: 2 * pairs : 2] for lv in levels], [lv[1 : 2 * pairs : 2] for lv in levels], m)
        levels = [np.concatenate((j, lv[2 * pairs :])) for j, lv in zip(joined, levels)]
    return levels


def _oldest_first(level: np.ndarray, s: int, m: int) -> np.ndarray:
    """(rows, S^m) newest-first counts as a (rows, S, ..., S) oldest-first view."""
    return level.reshape((level.shape[0],) + (s,) * m).transpose(0, *range(m, 0, -1))


def _contract(counts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_v counts[i, v] * table[v] for each row i of ``counts``.

    One BLAS dot product per count tensor over its oldest-first C order:
    the float order of ``np.tensordot(counts_i, table, axes=m)``, so a value
    never depends on the batch it was counted in.  Counts convert to
    float64 exactly below 2^53.
    """
    t = table.ravel()
    return np.array([np.dot(c.astype(np.float64, order="C").ravel(), t) for c in counts])


def u_statistic(path: np.ndarray, h: SymmetricKernelFn, budget: int = DEFAULT_BUDGET) -> float:
    """Average of h over all strictly increasing index m-tuples of a 1-D path.

    A degree-0 kernel (such as the projection pi_{0,m}h) evaluates to its
    constant.  Otherwise the path's kernel sum comes from the exact engine
    :func:`tuple_sums`, whose n * S^(m-1) cost must fit the budget.
    """
    path = np.asarray(path)
    if path.ndim != 1:
        raise ValueError(f"a path is a 1-D array of state indices, got shape {path.shape}")
    m = h.degree
    if m == 0:
        return float(h.table)
    n = path.size
    check_path_cost(n, h.table.shape[0], m, budget)
    return float(tuple_sums(path, [h.table], [n], budget)[0, 0]) / math.comb(n, m)


def hoeffding_project(h: SymmetricKernelFn, pi: Distribution, c: int) -> SymmetricKernelFn:
    """Exact pi_{c,m}h by signed-measure expansion, as a degree-c kernel
    (for c = 0, the 0-d table holding the constant pi^{(m)}h).

    Expanding the product of (delta - pi) factors gives

        pi_{c,m}h(y_1..y_c) = sum_{T subset {1..c}} (-1)^{c-|T|} g_{|T|}(y_T)

    where g_k fixes k arguments and integrates the remaining m-k against
    pi.  The partial integrals g_k are shared across subsets (computed once
    by repeated tensor contraction).
    """
    m = h.degree
    if not 0 <= c <= m:
        raise ValueError(f"c must lie in [0, {m}]")
    if m and pi.size != h.table.shape[0]:
        raise ValueError("pi dimension does not match the kernel table")
    w = pi.weights
    partial = [None] * (m + 1)
    partial[m] = h.table
    for k in range(m - 1, -1, -1):
        partial[k] = np.tensordot(partial[k + 1], w, axes=([-1], [0]))
    if c == 0:
        return SymmetricKernelFn(partial[0])
    s = pi.size
    out = np.zeros((s,) * c)
    for k in range(c + 1):
        sign = (-1.0) ** (c - k)
        for positions in itertools.combinations(range(c), k):
            shape = tuple(s if p in positions else 1 for p in range(c))
            out += sign * np.asarray(partial[k]).reshape(shape)
    # The sum above rounds in an order that depends on the argument order,
    # so out[i, j] and out[j, i] can differ by ulp(pi^{(m)}h), which is far
    # above the symmetry tolerance of a small projection of a large kernel.
    # Every entry takes the value at its sorted index instead.
    return SymmetricKernelFn(out[tuple(np.sort(np.indices(out.shape), axis=0))])


def degeneracy_order(h: SymmetricKernelFn, pi: Distribution, eps: float = DEGENERACY_EPS) -> int:
    """Smallest d with pi_{d,m}h not identically zero; m+1 if all vanish
    (then h integrates to zero against every product argument and
    U_{n,m}(h) is identically pi^{(m)}h = 0)."""
    for d in range(h.degree + 1):
        if hoeffding_project(h, pi, d).sup_norm() > eps:
            return d
    return h.degree + 1


def verify_hoeffding(
    path: np.ndarray, h: SymmetricKernelFn, pi: Distribution, budget: int = DEFAULT_BUDGET
) -> float:
    """Residual of the decomposition of U_{n,m}(h) into canonical parts:

        |U_{n,m}(h) - sum_{c=0}^m binom(m, c) U_{n,c}(pi_{c,m}h)|

    which is zero up to float roundoff for every path.
    """
    lhs = u_statistic(path, h, budget)
    rhs = 0.0
    for c in range(h.degree + 1):
        rhs += math.comb(h.degree, c) * u_statistic(path, hoeffding_project(h, pi, c), budget)
    return abs(lhs - rhs)


def canonicalize(h: SymmetricKernelFn, pi: Distribution) -> SymmetricKernelFn:
    """The completely degenerate part pi_{m,m}h."""
    return hoeffding_project(h, pi, h.degree)
