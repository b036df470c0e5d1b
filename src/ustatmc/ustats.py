"""U-statistics, Hoeffding projections, and degeneracy detection.

For a symmetric degree-m function h and a path Y_0, ..., Y_{n-1},

    U_{n,m}(h) = binom(n, m)^{-1} * sum_{t_1 < ... < t_m} h(Y_{t_1}, ..., Y_{t_m})

with the convention that a degree-0 kernel is the constant it holds.  A
kernel is always its dense table over the S states of the chain
(:class:`SymmetricKernelFn`, one axis per argument; a 0-d table for degree
0).  The builtin families are recipes (:class:`KernelFamily`) that become
kernels only when tabulated over the state values.  The projection
pi_{c,m}h, :func:`hoeffding_project`, applies (delta_{y_1} - pi) x ... x
(delta_{y_c} - pi) x pi^{(m-c)} to h and is again a kernel, of degree c
(at c = m, the canonical part of h); the signed product is expanded
exactly over the 2^c subsets of fixed arguments, so every identity here is
checkable to float precision.

Every path is evaluated by one counting call, :func:`tuple_sums`, which
takes one path or a batch and serves :func:`u_statistic`, the replicate
estimator and the strong-law run.  A symmetric kernel sees a tuple only
through the multiset of its states, so a prefix's kernel sum is a function
of its state occupation counts c_x (Hoeffding 1948): the sum over the
binom(S + m - 1, m) multisets A of h(A) * prod_x binom(c_x, k_x(A)).  The
engine keeps the occupation counts, forms the multiset counts exactly in
int64 at each checkpoint and contracts them with the kernel tables row by
row, once per distinct occupation vector, so a value does not depend on
the batch it is counted in.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegreeTooLarge, refuse_over
from .markov import Distribution

DEFAULT_BUDGET = 10**8
DEGENERACY_EPS = 1e-10
# the cells of one path slice (8 bytes each as bin indices) and of one chunk of multiset-count rows
_SLICE = 2**13
_CHUNK = 2**15


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
    finite state embedding.  ``fn`` broadcasts: given ``degree`` arrays of
    state values it returns their values cell by cell, rounded as the
    scalar formula rounds each cell."""

    degree: int
    fn: Callable[..., np.ndarray]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")

    def tabulated(self, states: Sequence[float]) -> SymmetricKernelFn:
        """fn evaluated on every m-tuple of state values, once the S^m table
        passes :func:`~ustatmc.errors.refuse_over`: one call on the sparse
        (S, 1, ...), (1, S, ...), ... grids of the state values, broadcast
        to (S,) * m."""
        states = np.asarray(states, dtype=float)
        refuse_over("kernel table cells S^m", states.size**self.degree)
        grids = np.meshgrid(*([states] * self.degree), indexing="ij", sparse=True)
        return SymmetricKernelFn(np.broadcast_to(self.fn(*grids), (states.size,) * self.degree))


def product_kernel(m: int, center: float = 0.0) -> KernelFamily:
    """h(y_1..y_m) = prod_j (y_j - center)."""
    return KernelFamily(m, lambda *ys: math.prod(y - center for y in ys))


def additive_kernel(m: int, center: float = 0.0) -> KernelFamily:
    """h(y_1..y_m) = sum_j (y_j - center)."""
    return KernelFamily(m, lambda *ys: sum(y - center for y in ys))


def indicator_diag_kernel(m: int) -> KernelFamily:
    """1 if all arguments are equal, else 0."""
    return KernelFamily(
        m, lambda *ys: np.where(functools.reduce(np.maximum, ys) == functools.reduce(np.minimum, ys), 1.0, 0.0)
    )


def gaussian_rbf_kernel(m: int, bandwidth: float = 1.0) -> KernelFamily:
    """exp(-sum_{i<j} (y_i - y_j)^2 / (2 * bandwidth^2)); symmetric for any m.

    Each square is ``np.float_power``, the C ``pow`` of Python's ``**``,
    and each exponential is ``math.exp`` cell by cell, so every cell rounds
    as the scalar formula does: ``**`` on arrays squares by x * x and
    numpy's exp may be a SIMD routine, and both differ from the C library
    in the last bit on some arguments (x * x on about 0.1 % of random
    ones, against glibc's pow).
    """
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError("bandwidth must be a finite number > 0")
    inv = 1.0 / (2.0 * bandwidth * bandwidth)
    exp = np.vectorize(math.exp, otypes=[float])

    def fn(*ys: np.ndarray) -> np.ndarray:
        sq = sum(np.float_power(a - b, 2) for a, b in itertools.combinations(ys, 2))
        return exp(-sq * inv)

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

    for symmetric tables of one shape (S,) * m (any other raises
    ValueError).  A symmetric h sees a tuple only through the multiset A
    of its states, and a prefix whose state x occurs c_x times holds
    N_A = prod_x binom(c_x, k_x(A)) increasing tuples of multiset A, so

        out[k, j, i] = sum_A N_A * tables[k][A],   A over the binom(S + m - 1, m) multisets,

    with A read as its non-decreasing index.  The engine keeps the
    occupation counts c (rows, S) and adds each stretch of the time-major
    store ``paths.T`` between checkpoints in slices of ``_SLICE`` cells;
    at each checkpoint :func:`_contract` forms N_A exactly in int64 and
    contracts it with every table, once for each distinct row of c
    (:func:`_distinct_rows`): at S = 2 a checkpoint n has at most n + 1
    distinct rows, whatever the batch.  One path is a one-row batch, and
    every distinct row is contracted on its own by the same arithmetic, so
    a sum depends on its own row only: not on the batch, its split, or the
    budget.  Before anything is allocated, :func:`_check_counting` refuses
    a count whose integers could reach 2^63 or whose :func:`count_cells`
    exceed the budget.  State indices must lie in [0, S), any integer type:
    a path of floats or bools raises ValueError.
    """
    paths = np.asarray(paths)
    s, m = tables[0].shape[0], tables[0].ndim
    marks = _check_counting(paths, s, m, len(tables), checkpoints, budget)
    for table in tables:
        if table.shape != (s,) * m:
            raise ValueError(f"kernel tables must share one shape (S,) * m = {(s,) * m}, got {table.shape}")
        _check_table_symmetry(table)
    store = np.atleast_2d(paths).T
    rows = store.shape[1]
    multisets, factors = _multisets(s, m)
    weights = [np.asarray(table, dtype=float)[tuple(multisets.T)] for table in tables]
    counts = np.zeros((rows, s), dtype=np.int64)
    # cell (t, i) of a slice is counted in bin i * S + its state
    base = np.arange(rows) * s
    step = max(1, _SLICE // max(rows, 1))
    sums, done = {}, 0
    for mark in sorted(set(marks)):
        for t in range(done, mark, step):
            cells = store[t : min(t + step, mark)].astype(np.intp)
            cells += base
            counts += np.bincount(cells.ravel(order="K"), minlength=rows * s).reshape(rows, s)
        done = mark
        # rows with one occupation vector share every value: contract each distinct row once
        first, rank = _distinct_rows(counts, mark)
        sums[mark] = _contract(counts[first], factors, weights)[:, rank]
    out = np.stack([sums[c] for c in marks], axis=1)
    return out if paths.ndim == 2 else out[..., 0]


def count_cells(rows: int, n: int, s: int, m: int, tables: int = 1, checkpoints: int = 1, replicates: int = 0) -> int:
    """The cells (8 bytes) one :func:`tuple_sums` call holds at most: per
    row its path (of any width), counts with their bincount or sort keys,
    results and indices; fixed, the symmetry check's two S^m temporaries,
    the K = binom(S + m - 1, m) multisets and weights, one path slice and
    one :func:`_contract` chunk and, for a pass of ``replicates`` rows in
    all, their results.  Every counting refusal is this charge, held to the
    run's budget by :func:`~ustatmc.errors.refuse_over`."""
    k = math.comb(s + m - 1, m)
    per_row = n + 4 * s + tables * (2 * checkpoints + 1) + 8
    fixed = replicates * tables * checkpoints + 2 * s**m + k * (2 * m + 6 + tables) + _SLICE
    return rows * per_row + fixed + max(_CHUNK, _chunk_width(s, m, k))


def _chunk_width(s: int, m: int, k: int) -> int:
    # a row of a _contract chunk: S (m + 1) binomials, K counts in int64 and float64, a dot's list entry
    return s * (m + 1) + 2 * k + 5


def check_tuple_counts(n: int, m: int) -> None:
    """Refuse a count of m-tuples in paths of n steps whose int64
    integers could reach 2^63.  Every binom(c, k), k <= m, c <= n, passes
    through k * binom(c, k) before its // k, and every partial product of
    N_A is at most binom(n, sum of its k), so all stay below
    m * binom(n, min(m, n // 2)).  Callers that sample call it before
    drawing a path."""
    width = min(m, n // 2)
    refuse_over(f"int64 tuple-count bound {m}*binom({n}, {width})", m * math.comb(n, width), 2**63 - 1)


def _check_counting(paths: np.ndarray, s: int, m: int, tables: int, checkpoints: Sequence[int], budget: int) -> list[int]:
    """Refuse, before any allocation, what cannot be counted exactly within
    the budget; return the checkpoints as ints."""
    n = paths.shape[-1]
    if n < m:
        raise DegreeTooLarge(f"n = {n} < m = {m}")
    check_tuple_counts(n, m)
    marks = [int(c) for c in checkpoints]
    rows = len(paths) if paths.ndim == 2 else 1
    refuse_over(f"cells to count {rows} path(s) of {n} steps", count_cells(rows, n, s, m, tables, len(marks)), budget)
    # a float or bool path would be truncated to states, and an index >= S counted in the next row's bins
    if not np.issubdtype(paths.dtype, np.integer):
        raise ValueError(f"state indices must be integers, got a path of dtype {paths.dtype}")
    if paths.size and (paths.min() < 0 or paths.max() >= s):
        raise ValueError(f"state indices must lie in [0, {s})")
    if not marks or any(not m <= c <= n for c in marks):
        raise ValueError(f"checkpoints must lie in [{m}, {n}]")
    return marks


def _multisets(s: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The multisets of m states as their non-decreasing index tuples, a
    (K, m) array in lexicographic order, K = binom(S + m - 1, m), and the m
    factors of each N_A: for each distinct state x of A, at its last
    position, the flat index x * (m + 1) + k_x of binom(c_x, k_x) in an
    (S, m + 1) table, and index 0 (binom(c_0, 0) = 1) elsewhere."""
    tuples = np.arange(s)[:, None]
    for _ in range(m - 1):
        # each tuple extends by every state from its last one up
        ways = s - tuples[:, -1]
        prefix = np.repeat(tuples, ways, axis=0)
        rank = np.arange(len(prefix)) - np.repeat(np.cumsum(ways) - ways, ways)
        tuples = np.column_stack((prefix, prefix[:, -1] + rank))
    factors = np.zeros((m, len(tuples)), dtype=np.intp)
    run = np.zeros(len(tuples), dtype=np.intp)
    for j in range(m):
        x = tuples[:, j]
        run = np.where((x == tuples[:, j - 1]) if j else False, run + 1, 1)
        last = (x != tuples[:, j + 1]) if j + 1 < m else True
        factors[j] = np.where(last, x * (m + 1) + run, 0)
    return tuples, factors


def _distinct_rows(counts: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, rank) for the rows of an integer array ``counts`` (rows, S)
    with entries in [0, top]: ``first`` indexes one row of each distinct
    row, and ``rank`` gives each row's place in ``first``, so
    counts[first][rank] equals counts.  The rows are ranked by a lexsort
    on keys no wider than ``top`` needs, which numpy radix-sorts up to 16
    bits (np.unique would import numpy.ma on its first call)."""
    keys = counts.astype(np.min_scalar_type(top))
    order = np.lexsort(keys.T)
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    return order[new], rank


def _contract(counts: np.ndarray, factors: np.ndarray, weights: list) -> np.ndarray:
    """sum_A N_A * w[A] for each row of the occupation counts ``counts``
    (rows, S) and each weight vector w of ``weights``, as out[k, i].
    :func:`tuple_sums` passes each distinct row once.

    N_A is exact in int64: binom(c, k) = binom(c, k - 1) * (c - k + 1) // k
    for k = 1..m, then the product of the m factors of :func:`_multisets`.
    The rows go in chunks of at most ``_CHUNK`` cells (at least one row),
    and each row is one BLAS dot product over its C-contiguous float64
    counts, so a value never depends on the rows counted with it.  Counts
    convert to float64 exactly below 2^53.
    """
    m = len(factors)
    out = np.empty((len(weights), len(counts)))
    chunk = max(1, _CHUNK // _chunk_width(counts.shape[1], m, factors.shape[1]))
    for lo in range(0, len(counts), chunk):
        c = counts[lo : lo + chunk]
        binoms = np.ones(c.shape + (m + 1,), dtype=np.int64)
        for k in range(1, m + 1):
            binoms[..., k] = binoms[..., k - 1] * (c - k + 1) // k
        binoms = binoms.reshape(len(c), -1)
        n_a = binoms.take(factors[0], axis=1)
        for f in factors[1:]:
            n_a *= binoms.take(f, axis=1)
        n_a = np.ascontiguousarray(n_a, dtype=np.float64)
        for k, w in enumerate(weights):
            out[k, lo : lo + len(n_a)] = [np.dot(row, w) for row in n_a]
    return out


def u_statistic(path: np.ndarray, h: SymmetricKernelFn) -> float:
    """Average of h over all strictly increasing index m-tuples of a 1-D path.

    A degree-0 kernel (such as the projection pi_{0,m}h) evaluates to its
    constant.  Otherwise the path's kernel sum comes from the exact engine
    :func:`tuple_sums`, which refuses a path whose :func:`count_cells`
    exceed the counting engine's default budget.
    """
    path = np.asarray(path)
    if path.ndim != 1:
        raise ValueError(f"a path is a 1-D array of state indices, got shape {path.shape}")
    m = h.degree
    if m == 0:
        return float(h.table)
    return float(tuple_sums(path, [h.table], [path.size])[0, 0]) / math.comb(path.size, m)


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


def degeneracy_order(h: SymmetricKernelFn, pi: Distribution) -> int:
    """Smallest d with pi_{d,m}h not identically zero; m+1 if all vanish
    (then h integrates to zero against every product argument and
    U_{n,m}(h) is identically pi^{(m)}h = 0).  A projection vanishes when
    its sup norm is at most DEGENERACY_EPS * sup|h|, so d does not change
    when h is scaled: a kernel of tiny values is not taken as degenerate."""
    tol = DEGENERACY_EPS * h.sup_norm()
    for d in range(h.degree + 1):
        if hoeffding_project(h, pi, d).sup_norm() > tol:
            return d
    return h.degree + 1


def verify_hoeffding(path: np.ndarray, h: SymmetricKernelFn, pi: Distribution) -> float:
    """Residual of the decomposition of U_{n,m}(h) into canonical parts:

        |U_{n,m}(h) - sum_{c=0}^m binom(m, c) U_{n,c}(pi_{c,m}h)|

    which is zero up to float roundoff for every path.
    """
    lhs = u_statistic(path, h)
    rhs = 0.0
    for c in range(h.degree + 1):
        rhs += math.comb(h.degree, c) * u_statistic(path, hoeffding_project(h, pi, c))
    return abs(lhs - rhs)
