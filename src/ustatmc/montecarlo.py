"""Seeded replicated simulation, the exact small-n L2 oracle, and the
strong-law convergence experiment.

Replicate r draws its own PCG64 stream from seed_r = mix64(master_seed, r),
where mix64 is the splitmix64 finalizer:

    z = (seed + (r + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2^64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2^64)
    z ^= z >> 31

Streams therefore do not depend on how replicates are cut into blocks, and
the blocks run in replicate order in one thread, so results are bitwise
reproducible for a fixed master seed at any budget.

Replicate paths come from the one sampler :func:`ustatmc.markov.sample_paths`
and are counted by the one counting call :func:`ustatmc.ustats.tuple_sums`.
Since ``Generator.random(n)`` is a prefix of ``Generator.random(n_max)`` for
the same stream, replicate r's path at n is the first n steps of its path at
n_max.  So one path of length max n per replicate serves every Monte Carlo
n of the grid, and both statistics: the count reads each n off as it
passes it (:func:`replicate_u_grid`, which alone splits the replicates
into blocks and calls ``tuple_sums`` once per block).  The strong-law run
reads its single path at every checkpoint with one ``tuple_sums`` call.

The exact oracle :func:`exact_l2` takes a counting recursion in
expectation: one forward pass over time carries the second moments of the
multiset tuple counts, split by the current state, so it draws no path and
counts none.  Its multisets are the counting engine's, listed by
:func:`ustatmc.ustats._multisets`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bounds import evaluate_bounds
from .errors import BudgetExceeded, ConfigError, DegreeTooLarge, refuse_over
from .markov import Distribution, ErgodicityProfile, FiniteKernel, check_seed, sample_paths, simulate
from .ustats import (
    DEFAULT_BUDGET, SymmetricKernelFn, _multisets, check_tuple_counts, count_cells, hoeffding_project, tuple_sums,
)

_GOLDEN = 0x9E3779B97F4A7C15
EXACT_PAIRS_BUDGET = 20_000


def mix64(seed: int, r):
    """Derive the r-th replicate seed from a master seed (splitmix64); an
    array of r gives a uint64 array, whose arithmetic wraps mod 2^64."""
    z = (np.atleast_1d(np.asarray(r, dtype=np.uint64)) + 1) * _GOLDEN + seed
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z if np.ndim(r) else int(z[0])


def l2_estimate(u: np.ndarray) -> tuple[float, float]:
    """(point, stderr) of replicate values ``u``: point = sqrt(mean U_r^2);
    stderr maps the standard error of mean(U^2) through the square root
    (delta method)."""
    u2 = u * u
    point = math.sqrt(max(float(u2.sum() / u2.size), 0.0))
    if u2.size > 1 and point > 0.0:
        return point, math.sqrt(float(np.var(u2, ddof=1)) / u2.size) / (2.0 * point)
    return point, 0.0


def positive_number(raw: object) -> bool:
    """A finite JSON number > 0 (a boolean is not a number here)."""
    return isinstance(raw, (int, float)) and not isinstance(raw, bool) and math.isfinite(raw) and raw > 0


def parse_bound_requests(raw: object) -> list[tuple[str, float | None]]:
    """The bound requests as written, a list of {"name", "p"} objects, as
    validated (name, p) pairs: ``p`` is kept as written for corollary3 and
    is None otherwise.  A bad request raises :class:`ConfigError`."""
    if not isinstance(raw, list):
        raise ConfigError(f"experiment.bounds must be a list of bound requests, got {raw!r}")
    requests = []
    for request in raw:
        if not isinstance(request, dict) or request.get("name") not in ("theorem1", "corollary2", "corollary3"):
            raise ConfigError(f"unknown bound request {request!r}")
        name, p = request["name"], request.get("p")
        if (p is None and name == "corollary3") or not (p is None or positive_number(p)):
            raise ConfigError(f"bound request {request!r} needs a finite number p > 0")
        requests.append((name, p if name == "corollary3" else None))
    return requests


@dataclass
class SllnConfig:
    """Resolved inputs for the strong-law run: one path of ``n_max`` steps
    of ``kernel`` from ``mu0``, drawn from ``seed``, and U_n(h) at each
    checkpoint, counted within ``budget``.  ``checkpoints`` takes the
    listed ones, or None for the powers of two from 8 and then n_max, and
    holds the sorted ones in [m, n_max].  An n_max below 2 or a kernel of
    degree 0 raises ValueError, and no usable checkpoint ConfigError, here,
    before any work."""

    kernel: FiniteKernel
    mu0: Distribution
    h: SymmetricKernelFn
    n_max: int
    seed: int
    checkpoints: list[int] | None = None
    threshold: float | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")
        m = self.h.degree
        if m < 1:
            raise ValueError("kernel degree must be >= 1")
        if self.checkpoints is not None:
            pts = sorted(set(int(c) for c in self.checkpoints))
        else:
            pts = []
            c = 8
            while c <= self.n_max:
                pts.append(c)
                c *= 2
            if not pts or pts[-1] != self.n_max:
                pts.append(self.n_max)
        pts = [c for c in pts if m <= c <= self.n_max]
        if not pts and self.checkpoints is None:
            raise ConfigError(f"slln.n_max = {self.n_max} is below the kernel degree m = {m}")
        if not pts:
            raise ConfigError(f"slln.checkpoints has no entry in [m, n_max] = [{m}, {self.n_max}]")
        self.checkpoints = pts


@dataclass
class ExperimentConfig:
    """Resolved inputs for the variance experiment.

    ``bounds`` takes the requests as written, {"name", "p"} objects, and
    holds them as :func:`parse_bound_requests` returns them.  A bad request
    raises :class:`ConfigError` here, before any work.
    """

    kernel: FiniteKernel
    mu0: Distribution
    profile: ErgodicityProfile
    h: SymmetricKernelFn
    n_grid: list[int]
    replicates: int
    master_seed: int
    bounds: list = field(default_factory=list)
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        if any(a >= b for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.h.degree < 1:
            raise ValueError("kernel degree must be >= 1")
        if self.n_grid and self.n_grid[0] < self.m:
            raise ValueError(f"n_grid entries must be >= m = {self.m}")
        self.bounds = parse_bound_requests(self.bounds)

    @property
    def m(self) -> int:
        return self.h.degree


# ---------------------------------------------------------------------------
# exact oracle

def exact_l2(
    mu: Distribution,
    kernel: FiniteKernel,
    h: SymmetricKernelFn,
    n: int,
    m: int,
    pairs_budget: int = EXACT_PAIRS_BUDGET,
) -> float:
    """||U_{n,m}(h)||_2 exactly (times 0..n-1, Y_0 ~ mu), by a recursion
    over multiset tuple counts taken in expectation.

    A path's count vector l holds, in block c, N_A for the multisets A of
    c states as :func:`_multisets` lists them (block 0 is N_{} = 1): the
    increasing c-tuples of times whose states form A.  When the path sees
    state x, each line B of block c - 1 adds N_B to the line of B + {x}
    (Pascal's rule on each binom(c_x, k_x) of N_A).  The pass carries
    second[x] = E[l l^T ; Y_t = x], an (S, K', K') array with K' = sum_c
    binom(S + c - 1, c): seeing applies that update to both axes of every
    second[x] at once, and a step moves the mass through P.  After n steps
    the block m x m of sum_x second[x] is E[N N^T], and sum_A h(Y_A) =
    <w, N> with w_A = h(A).

    ``m`` must be ``h.degree`` (any other raises ValueError).  binom(n, m)^2
    must fit ``pairs_budget`` (checked first) and the S*K'^2 cells of second
    must fit the fixed cap, both checked by
    :func:`~ustatmc.errors.refuse_over` before the index or any array is
    built.
    """
    if m != h.degree:
        raise ValueError(f"m = {m} does not match the kernel's degree h.degree = {h.degree}")
    if n < m:
        raise DegreeTooLarge(f"n = {n} < m = {m}")
    refuse_over("exact-oracle index pairs binom(n,m)^2", math.comb(n, m) ** 2, pairs_budget)
    s = kernel.size
    # block c of l is l[offsets[c] : offsets[c + 1]], and tuples[i] the multiset of line i
    offsets = [0] + list(itertools.accumulate(math.comb(s + c - 1, c) for c in range(m + 1)))
    k = offsets[-1]
    refuse_over("exact-oracle second-moment cells S*K'^2", s * k * k)
    tuples = [()] + [a for c in range(1, m + 1) for a in map(tuple, _multisets(s, c)[0].tolist())]
    line = {a: i for i, a in enumerate(tuples)}
    # lines[c][x] = the lines of block c that gain block c - 1 when the path sees x
    lines = [None] + [np.array([[line[tuple(sorted(b + (x,)))] for b in tuples[offsets[c - 1] : offsets[c]]]
                                for x in range(s)]) for c in range(1, m + 1)]
    seen = np.arange(s)[:, None]
    second = np.zeros((s, k, k))
    second[:, 0, 0] = mu.weights
    for t in range(n):
        if t:
            second = np.tensordot(kernel.matrix, second, axes=(0, 0))
        for moments in (second, second.swapaxes(1, 2)):
            for c in range(m, 0, -1):
                moments[seen, lines[c]] += moments[:, offsets[c - 1] : offsets[c]]
    w = np.array([h.table[a] for a in tuples[offsets[m] :]])
    mean_sq = float(w @ second[:, offsets[m] :, offsets[m] :].sum(axis=0) @ w) / math.comb(n, m) ** 2
    return math.sqrt(max(mean_sq, 0.0))


# ---------------------------------------------------------------------------
# replicated simulation

def replicate_u_grid(
    kernel: FiniteKernel,
    mu0: Distribution,
    hs: Sequence[SymmetricKernelFn],
    ns: Sequence[int],
    replicates: int,
    master_seed: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """U values of every kernel of ``hs`` (one degree m) at every n of
    ``ns``: out[k, j, r] = U_{ns[j], m}(hs[k]) on replicate r's path.

    Replicate r's path at n is the first n steps of its path at max(ns):
    its PCG64 stream's first n uniforms do not depend on how many are
    drawn.  So each replicate is sampled once, to max(ns), and counted
    once.  This is the one place that splits replicates.  Counting r of
    them holds r * per_row + fixed cells (:func:`count_cells`), ``out``
    among the fixed; a pass whose one replicate is over ``budget``, or
    whose counts could reach 2^63 (:func:`check_tuple_counts`), is refused
    before sampling, and the rest are cut in order into blocks of
    (budget - fixed) // per_row rows.  The blocks run in replicate order
    in one thread: each mixes its seeds as one uint64 array and counts one
    :func:`sample_paths` call by one :func:`tuple_sums` call, which reads
    every n as it passes, into its columns of ``out``.  Every row is
    computed on its own, so each value is bit-identical to
    ``u_statistic`` on that replicate's first n steps at any ``budget``.
    ``master_seed`` must be an integer in [0, 2^64), not a bool, as
    :func:`sample_paths` takes a seed, and ``replicates`` must be >= 1;
    any other raises ValueError before a seed is mixed.
    """
    master_seed = check_seed(master_seed)
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    tables = [h.table for h in hs]
    m, s, n_max = hs[0].degree, kernel.size, max(ns)
    if min(ns) < m:
        raise DegreeTooLarge(f"n = {min(ns)} < m = {m}")
    check_tuple_counts(n_max, m)
    shape = (len(tables), len(ns))
    fixed = count_cells(0, n_max, s, m, *shape, replicates)
    per_row = count_cells(1, n_max, s, m, *shape, replicates) - fixed
    refuse_over(f"cells to count 1 path(s) of {n_max} steps", fixed + per_row, budget)
    rows = (budget - fixed) // per_row
    out = np.empty(shape + (replicates,))
    for start in range(0, replicates, rows):
        stop = min(start + rows, replicates)
        seeds = mix64(master_seed, np.arange(start, stop, dtype=np.uint64))
        out[..., start:stop] = tuple_sums(sample_paths(kernel, mu0, n_max, seeds), tables, ns, budget)
    for j, n in enumerate(ns):
        out[:, j] /= math.comb(n, m)
    return out


# ---------------------------------------------------------------------------
# experiment drivers

VARIANCE_COLUMNS = [
    "n", "m", "statistic", "l2_kind", "estimate", "stderr", "replicates",
    "bound_name", "bound", "margin", "pass", "inputs_hash", "provenance",
]


def run_variance_experiment(config: ExperimentConfig) -> list[dict]:
    """The ``variance.csv`` rows: the (exact or Monte Carlo) L2 of the
    U-statistic against every requested bound, per n in the grid.

    One :func:`evaluate_bounds` call routes the requests and evaluates the
    bounds of every n: completely degenerate kernels go to the uncentered
    bounds, anything else to the centered bound.  The centered statistic is
    realized as U_{n,m}(h - pi^{(m)}h).  Then the exact oracle is tried per
    (n, statistic); every n it refuses goes to one :func:`replicate_u_grid`
    pass, one path per replicate, shared by both statistics.  Rows come by
    n, then statistic, then request order; margin = bound - (l2 + 3 stderr)
    and a row passes when its margin is >= 0.
    """
    kernel, h, m = config.kernel, config.h, config.m
    _, entries = evaluate_bounds(config.bounds, config.n_grid, h, config.profile, config.mu0, kernel)
    stat_hs = {"u": h, "u_centered": h.shifted(float(hoeffding_project(h, kernel.stationary(), 0).table))}
    l2: dict[tuple[int, str], tuple[str, float, float, int]] = {}
    refused = []
    for n in config.n_grid:
        for variant in sorted({statistic for statistic, *_ in entries[n]}):
            try:
                l2[n, variant] = ("exact", exact_l2(config.mu0, kernel, stat_hs[variant], n, m), 0.0, 0)
            except BudgetExceeded:
                refused.append((n, variant))
    if refused:
        mc_ns = sorted({n for n, _ in refused})
        mc_variants = sorted({variant for _, variant in refused})
        u = replicate_u_grid(kernel, config.mu0, [stat_hs[v] for v in mc_variants], mc_ns,
                             config.replicates, config.master_seed, budget=config.budget)
        for n, variant in refused:
            point, stderr = l2_estimate(u[mc_variants.index(variant), mc_ns.index(n)])
            l2[n, variant] = ("monte-carlo", point, stderr, config.replicates)
    rows = []
    for n in config.n_grid:
        for statistic, label, value, digest in sorted(entries[n], key=lambda entry: entry[0]):
            kind, estimate, stderr, replicates = l2[n, statistic]
            margin = value - (estimate + 3.0 * stderr)
            values = (n, m, statistic, kind, estimate, stderr, replicates, label, value, margin, margin >= 0.0,
                      digest, config.profile.provenance)
            rows.append(dict(zip(VARIANCE_COLUMNS, values)))
    return rows


def run_slln_experiment(config: SllnConfig) -> dict:
    """Single seeded trajectory tracked at dyadic checkpoints.

    Emits (n, U_n, target, |U_n - target|) with target = pi^{(m)}h computed
    exactly.  A finite ergodic chain mixes geometrically and a tabulated h
    is bounded, so the strong law's conditions hold without a check, and no
    mixing profile is read.  A count that could reach 2^63 or exceed the
    budget is refused before the path is drawn.
    """
    m, checkpoints = config.h.degree, config.checkpoints
    n_max = checkpoints[-1]
    check_tuple_counts(n_max, m)
    charge = count_cells(1, n_max, config.kernel.size, m, 1, len(checkpoints))
    refuse_over(f"cells to count 1 path(s) of {n_max} steps", charge, config.budget)
    pi = config.kernel.stationary()
    target = float(hoeffding_project(config.h, pi, 0).table)
    path = simulate(config.kernel, config.mu0, n_max, config.seed)
    numerators = tuple_sums(path, [config.h.table], checkpoints, config.budget)[0]
    rows = []
    for c, numerator in zip(checkpoints, numerators):
        u_n = float(numerator) / math.comb(c, m)
        rows.append({"n": c, "u_n": u_n, "target": target, "abs_error": abs(u_n - target)})
    return {"rows": rows, "target": target, "seed": config.seed}
