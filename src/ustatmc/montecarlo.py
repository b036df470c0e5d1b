"""Seeded replicated simulation, the exact small-n L2 oracle, and the
strong-law convergence experiment.

Replicate r draws its own PCG64 stream from seed_r = mix64(master_seed, r),
where mix64 is the splitmix64 finalizer:

    z = (seed + (r + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2^64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2^64)
    z ^= z >> 31

Streams therefore do not depend on how replicates are partitioned across
workers, and every reduction runs in fixed replicate order, so results are
bitwise reproducible for a fixed master seed at any --jobs value.

Replicate paths come from the one sampler :func:`ustatmc.markov.sample_paths`
and are counted by the one engine :func:`ustatmc.ustats.tuple_counts`; the
strong-law run uses the same two on its single path, reading the counts at
every checkpoint.

The exact oracle expands E[U^2] over all pairs of index m-tuples and
contracts each term against the exact joint law of the merged time set; it
shares no code path with the simulation estimate it cross-checks.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundReport, bound_requests, evaluate_bounds, m_sup
from .errors import BudgetExceeded, ConfigError, DegreeTooLarge
from .markov import Distribution, ErgodicityProfile, ExplicitRho, FiniteKernel, sample_paths, simulate
from .proofs import TENSOR_BUDGET, joint_law
from .ustats import (
    DEFAULT_BUDGET, SymmetricKernelFn, contract_counts, degeneracy_order, hoeffding_project, tuple_counts,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
EXACT_PAIRS_BUDGET = 20_000


def mix64(seed: int, r: int) -> int:
    """Derive the r-th replicate seed from a master seed (splitmix64)."""
    z = (seed + (r + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class L2Estimate:
    """sqrt(mean of squared replicate values) with a delta-method stderr."""

    point: float
    stderr: float
    replicates: int

    def __post_init__(self):
        if self.point < 0 or self.stderr < 0:
            raise ValueError("point and stderr must be >= 0")


@dataclass
class SllnConfig:
    n_max: int
    checkpoints: list[int] | None = None
    threshold: float | None = None

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")

    def resolve_checkpoints(self, m: int) -> list[int]:
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
        if not pts:
            raise ValueError("no usable checkpoints at or below n_max")
        return pts


@dataclass
class ExperimentConfig:
    """Resolved inputs for the variance and strong-law experiments."""

    kernel: FiniteKernel
    mu0: Distribution
    profile: ErgodicityProfile
    h: SymmetricKernelFn
    m: int
    n_grid: list[int]
    replicates: int
    master_seed: int
    bounds: list[dict] = field(default_factory=list)
    slln: SllnConfig | None = None
    budget: int = DEFAULT_BUDGET
    jobs: int = 1

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        if any(a >= b for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.h.degree != self.m:
            raise ValueError("kernel degree does not match m")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


# ---------------------------------------------------------------------------
# exact oracle

def exact_l2(
    mu: Distribution,
    kernel: FiniteKernel,
    h: SymmetricKernelFn,
    n: int,
    m: int,
    pairs_budget: int = EXACT_PAIRS_BUDGET,
    tensor_budget: int = TENSOR_BUDGET,
) -> float:
    """||U_{n,m}(h)||_2 exactly: binom(n,m)^{-2} sum over tuple pairs (A, B)
    of E[h(Y_A) h(Y_B)], each term an exact joint-law contraction over the
    merged time set (times 0..n-1, values[0] ~ mu)."""
    if h.table is None:
        raise ValueError("exact oracle needs a tabulated kernel")
    if n < m:
        raise DegreeTooLarge(f"n = {n} < m = {m}")
    pairs = math.comb(n, m) ** 2
    if pairs > pairs_budget:
        raise BudgetExceeded(f"binom(n,m)^2 = {pairs} exceeds exact-oracle budget {pairs_budget}")
    if kernel.size ** (2 * m) > tensor_budget:
        raise BudgetExceeded("joint-law tensors exceed budget")
    combos = list(itertools.combinations(range(n), m))
    law_cache: dict[tuple[int, ...], np.ndarray] = {}
    table = h.table
    total = 0.0
    for a in combos:
        for b in combos:
            merged = tuple(sorted(set(a) | set(b)))
            tensor = law_cache.get(merged)
            if tensor is None:
                tensor = joint_law(mu, kernel, merged, tensor_budget).tensor
                law_cache[merged] = tensor
            pos = {t: i for i, t in enumerate(merged)}
            term = np.einsum(
                tensor,
                list(range(len(merged))),
                table,
                [pos[t] for t in a],
                table,
                [pos[t] for t in b],
                [],
            )
            total += float(term)
    mean_sq = total / math.comb(n, m) ** 2
    return math.sqrt(max(mean_sq, 0.0))


# ---------------------------------------------------------------------------
# replicated simulation

def replicate_u_values(
    kernel: FiniteKernel,
    mu0: Distribution,
    h: SymmetricKernelFn,
    n: int,
    replicates: int,
    master_seed: int,
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """One U value per replicate, in replicate order, independent of jobs.

    Replicates are split into ``jobs`` contiguous blocks, each sampled as
    one batch in its own thread (numpy releases the interpreter lock inside
    the array work) and counted by the one engine :func:`tuple_counts` in
    sub-batches whose level tensors fit ``budget`` (one sub-batch per
    thread at a time).  Every row is computed
    on its own, so each value is bit-identical to ``u_statistic`` on that
    replicate's path at any ``jobs`` and any ``budget``.
    """
    table = h.table
    if table is None:
        raise ValueError("replicated estimation needs a tabulated kernel")
    m = h.degree
    if n < m:
        raise DegreeTooLarge(f"n = {n} < m = {m}")
    s = table.shape[0]
    # one row's levels beyond the budget are refused by tuple_counts
    rows = max(1, budget // s**m)
    seeds = [mix64(master_seed, r) for r in range(replicates)]
    chunk = max(1, math.ceil(replicates / max(jobs, 1)))
    blocks = [seeds[i : i + chunk] for i in range(0, replicates, chunk)]

    def work(block: list[int]) -> np.ndarray:
        paths = sample_paths(kernel, mu0, n, block)
        return np.concatenate([
            contract_counts(tuple_counts(paths[i : i + rows], s, m, budget=budget), table)
            for i in range(0, len(paths), rows)
        ])

    if jobs <= 1 or len(blocks) == 1:
        parts = [work(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(work, blocks))
    return np.concatenate(parts) / math.comb(n, m)


def estimate_l2(config: ExperimentConfig, n: int, h: SymmetricKernelFn | None = None) -> L2Estimate:
    """Monte Carlo estimate of ||U_{n,m}(h)||_2 over config.replicates paths.

    point = sqrt(mean U_r^2); stderr maps the standard error of mean(U^2)
    through the square root (delta method).  Bitwise deterministic for a
    fixed master seed at any jobs value.
    """
    h = config.h if h is None else h
    u = replicate_u_values(
        config.kernel, config.mu0, h, n, config.replicates, config.master_seed, config.jobs, config.budget
    )
    u2 = u * u
    mean_u2 = float(u2.sum() / u2.size)
    point = math.sqrt(max(mean_u2, 0.0))
    if u2.size > 1 and point > 0.0:
        se_mean = math.sqrt(float(np.var(u2, ddof=1)) / u2.size)
        stderr = se_mean / (2.0 * point)
    else:
        stderr = 0.0
    return L2Estimate(point=point, stderr=stderr, replicates=u2.size)


# ---------------------------------------------------------------------------
# experiment drivers

def _rho_provenance(config: ExperimentConfig, n: int) -> str:
    rho = config.profile.rho
    tag = config.profile.provenance
    if isinstance(rho, ExplicitRho) and rho.uses_tail(n):
        tag += "+estimated-tail"
    return tag


def run_variance_experiment(config: ExperimentConfig) -> list[BoundReport]:
    """Compare the (exact or estimated) L2 of the U-statistic against every
    requested bound, per n in the grid.

    Requests are validated and routed by :func:`bound_requests` before any
    L2 work: completely degenerate kernels go to the uncentered bounds,
    anything else to the centered bound.  The centered statistic is
    realized as U_{n,m}(h - pi^{(m)}h).
    """
    kernel, h, m = config.kernel, config.h, config.m
    pi = kernel.stationary()
    d = degeneracy_order(h, pi)
    requests = bound_requests(config.bounds, d, m)
    m_value = m_sup(config.mu0, config.profile, kernel)
    stat_hs = {"u": h, "u_centered": h.shifted(hoeffding_project(h, pi, 0).value)}
    reports: list[BoundReport] = []
    for n in config.n_grid:
        entries = evaluate_bounds(requests, n, h, config.profile, config.mu0, kernel, d, m_value)
        per_variant: dict[str, BoundReport] = {}
        for variant in sorted({statistic for statistic, *_ in entries}):
            try:
                value = exact_l2(config.mu0, kernel, stat_hs[variant], n, m)
                report = BoundReport(n=n, m=m, statistic=variant, l2_value=value, l2_kind="exact")
            except BudgetExceeded:
                est = estimate_l2(config, n, h=stat_hs[variant])
                report = BoundReport(
                    n=n, m=m, statistic=variant, l2_value=est.point, l2_kind="monte-carlo",
                    stderr=est.stderr, replicates=est.replicates,
                )
            report.rho_provenance = _rho_provenance(config, n)
            per_variant[variant] = report
        for statistic, label, value, digest in entries:
            per_variant[statistic].add(label, value, digest)
        reports.extend(per_variant[v] for v in sorted(per_variant))
    return reports


def run_slln_experiment(config: ExperimentConfig) -> dict:
    """Single seeded trajectory tracked at dyadic checkpoints.

    Emits (n, U_n, target, |U_n - target|) with target = pi^{(m)}h computed
    exactly.  A finite ergodic chain mixes geometrically and a tabulated h
    is bounded, so the strong law's conditions hold without a check.
    """
    if config.slln is None:
        raise ConfigError("no slln section configured")
    if config.h.table is None:
        raise ConfigError("slln experiment needs a tabulated kernel")
    m = config.m
    checkpoints = config.slln.resolve_checkpoints(m)
    n_max = checkpoints[-1]
    s = config.kernel.size
    if n_max * s ** max(m - 1, 1) > config.budget:
        raise BudgetExceeded(
            f"incremental update cost n_max*S^(m-1) = {n_max * s ** max(m - 1, 1)} exceeds budget {config.budget}"
        )
    pi = config.kernel.stationary()
    target = hoeffding_project(config.h, pi, 0).value
    traj = simulate(config.kernel, config.mu0, n_max, config.master_seed)
    counts = tuple_counts(traj.values, s, m, checkpoints=checkpoints, budget=config.budget)
    numerators = contract_counts(counts, config.h.table)
    rows = []
    for c, numerator in zip(checkpoints, numerators):
        u_n = float(numerator) / math.comb(c, m)
        rows.append({"n": c, "u_n": u_n, "target": target, "abs_error": abs(u_n - target)})
    return {"rows": rows, "target": target, "seed": config.master_seed}
