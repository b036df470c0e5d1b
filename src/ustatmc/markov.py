"""Finite-state Markov kernels, exact distribution evolution, and certified
ergodicity profiles.

A chain is a row-stochastic matrix over an ordered state space whose labels
carry a real embedding (the values statistical kernels are evaluated on).
The central certified object is the pair (V, rho): a weight function V >= 1
per state and a nonnegative non-increasing sequence rho(k) -> 0 with

    ||mu P^k - mu' P^k||_TV <= rho(k) * (mu(V) + mu'(V))

for all probability vectors mu, mu'.  Total variation is the unnormalized
L1 convention, sup_{|f|<=1} |mu(f) - mu'(f)|, with range [0, 2]; every bound
in :mod:`ustatmc.bounds` and :mod:`ustatmc.proofs` assumes it.

Paths come from one sampler, :func:`sample_paths` (a batch of seeds, one
PCG64 stream each); :func:`simulate` is its one-seed case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import NotErgodic

_ATOL = 1e-12
# rows * states below which the sampler walks blocks of time side by side:
# below it a step's Python overhead outweighs the S-fold block composition
# (timed crossover between r*S = 256 and 640 on a 2-core x86 VM, numpy 2.4)
_WIDTH = 512


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Distribution:
    """Probability vector over the state indices of a finite chain."""

    weights: np.ndarray

    def __post_init__(self):
        w = _freeze(self.weights)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > _ATOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1 within {_ATOL}")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.size

    def expect(self, values: np.ndarray) -> float:
        """mu(f) for f given as a per-state value vector."""
        return float(self.weights @ np.asarray(values, dtype=float))

    @staticmethod
    def dirac(index: int, size: int) -> "Distribution":
        w = np.zeros(size)
        w[index] = 1.0
        return Distribution(w)

    @staticmethod
    def uniform(size: int) -> "Distribution":
        return Distribution(np.full(size, 1.0 / size))

    @staticmethod
    def normalized(weights: Sequence[float]) -> "Distribution":
        w = np.asarray(weights, dtype=float)
        return Distribution(w / w.sum())


class FiniteKernel:
    """Row-stochastic transition matrix over an ordered finite state space.

    Parameters
    ----------
    states : sequence of float
        Real embedding of the state labels, in index order.  Statistical
        kernels h are evaluated on these values.
    matrix : (S, S) array
        Transition probabilities; every row must sum to 1 within 1e-12.
    """

    def __init__(self, states: Sequence[float], matrix: np.ndarray):
        states = _freeze(states)
        matrix = _freeze(matrix)
        if states.ndim != 1 or states.size < 1:
            raise ValueError("states must be a nonempty vector")
        s = states.size
        if matrix.shape != (s, s):
            raise ValueError(f"matrix shape {matrix.shape} does not match {s} states")
        if np.any(matrix < 0):
            raise ValueError("matrix entries must be nonnegative")
        rowsum = matrix.sum(axis=1)
        if np.any(np.abs(rowsum - 1.0) > _ATOL):
            raise ValueError("every row must sum to 1 within 1e-12")
        self.states = states
        self.matrix = matrix
        self._powers: dict[int, np.ndarray] = {0: _freeze(np.eye(s)), 1: matrix}
        self._stationary: Distribution | None = None

    @property
    def size(self) -> int:
        return self.states.size

    def power(self, k: int) -> np.ndarray:
        """P^k by cached repeated multiplication (exact float recurrence)."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if k not in self._powers:
            best = max(j for j in self._powers if j <= k)
            p = self._powers[best]
            for j in range(best + 1, k + 1):
                p = p @ self.matrix
                self._powers[j] = _freeze(p)
        return self._powers[k]

    def is_ergodic(self) -> bool:
        """True iff some power P^k, k <= S^2, is strictly positive.

        Positivity of P^k implies positivity of every higher power (rows sum
        to 1), so probing powers of two up to 2*S^2 is sufficient.
        """
        s = self.size
        if s == 1:
            return True
        b = self.matrix > 0
        exponent = 1
        while exponent <= 2 * s * s:
            if b.all():
                return True
            b = (b.astype(float) @ b.astype(float)) > 0
            exponent *= 2
        return bool(b.all())

    def stationary(self) -> Distribution:
        if self._stationary is None:
            self._stationary = stationary(self)
        return self._stationary


def stationary(kernel: FiniteKernel) -> Distribution:
    """Unique stationary distribution pi of an ergodic chain.

    Direct least-squares solve of pi P = pi, sum(pi) = 1; power iteration for
    very large state spaces.  Raises :class:`NotErgodic` when no power of the
    matrix within S^2 steps is strictly positive.
    """
    if not kernel.is_ergodic():
        raise NotErgodic("no strictly positive power of P within S^2 iterations")
    s = kernel.size
    if s == 1:
        return Distribution(np.ones(1))
    if s <= 2000:
        a = np.vstack([kernel.matrix.T - np.eye(s), np.ones(s)])
        b = np.zeros(s + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    else:
        pi = np.full(s, 1.0 / s)
        for _ in range(200_000):
            nxt = pi @ kernel.matrix
            if np.abs(nxt - pi).sum() < 1e-15:
                pi = nxt
                break
            pi = nxt
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum()
    # polish: one fixed-point sweep keeps ||pi P - pi||_1 at rounding level
    for _ in range(5):
        residual = float(np.abs(pi @ kernel.matrix - pi).sum())
        if residual <= 1e-12:
            break
        pi = pi @ kernel.matrix
        pi = pi / pi.sum()
    if float(np.abs(pi @ kernel.matrix - pi).sum()) > 1e-12:
        raise NotErgodic("stationary solve did not reach ||pi P - pi||_1 <= 1e-12")
    return Distribution(pi)


def evolve(mu: Distribution, kernel: FiniteKernel, k: int) -> Distribution:
    """mu P^k by repeated vector-matrix products (k = 0 returns mu)."""
    if mu.size != kernel.size:
        raise ValueError("dimension mismatch between distribution and kernel")
    if k < 0:
        raise ValueError("k must be >= 0")
    w = mu.weights
    for _ in range(k):
        w = w @ kernel.matrix
    # renormalize rounding residue only; keeps the Distribution invariant
    return Distribution(w / w.sum()) if k > 0 else mu


def tv_distance(mu: Distribution, nu: Distribution) -> float:
    """Total variation sup_{|f|<=1} |mu(f) - nu(f)| = sum_x |mu(x) - nu(x)|.

    Range [0, 2]; Dirac masses at distinct points are at distance 2.
    """
    if mu.size != nu.size:
        raise ValueError("dimension mismatch")
    return float(np.abs(mu.weights - nu.weights).sum())


@dataclass(frozen=True)
class GeometricRho:
    """rho(k) = c * varrho^k with 0 < varrho < 1."""

    c: float
    varrho: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be > 0")
        if not 0.0 < self.varrho < 1.0:
            raise ValueError("varrho must lie in (0, 1)")

    def at(self, k: int) -> float:
        return self.c * self.varrho**k

    def table(self, n: int) -> np.ndarray:
        return self.c * self.varrho ** np.arange(n + 1, dtype=float)

    def uses_tail(self, n: int) -> bool:
        return False


@dataclass(frozen=True)
class ExplicitRho:
    """Tabulated rho(0..k_max) plus a geometric tail beyond the table.

    The table is exact and non-increasing; the tail rate is an estimate
    (``tail_provenance`` = "estimated") and exact verification never relies
    on it.
    """

    values: np.ndarray
    tail_rate: float
    tail_provenance: str = "estimated"

    def __post_init__(self):
        v = _freeze(self.values)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("values must be a nonempty vector")
        if np.any(v < 0):
            raise ValueError("rho values must be nonnegative")
        if np.any(np.diff(v) > 0):
            raise ValueError("rho values must be non-increasing")
        if not 0.0 <= self.tail_rate < 1.0:
            raise ValueError("tail_rate must lie in [0, 1)")
        object.__setattr__(self, "values", v)

    @property
    def k_max(self) -> int:
        return self.values.size - 1

    def at(self, k: int) -> float:
        if k <= self.k_max:
            return float(self.values[k])
        return float(self.values[-1]) * self.tail_rate ** (k - self.k_max)

    def table(self, n: int) -> np.ndarray:
        if n <= self.k_max:
            return self.values[: n + 1].copy()
        tail = self.values[-1] * self.tail_rate ** np.arange(1, n - self.k_max + 1)
        return np.concatenate([self.values, tail])

    def uses_tail(self, n: int) -> bool:
        return n > self.k_max


RhoSequence = Union[GeometricRho, ExplicitRho]


@dataclass(frozen=True)
class ErgodicityProfile:
    """The pair (V, rho) controlling V-weighted total-variation mixing.

    ``provenance`` is "certified" when rho was tabulated exactly from a
    finite chain and "declared" when supplied by the user for a
    sampler-backed chain (in which case ``declared_m`` must carry the
    supremum sup_k mu P^k(V) if bounds are to be computed).
    """

    v_values: np.ndarray
    rho: RhoSequence
    provenance: str = "certified"
    declared_m: float | None = None

    def __post_init__(self):
        v = _freeze(self.v_values)
        if np.any(v < 1.0):
            raise ValueError("V must be >= 1 everywhere")
        if self.provenance not in ("certified", "declared"):
            raise ValueError("provenance must be 'certified' or 'declared'")
        object.__setattr__(self, "v_values", v)

    def rho_at(self, k: int) -> float:
        return self.rho.at(k)

    def rho_table(self, n: int) -> np.ndarray:
        return self.rho.table(n)

    def to_dict(self) -> dict:
        if isinstance(self.rho, GeometricRho):
            rho = {"kind": "geometric", "c": self.rho.c, "varrho": self.rho.varrho}
        else:
            rho = {
                "kind": "explicit",
                "values": self.rho.values.tolist(),
                "tail_rate": self.rho.tail_rate,
                "tail_provenance": self.rho.tail_provenance,
            }
        out = {"v": self.v_values.tolist(), "rho": rho, "provenance": self.provenance}
        if self.declared_m is not None:
            out["declared_m"] = self.declared_m
        return out

    @staticmethod
    def from_dict(d: dict) -> "ErgodicityProfile":
        r = d["rho"]
        if r["kind"] == "geometric":
            rho: RhoSequence = GeometricRho(float(r["c"]), float(r["varrho"]))
        elif r["kind"] == "explicit":
            rho = ExplicitRho(
                np.asarray(r["values"], dtype=float),
                float(r["tail_rate"]),
                r.get("tail_provenance", "estimated"),
            )
        else:
            raise ValueError(f"unknown rho kind {r['kind']!r}")
        return ErgodicityProfile(
            np.asarray(d["v"], dtype=float), rho, d.get("provenance", "certified"), d.get("declared_m")
        )


@dataclass(frozen=True)
class Trajectory:
    """A simulated path; slot t holds the state index of the chain at time t,
    so values[0] is distributed as the initial law."""

    values: np.ndarray
    seed: int
    initial: Distribution

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        v.setflags(write=False)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("values must be a nonempty index vector")
        if v.min() < 0 or v.max() >= self.initial.size:
            raise ValueError("state indices out of range")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


def _tail_rate_estimate(kernel: FiniteKernel, measured: np.ndarray) -> float:
    """Per-step contraction estimate for the geometric tail.

    Second-largest singular value of diag(pi)^{1/2} P diag(pi)^{-1/2},
    falling back to the empirical decay of the measured ratios.  Estimate
    only; exact verification never evaluates rho beyond the table.
    """
    try:
        pi = kernel.stationary().weights
        d = np.sqrt(pi)
        a = (d[:, None] * kernel.matrix) / d[None, :]
        sv = np.linalg.svd(a, compute_uv=False)
        rate = float(sv[1]) if sv.size > 1 else 0.0
        if math.isfinite(rate) and 0.0 <= rate < 1.0:
            return rate
    except (np.linalg.LinAlgError, NotErgodic):
        pass
    k_max = measured.size - 1
    lag = min(10, k_max)
    if lag >= 1 and measured[k_max - lag] > 0 and measured[k_max] > 0:
        rate = float((measured[k_max] / measured[k_max - lag]) ** (1.0 / lag))
        return min(max(rate, 0.0), 1.0 - 1e-12)
    return 0.5


def certify_rho(kernel: FiniteKernel, v_values: Sequence[float], k_max: int) -> ErgodicityProfile:
    """Tabulate the minimal certified mixing sequence of a finite chain.

    For each k <= k_max,

        rho(k) = max_{x, x'} tv(delta_x P^k, delta_x' P^k) / (V(x) + V(x'))

    which extends to arbitrary (mu, mu') pairs by joint convexity of the
    ratio over Dirac extremes.  Each Dirac is evolved along the exact float
    path :func:`evolve` takes, so the tabulated inequality against
    :func:`tv_distance` holds bit for bit; a reversed running maximum makes
    the stored table exactly non-increasing while still dominating every
    measured ratio.  A geometric tail (estimated rate) is appended for
    evaluation beyond the table.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    v = np.asarray(v_values, dtype=float)
    if v.shape != (kernel.size,):
        raise ValueError("V must assign one value per state")
    if not kernel.is_ergodic():
        raise NotErgodic("cannot certify a non-ergodic kernel")
    s = kernel.size
    measured = np.zeros(k_max + 1)
    if s > 1:
        pairs = [(x, y) for x in range(s) for y in range(x + 1, s)]
        denom = np.array([v[x] + v[y] for x, y in pairs])
        raw = [np.eye(s)[x] for x in range(s)]

        def ratio_max() -> float:
            norm = [w / w.sum() for w in raw]
            return max(
                float(np.abs(norm[x] - norm[y]).sum()) / d for (x, y), d in zip(pairs, denom)
            )

        measured[0] = ratio_max()
        for k in range(1, k_max + 1):
            raw = [w @ kernel.matrix for w in raw]
            measured[k] = ratio_max()
    rho_vals = np.maximum.accumulate(measured[::-1])[::-1]
    if s > 1 and rho_vals[0] > 0 and not rho_vals[k_max] < rho_vals[0] * (1.0 - 1e-9):
        raise NotErgodic(
            f"no observable mixing: rho({k_max}) = {rho_vals[k_max]:.3e} "
            f"has not decayed below rho(0) = {rho_vals[0]:.3e}"
        )
    rate = _tail_rate_estimate(kernel, measured)
    return ErgodicityProfile(v, ExplicitRho(rho_vals, rate), provenance="certified")


def simulate(kernel: FiniteKernel, mu0: Distribution, n: int, seed: int) -> Trajectory:
    """Sample a length-n path; values[t] is the chain at time t, values[0] ~ mu0.

    The one-seed case of :func:`sample_paths`, so a path never depends on
    whether it was drawn alone or in a batch.
    """
    return Trajectory(sample_paths(kernel, mu0, n, [seed])[0], seed, mu0)


def sample_paths(kernel: FiniteKernel, mu0: Distribution, n: int, seeds: Sequence[int]) -> np.ndarray:
    """Simulate one length-n path per seed; row r is the path of seeds[r].

    Seed s draws n uniforms u from its own PCG64 stream; values[0] inverts
    the CDF of mu0 at u[0] and values[t] inverts the CDF of row values[t-1]
    at u[t]: the number of CDF entries <= u, capped at S-1 against
    cumulative rounding overshoot at u ~ 1.  Rows depend only on their own
    seed, so any partition of the seed list yields identical rows.

    A uniform is first coded by how many distinct CDF values lie at or
    below it; that code fixes the inversion from every state at once, so
    the walk runs through one next-state table with S rows and one column
    per code: at most S * (S^2 + 1) cells, whatever n and the seed count.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mu0.size != kernel.size:
        raise ValueError("dimension mismatch")
    s = kernel.size
    cdf = np.cumsum(kernel.matrix, axis=1)
    cuts = np.concatenate(([-np.inf], np.unique(cdf)))
    cdf0 = np.cumsum(mu0.weights)
    # column t holds the code of the step into time t until the walk
    # replaces it by the state at time t
    paths = np.empty((len(seeds), n), dtype=np.int64)
    for i, seed in enumerate(seeds):
        u = np.random.Generator(np.random.PCG64(int(seed))).random(n)
        paths[i, 0] = min(int(np.searchsorted(cdf0, u[0], side="right")), s - 1)
        paths[i, 1:] = np.searchsorted(cuts, u[1:], side="right") - 1
    _walk(paths, cdf, cuts)
    return paths


def _walk(paths: np.ndarray, cdf: np.ndarray, cuts: np.ndarray) -> None:
    """Replace the codes in paths[:, 1:] by states, in place, stepping from
    the states in paths[:, 0].

    With few rows, time is cut into blocks of about sqrt(steps): the end
    state of every block is found for every start state at once, the block
    start states are chained in order, and each block is replayed from its
    start, so the Python loop runs about 3 sqrt(steps) times instead of
    steps.
    """
    r, steps = paths.shape[0], paths.shape[1] - 1
    s = cdf.shape[0]
    w = cuts.size
    # nxt[x * w + k] = w * (next state from x under code k)
    table = np.empty((s, w), dtype=np.int64)
    for x in range(s):
        table[x] = np.searchsorted(cdf[x], cuts, side="right")
    np.minimum(table, s - 1, out=table)
    nxt = (table * w).ravel()
    # states are stored as x * w, so a step is one lookup nxt[state + code]
    paths[:, 0] *= w
    block = math.isqrt(steps) if r * s < _WIDTH else 1
    done = 0
    if block > 1:
        nb = steps // block
        codes = paths[:, 1 : 1 + nb * block].reshape(r, nb, block)
        # end state of every block but the last, for every start state
        ends = np.broadcast_to(np.arange(s) * w, (r, nb - 1, s))
        for j in range(block):
            ends = nxt[ends + codes[:, :-1, j, None]]
        ends = ends.reshape(r, -1)
        starts = np.empty((r, nb), dtype=np.int64)
        starts[:, 0] = paths[:, 0]
        rows = np.arange(r)
        for b in range(1, nb):
            starts[:, b] = ends[rows, (b - 1) * s + starts[:, b - 1] // w]
        for j in range(block):
            starts = nxt[starts + codes[:, :, j]]
            codes[:, :, j] = starts
        done = nb * block
    # the steps after the last whole block: all of them when block == 1
    for t in range(done + 1, steps + 1):
        paths[:, t] = nxt[paths[:, t - 1] + paths[:, t]]
    paths //= w
