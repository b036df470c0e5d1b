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

A path is a 1-D array of state indices in the narrowest signed integer
type that holds S^2 (:func:`index_dtype`: int8 up to 11 states).  Paths
come from one sampler, :func:`sample_paths` (a batch of seeds, one stream
each, numpy's own ``PCG64(seed)``); :func:`simulate` is its one-seed case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotErgodic, refuse_over

_ATOL = 1e-12
# rows * states below which the sampler walks blocks of time side by side,
# and at or above which it walks one contiguous lookup per step.  The two
# routes of the walk took equal time at these rows * S (interpolated from
# r * S = 256..4096, medians of 3 to 7, 2-core x86 VM, numpy 2.4), on a
# dense chain, whose block copies meet within a few steps, and on a
# 0.999-cycle, whose copies rarely all meet:
#
#              dense              0.999-cycle
#   n       400  1600  10^4     400  1600  10^4
#   S = 2   490  1200  1900     260   380   500
#   S = 8   420   940  2100     400   570   690
#   S = 20  550  1100  2400     540   700   810
#
# 512 lies inside both ranges of ties.  A higher constant would gain on
# longer dense paths (S = 8, n = 10^4, r * S = 512: 4.6 against 16.8 ms
# blocked) but lose up to 2.1x where copies rarely meet (S = 2, n = 400,
# r * S = 768: 1.85 against 0.87 ms), and no measured workload has r * S
# in that range to say which chains occur there
_WIDTH = 512
# uniforms coded at a time: the coding temporaries stay a few tens of KiB
_SLICE = 4096
# bytes of whole paths coded before one transposed write into the store:
# larger stages sampled the variance-m2 block no faster (README)
_STAGE = 2**15
# cells of the largest block of Dirac steps in certify_rho (256 KiB; a block
# holds at least one step of S^2 cells; blocks start at 16 steps and double
# up to it): larger blocks took no less time at S = 2, 8 and 20 on a 2-core
# x86 VM, numpy 2.4
_RHO_CELLS = 2**15


def index_dtype(s: int) -> np.dtype:
    """The narrowest signed integer type that holds S^2 for S states:
    int8 up to S = 11, int16 up to S = 181, then int32 (int64 past 46340).

    The sampler stores each uniform as its code, the number of distinct
    CDF values at or below it, and an S-state chain has at most S^2 of
    them; every state index is below S.
    """
    for dtype in (np.int8, np.int16, np.int32):
        if s * s <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


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
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
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
        if not (np.isfinite(states).all() and np.isfinite(matrix).all()):
            raise ValueError("states and matrix entries must be finite")
        if np.any(matrix < 0):
            raise ValueError("matrix entries must be nonnegative")
        rowsum = matrix.sum(axis=1)
        if np.any(np.abs(rowsum - 1.0) > _ATOL):
            raise ValueError("every row must sum to 1 within 1e-12")
        self.states = states
        self.matrix = matrix
        self._stationary: Distribution | None = None

    @property
    def size(self) -> int:
        return self.states.size

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
class ExplicitRho:
    """Tabulated rho(0..k_max); past the table rho(k) = rho(k_max) *
    tail_rate^(k - k_max).

    A declared sequence c * varrho^k is the one-entry table [c] with tail
    rate varrho.  A table from :func:`certify_rho` has tail rate 1: the
    chain's rho(k_max) bounds every later term.  :meth:`at` and :meth:`table`
    read one tail formula, so rho.at(k) is rho.table(n)[k] bit for bit.
    """

    values: np.ndarray
    tail_rate: float

    def __post_init__(self):
        v = _freeze(self.values)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("values must be a nonempty vector")
        if not np.isfinite(v).all():
            raise ValueError("rho values must be finite")
        if np.any(v < 0):
            raise ValueError("rho values must be nonnegative")
        if np.any(np.diff(v) > 0):
            raise ValueError("rho values must be non-increasing")
        if not 0.0 <= self.tail_rate <= 1.0:
            raise ValueError("tail_rate must lie in [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def k_max(self) -> int:
        return self.values.size - 1

    def _tail(self, steps: int | np.ndarray):
        """rho(k_max + steps), steps >= 1, by ``np.float_power``: the C
        library's pow, as Python's ** on floats; numpy's ** on float64
        arrays is dispatched per CPU and may round otherwise."""
        return self.values[-1] * np.float_power(self.tail_rate, steps)

    def at(self, k: int) -> float:
        if k <= self.k_max:
            return float(self.values[k])
        return float(self._tail(k - self.k_max))

    def table(self, n: int) -> np.ndarray:
        refuse_over("rho(0..n) cells", n + 1)
        if n <= self.k_max:
            return self.values[: n + 1].copy()
        return np.concatenate([self.values, self._tail(np.arange(1, n - self.k_max + 1))])

    def uses_tail(self, n: int) -> bool:
        return n > self.k_max


@dataclass(frozen=True)
class ErgodicityProfile:
    """The pair (V, rho) controlling V-weighted total-variation mixing.

    ``provenance`` is "certified" when rho was tabulated exactly from a
    finite chain by :func:`certify_rho`, and "declared" when supplied by
    the user (in which case ``declared_m`` must carry the supremum
    sup_k mu P^k(V) if bounds are to be computed).
    """

    v_values: np.ndarray
    rho: ExplicitRho
    provenance: str = "declared"
    declared_m: float | None = None

    def __post_init__(self):
        v = _freeze(self.v_values)
        if not (np.isfinite(v).all() and np.all(v >= 1.0)):
            raise ValueError("V must be finite and >= 1 everywhere")
        if self.provenance not in ("certified", "declared"):
            raise ValueError("provenance must be 'certified' or 'declared'")
        object.__setattr__(self, "v_values", v)

    def rho_at(self, k: int) -> float:
        return self.rho.at(k)

    def to_dict(self) -> dict:
        out = {
            "v": self.v_values.tolist(),
            "rho": {"values": self.rho.values.tolist(), "tail_rate": self.rho.tail_rate},
            "provenance": self.provenance,
        }
        if self.declared_m is not None:
            out["declared_m"] = self.declared_m
        return out


def certify_rho(kernel: FiniteKernel, v_values: Sequence[float], k_max: int) -> ErgodicityProfile:
    """Tabulate the minimal certified mixing sequence of a finite chain.

    For each k <= k_max,

        rho(k) = max_{x, x'} tv(delta_x P^k, delta_x' P^k) / (V(x) + V(x'))

    which extends to arbitrary (mu, mu') pairs by joint convexity of the
    ratio over Dirac extremes.  Each Dirac is evolved along the exact float
    path :func:`evolve` takes, so the tabulated inequality against
    :func:`tv_distance` holds bit for bit: one stacked product per step
    moves every Dirac at once, and numpy runs it as one vector-matrix
    product per Dirac, the float path of ``w @ P``.  The steps fill a block
    of at most ``_RHO_CELLS`` cells (at least one step, S^2 cells), and
    each block is normalized and reduced in array passes, one per first
    state x of a pair, each summing |norm(x') - norm(x)| along the state
    axis as :func:`tv_distance` does; so memory stays within a few blocks
    of max(``_RHO_CELLS``, S^2) cells whatever S and k_max are.

    The float path stops at its first repeat.  Step k's Diracs, and so its
    measured ratio, are a function of the bits of step k - 1 alone; so once
    step a holds the same bits as an earlier step b, every later step
    repeats the cycle b + 1 .. a, and the measured ratios past a are those
    of b + 1 .. a tiled to k_max, bit for bit what the full replay gives.
    Blocks start at 16 steps and double up to the cap, and after each
    block its last step is compared, bit pattern against bit pattern, with
    every earlier step of the block and with the step before the block, so
    a repeat at step a is seen by about step 2a (by the step after it when
    a block holds one step, S > 181).  Dense chains reach a fixed point or
    a short cycle within a few dozen steps: on a dense chain at S = 8,
    k_max = 10^6 the table takes about 18 ms (5.6 s when every step was
    replayed; 2-core x86 VM).  A chain with no repeat by k_max replays
    every step, as before.  A reversed
    running maximum makes the stored table exactly non-increasing while
    still dominating every measured ratio.

    The tail rate is 1, so rho(k) = rho(k_max) for every k > k_max.  That
    is proven, not fitted: P contracts total variation, so each Dirac
    pair's tv(delta_x P^k, delta_x' P^k), and with it the pair's ratio,
    cannot grow with k (Dobrushin 1956).  The rho table and the Dirac
    block are refused past their caps (:func:`~ustatmc.errors.refuse_over`)
    before the chain is probed.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    refuse_over("rho(0..k_max) cells", k_max + 1)
    v = np.asarray(v_values, dtype=float)
    if v.shape != (kernel.size,):
        raise ValueError("V must assign one value per state")
    s = kernel.size
    steps_per_block = min(k_max + 1, max(1, _RHO_CELLS // (s * s)))
    refuse_over("Dirac block cells (steps, S, S)", steps_per_block * s * s)
    if not kernel.is_ergodic():
        raise NotErgodic("cannot certify a non-ergodic kernel")
    measured = np.zeros(k_max + 1)
    if s > 1:
        block = np.empty((steps_per_block, s, s))
        bits = block.view(np.uint64)
        raw = np.eye(s)
        k0, size = 0, min(16, steps_per_block)
        while k0 <= k_max:
            before = raw
            steps = block[: min(size, k_max + 1 - k0)]
            for j in range(steps.shape[0]):
                if k0 + j:
                    raw = (raw[:, None, :] @ kernel.matrix)[:, 0]
                steps[j] = raw
            # every Dirac of every step normalized by its own sum at once
            norm = steps / steps.sum(axis=-1, keepdims=True)
            best = measured[k0 : k0 + steps.shape[0]]
            for x in range(s - 1):
                gaps = norm[:, x + 1 :] - norm[:, x : x + 1]
                ratios = np.abs(gaps, out=gaps).sum(axis=-1) / (v[x] + v[x + 1 :])
                np.maximum(best, ratios.max(axis=-1), out=best)
            # once the block's last step k repeats step b's bits, measured[b + 1 .. k] repeats to k_max
            last = steps.shape[0] - 1
            k = k0 + last
            # one cell picks the candidate steps (a whole-block compare cost 3-12 % of a block that
            # does not repeat), and only candidates are compared whole
            hits = np.flatnonzero(bits[:last, 0, 0] == bits[last, 0, 0])
            hits = hits[(bits[hits] == bits[last]).all(axis=(1, 2))]
            if hits.size or (k0 and np.array_equal(before.view(np.uint64), bits[last])):
                b = k0 + hits[-1] if hits.size else k0 - 1
                # np.tile, not np.resize: resize concatenates one array per repeat
                measured[k + 1 :] = np.tile(measured[b + 1 : k + 1], -(-(k_max - k) // (k - b)))[: k_max - k]
                break
            k0, size = k + 1, min(2 * size, steps_per_block)
    rho_vals = np.maximum.accumulate(measured[::-1])[::-1]
    if s > 1 and rho_vals[0] > 0 and not rho_vals[k_max] < rho_vals[0] * (1.0 - 1e-9):
        raise NotErgodic(
            f"no observable mixing: rho({k_max}) = {rho_vals[k_max]:.3e} "
            f"has not decayed below rho(0) = {rho_vals[0]:.3e}"
        )
    return ErgodicityProfile(v, ExplicitRho(rho_vals, 1.0), provenance="certified")


def simulate(kernel: FiniteKernel, mu0: Distribution, n: int, seed: int) -> np.ndarray:
    """Sample a length-n path: a 1-D array of state indices of type
    ``index_dtype(S)`` whose slot t is the chain at time t, with
    path[0] ~ mu0.

    The one-seed case of :func:`sample_paths`, so a path never depends on
    whether it was drawn alone or in a batch.  No budget bounds n here;
    the ``simulate`` command refuses an n above its budget.
    """
    return sample_paths(kernel, mu0, n, [seed])[0]


def sample_paths(kernel: FiniteKernel, mu0: Distribution, n: int, seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """Simulate one length-n path per seed; row r is the path of seeds[r].

    Seed s draws n uniforms u from its own PCG64 stream, the stream of
    ``np.random.PCG64(s)``; values[0] inverts the CDF of mu0 at u[0] and
    values[t] inverts the CDF of row values[t-1] at u[t]: the number of
    CDF entries <= u, capped at S-1 against cumulative rounding overshoot
    at u ~ 1.  Rows depend only on their own seed, so any partition of the
    seed list yields identical rows.  A seed must be an integer in
    [0, 2^64) (Python or numpy, not bool), as every entry of a uint64
    array is; any other raises ValueError before anything is allocated.

    The streams of a call are hashed in one array pass: numpy's
    SeedSequence hash of every seed at once (:func:`_seed_sequence_words`).
    Each seed's ``PCG64`` then seeds itself from its row of hashed words,
    handed over as a seed sequence (:func:`_hashed_seed`), so numpy sets
    every stream's state itself and each stream is bit for bit numpy's.  A
    seed's generator is built as its first uniform is drawn, so one is
    alive at a time, and no generator is shared between calls (threads may
    call this at once).

    A uniform is first coded by how many distinct CDF values lie at or
    below it (:func:`_guide_coder`, in slices of at most ``_SLICE`` cells,
    so no temporary grows with n); that code fixes the inversion from every
    state at once, so the walk runs through one next-state table with S
    rows and one column per code: at most S * (S^2 + 1) cells, whatever n
    and the seed count.  The codes, the states that replace them and the
    table are all held in ``index_dtype(S)``, which holds any code (at
    most S^2), so the store takes one byte a cell up to 11 states.  A
    table past its cap is refused (:func:`~ustatmc.errors.refuse_over`)
    before any seed is hashed.  The store is time-major, (n, rows), each
    time step contiguous across the paths, and the result is its transpose.  A path longer than
    ``_SLICE`` is coded into its row a slice at a time.  Shorter paths are
    coded whole, path-major, into a stage of whole slice groups of at most
    ``_STAGE`` bytes, and each full stage goes into the store in one
    transposed write, so each time step gets one run as long as the stage
    has paths.  Each path's first uniform is kept, and every first state
    is inverted through mu0's CDF in one pass after the coding.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mu0.size != kernel.size:
        raise ValueError("dimension mismatch")
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
        seeds = np.array([check_seed(seed) for seed in seeds], dtype=np.uint64)
    s, r = kernel.size, len(seeds)
    cdf = np.cumsum(kernel.matrix, axis=1)
    # the distinct CDF values in order: np.unique(cdf), without its first-call numpy.ma import
    cuts = np.sort(cdf, axis=None)
    cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
    refuse_over("next-state table cells S * (distinct CDF values + 1)", s * (cuts.size + 1))
    words, hashed_seed = iter(_seed_sequence_words(seeds)), _hashed_seed()
    # slot t of a path holds the code of the step into time t until the walk
    # replaces it by the state at time t
    store = np.empty((n, r), dtype=index_dtype(s))
    paths = store.T
    code = _guide_coder(cuts, store.dtype)
    # a slice codes `group` seeds side by side, `span` steps each: either
    # one seed over several slices or several seeds within one slice, so
    # each stream draws its uniforms without another stream in between
    span = min(n, _SLICE)
    group = _SLICE // span
    u = np.empty((group, span))
    # each path's first uniform, inverted through mu0's CDF after the loop
    first = np.empty(r)
    if n > span:
        # a long path is coded into its own row of the result, a slice at a time
        for row in range(r):
            stream = np.random.Generator(np.random.PCG64(hashed_seed(next(words))))
            for a in range(0, n, span):
                line = u[0, : min(span, n - a)]
                stream.random(out=line)
                if a == 0:
                    first[row] = line[0]
                paths[row, a : a + line.size] = code(line)
    else:
        # whole paths are coded path-major into a stage of whole groups, which goes
        # into the time-major store in one transposed write: a run of stage rows per step
        groups = min(-(-r // group), _STAGE // (group * n * store.itemsize))
        stage = np.empty((group * max(1, groups), n), store.dtype)
        for base in range(0, r, len(stage)):
            top = min(base + len(stage), r)
            for i in range(base, top, group):
                block = u[: min(group, top - i)]
                for line in block:
                    np.random.Generator(np.random.PCG64(hashed_seed(next(words)))).random(out=line)
                first[i : i + len(block)] = block[:, 0]
                stage[i - base : i - base + len(block)] = code(block)
            store[:, base:top] = stage[: top - base].T
    store[0] = np.minimum(np.searchsorted(np.cumsum(mu0.weights), first, side="right"), s - 1)
    _walk(store, cdf, cuts)
    return paths


def check_seed(seed: int) -> int:
    """``seed`` as a Python int; a seed that is not an integer in [0, 2^64)
    raises ValueError (a bool or a float with an integer value is not an
    integer).  The one seed rule: the config, the CLI's --seed, the
    replicate estimator and :func:`sample_paths` all check a seed here."""
    if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed!r} is not an integer in [0, 2^64)")
    return int(seed)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k = 0..count, as a (count + 1, 1) uint32
    column: hash k of a SeedSequence pass xors constant k and multiplies
    by constant k + 1."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)[:, None]


# numpy's SeedSequence constants: 16 hashes mix a pool of 4 words, 8 more read it out
_MIX_HASHES = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hash(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each row of uint32 ``values`` under its own
    pair of successive ``constants``, wrapping mod 2^32."""
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ (values >> 16)


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)`` for
    every seed of a uint64 array at once, as rows of a (seeds, 4) array.

    The same hash in wrapping uint32 array arithmetic: a seed is its two
    32-bit words, zero-padded to the pool size 4 (SeedSequence hashes a
    missing entropy word as 0).  Each pool word is hashed; then each
    source word, hashed once per other word, is mixed into those three at
    once (they do not read each other); then the pool is read out as
    eight hashed 32-bit words, paired little-endian into four uint64
    words.
    """
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & 0xFFFFFFFF
    pool[1] = seeds >> 32
    pool = _hash(pool, _MIX_HASHES[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * _hash(pool[src], _MIX_HASHES[4 + 3 * src : 8 + 3 * src])
        pool[dst] = mixed ^ (mixed >> 16)
    out = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_HASHES).astype(np.uint64)
    # C-contiguous rows: PCG64 reads a seed's words from the raw buffer
    return np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)


@functools.cache
def _hashed_seed() -> type:
    """The ``ISeedSequence`` whose ``generate_state`` returns one row of
    :func:`_seed_sequence_words`: numpy's bit generators seed themselves
    from any seed sequence, so ``np.random.PCG64(_hashed_seed()(row))`` is
    ``np.random.PCG64(seed)``.  PCG64 reads the row's 4 uint64 words from
    its buffer, so the row must be C-contiguous.  Built on first use, as
    importing the package does not load numpy.random."""

    class HashedSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    return HashedSeed


def _guide_coder(cuts: np.ndarray, dtype: np.dtype):
    """The function u -> number of entries of the sorted array ``cuts`` at
    or below u, for arrays of uniforms in [0, 1): ``np.searchsorted(cuts,
    u, "right")``, bit for bit, by comparisons only, in the integer type
    ``dtype``, which must hold len(cuts).

    u * G is exact for the power of two G >= 4 * len(cuts), so floor(u * G)
    picks u's bucket [b / G, (b + 1) / G), and lo[b] = #cuts <= b / G
    counts every cut below the bucket; lo is held in ``dtype``, so a code
    comes out in it.  The at most k cuts inside any bucket are then
    bisected branch-free: ceil(log2(k + 1)) passes over all of u, each
    adding its step times the hit "the cut it reads is <= u", taken in
    ``dtype``.  So a guide with no cut inside a bucket needs no pass, and
    no guide needs more passes than a binary search takes steps.
    """
    size = 1 << (4 * cuts.size - 1).bit_length()
    edges = np.arange(size + 1) / size
    lo = np.searchsorted(cuts, edges[:-1], side="right").astype(dtype)
    inside = int((np.searchsorted(cuts, edges[1:], side="left") - lo).max())
    steps = [1 << j for j in reversed(range(inside.bit_length()))]
    # the bisection reads up to lo + 2 * steps[0] - 2: pad with cuts no u reaches
    padded = np.concatenate((cuts, np.full(2 * steps[0] - 1 if steps else 0, np.inf)))
    # a pass of step q reads padded[code + q - 1], the entry `code` of its own view
    reads = [(q, padded[q - 1 :]) for q in steps]

    def code(u: np.ndarray) -> np.ndarray:
        out = lo.take((u * size).astype(np.intp))
        for q, view in reads:
            out += np.multiply(view.take(out) <= u, q, dtype=out.dtype)
        return out

    return code


def _walk(store: np.ndarray, cdf: np.ndarray, cuts: np.ndarray) -> None:
    """Replace the codes after time 0 by states, in place, stepping from
    the states at time 0: column r of the time-major ``store`` (n, rows)
    is a path.

    A step from state x under code k reads nxt[x * w + k], with x * w + k
    formed in an intp temporary one step (or one block) wide, so the store
    keeps its narrow type.  With rows * S >= ``_WIDTH`` each step is one
    contiguous lookup across all paths.  Below it time is cut into blocks
    of about sqrt(steps), walked side by side, so the Python loop runs
    O(sqrt(steps)) times instead of steps.  Every block is walked from
    every start state at once (block 0 only from its known start), until
    all copies of all blocks hold one state, which is checked at local
    steps 1, 2, 4, 8, ...: the copies share their codes, so once they meet
    they move as one (Propp and Wilson's grand coupling).  From that step
    J on a block's states do not depend on its start, so one copy per
    block walks on, writing its states, and each block's end is the next
    block's start.  If some block's copies still differ at its last step,
    the walk has the map from start to end state of every block instead,
    and chains the maps by doubling: log2(blocks) passes of composition
    (Hillis-Steele), in place.  Either way each block then replays its
    first J steps (all of them after the chaining) from its start.  A
    chain whose copies meet within a few steps runs about sqrt(steps) + J
    loop passes, one whose copies never meet 2 sqrt(steps).
    """
    # w as an intp: a Python int above 127 times an int8 array raises OverflowError
    s, w = cdf.shape[0], np.intp(cuts.size + 1)
    # nxt[x * w + k] = next state from x under code k; code 0 has no cut at or below u
    table = np.zeros((s, w), dtype=store.dtype)
    for x in range(s):
        table[x, 1:] = np.searchsorted(cdf[x], cuts, side="right")
    np.minimum(table, s - 1, out=table)
    nxt = table.ravel()
    steps, r = store.shape[0] - 1, store.shape[1]
    block = math.isqrt(steps) if r * s < _WIDTH else 1
    done = 0
    if block > 1:
        nb = steps // block
        # codes[p, b, j] is the code of path p at step 1 + b * block + j: a view of the store
        codes = store[1 : 1 + nb * block].reshape(nb, block, r).transpose(2, 0, 1)
        # block b from every start state, but block 0 only from its known start (all copies agree)
        copies = np.empty((r, nb, s), dtype=np.intp)
        copies[...] = np.arange(s)
        copies[:, 0] = store[0, :, None]
        met = 0
        for j in range(block):
            copies = nxt[copies * w + codes[:, :, j, None]]
            # checked when j + 1 is a power of two
            if (j + 1) & j == 0 and (copies == copies[..., :1]).all():
                met = j + 1
                break
        if met:
            # past step met no block depends on its start: walk one copy, whose end is the next start
            ends = copies[..., 0]
            for j in range(met, block):
                ends = nxt[ends * w + codes[:, :, j]]
                codes[:, :, j] = ends
        else:
            met, ends = block, _chain_block_maps(copies)
        starts = np.empty((r, nb), dtype=np.intp)
        starts[:, 0] = store[0]
        starts[:, 1:] = ends[:, :-1]
        for j in range(met):
            starts = nxt[starts * w + codes[:, :, j]]
            codes[:, :, j] = starts
        done = nb * block
    # the steps after the last whole block: all of them when block == 1
    for t in range(done + 1, steps + 1):
        nxt.take(store[t - 1] * w + store[t], out=store[t])


def _chain_block_maps(maps: np.ndarray) -> np.ndarray:
    """The end state of every block, (rows, blocks), from ``maps``, whose
    [p, b, x] is the end of block b of path p started from state x, and
    whose block 0 is constant (its start is known).  Chained by doubling,
    in place: after the pass of span d, maps[:, b] maps the start of block
    max(0, b - 2d + 1) to the end of block b, so after log2(blocks) passes
    every map is constant."""
    d, nb = 1, maps.shape[1]
    while d < nb:
        maps[:, d:] = np.take_along_axis(maps[:, d:], maps[:, :-d], axis=-1)
        d *= 2
    return maps[..., 0]
