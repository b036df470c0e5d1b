"""Exact finite-space verification of the proof-level objects behind the
variance bounds.

For an ordered 2m-tuple of times I = (1 <= i_1 <= ... <= i_2m), the per-pair
minimal gaps are

    j_l(I) = min(i_{2l-1} - i_{2l-2}, i_{2l} - i_{2l-1}),   i_0 = 1 by convention,

j*(I) is their maximum and l* the first maximizer.  The tilted law replaces
the coordinate sitting at that largest gap with an independent stationary
draw, splitting the remaining coordinates into independent joint-law blocks.
For a pi-canonical kernel h every product moment f_sigma = h(...)h(...)
integrates to exactly zero under the tilted law, which is what makes the
total-variation distance between the true and tilted laws the only thing a
moment bound needs.

Every law is a plain float array, a dense probability tensor over S^l
whose axis i is the state at the i-th time, so every inequality in this
module is checked by exact contraction rather than sampling.  Every law is
one chain of factors (:func:`_law_chain`): a start vector, then an S x S
matrix into each later coordinate, all from one factor table per chain
(``_ChainTables``).  The true law's factors are mu P^{i_1} and the powers
of its gaps.  The tilted law is the true law with two factors swapped: the
factor into coordinate 2l* - 1 becomes pi, and the one into 2l* becomes
mu P^{i_2l*} (every row of each matrix that row), so one chain builds both
laws of a block of tuples, one row each (:func:`_law_index`).  ``_gaps`` gives
the gaps of every row, ``_prop5_step`` is the one Proposition 5 step and
:func:`f_sigma_values` the one evaluator of E[f_sigma], one value per split
of the 2m positions into two halves (3 at m = 2, not 24): it contracts each
tuple's two laws with one split matrix of h (x) h (``_split_matrix``), in
one product of that per-tuple shape, so that each tuple gets the product
it would get alone.  :func:`proposition_grid_check` builds each chain's
factor table, split matrix and rho(j*) certificates once, then walks the
chain in one loop over blocks of at most ``_BLOCK_CELLS`` law cells, each
block taking that same product and updating every record; its Lemma 6 and
counting sections run at fixed sizes.  :func:`j_indices`,
:func:`joint_law`, :func:`tilde_law`, :func:`verify_prop5`,
:func:`verify_prop7` and :func:`verify_lemma6` are one-row calls of the
same code, so they return the grid's numbers bit for bit.  The laws come
only from a validated ``Distribution`` and ``FiniteKernel``, so they are
non-negative and sum to 1 by construction.
Every law tensor and every enumeration is checked by the one refusal rule,
:func:`~ustatmc.errors.refuse_over`, before it is allocated.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import b_q, d_constant, lemma6_constant, m_sup
from .errors import NotCanonical, PNotPositive, refuse_over
from .markov import Distribution, ErgodicityProfile, FiniteKernel, certify_rho
from .ustats import SymmetricKernelFn, _multisets, degeneracy_order, hoeffding_project

# Law cells (tuples x S^(2m)) of one block of the grid, 128 KiB of float64 per
# law array: the benchmark's grid (S = 4, m = 2, i_max = 10) peaks at 0.59 MiB
# traced at this cap, and at 0.97 MiB at 2^15.  A block has at least one
# tuple, so a grid with S^(2m) >= _BLOCK_CELLS runs one tuple per block.
_BLOCK_CELLS = 2**14
# the sizes of the grid's Lemma 6 section (trials, support points) and counting section (largest n)
_LEMMA6_TRIALS, _LEMMA6_POINTS, _COUNTING_N_MAX = 1000, 10, 10


@dataclass(frozen=True)
class OrderedTuple:
    """Non-decreasing tuple of 2m positive time indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) < 2 or len(idx) % 2 != 0:
            raise ValueError("need an even number (2m) of indices")
        if idx[0] < 1 or any(a > b for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be non-decreasing and >= 1")
        object.__setattr__(self, "indices", idx)

    @property
    def m(self) -> int:
        return len(self.indices) // 2


def _gaps(tuples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair minimal gaps j_l of each row of ``tuples`` (rows of 2m
    times), their maximum j* and its first maximizer l* (1-based)."""
    steps = np.diff(tuples, axis=1, prepend=1)  # steps[:, q] = i_{q+1} - i_q with i_0 = 1
    js = np.minimum(steps[:, 0::2], steps[:, 1::2])
    return js, js.max(axis=1), js.argmax(axis=1) + 1


def j_indices(tup: OrderedTuple) -> tuple[list[int], int, int]:
    """Per-pair minimal gaps, their maximum j*, and the first maximizer l*
    (1-based)."""
    js, j_star, ell_star = _gaps(np.array([tup.indices]))
    return js[0].tolist(), int(j_star[0]), int(ell_star[0])


class _ChainTables:
    """The factors of every law of the rows of ``times`` (rows of
    non-decreasing times) for the chain from ``mu`` on ``kernel``:
    ``vectors`` holds mu P^k for each read k, then pi; ``matrices`` holds
    P^k for each read k, the matrix of rows pi, then for each read k the
    matrix of rows mu P^k (a restart from mu).  The read k are every time
    and every gap between successive times.  Each P^k is taken by the
    recurrence P^k = P^(k-1) @ P (P^1 is P itself), and only the read ones
    are kept: a law at the one time 20000 keeps one S x S power, not 20001."""

    def __init__(self, mu: Distribution, kernel: FiniteKernel, times: np.ndarray):
        read = np.zeros(times.max() + 1, dtype=bool)
        read[times] = read[np.diff(times)] = True
        self.ks = np.flatnonzero(read)
        s, count = kernel.size, self.ks.size
        self.pi_slot = count  # the index of pi among the vectors, and of the all-rows-pi matrix
        self.vectors, self.matrices = np.empty((count + 1, s)), np.empty((2 * count + 1, s, s))
        power, k_now = np.eye(s), 0
        for slot, k in enumerate(self.ks.tolist()):
            while k_now < k:
                k_now += 1
                power = kernel.matrix if k_now == 1 else power @ kernel.matrix
            self.matrices[slot], self.vectors[slot] = power, mu.weights @ power
        self.vectors[count] = self.matrices[count] = kernel.stationary().weights
        self.matrices[count + 1 :] = self.vectors[:count, None]

    def slot(self, ks: np.ndarray) -> np.ndarray:
        """The index of mu P^k among the vectors, and of P^k among the
        matrices, for each read k of ``ks``."""
        return np.searchsorted(self.ks, ks)

    def true_index(self, times: np.ndarray) -> np.ndarray:
        """The factors of the true law of each row of ``times``: mu P^{t_1},
        then P^{t_c - t_(c-1)} for each later time."""
        return self.slot(np.diff(times, axis=-1, prepend=0))


def _law_chain(tables: _ChainTables, index: np.ndarray) -> np.ndarray:
    """The law of each row of factor indices ``index`` (..., L), as an array
    (..., S, ..., S): index[..., 0] names a vector of ``tables`` and each
    later entry a matrix, built coordinate by coordinate:
    law(..., a, b) = law(..., a) * F(..., a, b)."""
    law, lead = tables.vectors[index[..., 0]], index.shape[:-1]
    for c in range(1, index.shape[-1]):
        step = tables.matrices[index[..., c]]
        law = law[..., None] * step.reshape(lead + (1,) * (c - 1) + step.shape[-2:])
    return law


def _law_index(tables: _ChainTables, tuples: np.ndarray, ell_star: np.ndarray) -> np.ndarray:
    """The factors (B, 2, 2m) of the tilted and the true law of each row of
    ``tuples`` given its l*, for :func:`_law_chain`.  The tilted factors are
    the true ones with two swapped: the factor into q = 2l* - 2 (0-based)
    becomes pi, so coordinate i_{2l*-1} is an independent stationary draw,
    and the factor into q + 1 becomes mu P^{i_{2l*}}, so the chain restarts
    from mu at time 0."""
    index = np.repeat(tables.true_index(tuples)[:, None], 2, axis=1)
    rows, q = np.arange(len(tuples)), 2 * ell_star - 2
    index[rows, 0, q] = tables.pi_slot
    index[rows, 0, q + 1] = tables.pi_slot + 1 + tables.slot(tuples[rows, q + 1])
    return index


def joint_law(mu: Distribution, kernel: FiniteKernel, ks: Sequence[int]) -> np.ndarray:
    """Law of (Y_{k_1}, ..., Y_{k_l}) for the chain started at mu at time 0,
    as a tensor over S^l: the chain of mu P^{k_1} and the powers of the gaps."""
    ks = [int(k) for k in ks]
    if len(ks) < 1:
        raise ValueError("need at least one time index")
    if ks[0] < 0 or any(a > b for a, b in zip(ks, ks[1:])):
        raise ValueError("time indices must be non-decreasing and >= 0")
    s = kernel.size
    refuse_over("joint-law cells S^l", s ** len(ks))
    tables = _ChainTables(mu, kernel, np.array([ks]))
    return _law_chain(tables, tables.true_index(np.array(ks)))


def tilde_law(mu: Distribution, kernel: FiniteKernel, tup: OrderedTuple) -> np.ndarray:
    """Tilted joint law: P_mu^{i_1..i_{2l*-2}} (x) pi (x) P_mu^{i_{2l*}..i_2m}
    (pi (x) P_mu^{i_2..i_2m} at l* = 1), the coordinate at the largest
    minimal gap an independent draw from pi and the right block a restart
    from mu at time 0: the true law with two factors swapped (:func:`_law_index`)."""
    refuse_over("tilted-law cells S^(2m)", kernel.size ** (2 * tup.m))
    tuples = np.array([tup.indices])
    tables = _ChainTables(mu, kernel, tuples)
    return _law_chain(tables, _law_index(tables, tuples, _gaps(tuples)[2])[0, 0])


@functools.cache
def _splits(m: int) -> tuple[tuple[int, ...], ...]:
    """One permutation per unordered split {sigma(1..m)}, {sigma(m+1..2m)}
    of range(2m): (0, *c, the rest of 1..2m-1) for each (m - 1)-subset c
    of 1..2m-1.  h is symmetric, so f_sigma depends on sigma only through
    its split: binom(2m, m) / 2 values among the (2m)!.  Each is its
    split's first permutation in itertools order, in order of first
    appearance."""
    rest = range(1, 2 * m)
    return tuple((0, *c, *(a for a in rest if a not in c)) for c in itertools.combinations(rest, m - 1))


def _split_column(m: int, sigma: Sequence[int]) -> int:
    """The index in :func:`_splits` of the split of the permutation sigma."""
    low = sorted(sigma[:m] if 0 in sigma[:m] else sigma[m:])
    return _splits(m).index((*low, *(a for a in range(2 * m) if a not in low)))


def _split_matrix(h: SymmetricKernelFn) -> np.ndarray:
    """The (S^(2m), splits) matrix G of :func:`f_sigma_values`: the column
    of a split of :func:`_splits` is h (x) h transposed by the inverse of
    the split's representative, flattened."""
    splits, hh = _splits(h.degree), np.multiply.outer(h.table, h.table)
    g_rows = np.empty((len(splits),) + hh.shape)  # G transposed, a row per split
    for row, rep in zip(g_rows, splits):
        row[...] = hh.transpose(np.argsort(rep))
    return g_rows.reshape(len(splits), -1).T


def f_sigma_values(laws: np.ndarray, h: SymmetricKernelFn) -> np.ndarray:
    """E_law[ h(y_{sigma(1..m)}) * h(y_{sigma(m+1..2m)}) ] by exact
    contraction, for each law and each split of :func:`_splits` in order
    (the last axis of the result), the value of every sigma of that split.

    ``laws`` is an array (..., L, S, ..., S) of sequences of L law tensors
    over S^(2m), or anything ``np.asarray`` makes one of, such as a list
    of L tensors; the result is (..., L, binom(2m, m) / 2).  f_sigma = <T
    transposed by sigma, h (x) h> = <T, h (x) h transposed by sigma^-1>, so
    the split matrix G (:func:`_split_matrix`) gives every value of a
    sequence in one (L, S^(2m)) @ G product.  The sequences are never
    folded into one product, so each sequence gets the product it would
    get alone: numpy rounds a product by its shape (a one-row product is a
    vector-matrix product), so a law's values depend on the sequence it
    sits in, never on the others."""
    m, s = h.degree, h.table.shape[0]
    laws = np.asarray(laws)
    lead = laws.shape[: max(laws.ndim - 2 * m, 0)]
    if not lead or laws.shape[len(lead) :] != (s,) * (2 * m):
        raise ValueError(f"laws of shape {laws.shape} are not tensors over S^(2m), S = {s}, 2m = {2 * m}")
    return laws.reshape(lead + (s ** (2 * m),)) @ _split_matrix(h)


def _prop5_step(
    tables: _ChainTables, tuples: np.ndarray, ell_star: np.ndarray, rho_j: np.ndarray, m_value: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Proposition 5 for a block of tuples (rows) with their l* and
    rho(j*): the laws (B, 2, S, ..., S), the tilted and the true law of
    each tuple as :func:`f_sigma_values` contracts them together, the exact
    TV between the two, and its certificate 4 rho(j*) M(mu, V) given
    ``m_value`` = M(mu, V)."""
    laws = _law_chain(tables, _law_index(tables, tuples, ell_star))
    diff = laws[:, 1] - laws[:, 0]
    tv = np.abs(diff, out=diff).reshape(len(tuples), -1).sum(axis=1)
    return laws, tv, 4.0 * rho_j * m_value


def _tuple_step(
    mu: Distribution, kernel: FiniteKernel, profile: ErgodicityProfile, m_value: float, tup: OrderedTuple
) -> tuple[np.ndarray, float, float, float]:
    """:func:`_prop5_step` on the one-row block of ``tup``, with rho(j*)."""
    tuples = np.array([tup.indices])
    _, j_star, ell_star = _gaps(tuples)
    rho_j = profile.rho_at(int(j_star[0]))
    tables = _ChainTables(mu, kernel, tuples)
    laws, tv, bound = _prop5_step(tables, tuples, ell_star, np.array([rho_j]), m_value)
    return laws, float(tv[0]), float(bound[0]), rho_j


def verify_prop5(
    mu: Distribution, kernel: FiniteKernel, profile: ErgodicityProfile, tup: OrderedTuple
) -> tuple[float, float]:
    """Exact TV between the true and tilted laws of (Y_{i_1}, ..., Y_{i_2m})
    against its certificate 4 rho(j*) M(mu, V)."""
    _, tv, bound, _ = _tuple_step(mu, kernel, profile, m_sup(mu, profile, kernel), tup)
    return tv, bound


def _lemma6_block(xi: np.ndarray, xi_prime: np.ndarray, f: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of Lemma 6 for each row: probability vectors ``xi`` and
    ``xi_prime`` (T, n), values ``f`` (T, n) and exponents ``p`` (T,) > 0.

    Each expectation is its own dot product, as for one pair of
    ``Distribution``s.  Each |f|^{1+p} is libm's ``pow`` (``np.float_power``)
    and the right side is taken in Python floats, because numpy's ``**``
    rounds by the loop the CPU dispatches, not like Python's pow."""
    def expect(w, v):
        return (w[:, None] @ v[:, :, None])[:, 0, 0]

    constant = {q: lemma6_constant(q) for q in set(p.tolist())}
    moment = np.empty(len(p))
    for q in constant:
        rows = p == q
        g = np.float_power(np.abs(f[rows]), 1 + q)
        moment[rows] = expect(xi[rows], g) + expect(xi_prime[rows], g)
    tv = np.abs(xi - xi_prime).sum(axis=1)
    rhs = [constant[q] * mo ** (1.0 / (q + 1.0)) * t ** (q / (q + 1.0))
           for q, mo, t in zip(p.tolist(), moment.tolist(), tv.tolist())]
    return np.abs(expect(xi, f) - expect(xi_prime, f)), np.array(rhs)


def verify_lemma6(
    xi: Distribution, xi_prime: Distribution, f: Sequence[float], p: float
) -> tuple[float, float]:
    """Moment-splitting inequality on a finite support:

        |xi(f) - xi'(f)| <= C(p) [xi(|f|^{1+p}) + xi'(|f|^{1+p})]^{1/(p+1)}
                            * TV(xi, xi')^{p/(p+1)}.
    """
    if not p > 0:
        raise PNotPositive("p must be > 0")
    f = np.asarray(f, dtype=float)
    if not xi.size == xi_prime.size == f.size:
        raise ValueError("dimension mismatch")
    lhs, rhs = _lemma6_block(xi.weights[None], xi_prime.weights[None], f[None], np.array([float(p)]))
    return float(lhs[0]), float(rhs[0])


def verify_prop7(
    mu: Distribution,
    kernel: FiniteKernel,
    profile: ErgodicityProfile,
    h: SymmetricKernelFn,
    tup: OrderedTuple,
    sigma: Sequence[int],
    p: float | None = None,
) -> tuple[float, float, float | None]:
    """|E_mu[f_sigma(Y_{i_1}, ..., Y_{i_2m})]| against its two certificates:

        4 M(mu,V) rho(j*) |h|_inf^2                       (bounded form)
        m^2 D(p,mu,V,h)^2 rho(j*)^{p/(p+1)}               (moment form, if p)

    Requires a completely degenerate kernel.
    """
    if degeneracy_order(h, kernel.stationary()) < h.degree:
        raise NotCanonical("f_sigma certificates require a completely degenerate kernel")
    if tup.m != h.degree:
        raise ValueError("tuple length 2m does not match the kernel degree")
    if sorted(sigma) != list(range(2 * h.degree)):
        raise ValueError("sigma must be a permutation of range(2m)")
    m_value = m_sup(mu, profile, kernel)
    laws, _, _, rho_j = _tuple_step(mu, kernel, profile, m_value, tup)
    # the grid's product, tilted law included: numpy rounds a product by its shape
    values = f_sigma_values(laws, h)[0, 1]
    lhs = abs(float(values[_split_column(h.degree, sigma)]))
    bound1, bound2 = _prop7_bounds(h, profile, m_value, () if p is None else (p,))(rho_j)
    return lhs, bound1, bound2.get(p)


def _prop7_bounds(h: SymmetricKernelFn, profile: ErgodicityProfile, m_value: float, p_values: Sequence[float]):
    """Proposition 7 certificates on |E f_sigma| as a function of rho(j*):
    the bounded form 4 M(mu,V) rho(j*) |h|_inf^2, and per p the moment form
    m^2 D(p,mu,V,h)^2 rho(j*)^{p/(p+1)}."""
    sup_sq = h.sup_norm() ** 2
    scale = {p: h.degree**2 * d_constant(p, m_value, b_q(h, profile, 2.0 * (p + 1.0))) ** 2 for p in p_values}
    return lambda rho_j: (4.0 * m_value * rho_j * sup_sq, {p: c * rho_j ** (p / (p + 1.0)) for p, c in scale.items()})


def jstar_histogram(n: int, m: int) -> dict[int, int]:
    """Bucket all binom(n + 2m - 1, 2m) ordered 2m-tuples by j*, keyed in
    order of first appearance."""
    total = math.comb(n + 2 * m - 1, 2 * m)
    refuse_over(f"j* enumeration cells, {total} tuples of {2 * m} times", total * 2 * m)
    return dict(Counter(_gaps(_multisets(n, 2 * m)[0] + 1)[1].tolist()))


def counting_bound(n: int, m: int, k: int) -> int:
    """The cardinality certificate 2^m n^m (k+1)^m for the j* = k bucket."""
    return 2**m * n**m * (k + 1) ** m


# ---------------------------------------------------------------------------
# grid driver (exhaustive checks behind the `check-propositions` command)

def _case(chain_idx: int, tuples: np.ndarray, t: int) -> dict:
    """The name of row t of a block of ``tuples`` in a grid report."""
    return {"chain": chain_idx, "tuple": tuples[t].tolist()}


def random_ergodic_kernel(size: int, rng: np.random.Generator) -> FiniteKernel:
    """Strictly positive random row-stochastic matrix (hence ergodic) on
    the states evenly spaced over [-1, 1] (the state 0 when size is 1)."""
    mat = rng.random((size, size)) + 0.05
    mat /= mat.sum(axis=1, keepdims=True)
    return FiniteKernel(np.linspace(-1.0, 1.0, size) if size > 1 else np.zeros(1), mat)


def random_canonical_kernel(
    kernel: FiniteKernel, m: int, rng: np.random.Generator
) -> SymmetricKernelFn:
    """Random symmetric table pushed through the full projection pi_{m,m},
    so it is exactly pi-canonical for this chain."""
    s = kernel.size
    pi = kernel.stationary()
    for _ in range(16):
        raw = rng.standard_normal((s,) * m)
        sym = np.zeros_like(raw)
        for perm in itertools.permutations(range(m)):
            sym += np.transpose(raw, perm)
        sym /= math.factorial(m)
        h = hoeffding_project(SymmetricKernelFn(sym), pi, m)
        if np.abs(h.table).max() > 1e-8:
            return h
    raise RuntimeError("could not draw a nonvanishing canonical kernel")


class _Record:
    """Running summary of one certificate lhs <= bound over the grid: the
    instance count, the largest lhs/bound over positive bounds, the largest
    excess lhs - bound and the first instance attaining it (its lhs stored
    under ``lhs_key``).  With ``tolerance`` it records an identity instead:
    lhs is an absolute residual held to that tolerance, and its excess
    starts at 0, so a grid of exact zeros keeps no worst case.  Each lhs
    entry counts as ``weight`` instances."""

    def __init__(self, lhs_key: str | None = None, tolerance: float | None = None, weight: int = 1):
        self.lhs_key, self.tolerance, self.weight = lhs_key, tolerance, weight
        self.instances, self.max_ratio, self.worst = 0, 0.0, None
        self.max_excess = -math.inf if tolerance is None else 0.0

    def update(
        self, lhs: np.ndarray, bound: np.ndarray, case: Callable[[int], dict], sigmas: Sequence | None = None
    ) -> None:
        """Record lhs[t, i] <= bound[t] for every instance i of every tuple t
        of a block, in order; ``case(t)`` names tuple t and, when given,
        sigmas[i] is the permutation that names instance i."""
        self.instances += lhs.size * self.weight
        if self.tolerance is None:  # an identity reports no ratio
            positive = bound > 0
            # division by a positive bound is monotone, so a row's largest lhs gives its largest ratio, bit for bit
            self.max_ratio = float((lhs.max(axis=1)[positive] / bound[positive]).max(initial=self.max_ratio))
        excess = lhs - bound[:, None]
        # first maximum of the rounded excesses: what a sequential scan with a strict > keeps
        t, i = divmod(int(excess.argmax()), excess.shape[1])
        if excess[t, i] > self.max_excess:
            self.max_excess = float(excess[t, i])
            self.worst = case(t)
            if sigmas is not None:
                self.worst["sigma"] = list(sigmas[i])
            if self.lhs_key is not None:
                self.worst.update({self.lhs_key: float(lhs[t, i]), "bound": float(bound[t])})

    def report(self) -> dict:
        if self.tolerance is None:
            return {"instances": self.instances, "max_ratio": self.max_ratio, "max_violation": self.max_excess,
                    "worst_case": self.worst, "pass": self.max_excess <= 0.0}
        return {"instances": self.instances, "max_abs_residual": self.max_excess, "worst_case": self.worst,
                "tolerance": self.tolerance, "pass": self.max_excess <= self.tolerance}


def proposition_grid_check(
    num_chains: int = 3,
    size: int = 3,
    m: int = 2,
    i_max: int = 8,
    seed: int = 7,
    p_values: Sequence[float] = (0.5, 1.0),
) -> dict:
    """Exhaustive small-space verification of every proof-level inequality.

    Returns a JSON-ready summary per inequality: number of instances, the
    worst lhs/bound ratio, and the tuple attaining it.  ``"pass"`` is True
    iff no instance violates its certificate (the tilted-moment identity is
    held to 1e-11 absolute).  A grid whose f_sigma cells (the split matrix
    of :func:`f_sigma_values`, binom(2m, m) / 2 times S^(2m) cells, and
    what a block holds while :func:`_prop5_step` builds its laws: per
    tuple its two laws of S^(2m) cells and the larger of the TV's
    difference law and the last chain step's two laws of S^(2m-1), two
    S x S factors and 2 * 2m factor indices) or whose work
    (binom(i_max + 2m - 1, 2m) tuples times binom(2m, m) / 2 splits)
    exceeds the fixed cap is refused (:func:`~ustatmc.errors.refuse_over`)
    before any work.

    Each chain builds its factor table and split matrix once, takes the
    rho(j*) certificates once per distinct j*, and walks its tuples in
    blocks of rows, in enumeration order, each block updating every record;
    the report is the one a tuple-by-tuple scan gives, bit for bit.

    Its Lemma 6 section (``_LEMMA6_TRIALS`` trials of ``_LEMMA6_POINTS``
    support points, drawn after the chains) and counting section (every n
    <= ``_COUNTING_N_MAX`` at m = 1 and 2) have fixed sizes.
    """
    cells, columns = size ** (2 * m), math.comb(2 * m, m) // 2
    block, work = max(1, _BLOCK_CELLS // cells), math.comb(i_max + 2 * m - 1, 2 * m) * columns
    # the split matrix, and per tuple of a block its two laws and the larger of _prop5_step's two peaks: the
    # TV's difference law, or the last chain step's two prefix laws, two factors and 2 * 2m factor indices
    held = columns * cells + block * (2 * cells + max(cells, 2 * (cells // size + size * size + 2 * m)))
    refuse_over(f"proposition grid of {held} f_sigma cells (a split matrix of binom(2m, m) / 2 * S^(2m) and "
                f"what a block of {block} tuples holds while its laws are built) and {work} "
                f"(tuple, split) values, the larger", max(held, work))
    rng = np.random.default_rng(seed)
    p_values = tuple(dict.fromkeys(float(p) for p in p_values))
    tuples = _multisets(i_max, 2 * m)[0] + 1
    _, j_star, ell_star = _gaps(tuples)
    # a split column stands for the 2 (m!)^2 permutations that share its value
    splits, weight = _splits(m), 2 * math.factorial(m) ** 2
    eq19 = _Record(tolerance=1e-11, weight=weight)
    prop5 = _Record("tv")
    prop7 = {p: _Record("lhs", weight=weight) for p in (None, *p_values)}

    for chain_idx in range(num_chains):
        kernel = random_ergodic_kernel(size, rng)
        mu = Distribution.normalized(rng.random(size) + 0.05)
        profile = certify_rho(kernel, np.ones(size), k_max=i_max + 1)
        h = random_canonical_kernel(kernel, m, rng)
        m_value = m_sup(mu, profile, kernel)
        tables, g = _ChainTables(mu, kernel, tuples), _split_matrix(h)
        # j* takes every value in 0..max(j*): each certificate once per value, read by each row's j*
        rho = [profile.rho_at(j) for j in range(int(j_star.max()) + 1)]
        prop7_bounds = list(map(_prop7_bounds(h, profile, m_value, p_values), rho))
        bound7 = {p: np.array([b1 if p is None else b2[p] for b1, b2 in prop7_bounds])[j_star] for p in prop7}
        rho = np.array(rho)[j_star]
        for start in range(0, len(tuples), block):
            at = slice(start, start + block)
            laws, tv, bound5 = _prop5_step(tables, tuples[at], ell_star[at], rho[at], m_value)
            # f_sigma_values' product: |f_sigma| under the tilted and the true law of each tuple
            resid, lhs = np.abs(laws.reshape(laws.shape[:2] + (cells,)) @ g).transpose(1, 0, 2)
            del laws  # so that the next block's laws are built without this one's
            case = functools.partial(_case, chain_idx, tuples[at])
            prop5.update(tv[:, None], bound5, case)
            eq19.update(resid, np.zeros(len(tv)), case, splits)
            for p, record in prop7.items():
                record.update(lhs, bound7[p][at], case, splits)

    xi, xi_p, f = (np.empty((_LEMMA6_TRIALS, _LEMMA6_POINTS)) for _ in range(3))
    exponents = np.empty(_LEMMA6_TRIALS)
    for trial in range(_LEMMA6_TRIALS):  # the draws of one trial, in order, from the one stream
        xi[trial], xi_p[trial] = rng.random(_LEMMA6_POINTS), rng.random(_LEMMA6_POINTS)
        f[trial], exponents[trial] = rng.standard_normal(_LEMMA6_POINTS), (0.5, 1.0, 2.0)[rng.integers(3)]
    for weights in (xi, xi_p):
        weights += 1e-3
        weights /= weights.sum(axis=1, keepdims=True)
    f *= 10.0
    lhs, rhs = _lemma6_block(xi, xi_p, f, exponents)
    lemma6_viol = int(np.count_nonzero(lhs > rhs * (1 + 1e-12)))
    lemma6_max_ratio = float(np.max(lhs[rhs > 0] / rhs[rhs > 0], initial=0.0))

    counting_viol, counting_total_ok = 0, True
    for n, mm in itertools.product(range(1, _COUNTING_N_MAX + 1), (1, 2)):
        hist = jstar_histogram(n, mm)
        counting_total_ok &= sum(hist.values()) == math.comb(n + 2 * mm - 1, 2 * mm)
        counting_viol += sum(cnt > counting_bound(n, mm, k) for k, cnt in hist.items())

    report = {"eq19": eq19.report(), "prop5": prop5.report(), "prop7_bound1": prop7[None].report()}
    report.update({f"prop7_bound2_p{p}": prop7[p].report() for p in p_values})
    report["lemma6"] = {"instances": _LEMMA6_TRIALS, "violations": lemma6_viol, "max_ratio": lemma6_max_ratio,
                        "pass": lemma6_viol == 0}
    report["counting"] = {"violations": counting_viol, "totals_match_stars_and_bars": counting_total_ok,
                          "pass": counting_viol == 0 and counting_total_ok}
    report["pass"] = all(v["pass"] for v in report.values() if isinstance(v, dict))
    return report
