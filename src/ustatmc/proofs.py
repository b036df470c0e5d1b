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
module is checked by exact contraction rather than sampling.
:func:`f_sigma_values` is the one evaluator of E[f_sigma], and
``_prop5_step`` the one Proposition 5 step; :func:`verify_prop5` and
:func:`verify_prop7` run them for one tuple exactly as
:func:`proposition_grid_check` does for each.  The module
builds its laws only from a validated ``Distribution`` and
``FiniteKernel``, so they are non-negative and sum to 1 by construction.
Every tensor and every enumeration is checked against ``TENSOR_BUDGET``
before it is allocated.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import b_q, d_constant, lemma6_constant, m_sup
from .errors import TENSOR_BUDGET, BudgetExceeded, NotCanonical, PNotPositive
from .markov import Distribution, ErgodicityProfile, FiniteKernel, certify_rho, tv_distance
from .ustats import SymmetricKernelFn, canonicalize, degeneracy_order


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


def j_indices(tup: OrderedTuple) -> tuple[list[int], int, int]:
    """Per-pair minimal gaps, their maximum j*, and the first maximizer l*
    (1-based)."""
    idx = (1,) + tup.indices
    js = [min(idx[2 * l - 1] - idx[2 * l - 2], idx[2 * l] - idx[2 * l - 1]) for l in range(1, tup.m + 1)]
    j_star = max(js)
    ell_star = js.index(j_star) + 1
    return js, j_star, ell_star


def joint_law(mu: Distribution, kernel: FiniteKernel, ks: Sequence[int]) -> np.ndarray:
    """Law of (Y_{k_1}, ..., Y_{k_l}) for the chain started at mu at time 0,
    as a tensor over S^l.

    Built coordinate by coordinate from cached matrix powers:
    T_l(..., a, b) = T_{l-1}(..., a) * P^{k_l - k_{l-1}}(a, b).
    """
    ks = [int(k) for k in ks]
    if len(ks) < 1:
        raise ValueError("need at least one time index")
    if ks[0] < 0 or any(a > b for a, b in zip(ks, ks[1:])):
        raise ValueError("time indices must be non-decreasing and >= 0")
    s = kernel.size
    if s ** len(ks) > TENSOR_BUDGET:
        raise BudgetExceeded(f"S^l = {s ** len(ks)} exceeds tensor budget {TENSOR_BUDGET}")
    t = mu.weights @ kernel.power(ks[0])
    for prev, cur in zip(ks, ks[1:]):
        t = t[..., :, None] * kernel.power(cur - prev)
    return t


def tilde_law(mu: Distribution, kernel: FiniteKernel, tup: OrderedTuple) -> np.ndarray:
    """Tilted joint law: the coordinate at the largest minimal gap is
    replaced by an independent draw from the stationary law pi.

    With l* = 1 the law is pi (x) P_mu^{i_2..i_2m}; otherwise it is
    P_mu^{i_1..i_{2l*-2}} (x) pi (x) P_mu^{i_{2l*}..i_2m}, the blocks being
    independent (the right block restarts from mu at time 0).
    """
    _, _, ell_star = j_indices(tup)
    idx = tup.indices
    if kernel.size ** (2 * tup.m) > TENSOR_BUDGET:
        raise BudgetExceeded("tilted-law tensor exceeds budget")
    pi = kernel.stationary().weights
    if ell_star == 1:
        return np.multiply.outer(pi, joint_law(mu, kernel, idx[1:]))
    left = joint_law(mu, kernel, idx[: 2 * ell_star - 2])
    right = joint_law(mu, kernel, idx[2 * ell_star - 1 :])
    return np.multiply.outer(np.multiply.outer(left, pi), right)


@functools.cache
def _pair_partitions(m: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], np.ndarray]:
    """The permutations sigma of range(2m) in itertools order, the first
    sigma of each unordered split {sigma(1..m)}, {sigma(m+1..2m)}, and the
    split of every sigma as an index into those representatives.

    h is symmetric, so f_sigma depends on sigma only through its split:
    binom(2m, m) / 2 distinct values among the (2m)!.  The cached result is
    shared by every caller, so it is built from tuples and a read-only array."""
    sigmas = tuple(itertools.permutations(range(2 * m)))
    splits: dict[frozenset, int] = {}
    representatives, index = [], []
    for sigma in sigmas:
        split = frozenset((frozenset(sigma[:m]), frozenset(sigma[m:])))
        if split not in splits:
            splits[split] = len(representatives)
            representatives.append(sigma)
        index.append(splits[split])
    index = np.array(index)
    index.setflags(write=False)
    return sigmas, tuple(representatives), index


def f_sigma_values(laws: Sequence[np.ndarray], h: SymmetricKernelFn) -> np.ndarray:
    """E_law[ h(y_{sigma(1..m)}) * h(y_{sigma(m+1..2m)}) ] by exact
    contraction, for each law (rows) and each permutation sigma of range(2m)
    in itertools order (columns).

    f_sigma = <T transposed by sigma, h (x) h>, so one matrix product with
    a row per (law, split) of :func:`_pair_partitions` gives every distinct
    value."""
    m = h.degree
    for law in laws:
        if law.ndim != 2 * m:
            raise ValueError(f"law arity {law.ndim} does not match 2m = {2 * m}")
    _, representatives, index = _pair_partitions(m)
    rows = [law.transpose(rep).ravel() for law in laws for rep in representatives]
    return (np.array(rows) @ np.multiply.outer(h.table, h.table).ravel()).reshape(len(laws), -1)[:, index]


def _prop5_step(
    mu: Distribution, kernel: FiniteKernel, profile: ErgodicityProfile, m_value: float, tup: OrderedTuple
) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """Proposition 5 for one tuple: the true and tilted laws, the exact TV
    between them, its certificate 4 rho(j*) M(mu, V) given ``m_value`` =
    M(mu, V), and rho(j*)."""
    law, tilted = joint_law(mu, kernel, tup.indices), tilde_law(mu, kernel, tup)
    rho_j = profile.rho_at(j_indices(tup)[1])
    return law, tilted, float(np.abs(law - tilted).sum()), 4.0 * rho_j * m_value, rho_j


def verify_prop5(
    mu: Distribution,
    kernel: FiniteKernel,
    profile: ErgodicityProfile,
    tup: OrderedTuple,
) -> tuple[float, float]:
    """Exact TV between the true and tilted laws of (Y_{i_1}, ..., Y_{i_2m})
    against its certificate 4 rho(j*) M(mu, V)."""
    _, _, tv, bound, _ = _prop5_step(mu, kernel, profile, m_sup(mu, profile, kernel), tup)
    return tv, bound


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
    lhs = abs(xi.expect(f) - xi_prime.expect(f))
    moment = xi.expect(np.abs(f) ** (1 + p)) + xi_prime.expect(np.abs(f) ** (1 + p))
    tv = tv_distance(xi, xi_prime)
    rhs = lemma6_constant(p) * moment ** (1.0 / (p + 1.0)) * tv ** (p / (p + 1.0))
    return lhs, rhs


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
    law, tilted, _, _, rho_j = _prop5_step(mu, kernel, profile, m_value, tup)
    # the grid's product, tilted row included: numpy sums a one-row product in another order
    values = f_sigma_values((tilted, law), h)[1]
    lhs = abs(float(values[_pair_partitions(h.degree)[0].index(tuple(sigma))]))
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
    """Bucket all binom(n + 2m - 1, 2m) ordered 2m-tuples by j*."""
    total = math.comb(n + 2 * m - 1, 2 * m)
    if total > TENSOR_BUDGET:
        raise BudgetExceeded(f"{total} tuples exceed enumeration budget {TENSOR_BUDGET}")
    hist: dict[int, int] = {}
    for combo in itertools.combinations_with_replacement(range(1, n + 1), 2 * m):
        _, j_star, _ = j_indices(OrderedTuple(combo))
        hist[j_star] = hist.get(j_star, 0) + 1
    return hist


def counting_bound(n: int, m: int, k: int) -> int:
    """The cardinality certificate 2^m n^m (k+1)^m for the j* = k bucket."""
    return 2**m * n**m * (k + 1) ** m


# ---------------------------------------------------------------------------
# grid driver (exhaustive checks behind the `check-propositions` command)

def random_ergodic_kernel(size: int, rng: np.random.Generator, states: Sequence[float] | None = None) -> FiniteKernel:
    """Strictly positive random row-stochastic matrix (hence ergodic)."""
    mat = rng.random((size, size)) + 0.05
    mat /= mat.sum(axis=1, keepdims=True)
    if states is None:
        states = np.linspace(-1.0, 1.0, size) if size > 1 else np.zeros(1)
    return FiniteKernel(states, mat)


def random_canonical_kernel(
    kernel: FiniteKernel, m: int, rng: np.random.Generator
) -> SymmetricKernelFn:
    """Random symmetric table pushed through the full projection, so it is
    exactly pi-canonical for this chain."""
    s = kernel.size
    pi = kernel.stationary()
    for _ in range(16):
        raw = rng.standard_normal((s,) * m)
        sym = np.zeros_like(raw)
        for perm in itertools.permutations(range(m)):
            sym += np.transpose(raw, perm)
        sym /= math.factorial(m)
        h = canonicalize(SymmetricKernelFn(sym), pi)
        if np.abs(h.table).max() > 1e-8:
            return h
    raise RuntimeError("could not draw a nonvanishing canonical kernel")


class _Record:
    """Running summary of one certificate lhs <= bound over the grid: the
    instance count, the largest lhs/bound over positive bounds, the largest
    excess lhs - bound and the first instance attaining it (its lhs stored
    under ``lhs_key``).  With ``tolerance`` it records an identity instead:
    lhs is an absolute residual held to that tolerance, and its excess
    starts at 0, so a grid of exact zeros keeps no worst case."""

    def __init__(self, lhs_key: str | None = None, tolerance: float | None = None):
        self.lhs_key, self.tolerance = lhs_key, tolerance
        self.instances, self.max_ratio, self.worst = 0, 0.0, None
        self.max_excess = -math.inf if tolerance is None else 0.0

    def update(self, case: dict, lhs: np.ndarray, bound: float, sigmas: Sequence | None = None) -> None:
        """Record lhs[i] <= bound for every instance i of one tuple, named
        by ``case`` and, when given, the permutation sigmas[i]."""
        self.instances += lhs.size
        if bound > 0:
            self.max_ratio = max(self.max_ratio, float((lhs / bound).max()))
        excess = lhs - bound
        # first maximum of the rounded excesses: what a sequential scan with a strict > keeps
        i = int(excess.argmax())
        if excess[i] > self.max_excess:
            self.max_excess = float(excess[i])
            self.worst = dict(case)
            if sigmas is not None:
                self.worst["sigma"] = list(sigmas[i])
            if self.lhs_key is not None:
                self.worst.update({self.lhs_key: float(lhs[i]), "bound": bound})

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
    lemma6_trials: int = 1000,
    lemma6_points: int = 10,
    counting_n_max: int = 10,
) -> dict:
    """Exhaustive small-space verification of every proof-level inequality.

    Returns a JSON-ready summary per inequality: number of instances, the
    worst lhs/bound ratio, and the tuple attaining it.  ``"pass"`` is True
    iff no instance violates its certificate (the tilted-moment identity is
    held to 1e-11 absolute).  A grid whose law tensors (S^(2m) cells) or
    instances (binom(i_max + 2m - 1, 2m) tuples times (2m)! permutations)
    exceed ``TENSOR_BUDGET`` raises :class:`BudgetExceeded` before any work.
    """
    cells, instances = size ** (2 * m), math.comb(i_max + 2 * m - 1, 2 * m) * math.factorial(2 * m)
    if max(cells, instances) > TENSOR_BUDGET:
        raise BudgetExceeded(f"proposition grid of S^(2m) = {cells} law cells and {instances} "
                             f"(tuple, sigma) instances exceeds budget {TENSOR_BUDGET}")
    rng = np.random.default_rng(seed)
    sigmas = _pair_partitions(m)[0]
    p_values = tuple(dict.fromkeys(float(p) for p in p_values))
    tuples = [OrderedTuple(c) for c in itertools.combinations_with_replacement(range(1, i_max + 1), 2 * m)]
    eq19 = _Record(tolerance=1e-11)
    prop5 = _Record("tv")
    prop7 = {p: _Record("lhs") for p in (None, *p_values)}

    for chain_idx in range(num_chains):
        kernel = random_ergodic_kernel(size, rng)
        mu = Distribution.normalized(rng.random(size) + 0.05)
        profile = certify_rho(kernel, np.ones(size), k_max=i_max + 1)
        h = random_canonical_kernel(kernel, m, rng)
        m_value = m_sup(mu, profile, kernel)
        prop7_bounds = _prop7_bounds(h, profile, m_value, p_values)
        for tup in tuples:
            law, tilted, tv, bound, rho_j = _prop5_step(mu, kernel, profile, m_value, tup)
            case = {"chain": chain_idx, "tuple": list(tup.indices)}
            prop5.update(case, np.array([tv]), bound)
            resid, lhs = np.abs(f_sigma_values((tilted, law), h))
            eq19.update(case, resid, 0.0, sigmas)
            bound1, bound2 = prop7_bounds(rho_j)
            for p, bound in {None: bound1, **bound2}.items():
                prop7[p].update(case, lhs, bound, sigmas)

    lemma6_viol = 0
    lemma6_max_ratio = 0.0
    for _ in range(lemma6_trials):
        xi = Distribution.normalized(rng.random(lemma6_points) + 1e-3)
        xi_p = Distribution.normalized(rng.random(lemma6_points) + 1e-3)
        f = rng.standard_normal(lemma6_points) * 10.0
        p = float(rng.choice([0.5, 1.0, 2.0]))
        lhs, rhs = verify_lemma6(xi, xi_p, f, p)
        if rhs > 0:
            lemma6_max_ratio = max(lemma6_max_ratio, lhs / rhs)
        if lhs > rhs * (1 + 1e-12):
            lemma6_viol += 1

    counting_viol = 0
    counting_total_ok = True
    for n in range(1, counting_n_max + 1):
        for mm in (1, 2):
            hist = jstar_histogram(n, mm)
            if sum(hist.values()) != math.comb(n + 2 * mm - 1, 2 * mm):
                counting_total_ok = False
            for k, cnt in hist.items():
                if cnt > counting_bound(n, mm, k):
                    counting_viol += 1

    report = {"eq19": eq19.report(), "prop5": prop5.report(), "prop7_bound1": prop7[None].report()}
    report.update({f"prop7_bound2_p{p}": prop7[p].report() for p in p_values})
    report["lemma6"] = {
        "instances": lemma6_trials,
        "violations": lemma6_viol,
        "max_ratio": lemma6_max_ratio,
        "pass": lemma6_viol == 0,
    }
    report["counting"] = {
        "violations": counting_viol,
        "totals_match_stars_and_bars": counting_total_ok,
        "pass": counting_viol == 0 and counting_total_ok,
    }
    report["pass"] = all(v["pass"] for v in report.values() if isinstance(v, dict))
    return report
