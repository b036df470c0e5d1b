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

All laws are dense probability tensors over S^l, so every inequality in
this module is checked by exact contraction rather than sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import b_q, d_constant, lemma6_constant, m_sup
from .errors import BudgetExceeded, NotCanonical, PNotPositive
from .markov import Distribution, ErgodicityProfile, FiniteKernel, certify_rho
from .ustats import SymmetricKernelFn, canonicalize, degeneracy_order, table_kernel

TENSOR_BUDGET = 10**7


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


@dataclass(frozen=True)
class JointLaw:
    """Exact probability tensor over S^arity."""

    tensor: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=float)
        if np.any(t < -1e-15):
            raise ValueError("law tensor has negative entries")
        if abs(float(t.sum()) - 1.0) > 1e-12:
            raise ValueError(f"law tensor sums to {t.sum()!r}, not 1")
        t.setflags(write=False)
        object.__setattr__(self, "tensor", t)

    @property
    def arity(self) -> int:
        return self.tensor.ndim

    def expect(self, values: np.ndarray) -> float:
        return float(np.tensordot(self.tensor, values, axes=self.arity))


def j_indices(tup: OrderedTuple) -> tuple[list[int], int, int]:
    """Per-pair minimal gaps, their maximum j*, and the first maximizer l*
    (1-based)."""
    idx = (1,) + tup.indices
    js = [min(idx[2 * l - 1] - idx[2 * l - 2], idx[2 * l] - idx[2 * l - 1]) for l in range(1, tup.m + 1)]
    j_star = max(js)
    ell_star = js.index(j_star) + 1
    return js, j_star, ell_star


def joint_law(
    mu: Distribution, kernel: FiniteKernel, ks: Sequence[int], budget: int = TENSOR_BUDGET
) -> JointLaw:
    """Law of (Y_{k_1}, ..., Y_{k_l}) for the chain started at mu at time 0.

    Built coordinate by coordinate from cached matrix powers:
    T_l(..., a, b) = T_{l-1}(..., a) * P^{k_l - k_{l-1}}(a, b).
    """
    ks = [int(k) for k in ks]
    if len(ks) < 1:
        raise ValueError("need at least one time index")
    if ks[0] < 0 or any(a > b for a, b in zip(ks, ks[1:])):
        raise ValueError("time indices must be non-decreasing and >= 0")
    s = kernel.size
    if s ** len(ks) > budget:
        raise BudgetExceeded(f"S^l = {s ** len(ks)} exceeds tensor budget {budget}")
    t = mu.weights @ kernel.power(ks[0])
    for prev, cur in zip(ks, ks[1:]):
        t = t[..., :, None] * kernel.power(cur - prev)
    return JointLaw(t)


def tilde_law(
    mu: Distribution,
    kernel: FiniteKernel,
    pi: Distribution,
    tup: OrderedTuple,
    budget: int = TENSOR_BUDGET,
) -> JointLaw:
    """Tilted joint law: the coordinate at the largest minimal gap is
    replaced by an independent stationary draw.

    With l* = 1 the law is pi (x) P_mu^{i_2..i_2m}; otherwise it is
    P_mu^{i_1..i_{2l*-2}} (x) pi (x) P_mu^{i_{2l*}..i_2m}, the blocks being
    independent (the right block restarts from mu at time 0).
    """
    _, _, ell_star = j_indices(tup)
    idx = tup.indices
    if kernel.size ** (2 * tup.m) > budget:
        raise BudgetExceeded("tilted-law tensor exceeds budget")
    if ell_star == 1:
        rest = joint_law(mu, kernel, idx[1:], budget)
        return JointLaw(np.multiply.outer(pi.weights, rest.tensor))
    left = joint_law(mu, kernel, idx[: 2 * ell_star - 2], budget)
    right = joint_law(mu, kernel, idx[2 * ell_star - 1 :], budget)
    t = np.multiply.outer(np.multiply.outer(left.tensor, pi.weights), right.tensor)
    return JointLaw(t)


def f_sigma_expectation(law: JointLaw, h: SymmetricKernelFn, sigma: Sequence[int]) -> float:
    """E_law[ h(y_{sigma(1..m)}) * h(y_{sigma(m+1..2m)}) ] by exact tensor
    contraction.  ``sigma`` is a 0-based permutation of range(2m)."""
    m = h.degree
    if law.arity != 2 * m:
        raise ValueError(f"law arity {law.arity} does not match 2m = {2 * m}")
    if sorted(sigma) != list(range(2 * m)):
        raise ValueError("sigma must be a permutation of range(2m)")
    if h.table is None:
        raise ValueError("f_sigma contraction needs a tabulated kernel")
    out = np.einsum(
        law.tensor,
        list(range(2 * m)),
        h.table,
        [sigma[j] for j in range(m)],
        h.table,
        [sigma[m + j] for j in range(m)],
        [],
    )
    return float(out)


def tv_between(law_a: JointLaw, law_b: JointLaw) -> float:
    """Total variation (unnormalized L1, range [0, 2]) between two tensors."""
    if law_a.tensor.shape != law_b.tensor.shape:
        raise ValueError("law shapes differ")
    return float(np.abs(law_a.tensor - law_b.tensor).sum())


def verify_prop5(
    mu: Distribution,
    kernel: FiniteKernel,
    profile: ErgodicityProfile,
    tup: OrderedTuple,
    budget: int = TENSOR_BUDGET,
) -> tuple[float, float]:
    """Exact TV between the true and tilted laws of (Y_{i_1}, ..., Y_{i_2m})
    against its certificate 4 rho(j*) M(mu, V)."""
    _, j_star, _ = j_indices(tup)
    pi = kernel.stationary()
    true_law = joint_law(mu, kernel, tup.indices, budget)
    tilted = tilde_law(mu, kernel, pi, tup, budget)
    tv = tv_between(true_law, tilted)
    bound = 4.0 * profile.rho_at(j_star) * m_sup(mu, profile, kernel)
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
    tv = float(np.abs(xi.weights - xi_prime.weights).sum())
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
    budget: int = TENSOR_BUDGET,
) -> tuple[float, float, float | None]:
    """|E_mu[f_sigma(Y_{i_1}, ..., Y_{i_2m})]| against its two certificates:

        4 M(mu,V) rho(j*) |h|_inf^2                       (bounded form)
        m^2 D(p,mu,V,h)^2 rho(j*)^{p/(p+1)}               (moment form, if p)

    Requires a completely degenerate kernel.
    """
    pi = kernel.stationary()
    if degeneracy_order(h, pi) < h.degree:
        raise NotCanonical("f_sigma certificates require a completely degenerate kernel")
    if tup.m != h.degree:
        raise ValueError("tuple length 2m does not match the kernel degree")
    _, j_star, _ = j_indices(tup)
    law = joint_law(mu, kernel, tup.indices, budget)
    lhs = abs(f_sigma_expectation(law, h, sigma))
    m_value = m_sup(mu, profile, kernel)
    rho_j = profile.rho_at(j_star)
    bound1 = 4.0 * m_value * rho_j * h.sup_norm() ** 2
    bound2 = None
    if p is not None:
        bq_value = b_q(h, profile, 2.0 * (p + 1.0))
        d_val = d_constant(p, m_value, bq_value)
        bound2 = h.degree**2 * d_val**2 * rho_j ** (p / (p + 1.0))
    return lhs, bound1, bound2


def count_tuples(n: int, m: int, k: int, budget: int = TENSOR_BUDGET) -> int:
    """#{ordered 2m-tuples in [1, n] with j*(I) = k}, by enumeration."""
    return jstar_histogram(n, m, budget).get(k, 0)


def jstar_histogram(n: int, m: int, budget: int = TENSOR_BUDGET) -> dict[int, int]:
    """Bucket all binom(n + 2m - 1, 2m) ordered 2m-tuples by j*."""
    total = math.comb(n + 2 * m - 1, 2 * m)
    if total > budget:
        raise BudgetExceeded(f"{total} tuples exceed enumeration budget {budget}")
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
        h = canonicalize(table_kernel(sym, kernel.states), pi)
        if np.abs(h.table).max() > 1e-8:
            return h
    raise RuntimeError("could not draw a nonvanishing canonical kernel")


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
    worst lhs/bound ratio, and the tuple attaining it.  ``passed`` is True
    iff no instance violates its certificate (the tilted-moment identity is
    held to 1e-11 absolute).
    """
    rng = np.random.default_rng(seed)
    sigmas = list(itertools.permutations(range(2 * m)))
    tuples = [OrderedTuple(c) for c in itertools.combinations_with_replacement(range(1, i_max + 1), 2 * m)]
    report: dict = {}

    eq19_max = 0.0
    eq19_worst = None
    prop5_max = -math.inf
    prop5_worst = None
    prop5_ratio = 0.0
    prop7_max = {p: -math.inf for p in (None, *p_values)}
    prop7_worst = {p: None for p in (None, *p_values)}
    prop7_ratio = {p: 0.0 for p in (None, *p_values)}
    instances = {"eq19": 0, "prop5": 0, "prop7_bound1": 0, "prop7_bound2": 0}

    for chain_idx in range(num_chains):
        kernel = random_ergodic_kernel(size, rng)
        pi = kernel.stationary()
        mu = Distribution.normalized(rng.random(size) + 0.05)
        profile = certify_rho(kernel, np.ones(size), k_max=i_max + 1)
        h = random_canonical_kernel(kernel, m, rng)
        m_value = m_sup(mu, profile, kernel)
        sup_sq = h.sup_norm() ** 2
        bq_cache = {p: b_q(h, profile, 2.0 * (p + 1.0)) for p in p_values}
        for tup in tuples:
            _, j_star, _ = j_indices(tup)
            law = joint_law(mu, kernel, tup.indices)
            tilted = tilde_law(mu, kernel, pi, tup)
            tv = tv_between(law, tilted)
            rho_j = profile.rho_at(j_star)
            bound5 = 4.0 * rho_j * m_value
            instances["prop5"] += 1
            if bound5 > 0:
                prop5_ratio = max(prop5_ratio, tv / bound5)
            if tv - bound5 > prop5_max:
                prop5_max = tv - bound5
                prop5_worst = {"chain": chain_idx, "tuple": list(tup.indices), "tv": tv, "bound": bound5}
            bound1 = 4.0 * m_value * rho_j * sup_sq
            bound2 = {
                p: m**2 * d_constant(p, m_value, bq_cache[p]) ** 2 * rho_j ** (p / (p + 1.0))
                for p in p_values
            }
            for sigma in sigmas:
                resid = abs(f_sigma_expectation(tilted, h, sigma))
                instances["eq19"] += 1
                if resid > eq19_max:
                    eq19_max = resid
                    eq19_worst = {"chain": chain_idx, "tuple": list(tup.indices), "sigma": list(sigma)}
                lhs = abs(f_sigma_expectation(law, h, sigma))
                instances["prop7_bound1"] += 1
                if bound1 > 0:
                    prop7_ratio[None] = max(prop7_ratio[None], lhs / bound1)
                if lhs - bound1 > prop7_max[None]:
                    prop7_max[None] = lhs - bound1
                    prop7_worst[None] = {
                        "chain": chain_idx, "tuple": list(tup.indices), "sigma": list(sigma),
                        "lhs": lhs, "bound": bound1,
                    }
                for p in p_values:
                    instances["prop7_bound2"] += 1
                    if bound2[p] > 0:
                        prop7_ratio[p] = max(prop7_ratio[p], lhs / bound2[p])
                    if lhs - bound2[p] > prop7_max[p]:
                        prop7_max[p] = lhs - bound2[p]
                        prop7_worst[p] = {
                            "chain": chain_idx, "tuple": list(tup.indices), "sigma": list(sigma),
                            "lhs": lhs, "bound": bound2[p],
                        }

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

    report["eq19"] = {
        "instances": instances["eq19"],
        "max_abs_residual": eq19_max,
        "worst_case": eq19_worst,
        "tolerance": 1e-11,
        "pass": eq19_max <= 1e-11,
    }
    report["prop5"] = {
        "instances": instances["prop5"],
        "max_ratio": prop5_ratio,
        "max_violation": prop5_max,
        "worst_case": prop5_worst,
        "pass": prop5_max <= 0.0,
    }
    report["prop7_bound1"] = {
        "instances": instances["prop7_bound1"],
        "max_ratio": prop7_ratio[None],
        "max_violation": prop7_max[None],
        "worst_case": prop7_worst[None],
        "pass": prop7_max[None] <= 0.0,
    }
    for p in p_values:
        report[f"prop7_bound2_p{p}"] = {
            "instances": instances["prop7_bound2"] // len(p_values),
            "max_ratio": prop7_ratio[p],
            "max_violation": prop7_max[p],
            "worst_case": prop7_worst[p],
            "pass": prop7_max[p] <= 0.0,
        }
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
