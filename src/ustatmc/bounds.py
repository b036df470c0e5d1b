"""Explicit variance bounds for U-statistics of an ergodic Markov chain.

Everything here is a closed-form function of (n, m), the mixing sequence
rho, the weight moments M(mu, V) = sup_k mu P^k(V), and kernel envelopes
(sup-norm, or the weighted envelope B_q).  The two main inequalities bound
the L2 norm of U_{n,m}(h) for completely degenerate h:

    bounded h:    C_{n,m} * sqrt(M(mu,V)) * |h|_inf * n^{-m/2}
    unbounded h:  2^{m/2} m sqrt((2m)!) D(p,mu,V,h)
                  * (sum_k (k+1)^m rho(k)^{p/(p+1)})^{1/2} * n^{m/2} / binom(n,m)

with C_{n,m} = 2^{m/2+1} sqrt((2m)!) (sum_k (k+1)^m rho(k))^{1/2} n^m / binom(n,m).
A non-degenerate h is handled through its canonical components: the
centered norm ||U_{n,m}(h) - pi^{(m)}h|| is at most

    sqrt(M(mu,V)) |h|_inf sum_{c=d∨1}^m binom(m,c) 2^c C_{n,c} n^{-c/2}.

Each formula takes only its numbers.  :func:`evaluate_bounds` is the one
path from the parsed (name, p) requests of an experiment to the bound
values of every n: it routes the requests by the degeneracy order of h
and computes M(mu, V), |h|_inf and each B_{2(p+1)} once per run.

Factorials and binomials are combined in log space; an exact-rational
recomputation of the combinatorial factors backs the tests.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Callable

import numpy as np

from .errors import DomainError, NotCanonical, PNotPositive, Unbounded, refuse_over
from .markov import Distribution, ErgodicityProfile, FiniteKernel
from .ustats import SymmetricKernelFn, degeneracy_order

M_SUP_TOL = 1e-9
_M_SUP_MAX_ITER = 1_000_000


def m_sup(mu: Distribution, profile: ErgodicityProfile, kernel: FiniteKernel | None) -> float:
    """M(mu, V) = sup_{k >= 0} mu P^k(V).

    Computed by exact iteration until ||mu P^K - pi||_1 * max(V) <
    1e-9 * pi(V).  P contracts total variation and fixes pi, so every
    later iterate has |mu P^k(V) - pi(V)| <= ||mu P^K - pi||_1 * max(V):
    all of them lie within 1e-9 * pi(V) of the limit, and the result is
    clamped to at least pi(V), which the supremum always dominates.  The
    tolerance is relative because pi(V) >= 1 may be large.  rho is not
    read.  Declared profiles must carry the supremum directly.
    """
    if profile.provenance == "declared":
        if profile.declared_m is None:
            raise Unbounded("declared profile carries no M(mu, V) value")
        return float(profile.declared_m)
    if kernel is None:
        raise ValueError("certified-profile M(mu, V) needs the transition kernel")
    v = profile.v_values
    pi = kernel.stationary()
    pi_v = pi.expect(v)
    v_max = float(v.max())
    w = mu.weights
    best = mu.expect(v)
    k = 0
    while float(np.abs(w - pi.weights).sum()) * v_max >= M_SUP_TOL * pi_v:
        k += 1
        if k > _M_SUP_MAX_ITER:
            raise Unbounded("chain mixes too slowly to certify M(mu, V)")
        w = w @ kernel.matrix
        best = max(best, float(w @ v))
    return max(best, pi_v)


def _log_binom(n: int, m: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)


def mixing_sum(n: int, m: int, profile: ErgodicityProfile, exponent: float = 1.0) -> float:
    """sum_{k=0}^{n} (k+1)^m rho(k)^exponent."""
    rho = profile.rho.table(n)
    k1 = np.arange(1, n + 2, dtype=float)
    return float(np.sum(k1**m * rho**exponent))


def c_nm(n: int, m: int, profile: ErgodicityProfile) -> float:
    """C_{n,m} = 2^{m/2+1} sqrt((2m)!) (sum_{k<=n} (k+1)^m rho(k))^{1/2} n^m / binom(n,m)."""
    if not 1 <= m <= n:
        raise ValueError("need n >= m >= 1")
    s = mixing_sum(n, m, profile)
    if s == 0.0:
        return 0.0
    log_c = (
        (m / 2.0 + 1.0) * math.log(2.0)
        + 0.5 * math.lgamma(2 * m + 1)
        + 0.5 * math.log(s)
        + m * math.log(n)
        - _log_binom(n, m)
    )
    return math.exp(log_c)


def _inputs_hasher(m: int, profile: ErgodicityProfile, mu: Distribution, sup_h: float,
                   d: int) -> Callable[[int, float | None], str]:
    """The inputs hash of a bound as a function of (n, p): the first 16 hex
    digits of the sha256 of the bound's inputs as sorted JSON.

    ``bq`` and ``bq_q`` are always null: B_q is computed from the kernel
    table, never declared, and the keys stay so every hash keeps its bytes.
    Sorted, the keys read bq, bq_q, d, m, mu, n, p, profile, sup_h, so the
    inputs other than n and p are encoded once, as the text around them.
    """
    head = json.dumps({"bq": None, "bq_q": None, "d": d, "m": m, "mu": mu.weights.tolist()}, sort_keys=True)[:-1]
    tail = json.dumps({"profile": profile.to_dict(), "sup_h": sup_h}, sort_keys=True)[1:]

    def inputs_hash(n: int, p: float | None) -> str:
        blob = f'{head}, "n": {json.dumps(n)}, "p": {json.dumps(p)}, {tail}'.encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    return inputs_hash


def theorem1_bound(n: int, m: int, profile: ErgodicityProfile, m_value: float, sup_h: float, d: int) -> float:
    """L2 bound for a bounded completely degenerate kernel:
    C_{n,m} sqrt(M(mu,V)) |h|_inf n^{-m/2}."""
    if d < m:
        raise NotCanonical(f"kernel is {d}-degenerate, needs complete degeneracy {m}")
    return c_nm(n, m, profile) * math.sqrt(m_value) * sup_h * n ** (-m / 2.0)


def corollary2_bound(n: int, m: int, profile: ErgodicityProfile, m_value: float, sup_h: float, d: int) -> float:
    """Centered L2 bound for a bounded d-degenerate kernel:
    sqrt(M) |h|_inf sum_{c=d∨1}^m binom(m,c) 2^c C_{n,c} n^{-c/2}.

    An empty sum (all projections vanish, d = m+1) is 0: the statistic is
    then identically its mean."""
    total = 0.0
    for c in range(max(d, 1), m + 1):
        total += math.comb(m, c) * 2.0**c * c_nm(n, c, profile) * n ** (-c / 2.0)
    return math.sqrt(m_value) * sup_h * total


def b_q(h: SymmetricKernelFn, profile: ErgodicityProfile, q: float) -> float:
    """B_q(h) = sup over m-tuples of |h| / sum_j V(y_j)^{1/q}.

    Exact maximization over the dense table, once its S^m cells pass
    :func:`~ustatmc.errors.refuse_over`.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    s = h.table.shape[0]
    refuse_over("B_q table cells S^m", s**h.degree)
    vq = np.float_power(profile.v_values, 1.0 / q)  # libm's pow, not the CPU-dispatched **
    denom = np.zeros((s,) * h.degree)
    for axis in range(h.degree):
        shape = tuple(s if a == axis else 1 for a in range(h.degree))
        denom = denom + vq.reshape(shape)
    return float((np.abs(h.table) / denom).max())


def d_constant(p: float, m_value: float, bq_value: float) -> float:
    """D(p, mu, V, h) = 2^{(2p+1)/(2(p+1))} C(p)^{1/2} sqrt(M(mu,V)) B_{2(p+1)}(h),
    with C(p) = p^{1/(p+1)} + p^{-p/(p+1)} from :func:`lemma6_constant`."""
    return 2.0 ** ((2.0 * p + 1.0) / (2.0 * (p + 1.0))) * math.sqrt(lemma6_constant(p)) * math.sqrt(m_value) * bq_value


def lemma6_constant(p: float) -> float:
    """C(p) = p^{1/(p+1)} + p^{-p/(p+1)}, the moment-splitting constant."""
    if not p > 0:
        raise PNotPositive("p must be > 0")
    return p ** (1.0 / (p + 1.0)) + p ** (-p / (p + 1.0))


def corollary3_bound(n: int, m: int, profile: ErgodicityProfile, m_value: float, bq: float, p: float,
                     d: int) -> float:
    """L2 bound for a completely degenerate kernel with finite B_{2(p+1)} = ``bq``:

        2^{m/2} m sqrt((2m)!) D(p,mu,V,h)
        (sum_{k<=n} (k+1)^m rho(k)^{p/(p+1)})^{1/2} n^{m/2} / binom(n,m).

    The degenerate-but-not-canonical unbounded case is unsupported and
    raises :class:`NotCanonical`.
    """
    if not p > 0:
        raise PNotPositive("p must be > 0")
    if d < m:
        raise NotCanonical("unbounded-kernel bound is only available for completely degenerate h")
    if bq == 0.0:
        return 0.0
    s = mixing_sum(n, m, profile, exponent=p / (p + 1.0))
    if s == 0.0:
        return 0.0
    log_b = (
        m / 2.0 * math.log(2.0)
        + math.log(m)
        + 0.5 * math.lgamma(2 * m + 1)
        + math.log(d_constant(p, m_value, bq))
        + 0.5 * math.log(s)
        + m / 2.0 * math.log(n)
        - _log_binom(n, m)
    )
    return math.exp(log_b)


def bound_requests(requests: list[tuple[str, float | None]], d: int, m: int) -> list[tuple[str, float | None]]:
    """Routed and deduplicated (name, p) pairs, in request order.

    ``requests`` are the pairs that :class:`ustatmc.montecarlo.ExperimentConfig`
    parsed and validated.  Theorem 1 and Corollary 3 need a completely
    degenerate kernel; for a d-degenerate kernel with d < m both are routed
    to the centered Corollary 2.  ``p`` is kept for corollary3 only.
    """
    routed: list[tuple[str, float | None]] = []
    for name, p in requests:
        if name in ("theorem1", "corollary3") and d < m:
            name = "corollary2"
        key = (name, p if name == "corollary3" else None)
        if key not in routed:
            routed.append(key)
    return routed


def evaluate_bounds(
    requests: list[tuple[str, float | None]],
    n_grid: list[int],
    h: SymmetricKernelFn,
    profile: ErgodicityProfile,
    mu: Distribution,
    kernel: FiniteKernel,
) -> tuple[int, dict[int, list[tuple[str, str, float, str]]]]:
    """(d, {n: [(statistic, label, value, inputs hash)]}) for the parsed
    ``requests`` over ``n_grid``.

    The degeneracy order d of h under pi, the routing of
    :func:`bound_requests`, M(mu, V), |h|_inf, each B_{2(p+1)} and the
    JSON text that every inputs hash shares are computed once; then every
    n is evaluated.  ``statistic`` is what the bound dominates: "u" for
    ||U_{n,m}(h)|| (theorem1, corollary3) and "u_centered" for
    ||U_{n,m}(h) - pi^{(m)}h|| (corollary2).  A negative value would be a
    defect of the formulas and raises ``ValueError``.
    """
    m = h.degree
    d = degeneracy_order(h, kernel.stationary())
    routed = bound_requests(requests, d, m)
    m_value = m_sup(mu, profile, kernel)
    sup_h = h.sup_norm()
    bqs = {p: b_q(h, profile, 2.0 * (p + 1.0)) for name, p in routed if name == "corollary3"}
    inputs_hash = _inputs_hasher(m, profile, mu, sup_h, d)
    out = {}
    for n in n_grid:
        out[n] = []
        for name, p in routed:
            if name == "theorem1":
                statistic, label, value = "u", name, theorem1_bound(n, m, profile, m_value, sup_h, d)
            elif name == "corollary2":
                statistic, label, value = "u_centered", name, corollary2_bound(n, m, profile, m_value, sup_h, d)
            else:
                statistic, label = "u", f"corollary3[p={p:g}]"
                value = corollary3_bound(n, m, profile, m_value, bqs[p], p, d)
            if value < 0:
                raise ValueError("bounds are nonnegative by construction")
            out[n].append((statistic, label, value, inputs_hash(n, p)))
    return d, out


def geometric_sum_bound(varrho: float, m: int) -> float:
    """Closed-form majorant of sum_{k=0}^{n} (k+1)^m varrho^k, any n, for a
    purely geometric mixing sequence rho(k) = varrho^k:

        (1 / (varrho (-ln varrho)^{m+1})) *
        (m^{m+1} - (-ln varrho)^{m+1}) / (m + ln varrho)

    with the removable singularity at ln varrho = -m filled by its limit
    (m+1) m^m / (varrho (-ln varrho)^{m+1}).
    """
    if not 0.0 < varrho < 1.0:
        raise DomainError("varrho must lie in (0, 1)")
    if m < 1:
        raise ValueError("m must be >= 1")
    lam = -math.log(varrho)
    if abs(m - lam) < 1e-9:
        return (m + 1) * m**m / (varrho * lam ** (m + 1))
    return (m ** (m + 1) - lam ** (m + 1)) / ((m - lam) * varrho * lam ** (m + 1))

