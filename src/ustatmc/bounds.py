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

Factorials and binomials are combined in log space; an exact-rational
recomputation of the combinatorial factors backs the tests.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceeded, ConfigError, DomainError, NeedDeclaredEnvelope, NotCanonical, PNotPositive, Unbounded,
)
from .markov import Distribution, ErgodicityProfile, FiniteKernel
from .ustats import SymmetricKernelFn

M_SUP_TOL = 1e-9
_M_SUP_MAX_ITER = 1_000_000
ENUM_BUDGET = 10**7


def m_sup(mu: Distribution, profile: ErgodicityProfile, kernel: FiniteKernel | None) -> float:
    """M(mu, V) = sup_{k >= 0} mu P^k(V).

    Computed by exact iteration until rho(K) * (mu(V) + pi(V)) * max(V)
    certifies that every later iterate is within 1e-9 of the limit pi(V);
    the result is clamped to at least pi(V), which the supremum always
    dominates.  Declared profiles must carry the supremum directly.
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
    mu_v = mu.expect(v)
    v_max = float(v.max())
    w = mu.weights
    best = mu_v
    k = 0
    while profile.rho_at(k) * (mu_v + pi_v) * v_max >= M_SUP_TOL:
        k += 1
        if k > _M_SUP_MAX_ITER:
            raise Unbounded("mixing sequence decays too slowly to certify M(mu, V)")
        w = w @ kernel.matrix
        best = max(best, float(w @ v))
    return max(best, pi_v)


def _log_binom(n: int, m: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)


def mixing_sum(n: int, m: int, profile: ErgodicityProfile, exponent: float = 1.0) -> float:
    """sum_{k=0}^{n} (k+1)^m rho(k)^exponent."""
    rho = profile.rho_table(n)
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


@dataclass
class BoundInputs:
    """Everything a bound evaluation needs; optional fields only for the
    bounds that use them.  ``m_value`` short-circuits the M(mu, V)
    iteration when the caller has it already."""

    n: int
    m: int
    profile: ErgodicityProfile
    mu: Distribution
    kernel: FiniteKernel | None = None
    sup_h: float | None = None
    bq: float | None = None
    bq_q: float | None = None
    p: float | None = None
    d: int | None = None
    m_value: float | None = None

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ValueError("need n >= m >= 1")
        if self.sup_h is not None and self.sup_h < 0:
            raise ValueError("sup_h must be >= 0")
        if self.p is not None and not self.p > 0:
            raise PNotPositive("p must be > 0")

    def resolve_m(self) -> float:
        if self.m_value is not None:
            return float(self.m_value)
        return m_sup(self.mu, self.profile, self.kernel)

    def digest(self) -> str:
        payload = {
            "n": self.n,
            "m": self.m,
            "profile": self.profile.to_dict(),
            "mu": self.mu.weights.tolist(),
            "sup_h": self.sup_h,
            "bq": self.bq,
            "bq_q": self.bq_q,
            "p": self.p,
            "d": self.d,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def theorem1_bound(inputs: BoundInputs) -> float:
    """L2 bound for a bounded completely degenerate kernel:
    C_{n,m} sqrt(M(mu,V)) |h|_inf n^{-m/2}."""
    if inputs.sup_h is None:
        raise ValueError("theorem1_bound needs sup_h")
    if inputs.d is not None and inputs.d < inputs.m:
        raise NotCanonical(f"kernel is {inputs.d}-degenerate, needs complete degeneracy {inputs.m}")
    c = c_nm(inputs.n, inputs.m, inputs.profile)
    return c * math.sqrt(inputs.resolve_m()) * inputs.sup_h * inputs.n ** (-inputs.m / 2.0)


def corollary2_bound(inputs: BoundInputs) -> float:
    """Centered L2 bound for a bounded d-degenerate kernel:
    sqrt(M) |h|_inf sum_{c=d∨1}^m binom(m,c) 2^c C_{n,c} n^{-c/2}.

    An empty sum (all projections vanish, d = m+1) is 0: the statistic is
    then identically its mean."""
    if inputs.sup_h is None:
        raise ValueError("corollary2_bound needs sup_h")
    d = 0 if inputs.d is None else inputs.d
    total = 0.0
    for c in range(max(d, 1), inputs.m + 1):
        total += math.comb(inputs.m, c) * 2.0**c * c_nm(inputs.n, c, inputs.profile) * inputs.n ** (-c / 2.0)
    return math.sqrt(inputs.resolve_m()) * inputs.sup_h * total


def b_q(h: SymmetricKernelFn, profile: ErgodicityProfile, q: float, budget: int = ENUM_BUDGET) -> float:
    """B_q(h) = sup over m-tuples of |h| / sum_j V(y_j)^{1/q}.

    Exact maximization over the dense table when S^m fits the budget;
    general-space kernels must declare the envelope.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if h.table is None:
        if h.declared_bq and q in h.declared_bq:
            return float(h.declared_bq[q])
        raise NeedDeclaredEnvelope(f"no table and no declared B_q for q = {q}")
    s = h.table.shape[0]
    if s**h.degree > budget:
        raise BudgetExceeded(f"S^m = {s**h.degree} exceeds enumeration budget {budget}")
    vq = profile.v_values ** (1.0 / q)
    denom = np.zeros((s,) * h.degree)
    for axis in range(h.degree):
        shape = tuple(s if a == axis else 1 for a in range(h.degree))
        denom = denom + vq.reshape(shape)
    return float((np.abs(h.table) / denom).max())


def d_constant(p: float, m_value: float, bq_value: float) -> float:
    """D(p, mu, V, h) = 2^{(2p+1)/(2(p+1))} [p^{1/(p+1)} + p^{-p/(p+1)}]^{1/2}
    sqrt(M(mu,V)) B_{2(p+1)}(h)."""
    if not p > 0:
        raise PNotPositive("p must be > 0")
    bracket = p ** (1.0 / (p + 1.0)) + p ** (-p / (p + 1.0))
    return 2.0 ** ((2.0 * p + 1.0) / (2.0 * (p + 1.0))) * math.sqrt(bracket) * math.sqrt(m_value) * bq_value


def lemma6_constant(p: float) -> float:
    """C(p) = p^{1/(p+1)} + p^{-p/(p+1)}, the moment-splitting constant."""
    if not p > 0:
        raise PNotPositive("p must be > 0")
    return p ** (1.0 / (p + 1.0)) + p ** (-p / (p + 1.0))


def corollary3_bound(inputs: BoundInputs, h: SymmetricKernelFn | None = None) -> float:
    """L2 bound for a completely degenerate kernel with finite B_{2(p+1)}:

        2^{m/2} m sqrt((2m)!) D(p,mu,V,h)
        (sum_{k<=n} (k+1)^m rho(k)^{p/(p+1)})^{1/2} n^{m/2} / binom(n,m).

    The degenerate-but-not-canonical unbounded case is unsupported and
    raises :class:`NotCanonical`.
    """
    if inputs.p is None:
        raise PNotPositive("corollary3_bound needs p > 0")
    if inputs.d is not None and inputs.d < inputs.m:
        raise NotCanonical("unbounded-kernel bound is only available for completely degenerate h")
    q = 2.0 * (inputs.p + 1.0)
    if inputs.bq is not None:
        if inputs.bq_q is not None and abs(inputs.bq_q - q) > 1e-12:
            raise ValueError(f"declared B_q has q = {inputs.bq_q}, bound needs q = {q}")
        bq_value = inputs.bq
    elif h is not None:
        bq_value = b_q(h, inputs.profile, q)
    else:
        raise ValueError("corollary3_bound needs a B_{2(p+1)} value or the kernel to compute it")
    if bq_value == 0.0:
        return 0.0
    s = mixing_sum(inputs.n, inputs.m, inputs.profile, exponent=inputs.p / (inputs.p + 1.0))
    if s == 0.0:
        return 0.0
    d_val = d_constant(inputs.p, inputs.resolve_m(), bq_value)
    log_b = (
        inputs.m / 2.0 * math.log(2.0)
        + math.log(inputs.m)
        + 0.5 * math.lgamma(2 * inputs.m + 1)
        + math.log(d_val)
        + 0.5 * math.log(s)
        + inputs.m / 2.0 * math.log(inputs.n)
        - _log_binom(inputs.n, inputs.m)
    )
    return math.exp(log_b)


def bound_requests(bounds: list[dict], d: int, m: int) -> list[tuple[str, float | None]]:
    """Validated, routed and deduplicated (name, p) pairs, in request order.

    Theorem 1 and Corollary 3 need a completely degenerate kernel; for a
    d-degenerate kernel with d < m both are routed to the centered
    Corollary 2.  ``p`` is kept for corollary3 only.  An unknown name, a
    corollary3 request without ``p``, or a ``p`` that is not a number > 0
    raises :class:`ConfigError`, so callers run it before any bound or L2 work.
    """
    requests: list[tuple[str, float | None]] = []
    for request in bounds:
        if not isinstance(request, dict) or request.get("name") not in ("theorem1", "corollary2", "corollary3"):
            raise ConfigError(f"unknown bound request {request!r}")
        name, p = request["name"], request.get("p")
        if (p is None and name == "corollary3") or not (p is None or isinstance(p, (int, float)) and p > 0):
            raise ConfigError(f"bound request {request!r} needs a number p > 0")
        if name in ("theorem1", "corollary3") and d < m:
            name = "corollary2"
        key = (name, p if name == "corollary3" else None)
        if key not in requests:
            requests.append(key)
    return requests


def evaluate_bounds(
    requests: list[tuple[str, float | None]],
    n: int,
    h: SymmetricKernelFn,
    profile: ErgodicityProfile,
    mu: Distribution,
    kernel: FiniteKernel | None,
    d: int,
    m_value: float | None = None,
) -> list[tuple[str, str, float, str]]:
    """(statistic, label, value, inputs digest) for each request of
    :func:`bound_requests` at sample size n.

    ``statistic`` is what the bound dominates: "u" for ||U_{n,m}(h)||
    (theorem1, corollary3) and "u_centered" for ||U_{n,m}(h) - pi^{(m)}h||
    (corollary2).  Without ``m_value`` each bound resolves M(mu, V) itself.
    """
    sup_h = h.sup_norm()
    out = []
    for name, p in requests:
        inputs = BoundInputs(n=n, m=h.degree, profile=profile, mu=mu, kernel=kernel,
                             sup_h=sup_h, p=p, d=d, m_value=m_value)
        if name == "theorem1":
            entry = ("u", name, theorem1_bound(inputs))
        elif name == "corollary2":
            entry = ("u_centered", name, corollary2_bound(inputs))
        else:
            entry = ("u", f"corollary3[p={p:g}]", corollary3_bound(inputs, h))
        out.append((*entry, inputs.digest()))
    return out


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


@dataclass
class BoundEntry:
    """One evaluated bound inside a report."""

    name: str
    value: float
    inputs_hash: str
    margin: float | None = None
    passed: bool | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("bounds are nonnegative by construction")


@dataclass
class BoundReport:
    """Per-n comparison of an L2 value (exact or estimated) against bounds.

    ``statistic`` records what was measured: "u" for ||U_{n,m}(h)|| and
    "u_centered" for ||U_{n,m}(h) - pi^{(m)}h||.  ``margin`` on each entry
    is bound - (l2 + 3 * stderr); a negative margin fails the report.
    """

    n: int
    m: int
    statistic: str
    l2_value: float
    l2_kind: str
    stderr: float = 0.0
    replicates: int = 0
    entries: list[BoundEntry] = field(default_factory=list)
    rho_provenance: str = "certified"

    def add(self, name: str, value: float, inputs_hash: str) -> BoundEntry:
        margin = value - (self.l2_value + 3.0 * self.stderr)
        entry = BoundEntry(name, value, inputs_hash, margin=margin, passed=margin >= 0.0)
        self.entries.append(entry)
        return entry

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def rows(self) -> list[dict]:
        return [
            {
                "n": self.n,
                "m": self.m,
                "statistic": self.statistic,
                "l2_kind": self.l2_kind,
                "estimate": self.l2_value,
                "stderr": self.stderr,
                "replicates": self.replicates,
                "bound_name": e.name,
                "bound": e.value,
                "margin": e.margin,
                "pass": e.passed,
                "inputs_hash": e.inputs_hash,
                "provenance": self.rho_provenance,
            }
            for e in self.entries
        ]
