"""Reference values for each workload and the output checks that feed
``fail_frac``.

The references are computed from the generated config, once per benchmark
run, by code that shares nothing with ustatmc:

- the second and fourth moments of a product-kernel U-statistic exactly, by
  a forward recursion over time on the moments of the elementary symmetric
  polynomials e_a(g(Y_0), ..., g(Y_{t-1})), carried jointly with the
  current state;
- the theorem1 and corollary3 bounds from their closed forms, with the
  mixing table tabulated from Dirac pairs along the float path of the
  README's definition (V = 1, so M(mu, V) = 1 and B_q = |h|_inf / m);
- the strong-law path from the documented sampler contract (one PCG64
  stream per seed, inverse row CDF per step), and U_n from state counts;
- proposition instance counts from the size of the tuple grid.

A check returns a list of problems; an empty list means the artifacts are
correct.  A Monte Carlo row must lie within 4 combined standard errors of
the exact L2: the row's own standard error combined with the exact one of
an estimate from that many replicates.  The row's own error alone is not
enough: U^2 is heavy tailed for m = 3, and 500 replicates that miss the
tail report too small an error (up to 6 of them from the exact L2 on
legitimate seeds).  Exact rows, bounds and strong-law values must lie
within 1e-9 relative of the reference.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9
MC_SIGMAS = 4.0
LEMMA6_TRIALS = 1000


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= RTOL * abs(ref)


def stationary(matrix: np.ndarray) -> np.ndarray:
    """pi with pi P = pi and sum(pi) = 1, by a direct solve."""
    s = matrix.shape[0]
    a = matrix.T - np.eye(s)
    a[-1, :] = 1.0
    b = np.zeros(s)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def _initial(doc: dict, s: int) -> np.ndarray:
    mu = np.zeros(s)
    mu[doc["initial"]["dirac"]] = 1.0
    return mu


def _centered_states(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    matrix = np.asarray(doc["chain"]["matrix"], dtype=float)
    states = np.asarray(doc["chain"]["states"], dtype=float)
    center = doc["kernel_fn"].get("params", {}).get("center", 0.0)
    if center == "pi":
        center = float(stationary(matrix) @ states)
    return matrix, states - center


def product_moments(mu: np.ndarray, matrix: np.ndarray, g: np.ndarray, m: int, n_grid: list[int],
                    order: int) -> dict[int, float]:
    """E[U_{n,m}(h)^order] for h(y_1..y_m) = prod g(y_j), exactly, at every n
    in the grid.  F[x, a_1..a_order] = E[e_{a_1} ... e_{a_order}; Y_t = x]
    over the times before t; adding time t multiplies each factor by
    (1 + g(x) z) in the generating variable z of its degree."""
    s = g.size
    shape = (s,) + (m + 1,) * order
    f = np.zeros(shape)
    f[(slice(None),) + (0,) * order] = mu
    subsets = [sub for k in range(1, order + 1) for sub in itertools.combinations(range(order), k)]
    shifts = [
        (tuple(slice(1, None) if a in sub else slice(None) for a in range(order)),
         tuple(slice(None, -1) if a in sub else slice(None) for a in range(order)),
         (g ** len(sub)).reshape((s,) + (1,) * order))
        for sub in subsets
    ]
    out = {}
    for t in range(max(n_grid)):
        nxt = f.copy()
        for dst, src, weight in shifts:
            nxt[(slice(None), *dst)] += weight * f[(slice(None), *src)]
        if t + 1 in n_grid:
            out[t + 1] = float(nxt[(slice(None),) + (m,) * order].sum()) / math.comb(t + 1, m) ** order
        f = (matrix.T @ nxt.reshape(s, -1)).reshape(shape)
    return out


def rho_table(matrix: np.ndarray, k_max: int) -> np.ndarray:
    """Smallest non-increasing rho with tv(d_x P^k, d_y P^k) <= 2 rho(k) for
    all state pairs, each Dirac evolved by row-vector products and
    renormalized before the distance is taken."""
    s = matrix.shape[0]
    pairs = [(x, y) for x in range(s) for y in range(x + 1, s)]
    rows = [np.eye(s)[x] for x in range(s)]
    measured = np.empty(k_max + 1)
    for k in range(k_max + 1):
        if k:
            rows = [w @ matrix for w in rows]
        norm = [w / w.sum() for w in rows]
        measured[k] = max(float(np.abs(norm[x] - norm[y]).sum()) / 2.0 for x, y in pairs)
    return np.maximum.accumulate(measured[::-1])[::-1]


def _mixing_sum(rho: np.ndarray, n: int, m: int, exponent: float) -> float:
    k1 = np.arange(1, n + 2, dtype=float)
    return float(np.sum(k1**m * rho[: n + 1] ** exponent))


def theorem1(rho: np.ndarray, n: int, m: int, sup_h: float) -> float:
    c = 2.0 ** (m / 2 + 1) * math.sqrt(math.factorial(2 * m) * _mixing_sum(rho, n, m, 1.0)) * n**m / math.comb(n, m)
    return c * sup_h * n ** (-m / 2)


def corollary3(rho: np.ndarray, n: int, m: int, sup_h: float, p: float) -> float:
    d = 2.0 ** ((2 * p + 1) / (2 * (p + 1))) * math.sqrt(p ** (1 / (p + 1)) + p ** (-p / (p + 1))) * sup_h / m
    s = _mixing_sum(rho, n, m, p / (p + 1))
    return 2.0 ** (m / 2) * m * math.sqrt(math.factorial(2 * m) * s) * d * n ** (m / 2) / math.comb(n, m)


def variance_reference(doc: dict) -> dict:
    matrix, g = _centered_states(doc)
    m = doc["kernel_fn"]["degree"]
    n_grid = doc["experiment"]["n_grid"]
    rho = rho_table(matrix, max(n_grid))
    sup_h = float(np.abs(g).max()) ** m
    bounds = {}
    for n in n_grid:
        for request in doc["experiment"]["bounds"]:
            if request["name"] == "theorem1":
                bounds[(n, "theorem1")] = theorem1(rho, n, m, sup_h)
            else:
                p = request["p"]
                bounds[(n, f"corollary3[p={p:g}]")] = corollary3(rho, n, m, sup_h, p)
    mu = _initial(doc, g.size)
    second = product_moments(mu, matrix, g, m, n_grid, 2)
    fourth = product_moments(mu, matrix, g, m, n_grid, 4)
    l2 = {n: math.sqrt(max(second[n], 0.0)) for n in n_grid}
    # per-replicate spread of sqrt(mean U^2) by the delta method, as the
    # estimate's own stderr, but from the exact variance of U^2
    sd = {n: math.sqrt(max(fourth[n] - second[n] ** 2, 0.0)) / (2.0 * l2[n]) for n in n_grid}
    return {"l2": l2, "sd": sd, "bounds": bounds}


def dyadic_checkpoints(n_max: int, m: int) -> list[int]:
    points = [c for c in (2**j for j in range(3, n_max.bit_length())) if m <= c <= n_max]
    return points if points and points[-1] == n_max else points + [n_max]


def sample_path(matrix: np.ndarray, mu: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Path of length n: u_t from one PCG64 stream, state t = number of row
    CDF entries <= u_t (capped at S - 1), the row being that of state t-1."""
    s = matrix.shape[0]
    u = np.random.Generator(np.random.PCG64(seed)).random(n)
    cdf = np.cumsum(matrix, axis=1)
    nxt = np.minimum([np.searchsorted(cdf[x], u, side="right") for x in range(s)], s - 1)
    flat = nxt.T.ravel().tolist()
    path = [min(int(np.searchsorted(np.cumsum(mu), u[0], side="right")), s - 1)]
    x = path[0]
    for t in range(s, n * s, s):
        x = flat[t + x]
        path.append(x)
    return np.asarray(path)


def slln_reference(doc: dict) -> dict:
    matrix, g = _centered_states(doc)
    m = doc["kernel_fn"]["degree"]
    if m != 2:
        raise ValueError("strong-law reference covers m = 2 only")
    n_max = doc["slln"]["n_max"]
    path = sample_path(matrix, _initial(doc, g.size), n_max, doc["experiment"]["master_seed"])
    u_n = {}
    for c in dyadic_checkpoints(n_max, m):
        counts = np.bincount(path[:c], minlength=g.size)
        e2 = (float(counts @ g) ** 2 - float(counts @ (g * g))) / 2.0
        u_n[c] = e2 / math.comb(c, 2)
    target = float(stationary(matrix) @ g) ** 2
    return {"u_n": u_n, "target": target}


def propositions_reference(doc: dict) -> dict:
    section = doc["propositions"]
    m = section["m"]
    tuples = math.comb(section["i_max"] + 2 * m - 1, 2 * m)
    per_chain = tuples * math.factorial(2 * m)
    chains = section["chains"]
    instances = {
        "eq19": chains * per_chain,
        "prop5": chains * tuples,
        "prop7_bound1": chains * per_chain,
        "lemma6": LEMMA6_TRIALS,
    }
    for p in section["p_values"]:
        instances[f"prop7_bound2_p{float(p)}"] = chains * per_chain
    return {"instances": instances}


def _summary_pass(path: Path) -> list[str]:
    if json.loads(path.read_text()).get("pass") is not True:
        return [f"{path.name}: pass is not true"]
    return []


def check_variance(out: Path, ref: dict) -> list[str]:
    problems = _summary_pass(out / "variance_summary.json")
    with open(out / "variance.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    seen = set()
    for row in rows:
        n, name = int(row["n"]), row["bound_name"]
        where = f"variance.csv n={n} {name}"
        seen.add((n, name))
        if row["pass"] != "true":
            problems.append(f"{where}: pass is {row['pass']}")
        if row["statistic"] != "u" or (n, name) not in ref["bounds"]:
            problems.append(f"{where}: unexpected row ({row['statistic']})")
            continue
        if not _close(float(row["bound"]), ref["bounds"][(n, name)]):
            problems.append(f"{where}: bound {row['bound']} != reference {ref['bounds'][(n, name)]!r}")
        estimate, l2 = float(row["estimate"]), ref["l2"][n]
        if row["l2_kind"] == "exact":
            ok = _close(estimate, l2)
        elif row["l2_kind"] == "monte-carlo":
            exact_se = ref["sd"][n] / math.sqrt(int(row["replicates"]))
            ok = abs(estimate - l2) <= MC_SIGMAS * math.hypot(float(row["stderr"]), exact_se)
        else:
            ok = False
        if not ok:
            problems.append(f"{where}: {row['l2_kind']} L2 {estimate!r} (stderr {row['stderr']}) vs exact {l2!r}")
    missing = set(ref["bounds"]) - seen
    if missing:
        problems.append(f"variance.csv: missing rows {sorted(missing)}")
    return problems


def check_slln(out: Path, ref: dict) -> list[str]:
    problems = _summary_pass(out / "slln_summary.json")
    with open(out / "slln.csv", newline="") as fh:
        rows = {int(r["n"]): r for r in csv.DictReader(fh)}
    if sorted(rows) != sorted(ref["u_n"]):
        problems.append(f"slln.csv: checkpoints {sorted(rows)} != {sorted(ref['u_n'])}")
    for n in sorted(set(rows) & set(ref["u_n"])):
        if not _close(float(rows[n]["u_n"]), ref["u_n"][n]):
            problems.append(f"slln.csv n={n}: u_n {rows[n]['u_n']} != reference {ref['u_n'][n]!r}")
        if not _close(float(rows[n]["target"]), ref["target"]):
            problems.append(f"slln.csv n={n}: target {rows[n]['target']} != reference {ref['target']!r}")
    return problems


def check_propositions(out: Path, ref: dict) -> list[str]:
    report = json.loads((out / "propositions.json").read_text())
    problems = [] if report.get("pass") is True else ["propositions.json: pass is not true"]
    for name, entry in report.items():
        if isinstance(entry, dict) and entry.get("pass") is not True:
            problems.append(f"propositions.json {name}: pass is not true")
    for name, count in ref["instances"].items():
        got = report.get(name, {}).get("instances")
        if got != count:
            problems.append(f"propositions.json {name}: {got} instances, reference {count}")
    return problems


_BY_COMMAND = {
    "verify-variance": (variance_reference, check_variance),
    "verify-slln": (slln_reference, check_slln),
    "check-propositions": (propositions_reference, check_propositions),
}


def reference(command: str, doc: dict) -> dict:
    """Reference values for a command run on the config ``doc``."""
    return _BY_COMMAND[command][0](doc)


def check(command: str, out: Path, ref: dict) -> list[str]:
    """Problems found in the artifacts a command wrote to ``out``."""
    try:
        return _BY_COMMAND[command][1](out, ref)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
