"""JSON configuration: chain files, kernel-function settings, profiles, and
experiment settings.

A single document drives every command; sections not needed by a command
are ignored.  ``SCHEMA`` is the machine-readable description printed by
``ustatmc --emit-schema``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .markov import Distribution, ErgodicityProfile, ExplicitRho, FiniteKernel, certify_rho, check_seed
from .montecarlo import ExperimentConfig, SllnConfig, parse_bound_requests, positive_number
from .ustats import (
    DEFAULT_BUDGET,
    SymmetricKernelFn,
    additive_kernel,
    gaussian_rbf_kernel,
    indicator_diag_kernel,
    product_kernel,
)

SCHEMA: dict = {
    "numbers": "every number must be finite: JSON NaN and Infinity are refused",
    "chain": {
        "states": "list[float] — state embedding values (required)",
        "matrix": "list[list[float]] — row-stochastic transition matrix (required)",
        "v": "list[float] >= 1 — weight function V per state (default: all 1)",
    },
    "initial": "list[float] weights, one per state | {'dirac': int index in [0, S)} | 'uniform' "
               "(default: dirac at 0)",
    "profile": {
        "kind": "'certify' (default) | 'geometric' | 'explicit' | 'declared'; only certify gives provenance "
                "'certified', every other kind is 'declared' and no key sets it",
        "k_max": "int — table length for kind=certify (default: 64 for certify-profile; for every other command "
                 "max(largest n_grid entry, 16), and at least 64 with an slln section)",
        "c / varrho": "floats for kind=geometric: rho(k) = c * varrho^k, c >= 0, 0 <= varrho <= 1",
        "values / tail_rate": "for kind=explicit: non-increasing rho(0..K), then rho(K) * tail_rate^(k-K) "
                              "(tail_rate in [0, 1], default 0)",
        "rho / v": "for kind=declared: a profile document as certify-profile writes it, rho = {values, tail_rate} "
                   "and v = list[float] >= 1, one per state (default: the chain's v)",
        "m_value": "finite float >= 1 — sup_k mu P^k(V) for any declared kind (declared_m in a profile document); "
                   "bounds need it",
    },
    "kernel_fn": {
        "name": "'product' | 'additive' | 'indicator-diag' | 'gaussian-rbf' | 'table'",
        "degree": "int m >= 1",
        "params": {
            "center": "float | 'pi' (product/additive): subtract from each argument",
            "bandwidth": "float (gaussian-rbf)",
            "values": "symmetric nested list, one axis per argument and one entry per state (table)",
        },
    },
    "experiment": {
        "n_grid": "strictly increasing list[int]; non-empty for bound and verify-variance",
        "replicates": "int >= 2",
        "master_seed": "uint64, an integer in [0, 2^64)",
        "bounds": "non-empty list of {'name': 'theorem1'|'corollary2'|'corollary3', 'p': finite number > 0, "
                  "required by corollary3}, needed by bound and verify-variance; theorem1/corollary3 run as "
                  "corollary2 unless h is completely degenerate",
        "budget": "int >= 1 — the counting engine's cap, in cells whatever their width: one count of r "
                  "paths of n steps holds r*(n + 4S + tables*(2*checkpoints + 1) + 8) cells plus a part "
                  "set by S, m and the tables alone (ustats.count_cells), refused before any path is "
                  "sampled; a Monte Carlo replicate block is as many rows as fit, and simulate counts only "
                  "its simulate.n path cells (default 1e8). Other config-sized arrays have a fixed cap of "
                  "10^7 cells, and a refusal names the array",
    },
    "slln": {
        "n_max": "int",
        "checkpoints": "list[int], at least one in [m, n_max] | omit for powers of two from 8, then n_max",
        "threshold": "optional finite float > 0 — final |U_n - target| asserted below this",
    },
    "simulate": {"n": "int path length", "seed": "uint64, an integer in [0, 2^64) (overridden by --seed)"},
    "propositions": {
        "chains": "int >= 1 (default 3)",
        "size": "int states >= 2 (default 3)",
        "m": "int >= 1 (default 2)",
        "i_max": "int largest time index >= 1 (default 8)",
        "seed": "uint64, an integer in [0, 2^64) (default 7)",
        "p_values": "list[float] > 0 (default [0.5, 1.0])",
        "cap": "(binom(2m, m) / 2 + 2 * tuples a block) * size^(2m) f_sigma cells and "
               "binom(i_max + 2m - 1, 2m) * binom(2m, m) / 2 (tuple, split) values must each be <= 1e7, "
               "or the command exits 3 before any work",
    },
}


def load_document(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _require(doc: dict, key: str, where: str) -> object:
    if key not in doc:
        raise ConfigError(f"missing {key!r} in {where} section")
    return doc[key]


def section(doc: dict, key: str, default: dict | None = None) -> dict:
    """The object under ``key``; ``default`` when it is absent, and a
    required section when no default is given."""
    entry = _require(doc, key, "config") if default is None else doc.get(key, default)
    if not isinstance(entry, dict):
        raise ConfigError(f"{key!r} must be an object")
    return entry


def _as_int(raw: object, name: str) -> int:
    """A JSON integer, or a float with no fractional part; anything else
    (a fraction, a string, a boolean) is refused rather than truncated."""
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{name} must be an integer, got {raw!r}")
    return raw


def _int_list(raw: object, name: str) -> list[int]:
    if not isinstance(raw, list):
        raise ConfigError(f"{name} must be a list of integers, got {raw!r}")
    return [_as_int(x, f"{name} entry") for x in raw]


def integer(entries: dict, key: str, default: object, where: str, least: int) -> int:
    """``entries[key]`` as an integer no smaller than ``least``; ``default``
    when it is absent, and a required key when no default is given."""
    raw = _require(entries, key, where) if default is None else entries.get(key, default)
    value = _as_int(raw, f"{where}.{key}")
    if value < least:
        raise ConfigError(f"{where}.{key} must be >= {least}, got {value}")
    return value


def seed(raw: object, name: str) -> int:
    """``raw``, the value of the seed ``name``, under the one seed rule,
    :func:`markov.check_seed`: an integer in [0, 2^64), where a float with
    no fractional part counts as its integer.  A seed it refuses raises
    ConfigError."""
    try:
        return check_seed(_as_int(raw, name))
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def budget(doc: dict, override: int | None = None) -> int:
    """The counting engine's cap: ``override`` (``--budget``) when given,
    else experiment.budget (default 1e8)."""
    if override is not None:
        return override
    return integer(section(doc, "experiment", {}), "budget", DEFAULT_BUDGET, "experiment", 1)


def build_chain(doc: dict) -> tuple[FiniteKernel, np.ndarray]:
    entries = section(doc, "chain")
    try:
        states = np.asarray(_require(entries, "states", "chain"), dtype=float)
        matrix = np.asarray(_require(entries, "matrix", "chain"), dtype=float)
        kernel = FiniteKernel(states, matrix)
        v = np.asarray(entries.get("v", np.ones(kernel.size)), dtype=float)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid chain: {exc}") from exc
    if v.shape != (kernel.size,) or not (np.isfinite(v).all() and np.all(v >= 1.0)):
        raise ConfigError("'v' must list one finite value >= 1 per state")
    return kernel, v


def build_initial(doc: dict, size: int) -> Distribution:
    entry = doc.get("initial", {"dirac": 0})
    try:
        if entry == "uniform":
            return Distribution.uniform(size)
        if isinstance(entry, dict) and "dirac" in entry:
            index = _as_int(entry["dirac"], "initial.dirac")
            if not 0 <= index < size:
                raise ConfigError(f"initial.dirac must lie in [0, {size}), got {index}")
            return Distribution.dirac(index, size)
        mu = Distribution(np.asarray(entry, dtype=float))
    except (ValueError, IndexError, TypeError) as exc:
        raise ConfigError(f"invalid initial distribution: {exc}") from exc
    if mu.size != size:
        raise ConfigError(f"initial weights must list one value per state ({size}), got {mu.size}")
    return mu


def build_profile(doc: dict, kernel: FiniteKernel, v: np.ndarray, k_max_default: int) -> ErgodicityProfile:
    """``certify`` tabulates rho for this chain; every other kind is a
    declared profile, whatever the document says its provenance is.

    ``geometric`` (c, varrho) and ``explicit`` (values, tail_rate) give rho
    in the section itself; ``declared`` reads a profile document, such as
    the output of ``certify-profile``, with rho and v under their own keys.
    """
    entries = section(doc, "profile", {"kind": "certify"})
    kind = entries.get("kind", "certify")
    if kind == "certify":
        return certify_rho(kernel, v, integer(entries, "k_max", k_max_default, "profile", 0))
    if kind not in ("geometric", "explicit", "declared"):
        raise ConfigError(f"unknown profile kind {kind!r}")
    rho, m_value = entries, entries.get("m_value")
    try:
        if kind == "declared":
            rho, m_value = section(entries, "rho"), entries.get("declared_m", m_value)
            v = np.asarray(entries.get("v", v), dtype=float)
            if v.shape != (kernel.size,):
                raise ConfigError(f"profile 'v' must list one value per state ({kernel.size})")
        if kind == "geometric":
            values, tail_rate = [_require(rho, "c", "profile")], _require(rho, "varrho", "profile")
        else:
            values, tail_rate = _require(rho, "values", "profile"), rho.get("tail_rate", 0.0)
        # M(mu, V) >= pi(V) >= 1 because V >= 1
        if m_value is not None and not (positive_number(m_value) and m_value >= 1):
            raise ConfigError(f"profile M(mu, V) must be a finite number >= 1, got {m_value!r}")
        return ErgodicityProfile(v, ExplicitRho(np.asarray(values, dtype=float), float(tail_rate)),
                                 declared_m=None if m_value is None else float(m_value))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid profile: {exc}") from exc


def build_kernel_fn(doc: dict, kernel: FiniteKernel) -> SymmetricKernelFn:
    """The kernel table named by the kernel_fn section: a builtin family
    tabulated over the chain's state values, or the listed values."""
    entries = section(doc, "kernel_fn")
    name = _require(entries, "name", "kernel_fn")
    degree = integer(entries, "degree", None, "kernel_fn", 1)
    params = section(entries, "params", {})
    try:
        if name in ("product", "additive"):
            center = params.get("center", 0.0)
            if center == "pi":
                center = kernel.stationary().expect(kernel.states)
            family = product_kernel if name == "product" else additive_kernel
            return family(degree, center=float(center)).tabulated(kernel.states)
        if name == "indicator-diag":
            return indicator_diag_kernel(degree).tabulated(kernel.states)
        if name == "gaussian-rbf":
            return gaussian_rbf_kernel(degree, bandwidth=float(params.get("bandwidth", 1.0))).tabulated(kernel.states)
        if name == "table":
            h = SymmetricKernelFn(np.asarray(_require(params, "values", "kernel_fn.params"), dtype=float))
            if h.degree != degree:
                raise ConfigError("table rank does not match declared degree")
            if h.table.shape[0] != kernel.size:
                raise ConfigError(f"table axes must have one entry per state ({kernel.size})")
            return h
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid kernel_fn: {exc}") from exc
    raise ConfigError(f"unknown kernel_fn name {name!r}")


def build_experiment(
    doc: dict,
    seed_override: int | None = None,
    budget_override: int | None = None,
) -> ExperimentConfig:
    kernel, v = build_chain(doc)
    mu0 = build_initial(doc, kernel.size)
    entries = section(doc, "experiment", {})
    parse_bound_requests(entries.get("bounds", []))  # refuse a bad request before the profile is certified
    n_grid = _int_list(entries.get("n_grid", []), "experiment.n_grid")
    slln = None
    if doc.get("slln") is not None:
        slln_entries = section(doc, "slln")
        checkpoints = slln_entries.get("checkpoints")
        if checkpoints is not None:
            checkpoints = _int_list(checkpoints, "slln.checkpoints")
        threshold = slln_entries.get("threshold")
        if threshold is not None and not positive_number(threshold):
            raise ConfigError(f"slln.threshold must be a finite number > 0 or null, got {threshold!r}")
        try:
            slln = SllnConfig(
                n_max=integer(slln_entries, "n_max", None, "slln", 2),
                checkpoints=checkpoints,
                threshold=threshold,
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid slln section: {exc}") from exc
    k_needed = max(n_grid, default=0)
    if slln is not None:
        k_needed = max(k_needed, 64)
    profile = build_profile(doc, kernel, v, k_max_default=max(k_needed, 16))
    h = build_kernel_fn(doc, kernel)
    master_seed = seed_override
    if master_seed is None:
        master_seed = seed(entries.get("master_seed", 0), "experiment.master_seed")
    cap = budget(doc, budget_override)
    try:
        return ExperimentConfig(
            kernel=kernel,
            mu0=mu0,
            profile=profile,
            h=h,
            n_grid=n_grid,
            replicates=integer(entries, "replicates", 2, "experiment", 2),
            master_seed=master_seed,
            bounds=entries.get("bounds", []),
            slln=slln,
            budget=cap,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid experiment section: {exc}") from exc


def build_propositions(doc: dict, seed_override: int | None = None) -> dict:
    """Keyword arguments of :func:`ustatmc.proofs.proposition_grid_check`
    from the propositions section, validated before any work."""
    entries = section(doc, "propositions", {})
    p_values = entries.get("p_values", [0.5, 1.0])
    if not isinstance(p_values, list) or not all(positive_number(p) for p in p_values):
        raise ConfigError(f"propositions.p_values must be a list of finite numbers > 0, got {p_values!r}")
    return {
        "num_chains": integer(entries, "chains", 3, "propositions", 1),
        "size": integer(entries, "size", 3, "propositions", 2),
        "m": integer(entries, "m", 2, "propositions", 1),
        "i_max": integer(entries, "i_max", 8, "propositions", 1),
        "seed": seed_override if seed_override is not None else seed(entries.get("seed", 7), "propositions.seed"),
        "p_values": tuple(p_values),
    }
