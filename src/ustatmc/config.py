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
from .markov import Distribution, ErgodicityProfile, ExplicitRho, FiniteKernel, GeometricRho, certify_rho
from .montecarlo import ExperimentConfig, SllnConfig
from .ustats import (
    DEFAULT_BUDGET,
    SymmetricKernelFn,
    additive_kernel,
    gaussian_rbf_kernel,
    indicator_diag_kernel,
    product_kernel,
    table_kernel,
)

SCHEMA: dict = {
    "chain": {
        "states": "list[float] — state embedding values (required)",
        "matrix": "list[list[float]] — row-stochastic transition matrix (required)",
        "v": "list[float] >= 1 — weight function V per state (default: all 1)",
    },
    "initial": "list[float] weights | {'dirac': index} | 'uniform' (default: dirac at 0)",
    "profile": {
        "kind": "'certify' (default) | 'geometric' | 'explicit' | 'declared'",
        "k_max": "int — table length for kind=certify (default: max n needed)",
        "c / varrho": "floats for kind=geometric: rho(k) = c * varrho^k",
        "values / tail_rate": "for kind=explicit",
        "m_value": "float — required sup_k mu P^k(V) for kind=declared",
    },
    "kernel_fn": {
        "name": "'product' | 'additive' | 'indicator-diag' | 'gaussian-rbf' | 'table'",
        "degree": "int m >= 1",
        "params": {
            "center": "float | 'pi' (product/additive): subtract from each argument",
            "bandwidth": "float (gaussian-rbf)",
            "values": "nested list, one axis per argument (table)",
        },
        "declared_sup": "optional float envelope",
        "declared_bq": "optional {q: B_q} envelopes",
    },
    "experiment": {
        "n_grid": "strictly increasing list[int]",
        "replicates": "int >= 2",
        "master_seed": "uint64",
        "bounds": "list of {'name': 'theorem1'|'corollary2'|'corollary3', 'p': float > 0, required by "
                  "corollary3}; theorem1/corollary3 run as corollary2 unless h is completely degenerate",
        "budget": "int — cap on enumeration work and work-array cells (default 1e8)",
    },
    "slln": {
        "n_max": "int",
        "checkpoints": "list[int] | omit for dyadic powers of two",
        "threshold": "optional float — final |U_n - target| asserted below this",
    },
    "simulate": {"n": "int path length", "seed": "uint64 (overridden by --seed)"},
    "propositions": {
        "chains": "int (default 3)",
        "size": "int states (default 3)",
        "m": "int (default 2)",
        "i_max": "int largest time index (default 8)",
        "seed": "uint64 (default 7)",
        "p_values": "list[float] (default [0.5, 1.0])",
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


def build_chain(doc: dict) -> tuple[FiniteKernel, np.ndarray]:
    section = _require(doc, "chain", "config")
    if not isinstance(section, dict):
        raise ConfigError("'chain' must be an object")
    states = np.asarray(_require(section, "states", "chain"), dtype=float)
    matrix = np.asarray(_require(section, "matrix", "chain"), dtype=float)
    try:
        kernel = FiniteKernel(states, matrix)
    except ValueError as exc:
        raise ConfigError(f"invalid chain: {exc}") from exc
    v = np.asarray(section.get("v", np.ones(kernel.size)), dtype=float)
    if v.shape != (kernel.size,) or np.any(v < 1.0):
        raise ConfigError("'v' must list one value >= 1 per state")
    return kernel, v


def build_initial(doc: dict, size: int) -> Distribution:
    entry = doc.get("initial", {"dirac": 0})
    try:
        if entry == "uniform":
            return Distribution.uniform(size)
        if isinstance(entry, dict) and "dirac" in entry:
            return Distribution.dirac(int(entry["dirac"]), size)
        return Distribution(np.asarray(entry, dtype=float))
    except (ValueError, IndexError, TypeError) as exc:
        raise ConfigError(f"invalid initial distribution: {exc}") from exc


def build_profile(doc: dict, kernel: FiniteKernel, v: np.ndarray, k_max_default: int) -> ErgodicityProfile:
    section = doc.get("profile", {"kind": "certify"})
    kind = section.get("kind", "certify")
    try:
        if kind == "certify":
            return certify_rho(kernel, v, int(section.get("k_max", k_max_default)))
        if kind == "geometric":
            rho = GeometricRho(float(_require(section, "c", "profile")), float(_require(section, "varrho", "profile")))
            return ErgodicityProfile(v, rho, provenance=section.get("provenance", "declared"),
                                     declared_m=section.get("m_value"))
        if kind == "explicit":
            rho = ExplicitRho(np.asarray(_require(section, "values", "profile"), dtype=float),
                              float(section.get("tail_rate", 0.0)))
            return ErgodicityProfile(v, rho, provenance=section.get("provenance", "declared"),
                                     declared_m=section.get("m_value"))
        if kind == "declared":
            inner = dict(section)
            inner.setdefault("v", v.tolist())
            inner.setdefault("provenance", "declared")
            profile = ErgodicityProfile.from_dict(inner)
            if profile.declared_m is None and "m_value" in section:
                profile = ErgodicityProfile(profile.v_values, profile.rho, "declared", float(section["m_value"]))
            return profile
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid profile: {exc}") from exc
    raise ConfigError(f"unknown profile kind {kind!r}")


def build_kernel_fn(doc: dict, kernel: FiniteKernel) -> SymmetricKernelFn:
    section = _require(doc, "kernel_fn", "config")
    name = _require(section, "name", "kernel_fn")
    degree = int(_require(section, "degree", "kernel_fn"))
    params = section.get("params", {})
    try:
        if name in ("product", "additive"):
            center = params.get("center", 0.0)
            if center == "pi":
                center = kernel.stationary().expect(kernel.states)
            fn = product_kernel if name == "product" else additive_kernel
            h = fn(degree, center=float(center))
        elif name == "indicator-diag":
            h = indicator_diag_kernel(degree)
        elif name == "gaussian-rbf":
            h = gaussian_rbf_kernel(degree, bandwidth=float(params.get("bandwidth", 1.0)))
        elif name == "table":
            h = table_kernel(np.asarray(_require(params, "values", "kernel_fn.params"), dtype=float),
                             kernel.states)
            if h.degree != degree:
                raise ConfigError("table rank does not match declared degree")
        else:
            raise ConfigError(f"unknown kernel_fn name {name!r}")
        if section.get("declared_sup") is not None:
            h.declared_sup = float(section["declared_sup"])
        if section.get("declared_bq"):
            h.declared_bq = {float(q): float(b) for q, b in section["declared_bq"].items()}
        return h.tabulated(kernel.states)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid kernel_fn: {exc}") from exc


def build_experiment(
    doc: dict,
    seed_override: int | None = None,
    budget_override: int | None = None,
    jobs: int = 1,
) -> ExperimentConfig:
    kernel, v = build_chain(doc)
    mu0 = build_initial(doc, kernel.size)
    section = doc.get("experiment", {})
    n_grid = [int(n) for n in section.get("n_grid", [])]
    slln_section = doc.get("slln")
    slln = None
    if slln_section is not None:
        try:
            slln = SllnConfig(
                n_max=int(_require(slln_section, "n_max", "slln")),
                checkpoints=slln_section.get("checkpoints"),
                threshold=slln_section.get("threshold"),
            )
        except ValueError as exc:
            raise ConfigError(f"invalid slln section: {exc}") from exc
    k_needed = max(n_grid, default=0)
    if slln is not None:
        k_needed = max(k_needed, 64)
    profile = build_profile(doc, kernel, v, k_max_default=max(k_needed, 16))
    h = build_kernel_fn(doc, kernel)
    try:
        return ExperimentConfig(
            kernel=kernel,
            mu0=mu0,
            profile=profile,
            h=h,
            m=h.degree,
            n_grid=n_grid,
            replicates=int(section.get("replicates", 2)),
            master_seed=int(seed_override if seed_override is not None else section.get("master_seed", 0)),
            bounds=section.get("bounds", []),
            slln=slln,
            budget=int(budget_override if budget_override is not None else section.get("budget", DEFAULT_BUDGET)),
            jobs=jobs,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid experiment section: {exc}") from exc
