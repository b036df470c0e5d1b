"""Seeded workload generators for the ustatmc benchmark.

Each workload is one ``ustatmc`` CLI command on a config document that is
generated entirely from the workload seed: the random chains, the master
seeds and the proposition seed.  The CLI only ever sees the generated file.

All workloads are closed loop: one command at a time from one process,
always with ``--jobs 1``.  ``--jobs`` is not a workload because threads do
not pay off today: ``--jobs 2`` measured 1.91 s against 1.40 s on the
variance-m2 config and 5.14 s against 5.34 s on variance-m3 (single runs
on a 2-core VM).  Whether the flag keeps a threaded path at all is decided
by the single-engine rewrite on the roadmap (item 2); until then a jobs
workload would only measure thread contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Seed used when none is given.  Claims made while tuning on DEFAULT_SEED are
# confirmed on CONFIRM_SEED, which is not used while a change is written.
DEFAULT_SEED = 1
CONFIRM_SEED = 2

TWO_STATE_CHAIN = {"states": [-1.0, 1.0], "matrix": [[0.7, 0.3], [0.2, 0.8]]}
BOUNDS = [{"name": "theorem1"}, {"name": "corollary3", "p": 1.0}]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    make_config: Callable[[int], dict]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


def _master_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def random_chain(rng: np.random.Generator, size: int, low: float, high: float) -> dict:
    """Strictly positive rows (so the chain is ergodic) and sorted states
    drawn uniformly from [low, high)."""
    matrix = rng.random((size, size)) + 0.05
    matrix /= matrix.sum(axis=1, keepdims=True)
    states = np.sort(rng.uniform(low, high, size))
    return {"states": states.tolist(), "matrix": matrix.tolist()}


def variance_m2_config(seed: int, n_grid=(16, 50, 100, 200, 400, 800, 1600), replicates=2000) -> dict:
    rng = _rng(seed, 0)
    return {
        "chain": TWO_STATE_CHAIN,
        "initial": {"dirac": 0},
        "kernel_fn": {"name": "product", "degree": 2, "params": {"center": "pi"}},
        "experiment": {
            "n_grid": list(n_grid),
            "replicates": replicates,
            "master_seed": _master_seed(rng),
            "bounds": BOUNDS,
        },
    }


def variance_m3_config(seed: int, size=20, n_grid=(50, 100, 200, 400), replicates=500) -> dict:
    rng = _rng(seed, 1)
    return {
        "chain": random_chain(rng, size, -1.0, 1.0),
        "initial": {"dirac": 0},
        "kernel_fn": {"name": "product", "degree": 3, "params": {"center": "pi"}},
        "experiment": {
            "n_grid": list(n_grid),
            "replicates": replicates,
            "master_seed": _master_seed(rng),
            "bounds": BOUNDS,
        },
    }


def slln_long_config(seed: int, size=8, n_max=10**6) -> dict:
    # Positive states keep the target (pi-mean)^2 away from 0, so relative
    # checks on u_n are well conditioned.
    rng = _rng(seed, 2)
    return {
        "chain": random_chain(rng, size, 0.5, 1.5),
        "initial": {"dirac": 0},
        "kernel_fn": {"name": "product", "degree": 2},
        "experiment": {"n_grid": [], "replicates": 2, "master_seed": _master_seed(rng)},
        "slln": {"n_max": n_max, "delta": 0.1, "threshold": 0.01},
    }


def propositions_config(seed: int, size=4, m=2, i_max=10, chains=3) -> dict:
    rng = _rng(seed, 3)
    return {
        "propositions": {
            "chains": chains,
            "size": size,
            "m": m,
            "i_max": i_max,
            "seed": _master_seed(rng),
            "p_values": [0.5, 1.0],
        }
    }


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "variance-m2", "verify-variance",
            "sampling and the vectorized m=2 counting branch share the time; n=16 runs the exact oracle",
            variance_m2_config,
        ),
        Workload(
            "variance-m3", "verify-variance",
            "per-path m=3 counting loop dominates; certify_rho at S=20; exact_l2 refusals cost time and memory",
            variance_m3_config,
        ),
        Workload(
            "slln-long", "verify-slln",
            "one 10^6-step path: the per-step simulate loop is nearly all of wall time",
            slln_long_config,
        ),
        Workload(
            "propositions", "check-propositions",
            "proof apparatus only (joint laws, f_sigma contractions); no sampling and no counting",
            propositions_config,
        ),
    ]
}
