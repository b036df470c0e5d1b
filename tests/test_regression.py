"""Byte-identity gate: sha256 digests of the CSV/JSON artifacts that fixed
configs and seeds produce.

A change that alters any of these files on purpose (a new float order, a
new column, a new sampler) must update the digests below and state the
drift, with its size, in CHANGES.md.  A change that is not meant to alter
results must leave them as they are.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ustatmc.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

# three states, degree 3: n = 10 takes the exact oracle, n = 40 and 80 the
# Monte Carlo estimate through the degree-3 counting engine
DEGREE_THREE = {
    "chain": {"states": [-1.0, 0.0, 1.5], "matrix": [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]]},
    "initial": {"dirac": 0},
    "kernel_fn": {"name": "product", "degree": 3, "params": {"center": "pi"}},
    "experiment": {"n_grid": [10, 40, 80], "replicates": 300, "master_seed": 77, "bounds": [{"name": "theorem1"}]},
}

# 1-degenerate (d = 1 < m = 2), so the bound is routed to corollary2 and the
# Monte Carlo rows estimate the centered statistic U_{n,m}(h - pi^{(m)}h)
ADDITIVE_CENTERED = {
    "chain": DEGREE_THREE["chain"],
    "initial": {"dirac": 0},
    "kernel_fn": {"name": "additive", "degree": 2, "params": {"center": "pi"}},
    "experiment": {"n_grid": [10, 40, 80], "replicates": 300, "master_seed": 78, "bounds": [{"name": "theorem1"}]},
}

# a canonical kernel with theorem1 and corollary2: at each Monte Carlo n the
# statistics "u" and "u_centered" come from the same replicate paths
BOTH_STATISTICS = {
    "chain": DEGREE_THREE["chain"],
    "initial": {"dirac": 1},
    "kernel_fn": {"name": "product", "degree": 2, "params": {"center": "pi"}},
    "experiment": {
        "n_grid": [10, 30, 60], "replicates": 300, "master_seed": 79,
        "bounds": [{"name": "theorem1"}, {"name": "corollary2"}],
    },
}

# the two builtin families with no closed form in the tests: a degree-3
# Gaussian RBF (tabulated through math.exp) and a degree-2 diagonal indicator
GAUSSIAN_RBF = {
    "chain": DEGREE_THREE["chain"],
    "initial": {"dirac": 2},
    "kernel_fn": {"name": "gaussian-rbf", "degree": 3, "params": {"bandwidth": 0.8}},
    "experiment": {"n_grid": [10, 30], "replicates": 200, "master_seed": 80, "bounds": [{"name": "theorem1"}]},
}

INDICATOR_DIAG = {
    "chain": DEGREE_THREE["chain"],
    "initial": {"dirac": 0},
    "kernel_fn": {"name": "indicator-diag", "degree": 2},
    "experiment": {"n_grid": [10, 30, 60], "replicates": 200, "master_seed": 81, "bounds": [{"name": "corollary2"}]},
}

# the two-state demo chain under a declared geometric profile
# rho(k) = 1.5 * 0.6^k, held as the one-entry table [1.5] with tail rate 0.6
DECLARED_GEOMETRIC = {
    "chain": {"states": [-1.0, 1.0], "matrix": [[0.7, 0.3], [0.2, 0.8]]},
    "initial": {"dirac": 0},
    "kernel_fn": {"name": "product", "degree": 2, "params": {"center": "pi"}},
    "profile": {"kind": "geometric", "c": 1.5, "varrho": 0.6, "m_value": 1.25},
    "experiment": {"n_grid": [50, 100, 200, 400], "bounds": [{"name": "theorem1"}, {"name": "corollary3", "p": 1.0}]},
}

# the three-state chain on one path, degree 3: the one-path counting route,
# which reads the sums at every checkpoint
SLLN_DEGREE_THREE = {
    "chain": DEGREE_THREE["chain"],
    "initial": {"dirac": 0},
    "kernel_fn": {"name": "product", "degree": 3, "params": {"center": "pi"}},
    "experiment": {"master_seed": 82},
    "slln": {"n_max": 3000, "checkpoints": [16, 100, 1000, 3000]},
}

# 1-degenerate, so every request, theorem1 and corollary3 included, routes
# to corollary2: one bound row per n
ROUTED_TO_COROLLARY2 = {
    "chain": DEGREE_THREE["chain"],
    "initial": {"dirac": 0},
    "kernel_fn": {"name": "additive", "degree": 2, "params": {"center": "pi"}},
    "experiment": {
        "n_grid": [10, 40, 80],
        "bounds": [{"name": "theorem1"}, {"name": "corollary3", "p": 1}, {"name": "corollary2"},
                   {"name": "corollary3", "p": 2}],
    },
}

# a canonical kernel with an integer p and a float p: each p is kept as
# written, so its inputs hash reads 1 or 2.0
CANONICAL_P_AS_WRITTEN = {
    "chain": DEGREE_THREE["chain"],
    "initial": {"dirac": 1},
    "kernel_fn": {"name": "product", "degree": 2, "params": {"center": "pi"}},
    "experiment": {
        "n_grid": [10, 40, 80],
        "bounds": [{"name": "theorem1"}, {"name": "corollary3", "p": 1}, {"name": "corollary3", "p": 2.0}],
    },
}

# a declared profile far below the chain's true mixing (c = 1e-4, varrho =
# 0.1): theorem1 and corollary2 fail at every n while corollary3 passes, on
# exact (n = 10) and Monte Carlo rows alike, so the run exits 1
FAILING_BOUNDS = {
    "chain": DECLARED_GEOMETRIC["chain"],
    "initial": {"dirac": 0},
    "kernel_fn": {"name": "product", "degree": 2, "params": {"center": "pi"}},
    "profile": {"kind": "geometric", "c": 1e-4, "varrho": 0.1, "m_value": 1.0},
    "experiment": {
        "n_grid": [10, 40, 80], "replicates": 200, "master_seed": 83,
        "bounds": [{"name": "theorem1"}, {"name": "corollary2"}, {"name": "corollary3", "p": 1.0}],
    },
}

# the sampler's path as simulate writes it, with state values that take all
# 17 significant digits
TRAJECTORY = {
    "chain": {"states": [-1.0, 0.1, 2.0 / 3.0], "matrix": DEGREE_THREE["chain"]["matrix"]},
    "initial": {"dirac": 1},
    "simulate": {"n": 2000, "seed": 84},
}

# the proposition grid at degree 1 and at degree 3, so its bytes are pinned
# beyond the m = 2 of the propositions demo
PROPOSITIONS_DEGREE_ONE = {"propositions": {"chains": 4, "size": 2, "m": 1, "i_max": 12, "seed": 85}}
PROPOSITIONS_DEGREE_THREE = {"propositions": {"chains": 2, "size": 3, "m": 3, "i_max": 6, "seed": 86}}

INLINE = {
    "degree_three": DEGREE_THREE, "additive_centered": ADDITIVE_CENTERED, "both_statistics": BOTH_STATISTICS,
    "gaussian_rbf": GAUSSIAN_RBF, "indicator_diag": INDICATOR_DIAG, "declared_geometric": DECLARED_GEOMETRIC,
    "slln_degree_three": SLLN_DEGREE_THREE, "routed_to_corollary2": ROUTED_TO_COROLLARY2,
    "canonical_p_as_written": CANONICAL_P_AS_WRITTEN, "failing_bounds": FAILING_BOUNDS, "trajectory": TRAJECTORY,
    "propositions_degree_one": PROPOSITIONS_DEGREE_ONE, "propositions_degree_three": PROPOSITIONS_DEGREE_THREE,
}

# the exit status of every run not listed here is 0
EXIT = {"failing_bounds": 1}

DIGESTS = {
    ("two_state_variance", "variance.csv"): "f0888e64f31a3da195bfca8ea73fd3fc49eea8ed40719821bf103b37b2dae84d",
    ("two_state_variance", "bounds.csv"): "a8e48827a58f73429ec41e276a794d2e493f002eb97cfcc8c8c8cae5c87ec555",
    ("slln", "slln.csv"): "7824f92884b6a0c44f286966bcfc50f10c165e9615a3af2c1e3f99b2b526cf69",
    ("degree_three", "variance.csv"): "a6255ab143e253ef16e928e1f6ff1fe9f50054fec07819acf2e8f67a4e9e9ba8",
    ("additive_centered", "variance.csv"): "4bcd21b9af245e45d0b0afdb6c401cedd54b497724dca176bc3abca93ddd091d",
    ("both_statistics", "variance.csv"): "eb648baff1be739cd17a3401d86b05b6b621ed16208b52bcd724ec1b3babfb9b",
    ("gaussian_rbf", "variance.csv"): "35dffac18171e066861f55c782775dc828b4125c83f6d02459c2639fc9a765a9",
    ("indicator_diag", "variance.csv"): "bf2badeb95b53debabcf467edec42c118d8b0baf44e157b6fedc4f99f334e47d",
    ("declared_geometric", "bounds.csv"): "e85f2bc3e281f74057abdc6948c7bb7644c5b30f6054b7d0f88b63dda34c806e",
    ("propositions", "propositions.json"): "719374a1dfb1537e5a7fa4aa87ec2b861efd6124e308a77b5cbeec80db8cbb6a",
    ("slln_degree_three", "slln.csv"): "3213650321445e84b2c6ac5c59718601447699a317c7893cf32c698fc61f50f0",
    ("routed_to_corollary2", "bounds.csv"): "60baf58058f6d4ea0f22a757d1a1d32bfdd776f07618e327fbf608a577494d11",
    ("canonical_p_as_written", "bounds.csv"): "c94640713e49d88fabc46387a286e2a59212c492aeefaa1f58f12635cf1020a0",
    ("failing_bounds", "variance.csv"): "b5492c3112b6c51d4c9ebc3abdec4c85719e6e40bd93ba9e90f5e711b62b3f4d",
    ("failing_bounds", "variance_summary.json"): "9cd1ac6d6a1d1204665823bd5193636e0fad62a570db02c08aa8a3d8644f429e",
    ("trajectory", "trajectory.csv"): "fc7b69c9b7ecda86e67083d2b9d492d6c0b8a74331c01b5c05f6f3aabf21d77c",
    ("propositions_degree_one", "propositions.json"):
        "2693a6a3b6b892fa97e84d90fa504fa9fc29be452c5ce885503ed253b251cb2e",
    ("propositions_degree_three", "propositions.json"):
        "65dda95adf8f9f5f9aa8164efdeb1747b64065148a4df05174fa143abae40721",
}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "name, command, artifact",
    [
        ("two_state_variance", "verify-variance", "variance.csv"),
        ("two_state_variance", "bound", "bounds.csv"),
        ("slln", "verify-slln", "slln.csv"),
        ("degree_three", "verify-variance", "variance.csv"),
        ("additive_centered", "verify-variance", "variance.csv"),
        ("both_statistics", "verify-variance", "variance.csv"),
        ("gaussian_rbf", "verify-variance", "variance.csv"),
        ("indicator_diag", "verify-variance", "variance.csv"),
        ("declared_geometric", "bound", "bounds.csv"),
        ("propositions", "check-propositions", "propositions.json"),
        ("slln_degree_three", "verify-slln", "slln.csv"),
        ("routed_to_corollary2", "bound", "bounds.csv"),
        ("canonical_p_as_written", "bound", "bounds.csv"),
        ("failing_bounds", "verify-variance", "variance.csv"),
        ("failing_bounds", "verify-variance", "variance_summary.json"),
        ("trajectory", "simulate", "trajectory.csv"),
        ("propositions_degree_one", "check-propositions", "propositions.json"),
        ("propositions_degree_three", "check-propositions", "propositions.json"),
    ],
)
def test_artifact_digest(tmp_path, name, command, artifact):
    if name in INLINE:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(INLINE[name]))
    else:
        config = CONFIGS / f"{name}.json"
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT.get(name, 0)
    assert _digest(tmp_path / "out" / artifact) == DIGESTS[name, artifact]
