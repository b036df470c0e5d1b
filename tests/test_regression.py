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

INLINE = {
    "degree_three": DEGREE_THREE, "additive_centered": ADDITIVE_CENTERED, "both_statistics": BOTH_STATISTICS,
    "gaussian_rbf": GAUSSIAN_RBF, "indicator_diag": INDICATOR_DIAG,
}

DIGESTS = {
    ("two_state_variance", "variance.csv"): "2acf39a50f9961bd936b068e2050ba73100dc78dd259347b7d4c6bedde4c7e07",
    ("two_state_variance", "bounds.csv"): "8e5266ac2e6700f6a78813afaf96e7cf0f914b9ced08f2b5347efa892362612f",
    ("slln", "slln.csv"): "7824f92884b6a0c44f286966bcfc50f10c165e9615a3af2c1e3f99b2b526cf69",
    ("degree_three", "variance.csv"): "c7a99afbbceab72fa5201aa65821d2ad15511dc4993e5992e053cb6cd6d026b9",
    ("additive_centered", "variance.csv"): "fc60006f3462438a9809b16304e6704a6462a5b4708c748c0ed4073aba9f56f7",
    ("both_statistics", "variance.csv"): "68845b2ee3ddb956bc152d4f36e75478b519c1f0598161db23d701b153e64ed4",
    ("gaussian_rbf", "variance.csv"): "1e2f634cdc11e246d013bc3ec2b0318cdd4ee8ab9b64748c63f2aeb43601300b",
    ("indicator_diag", "variance.csv"): "f947c5915a612699f5865ce8ce503170348ec54601c55193241a477404deb971",
    ("propositions", "propositions.json"): "df31ba4ab5e52a784703a2484364586f782ba6561602ff22b0851f75dde356f5",
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
        ("propositions", "check-propositions", "propositions.json"),
    ],
)
def test_artifact_digest(tmp_path, name, command, artifact):
    if name in INLINE:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(INLINE[name]))
    else:
        config = CONFIGS / f"{name}.json"
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert _digest(tmp_path / "out" / artifact) == DIGESTS[name, artifact]
