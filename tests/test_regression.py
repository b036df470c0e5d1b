"""Byte-identity gate: sha256 digests of the CSVs that fixed configs and
seeds produce.

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

DIGESTS = {
    "two_state_variance": "2acf39a50f9961bd936b068e2050ba73100dc78dd259347b7d4c6bedde4c7e07",
    "slln": "7824f92884b6a0c44f286966bcfc50f10c165e9615a3af2c1e3f99b2b526cf69",
    "degree_three": "c7a99afbbceab72fa5201aa65821d2ad15511dc4993e5992e053cb6cd6d026b9",
}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "name, command, artifact",
    [
        ("two_state_variance", "verify-variance", "variance.csv"),
        ("slln", "verify-slln", "slln.csv"),
        ("degree_three", "verify-variance", "variance.csv"),
    ],
)
def test_artifact_digest(tmp_path, name, command, artifact):
    if name == "degree_three":
        config = tmp_path / "degree_three.json"
        config.write_text(json.dumps(DEGREE_THREE))
    else:
        config = CONFIGS / f"{name}.json"
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert _digest(tmp_path / "out" / artifact) == DIGESTS[name]
