"""Smoke test: every narrative script under ``demos/`` runs to exit 0.

The demos call public API (``verify_prop5``, ``verify_prop7``, the
experiment runners) that no other test reaches through a script, so a
signature change that breaks a demo shows up here.  A demo listed in
``STDOUT_SHA256`` must also print exactly the pinned output.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
STDOUT_SHA256 = {
    # joint and tilted laws, the f_sigma identity, Propositions 5 and 7, the j* histogram
    "04_proof_apparatus": "288c6c5ece99c01462ca9214937d1b8173d756a00fd6958810aae7ac5a180c7b",
}


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    if script.stem in STDOUT_SHA256:
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_SHA256[script.stem], done.stdout
