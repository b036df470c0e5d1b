"""Self-tests of the benchmark: output checks, tracing and references.

    python3 -m pytest perfbench/tests -q

Run from the root of a source checkout.  Workloads are shrunk so each
child process takes well under a second.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "variance-m2": lambda seed: workloads.variance_m2_config(seed, n_grid=(8, 40), replicates=200),
    "variance-m3": lambda seed: workloads.variance_m3_config(seed, size=4, n_grid=(6, 30), replicates=100),
    "slln-long": lambda seed: workloads.slln_long_config(seed, n_max=5000),
    "propositions": lambda seed: workloads.propositions_config(seed, size=3, i_max=4, chains=1),
}


@pytest.fixture
def small(monkeypatch, tmp_path):
    """WorkloadRun factory on shrunk configs, working under tmp_path."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    for name, make in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], make_config=make))
    return lambda name: bench.WorkloadRun(name, 3, tmp_path)


def _edit_after_spawn(run: bench.WorkloadRun, edit) -> None:
    spawn = run._spawn

    def spawn_then_edit(tag, options, cli_args):
        result, out = spawn(tag, options, cli_args)
        edit(out)
        return result, out

    run._spawn = spawn_then_edit


def _scale_estimate(kind: str, factor: float):
    """Scale the L2 estimate of the first row of the given kind."""

    def edit(out: Path) -> None:
        lines = (out / "variance.csv").read_text().splitlines()
        header = lines[0].split(",")
        for i, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            if fields[header.index("l2_kind")] == kind:
                col = header.index("estimate")
                fields[col] = repr(float(fields[col]) * factor)
                lines[i] = ",".join(fields)
                break
        (out / "variance.csv").write_text("\n".join(lines) + "\n")

    return edit


def _flip_pass(out: Path) -> None:
    path = out / "propositions.json"
    report = json.loads(path.read_text())
    report["prop5"]["pass"] = False
    path.write_text(json.dumps(report))


@pytest.mark.parametrize("name, edit", [
    ("variance-m2", _scale_estimate("exact", 1 + 1e-6)),
    ("variance-m2", _scale_estimate("monte-carlo", 3.0)),
    ("propositions", _flip_pass),
])
def test_broken_artifact_raises_fail_frac(small, name, edit):
    run = small(name)
    run.command(traced=False)
    assert (run.failed, run.attempted) == (0, 1), run.problems
    _edit_after_spawn(run, edit)
    run.command(traced=False)
    assert run.failed / run.attempted == 0.5
    assert not run.correct


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_sum_within_traced_wall(small, name):
    run = small(name)
    run.command(traced=True)
    assert run.failed == 0, run.problems
    total_self = sum(values[0] for values in run.self_s.values())
    assert 0 < total_self <= run.layers["cli.traced_wall_s"][0] * (1 + 1e-9)


def test_counts_repeat_across_traced_runs(small):
    run = small("variance-m2")
    run.command(traced=True)
    run.command(traced=True)
    counts = {k: v for k, v in run.layers.items() if bench.unit_of(k) in ("count", "bytes")}
    assert counts["montecarlo.exact_l2.refused"] == [1, 1]
    assert all(len(set(v)) == 1 for v in counts.values()), counts
    run.check_counts_repeat()
    assert run.correct, run.problems


def test_references_match_package_oracles():
    from ustatmc.markov import Distribution, FiniteKernel, certify_rho
    from ustatmc.montecarlo import exact_l2
    from ustatmc.ustats import product_kernel

    rng = np.random.default_rng(11)
    for s, m, n in [(2, 2, 8), (3, 3, 6), (4, 2, 6)]:
        chain = workloads.random_chain(rng, s, -1.0, 1.0)
        matrix, states = np.asarray(chain["matrix"]), np.asarray(chain["states"])
        kernel = FiniteKernel(states, matrix)
        h = product_kernel(m, center=0.1).tabulated(states)
        exact = exact_l2(Distribution.dirac(0, s), kernel, h, n, m, pairs_budget=10**9)
        second = checks.product_moments(np.eye(s)[0], matrix, states - 0.1, m, [n], 2)[n]
        assert np.sqrt(second) == pytest.approx(exact, rel=1e-12)
        profile = certify_rho(kernel, np.ones(s), 30)
        assert np.array_equal(checks.rho_table(matrix, 30), profile.rho.values)


def test_fourth_moment_matches_path_enumeration():
    rng = np.random.default_rng(5)
    s, m, n = 3, 2, 7
    chain = workloads.random_chain(rng, s, -1.0, 1.0)
    matrix, g = np.asarray(chain["matrix"]), np.asarray(chain["states"])
    mu = np.full(s, 1.0 / s)
    expected = 0.0
    for path in itertools.product(range(s), repeat=n):
        prob = mu[path[0]] * np.prod([matrix[a, b] for a, b in zip(path, path[1:])])
        u = sum(g[path[i]] * g[path[j]] for i, j in itertools.combinations(range(n), 2)) / math.comb(n, m)
        expected += prob * u**4
    assert checks.product_moments(mu, matrix, g, m, [n], 4)[n] == pytest.approx(expected, rel=1e-12)
