"""Benchmark runner for the ustatmc CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the package is imported from
``src/``).  Each command run is a fresh child process (``child.py``) with
BLAS pinned to one thread; runs go one at a time for about ``--seconds``
(default RUN_SECONDS, the ``run_seconds`` of BENCHMARK.json) and at least
MIN_ROUNDS runs.  Inputs are generated from ``--seed`` (``workloads.py``)
and every run's artifacts are checked against references computed from the
same inputs (``checks.py``).

``--trace 0`` reports the end-to-end metrics: median and quartiles over the
runs of the command's wall time, the package import time (set-up), peak RSS,
and the share of runs that failed.  ``--trace 1`` alternates untraced and
traced runs and reports per-layer metrics from the traced ones
(``tracer.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics (medians) of the chosen mode.
Work files go to ``.perfbench/`` under the checkout.
"""

from __future__ import annotations

import os

BLAS_THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)  # before numpy loads in this process too

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
from tracer import unit_of
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_SECONDS = 30
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 60  # a hung command still ends the run well inside 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics of the JSON line: the ones that are positive on every
# workload.  All others (self times, counts and rates of layers that only
# some workloads reach, and the tracing overhead, a difference of two noisy
# medians) are printed in the table, since in the JSON they would read 0 or
# less on some workloads.
PER_LAYER = [
    "cli.traced_wall_s",
    "cli.cpu_s",
    "markov.self_s",
    "markov.certify_rho.self_s",
    "markov.certify_rho.pair_evals",
    "ustats.hoeffding_project.calls",
    "reporting.write.self_s",
    "reporting.bytes_written",
]


class WorkloadRun:
    """All runs of one workload at one seed: inputs, reference, samples."""

    def __init__(self, name: str, seed: int, root: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.root = root
        self.dir = root / ".perfbench" / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(self.workload.make_config(seed), indent=1))
        self.reference = checks.reference(self.workload.command, json.loads(self.config.read_text()))
        self.samples: dict[str, list[float]] = defaultdict(list)  # untraced runs
        self.layers: dict[str, list[float]] = defaultdict(list)  # traced runs
        self.self_s: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _spawn(self, tag: str, options: list[str], cli_args: list[str]) -> tuple[dict | None, Path]:
        out = self.dir / tag
        out.mkdir()
        result = out / "result.json"
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"), **BLAS_THREADS)
        cmd = [sys.executable, str(HERE / "child.py"), str(result), *options, "--", *cli_args]
        with open(out / "log.txt", "w") as log:
            try:
                proc = subprocess.run(cmd, cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return None, out
        if proc.returncode != 0 or not result.exists():
            return None, out
        return json.loads(result.read_text()), out

    def command(self, traced: bool) -> None:
        index = self.attempted
        self.attempted += 1
        tag = f"{'trace' if traced else 'run'}{index}"
        out = self.dir / tag
        options = ["--trace", f"{self.workload.name}:{self.seed}:{index}", str(out / "spans.json")] if traced else []
        cli_args = [self.workload.command, "--config", str(self.config), "--out", str(out), "--jobs", "1"]
        result, out = self._spawn(tag, options, cli_args)
        if result is None:
            problems = [f"child process failed, see {out / 'log.txt'}"]
        elif result["exit_code"] != 0:
            problems = [f"exit status {result['exit_code']}"]
        else:
            problems = checks.check(self.workload.command, out, self.reference)
        if problems:
            self.failed += 1
            self.problems.extend(f"{tag}: {p}" for p in problems)
            return
        if traced:
            for key, value in result["layers"].items():
                self.layers[key].append(value)
            for key, value in result["self_s"].items():
                self.self_s[key].append(value)
        else:
            for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
                self.samples[key].append(result[key])

    def check_counts_repeat(self) -> None:
        """Counts are computed from call arguments, so traced runs of the
        same inputs must give identical values."""
        for key, values in self.layers.items():
            if unit_of(key) in ("count", "bytes") and len(set(values)) > 1:
                self.problems.append(f"count {key} differs across traced runs: {sorted(set(values))}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def measure(run: WorkloadRun, seconds: float, trace: bool) -> None:
    """One command at a time; with tracing, untraced and traced runs alternate."""
    deadline = time.perf_counter() + seconds
    rounds, last_round = 0, 0.0
    # stop when the next round would mostly fall past the deadline, so runs
    # measure for about `seconds` rather than up to a round more
    while rounds < MIN_ROUNDS or time.perf_counter() + last_round / 2 < deadline:
        started = time.perf_counter()
        run.command(traced=False)
        if trace:
            run.command(traced=True)
        last_round = time.perf_counter() - started
        rounds += 1


def report(run: WorkloadRun, trace: bool) -> dict[str, dict]:
    """Print the metric table of one workload; return its JSON metrics."""
    name = run.workload.name
    print(f"\n== {name} (seed {run.seed}): {run.workload.why}")
    print(f"{'metric':42} {'unit':6} {'n':>3} {'median':>13} {'q1':>13} {'q3':>13}")
    if trace:
        run.check_counts_repeat()
        table = dict(run.layers)
        table["cli.cpu_s"] = run.samples["cpu_s"]
        if run.samples["wall_s"] and run.layers["cli.traced_wall_s"]:
            overhead = summary(run.layers["cli.traced_wall_s"])[0] - summary(run.samples["wall_s"])[0]
            table["bench.tracing_overhead_s"] = [overhead]
        units = {key: unit_of(key) for key in table}
        declared = PER_LAYER
    else:
        table = {key: run.samples[key] for key in END_TO_END}
        units = END_TO_END
        declared = list(END_TO_END)
    for key in sorted(table) if trace else table:
        if table[key]:
            median, q1, q3 = summary(table[key])
            print(f"{key:42} {units[key]:6} {len(table[key]):>3} {median:>13.6g} {q1:>13.6g} {q3:>13.6g}")
    if run.self_s:
        top = max(run.self_s, key=lambda k: summary(run.self_s[k])[0])
        print(f"top self-time layer: {top} ({summary(run.self_s[top])[0]:.4g} s)")
    print(f"{'fail_frac':42} {'ratio':6} {run.attempted:>3} {run.failed / run.attempted:>13.6g}")
    for problem in run.problems[:20]:
        print(f"PROBLEM {name}: {problem}")
    return {key: {"value": summary(table[key])[0], "unit": units[key]} for key in declared if table.get(key)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ustatmc" / "cli.py").is_file():
        print(f"perfbench: no ustatmc sources under {root / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + json.dumps(env))
    run = WorkloadRun(args.workload, args.seed, root)
    measure(run, args.seconds, bool(args.trace))
    metrics = report(run, bool(args.trace))
    (root / ".perfbench" / "environment.json").write_text(json.dumps(env, indent=1) + "\n")
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
