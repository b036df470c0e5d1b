"""Span tracing of ustatmc from outside the package.

``install`` wraps every public function of each layer module (plus two
methods) so that each call records a span: id, parent span, name, start,
end, the exception it raised (if any) and the run id.  Spans and counts are
kept in memory; ``Tracer.write`` saves them once the command has finished.

Modules bind imported names in their own namespaces (``montecarlo`` holds
its own ``sample_paths``, ``cli`` its own ``run_variance_experiment``, ...),
so a wrapper replaces the function object wherever any ustatmc module binds
it.  ``cli.cmd_certify_profile`` imports ``certify_rho`` at call time, which
reads the replaced attribute of ``markov``.

Counts marked "computed" in ``layer_metrics`` are derived from call
arguments, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import time
from collections import Counter, defaultdict

LAYERS = ("markov", "ustats", "bounds", "proofs", "montecarlo", "config", "reporting", "cli")
METHODS = (("markov", "FiniteKernel", "stationary"), ("markov", "ErgodicityProfile", "rho_at"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_simulate(counts, args, kwargs, error):
    counts["markov.simulate.steps"] += _arg(args, kwargs, 2, "n")


def _count_sample_paths(counts, args, kwargs, error):
    counts["markov.sample_paths.steps"] += _arg(args, kwargs, 2, "n") * len(_arg(args, kwargs, 3, "seeds"))


def _count_certify_rho(counts, args, kwargs, error):
    s = _arg(args, kwargs, 0, "kernel").size
    counts["markov.certify_rho.pair_evals"] += s * (s - 1) // 2 * (_arg(args, kwargs, 2, "k_max") + 1)


def _count_rho_at(counts, args, kwargs, error):
    profile, k = args[0], _arg(args, kwargs, 1, "k")
    counts["markov.rho_at.tail_lookups"] += bool(profile.rho.uses_tail(k))


def _count_replicates(counts, args, kwargs, error):
    s = _arg(args, kwargs, 0, "kernel").size
    m = _arg(args, kwargs, 2, "h").degree
    n, r = _arg(args, kwargs, 3, "n"), _arg(args, kwargs, 4, "replicates")
    counts["montecarlo.count.steps"] += r * n
    counts["montecarlo.count.ops"] += r * n * s ** (m - 1)


def _count_exact_l2(counts, args, kwargs, error):
    if error is None:
        n, m = _arg(args, kwargs, 3, "n"), _arg(args, kwargs, 4, "m")
        counts["montecarlo.exact_l2.accepted"] += 1
        counts["montecarlo.exact_l2.pairs"] += math.comb(n, m) ** 2
    elif error == "BudgetExceeded":
        counts["montecarlo.exact_l2.refused"] += 1


def _count_f_sigma(counts, args, kwargs, error):
    counts["proofs.contraction_ops"] += _arg(args, kwargs, 0, "law").tensor.size


def _count_write(counts, args, kwargs, error):
    if error is None:
        counts["reporting.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


HOOKS = {
    "markov.simulate": _count_simulate,
    "markov.sample_paths": _count_sample_paths,
    "markov.certify_rho": _count_certify_rho,
    "markov.rho_at": _count_rho_at,
    "montecarlo.replicate_u_values": _count_replicates,
    "montecarlo.exact_l2": _count_exact_l2,
    "proofs.f_sigma_expectation": _count_f_sigma,
    "reporting.write_csv": _count_write,
    "reporting.write_json": _count_write,
}


class Tracer:
    """In-memory span store for one traced command run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (span_id, parent_id, name, start, end, error, run_id)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end, error, self.run_id))
                self.counts[name + ".calls"] += 1
                if hook is not None:
                    hook(self.counts, args, kwargs, error)

        return traced

    def write(self, path: str) -> None:
        fields = ["span_id", "parent_id", "name", "start", "end", "error", "run_id"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans, "counts": self.counts}, fh)


def install(tracer: Tracer) -> None:
    """Replace every public layer function, in every ustatmc namespace that
    binds it, and the listed methods on their classes, by traced wrappers."""
    package = importlib.import_module("ustatmc")
    modules = {name: importlib.import_module(f"ustatmc.{name}") for name in LAYERS}
    namespaces = [package, *modules.values()]
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            traced = tracer.wrap(f"{layer}.{attr}", fn)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, key, traced)
    for layer, cls_name, method in METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, method, tracer.wrap(f"{layer}.{method}", getattr(cls, method)))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name's suffix."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[tuple], counts: Counter) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced run, and the self time of every
    function span name.

    A span's self time is its duration minus the durations of its direct
    child spans (the program is single threaded under ``--jobs 1``, so
    children never overlap).
    """
    child_time: dict[int, float] = defaultdict(float)
    for span_id, parent, _name, start, end, _error, _run in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    exact_s = refused_s = 0.0
    root_wall = 0.0
    for span_id, parent, name, start, end, error, _run in spans:
        duration = end - start
        self_s[name] += duration - child_time[span_id]
        if parent is None:
            root_wall += duration
        if name == "montecarlo.exact_l2":
            if error is None:
                exact_s += duration
            else:
                refused_s += duration

    def self_of(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    def count(key: str) -> int:
        return int(counts.get(key, 0))

    exact_calls = count("montecarlo.exact_l2.calls")
    metrics = {
        "cli.traced_wall_s": root_wall,
        # the whole module: sampling, simulate, certify_rho and the two methods
        "markov.self_s": sum(v for k, v in self_s.items() if k.startswith("markov.")),
        "markov.simulate.self_s": self_of("markov.simulate"),
        "markov.simulate.steps_per_s": _rate(count("markov.simulate.steps"), self_of("markov.simulate")),
        "markov.sample_paths.self_s": self_of("markov.sample_paths"),
        "markov.sample_paths.steps_per_s": _rate(count("markov.sample_paths.steps"), self_of("markov.sample_paths")),
        "markov.certify_rho.self_s": self_of("markov.certify_rho"),
        "markov.certify_rho.pair_evals": count("markov.certify_rho.pair_evals"),
        "markov.rho_at.calls": count("markov.rho_at.calls"),
        "markov.rho_at.tail_lookups": count("markov.rho_at.tail_lookups"),
        "montecarlo.replicate_u_values.self_s": self_of("montecarlo.replicate_u_values"),
        "montecarlo.count.steps_per_s": _rate(count("montecarlo.count.steps"), self_of("montecarlo.replicate_u_values")),
        "montecarlo.count.ops": count("montecarlo.count.ops"),
        "montecarlo.run_slln_experiment.self_s": self_of("montecarlo.run_slln_experiment"),
        "montecarlo.exact_l2.calls": exact_calls,
        "montecarlo.exact_l2.refused": count("montecarlo.exact_l2.refused"),
        "montecarlo.exact_l2.accept_ratio": _rate(count("montecarlo.exact_l2.accepted"), exact_calls),
        "montecarlo.exact_l2.refused_s": refused_s,
        "montecarlo.exact_l2.exact_s": exact_s,
        "montecarlo.exact_l2.pairs": count("montecarlo.exact_l2.pairs"),
        "montecarlo.run_variance_experiment.self_s": self_of("montecarlo.run_variance_experiment"),
        "ustats.degeneracy_order.self_s": self_of("ustats.degeneracy_order"),
        "ustats.hoeffding_project.calls": count("ustats.hoeffding_project.calls"),
        "bounds.m_sup.self_s": self_of("bounds.m_sup"),
        # every bounds function but m_sup: the three bounds and their helpers
        "bounds.eval.self_s": sum(v for k, v in self_s.items() if k.startswith("bounds.") and k != "bounds.m_sup"),
        "proofs.f_sigma_expectation.self_s": self_of("proofs.f_sigma_expectation"),
        "proofs.f_sigma_expectation.calls": count("proofs.f_sigma_expectation.calls"),
        "proofs.joint_law.self_s": self_of("proofs.joint_law"),
        "proofs.joint_law.calls": count("proofs.joint_law.calls"),
        "proofs.tilde_law.self_s": self_of("proofs.tilde_law"),
        "proofs.proposition_grid_check.self_s": self_of("proofs.proposition_grid_check"),
        "proofs.contraction_ops": count("proofs.contraction_ops"),
        "config.build_experiment.self_s": self_of("config.build_experiment"),
        "reporting.write.self_s": sum(v for k, v in self_s.items() if k.startswith("reporting.")),
        "reporting.bytes_written": count("reporting.bytes_written"),
    }
    return metrics, dict(self_s)
