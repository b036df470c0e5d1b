"""Command-line entry point.

    ustatmc <command> --config CONFIG.json [--out DIR] [--seed S]
                      [--budget B] [--jobs N]
    ustatmc --emit-schema

Commands: simulate, certify-profile, bound, verify-variance, verify-slln,
check-propositions.  Exit status: 0 when every asserted inequality holds,
1 on a violation (worst instance is reported), 2 on a configuration error,
3 when a check could not run (a budget refusal, a chain that is not
ergodic, an M(mu, V) that cannot be bounded, an artifact that cannot be
written, or memory that runs out).  --budget caps counting and the
simulate path; every other config-sized array has a fixed cap of 10^7
cells, and a check past a cap is refused with status 3, before any
work, by a message that names the array (the README lists the caps).
A command returns a violation and never raises it, so any other package
error means the check did not run.  Statuses 2 and 3 print one line.
A configuration error is found before any work starts; it includes an
--out that names an existing file, a number that is not finite (NaN or
Infinity) in the chain, the initial weights, a kernel table or a profile,
a bad bound request (an unknown name, corollary3 without p, or a p that is
not a finite number > 0, a boolean included), an experiment.bounds that is
not a list, initial weights that do not list one value per state, a declared
profile whose v does not list one value per state, a count that is not an
integer (a fraction, a string or a boolean), an initial.dirac that is not a
state index, an slln.checkpoints with no entry in [m, n_max] (or, with
no checkpoints listed, an slln.n_max below m), an slln.threshold that is
not a finite number > 0, a seed (a config seed or --seed) outside
[0, 2^64), a --budget or --jobs below 1, and a bad
propositions section (a count below its least value, or a p_values entry
that is not a finite number > 0).  bound and verify-variance also refuse
an empty experiment.n_grid or experiment.bounds with status 2, once the
experiment is built and before any artifact is written.
Artifacts are CSV/JSON with round-trip float formatting; identical configs
and seeds yield byte-identical files at any --budget that lets the run
finish.  --jobs has no effect: the Monte Carlo replicate blocks run in
order in one thread.  It is still parsed, and refused below 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import config as cfg
from .bounds import evaluate_bounds
from .errors import ConfigError, UstatmcError, refuse_over
from .markov import certify_rho, simulate
from .montecarlo import VARIANCE_COLUMNS, ExperimentConfig, run_slln_experiment, run_variance_experiment
from .proofs import proposition_grid_check
from .reporting import write_csv, write_json

SLLN_COLUMNS = ["n", "u_n", "target", "abs_error"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ustatmc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--emit-schema", action="store_true", help="print the config schema and exit")
    sub = parser.add_subparsers(dest="command")
    for name, text in [
        ("simulate", "sample a trajectory and write it as CSV"),
        ("certify-profile", "tabulate the mixing sequence and write the profile JSON"),
        ("bound", "evaluate the requested bounds over the n grid"),
        ("verify-variance", "compare exact/Monte Carlo L2 against the bounds"),
        ("verify-slln", "run the strong-law convergence experiment"),
        ("check-propositions", "exhaustive proof-apparatus checks on a small grid"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--seed", type=int, default=None, help="override the config master seed")
        p.add_argument("--budget", type=int, default=None,
                       help="override the counting engine's cap, in cells whatever their width: r paths "
                            "of n steps hold r*(n + 4S + tables*(2*checkpoints + 1) + 8) cells and a part set "
                            "by S, m and the tables, checked before sampling; simulate counts only its n path "
                            "cells. Other config-sized arrays have a fixed cap of 10^7 cells, and a refusal "
                            "names the array")
        p.add_argument("--jobs", type=int, default=1,
                       help="has no effect: replicate blocks run in order in one thread (kept so old command lines parse)")
    return parser


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    doc = cfg.load_document(args.config)
    kernel, _ = cfg.build_chain(doc)
    mu0 = cfg.build_initial(doc, kernel.size)
    section = cfg.section(doc, "simulate", {})
    n = cfg.integer(section, "n", 1000, "simulate", 1)
    seed = args.seed if args.seed is not None else cfg.seed(section.get("seed", 0), "simulate.seed")
    refuse_over("simulate.n path cells", n, cfg.budget(doc, args.budget))
    values = [float(x) for x in kernel.states]
    rows = ((t, i, values[i]) for t, i in enumerate(simulate(kernel, mu0, n, seed).tolist()))
    path = _out_dir(args) / "trajectory.csv"
    write_csv(path, ["step", "state_index", "state_value"], rows)
    print(f"simulate: n={n} seed={seed} -> {path}")
    return 0


def cmd_certify_profile(args) -> int:
    doc = cfg.load_document(args.config)
    kernel, v = cfg.build_chain(doc)
    k_max = cfg.integer(cfg.section(doc, "profile", {}), "k_max", 64, "profile", 0)
    profile = certify_rho(kernel, v, k_max)
    path = _out_dir(args) / "profile.json"
    write_json(path, profile.to_dict())
    print(f"certify-profile: k_max={k_max} rho(0)={profile.rho_at(0):.6g} "
          f"rho({k_max})={profile.rho_at(k_max):.6g} -> {path}")
    return 0


def _bound_experiment(args) -> ExperimentConfig:
    """The experiment of ``bound`` and ``verify-variance``, which check
    nothing unless both the n grid and the bound requests are non-empty."""
    config = cfg.build_experiment(cfg.load_document(args.config), args.seed, args.budget)
    if not config.n_grid:
        raise ConfigError(f"{args.command} needs a non-empty experiment.n_grid")
    if not config.bounds:
        raise ConfigError(f"{args.command} needs experiment.bounds")
    return config


def cmd_bound(args) -> int:
    config = _bound_experiment(args)
    d, entries = evaluate_bounds(config.bounds, config.n_grid, config.h, config.profile, config.mu0, config.kernel)
    rows = [
        (n, config.m, label, value, d, digest)
        for n, values in entries.items()
        for _, label, value, digest in values
    ]
    path = _out_dir(args) / "bounds.csv"
    write_csv(path, ["n", "m", "bound_name", "bound", "degeneracy", "inputs_hash"], rows)
    print(f"bound: {len(rows)} values over n={config.n_grid} -> {path}")
    return 0


def cmd_verify_variance(args) -> int:
    config = _bound_experiment(args)
    rows = run_variance_experiment(config)
    out = _out_dir(args)
    write_csv(out / "variance.csv", VARIANCE_COLUMNS, ([row[c] for c in VARIANCE_COLUMNS] for row in rows))
    failures = [row for row in rows if not row["pass"]]
    summary = {
        "reports": len({(row["n"], row["statistic"]) for row in rows}),
        "rows": len(rows),
        "failures": failures,
        "pass": not failures,
    }
    write_json(out / "variance_summary.json", summary)
    for row in rows:
        print(f"verify-variance: n={row['n']} {row['bound_name']}: "
              f"l2={row['estimate']:.6g} bound={row['bound']:.6g} "
              f"margin={row['margin']:.6g} {'PASS' if row['pass'] else 'FAIL'}")
    if failures:
        worst = min(failures, key=lambda r: r["margin"])
        print(f"verify-variance: worst violation at n={worst['n']} {worst['bound_name']} "
              f"margin={worst['margin']:.6g}", file=sys.stderr)
        return 1
    return 0


def cmd_verify_slln(args) -> int:
    doc = cfg.load_document(args.config)
    config = cfg.build_experiment(doc, args.seed, args.budget)
    result = run_slln_experiment(config)
    out = _out_dir(args)
    write_csv(out / "slln.csv", SLLN_COLUMNS, ([row[c] for c in SLLN_COLUMNS] for row in result["rows"]))
    meta = {k: v for k, v in result.items() if k != "rows"}
    final = result["rows"][-1]
    meta["final_abs_error"] = final["abs_error"]
    threshold = config.slln.threshold
    meta["threshold"] = threshold
    meta["pass"] = threshold is None or final["abs_error"] < threshold
    write_json(out / "slln_summary.json", meta)
    print(f"verify-slln: n={final['n']} u_n={final['u_n']:.6g} target={final['target']:.6g} "
          f"abs_error={final['abs_error']:.6g} {'PASS' if meta['pass'] else 'FAIL'}")
    return 0 if meta["pass"] else 1


def cmd_check_propositions(args) -> int:
    doc = cfg.load_document(args.config)
    report = proposition_grid_check(**cfg.build_propositions(doc, args.seed))
    path = _out_dir(args) / "propositions.json"
    write_json(path, report)
    for name, entry in report.items():
        if isinstance(entry, dict):
            print(f"check-propositions: {name}: {'PASS' if entry['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


_COMMANDS = {
    "simulate": cmd_simulate,
    "certify-profile": cmd_certify_profile,
    "bound": cmd_bound,
    "verify-variance": cmd_verify_variance,
    "verify-slln": cmd_verify_slln,
    "check-propositions": cmd_check_propositions,
}


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.emit_schema:
        print(json.dumps(cfg.SCHEMA, indent=2))
        return 0
    if not args.command:
        parser.print_help()
        return 2
    try:
        if args.seed is not None:
            cfg.seed(args.seed, "--seed")
        if args.budget is not None and args.budget < 1:
            raise ConfigError(f"--budget must be >= 1, got {args.budget}")
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        if Path(args.out).exists() and not Path(args.out).is_dir():
            raise ConfigError(f"--out {args.out} exists and is not a directory")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UstatmcError as exc:
        print(f"could not check: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"could not write: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("could not check: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
