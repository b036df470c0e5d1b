"""Command-line entry point.

    ustatmc <command> --config CONFIG.json [--out DIR] [--seed S]
                      [--budget B] [--jobs N]
    ustatmc --emit-schema

Commands: simulate, certify-profile, bound, verify-variance, verify-slln,
check-propositions.  Exit status: 0 when every asserted inequality holds,
1 on a violation (worst instance is reported), 2 on a configuration error
(including a bad bound request: an unknown name, corollary3 without p,
or p <= 0).
Artifacts are CSV/JSON with round-trip float formatting; identical configs
and seeds yield byte-identical files at any --jobs value.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import config as cfg
from .bounds import bound_requests, evaluate_bounds
from .errors import ConfigError, UstatmcError
from .markov import simulate
from .montecarlo import run_slln_experiment, run_variance_experiment
from .proofs import proposition_grid_check
from .reporting import write_csv, write_json
from .ustats import degeneracy_order

VARIANCE_COLUMNS = [
    "n", "m", "statistic", "l2_kind", "estimate", "stderr", "replicates",
    "bound_name", "bound", "margin", "pass", "inputs_hash", "provenance",
]
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
                       help="override the cap on enumeration work and work-array cells")
        p.add_argument("--jobs", type=int, default=1,
                       help="threads for Monte Carlo replicate blocks (never changes results)")
    return parser


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    doc = cfg.load_document(args.config)
    kernel, _ = cfg.build_chain(doc)
    mu0 = cfg.build_initial(doc, kernel.size)
    section = doc.get("simulate", {})
    n = int(section.get("n", 1000))
    seed = int(args.seed if args.seed is not None else section.get("seed", 0))
    traj = simulate(kernel, mu0, n, seed)
    rows = [
        {"step": t, "state_index": int(i), "state_value": float(kernel.states[i])}
        for t, i in enumerate(traj.values)
    ]
    path = _out_dir(args) / "trajectory.csv"
    write_csv(path, ["step", "state_index", "state_value"], rows)
    print(f"simulate: n={n} seed={seed} -> {path}")
    return 0


def cmd_certify_profile(args) -> int:
    doc = cfg.load_document(args.config)
    kernel, v = cfg.build_chain(doc)
    k_max = int(doc.get("profile", {}).get("k_max", 64))
    from .markov import certify_rho

    profile = certify_rho(kernel, v, k_max)
    path = _out_dir(args) / "profile.json"
    write_json(path, profile.to_dict())
    print(f"certify-profile: k_max={k_max} rho(0)={profile.rho_at(0):.6g} "
          f"rho({k_max})={profile.rho_at(k_max):.6g} -> {path}")
    return 0


def cmd_bound(args) -> int:
    doc = cfg.load_document(args.config)
    config = cfg.build_experiment(doc, args.seed, args.budget, args.jobs)
    d = degeneracy_order(config.h, config.kernel.stationary())
    requests = bound_requests(config.bounds, d, config.m)
    rows = [
        {"n": n, "m": config.m, "bound_name": label, "bound": value, "degeneracy": d, "inputs_hash": digest}
        for n in config.n_grid
        for _, label, value, digest in evaluate_bounds(
            requests, n, config.h, config.profile, config.mu0, config.kernel, d)
    ]
    path = _out_dir(args) / "bounds.csv"
    write_csv(path, ["n", "m", "bound_name", "bound", "degeneracy", "inputs_hash"], rows)
    print(f"bound: {len(rows)} values over n={config.n_grid} -> {path}")
    return 0


def cmd_verify_variance(args) -> int:
    doc = cfg.load_document(args.config)
    config = cfg.build_experiment(doc, args.seed, args.budget, args.jobs)
    if not config.bounds:
        raise ConfigError("verify-variance needs experiment.bounds")
    reports = run_variance_experiment(config)
    rows = [row for report in reports for row in report.rows()]
    out = _out_dir(args)
    write_csv(out / "variance.csv", VARIANCE_COLUMNS, rows)
    failures = [row for row in rows if not row["pass"]]
    summary = {
        "reports": len(reports),
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
    config = cfg.build_experiment(doc, args.seed, args.budget, args.jobs)
    result = run_slln_experiment(config)
    out = _out_dir(args)
    write_csv(out / "slln.csv", SLLN_COLUMNS, result["rows"])
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
    section = doc.get("propositions", {})
    seed = int(args.seed if args.seed is not None else section.get("seed", 7))
    report = proposition_grid_check(
        num_chains=int(section.get("chains", 3)),
        size=int(section.get("size", 3)),
        m=int(section.get("m", 2)),
        i_max=int(section.get("i_max", 8)),
        seed=seed,
        p_values=tuple(section.get("p_values", (0.5, 1.0))),
    )
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
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UstatmcError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
