import csv
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ustatmc import ConfigError, bounds, cli, config, markov, montecarlo, proofs
from ustatmc.cli import main
from ustatmc.config import SCHEMA, build_chain, build_experiment, build_initial, build_kernel_fn, load_document
from ustatmc.ustats import count_cells

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

TWO_STATE = {
    "states": [-1.0, 1.0],
    "matrix": [[0.7, 0.3], [0.2, 0.8]],
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _variance_doc(seed=2024):
    return {
        "chain": TWO_STATE,
        "initial": {"dirac": 0},
        "kernel_fn": {"name": "product", "degree": 2, "params": {"center": "pi"}},
        "experiment": {
            "n_grid": [20, 40],
            "replicates": 300,
            "master_seed": seed,
            "bounds": [{"name": "theorem1"}],
        },
    }


def test_load_document_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_document(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_document(bad)


def test_build_chain_and_validation(tmp_path):
    kernel, v = build_chain({"chain": TWO_STATE})
    assert kernel.size == 2 and np.all(v == 1.0)
    with pytest.raises(ConfigError):
        build_chain({"chain": {"states": [0, 1], "matrix": [[0.5, 0.4], [0.2, 0.8]]}})
    with pytest.raises(ConfigError):
        build_chain({"chain": {"states": [0, 1], "matrix": [[0.5, 0.5], [0.2, 0.8]], "v": [0.2, 1.0]}})


def test_build_initial_forms():
    assert build_initial({}, 3).weights[0] == 1.0
    assert np.allclose(build_initial({"initial": "uniform"}, 4).weights, 0.25)
    assert build_initial({"initial": [0.25, 0.75]}, 2).weights[1] == 0.75
    with pytest.raises(ConfigError):
        build_initial({"initial": [0.4, 0.4]}, 2)


def test_build_kernel_fn_center_pi():
    doc = {"chain": TWO_STATE, "kernel_fn": {"name": "product", "degree": 2, "params": {"center": "pi"}}}
    kernel, _ = build_chain(doc)
    h = build_kernel_fn(doc, kernel)
    pi = kernel.stationary()
    integral = np.tensordot(h.table, pi.weights, axes=([-1], [0])) @ pi.weights
    assert abs(integral) <= 1e-12  # centered product kernel is canonical
    with pytest.raises(ConfigError):
        build_kernel_fn({"chain": TWO_STATE, "kernel_fn": {"name": "nope", "degree": 2}}, kernel)


def test_build_kernel_fn_table_rank_mismatch():
    kernel, _ = build_chain({"chain": TWO_STATE})
    doc = {"kernel_fn": {"name": "table", "degree": 3, "params": {"values": [[0.0, 1.0], [1.0, 0.0]]}}}
    with pytest.raises(ConfigError):
        build_kernel_fn(doc, kernel)


def test_kernel_envelopes_come_from_the_table():
    # every config kernel is tabulated, so no document key declares sup|h| or B_q
    kernel, _ = build_chain({"chain": TWO_STATE})
    values = [[3.0, 0.0], [0.0, 1.0]]
    doc = {"kernel_fn": {"name": "table", "degree": 2, "params": {"values": values}, "declared_sup": 1.0}}
    h = build_kernel_fn(doc, kernel)
    assert h.sup_norm() == 3.0
    assert not {"declared_sup", "declared_bq"} & SCHEMA["kernel_fn"].keys()


def test_build_experiment_profiles():
    doc = _variance_doc()
    config = build_experiment(doc)
    assert config.profile.provenance == "certified"
    assert config.profile.rho_at(1) == pytest.approx(0.5, rel=1e-12)
    doc["profile"] = {"kind": "geometric", "c": 1.0, "varrho": 0.5, "m_value": 1.0}
    config = build_experiment(doc)
    assert config.profile.provenance == "declared"
    assert config.master_seed == 2024
    config = build_experiment(doc, seed_override=7)
    assert config.master_seed == 7


def _provenances(path):
    with open(path) as fh:
        return {row["provenance"] for row in csv.DictReader(fh)}


def test_only_certify_rho_gives_certified_rows(tmp_path):
    doc = _variance_doc()
    # a document cannot label a declared rho certified
    doc["profile"] = {"kind": "geometric", "c": 1.0, "varrho": 0.5, "m_value": 1.0, "provenance": "certified"}
    cfg = _write(tmp_path, "geo.json", doc)
    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "geo")]) == 0
    assert _provenances(tmp_path / "geo" / "variance.csv") == {"declared"}
    # nor keep the label of a profile certified elsewhere
    certify = _write(tmp_path, "certify.json", {"chain": TWO_STATE, "profile": {"k_max": 64}})
    assert main(["certify-profile", "--config", certify, "--out", str(tmp_path / "p")]) == 0
    profile = json.loads((tmp_path / "p" / "profile.json").read_text())
    assert profile["provenance"] == "certified"
    doc["profile"] = {"kind": "declared", "m_value": 1.0, **profile}
    cfg = _write(tmp_path, "declared.json", doc)
    assert build_experiment(doc).profile.provenance == "declared"
    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "dec")]) == 0
    assert _provenances(tmp_path / "dec" / "variance.csv") == {"declared"}


def test_schema_is_json_ready():
    json.dumps(SCHEMA)


def test_cli_emit_schema(capsys):
    assert main(["--emit-schema"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["experiment"]["bounds"]


def test_cli_simulate_and_certify(tmp_path, capsys):
    doc = {"chain": TWO_STATE, "simulate": {"n": 50, "seed": 3}, "profile": {"k_max": 20}}
    cfg = _write(tmp_path, "c.json", doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    lines = (tmp_path / "a" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "step,state_index,state_value"
    assert len(lines) == 51
    assert main(["certify-profile", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    profile = json.loads((tmp_path / "b" / "profile.json").read_text())
    assert profile["provenance"] == "certified"
    assert profile["rho"]["values"][1] == pytest.approx(0.5, rel=1e-12)


def test_cli_simulate_writes_a_long_path_without_holding_its_rows(tmp_path):
    # 10^5 steps: rows held as one dict each would trace about 35 MB
    cfg = _write(tmp_path, "c.json", {"chain": TWO_STATE, "simulate": {"n": 10**5, "seed": 5}})
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    lines = (tmp_path / "a" / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 10**5 + 1 and lines[-1].startswith("99999,")


@pytest.mark.parametrize("flag, experiment", [(["--budget", "999"], {}), ([], {"budget": 999})])
def test_cli_simulate_over_budget_exits_3_before_sampling(tmp_path, monkeypatch, capsys, flag, experiment):
    cfg = _write(tmp_path, "c.json", {"chain": TWO_STATE, "simulate": {"n": 1000}, "experiment": experiment})
    with monkeypatch.context() as patch:
        patch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("sampling started over the budget"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), *flag]) == 3
    err = capsys.readouterr().err
    assert err.startswith("could not check:") and "budget 999" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    # a path of exactly the budget's cells is sampled
    cfg = _write(tmp_path, "c.json", {"chain": TWO_STATE, "simulate": {"n": 999}, "experiment": experiment})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), *flag]) == 0


def test_cli_simulate_refuses_an_oversized_next_state_table(tmp_path, capsys):
    # a dense 250-state chain: about 250 * 62 501 next-state cells
    rng = np.random.default_rng(3)
    matrix = rng.random((250, 250))
    matrix /= matrix.sum(axis=1, keepdims=True)
    chain = {"states": list(range(250)), "matrix": matrix.tolist()}
    cfg = _write(tmp_path, "c.json", {"chain": chain, "simulate": {"n": 10}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("could not check:") and "next-state table" in err
    assert not (tmp_path / "out").exists()


def test_cli_bound_zero_mixing(tmp_path):
    doc = _variance_doc()
    doc["profile"] = {"kind": "explicit", "values": [0.0] * 41, "tail_rate": 0.0, "m_value": 1.0}
    doc["experiment"]["bounds"] = [{"name": "theorem1"}, {"name": "corollary2"}, {"name": "corollary3", "p": 1.0}]
    cfg = _write(tmp_path, "zero.json", doc)
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "z")]) == 0
    rows = (tmp_path / "z" / "bounds.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    assert all(float(r.split(",")[3]) == 0.0 for r in rows)


BAD_BOUND_REQUESTS = {
    "unknown-name": {"name": "theorem9"},
    "corollary3-without-p": {"name": "corollary3"},
    "nonpositive-p": {"name": "corollary3", "p": -1},
    "boolean-p": {"name": "corollary3", "p": True},
    "infinite-p": {"name": "corollary3", "p": float("inf")},
}


@pytest.mark.parametrize("command", ["bound", "verify-variance"])
@pytest.mark.parametrize("bad", BAD_BOUND_REQUESTS.values(), ids=BAD_BOUND_REQUESTS.keys())
def test_cli_bad_bound_request_is_config_error(tmp_path, monkeypatch, command, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("bound or L2 work started before the requests were validated")

    for module, name in [(bounds, "m_sup"), (cli, "evaluate_bounds"), (montecarlo, "evaluate_bounds"),
                         (montecarlo, "exact_l2"), (montecarlo, "replicate_u_grid")]:
        monkeypatch.setattr(module, name, no_work)
    doc = _variance_doc()
    doc["experiment"]["bounds"] = [{"name": "theorem1"}, bad]
    cfg = _write(tmp_path, "bad.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bound", "verify-variance"])
def test_cli_resolves_m_sup_once_per_command(tmp_path, monkeypatch, command):
    calls = []
    m_sup = bounds.m_sup

    def counted(*args, **kwargs):
        calls.append(args)
        return m_sup(*args, **kwargs)

    # evaluate_bounds, in the bounds module, is the one caller of m_sup
    monkeypatch.setattr(bounds, "m_sup", counted)
    doc = _variance_doc()
    doc["experiment"]["bounds"] = [{"name": "theorem1"}, {"name": "corollary3", "p": 1.0}]
    cfg = _write(tmp_path, "m.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_cli_bound_and_verify_variance_agree_on_routed_requests(tmp_path):
    doc = _variance_doc()
    # 1-degenerate, so theorem1 and corollary3 both run as corollary2
    doc["kernel_fn"] = {"name": "additive", "degree": 2, "params": {"center": "pi"}}
    doc["experiment"]["bounds"] = [{"name": "theorem1"}, {"name": "corollary3", "p": 1}]
    cfg = _write(tmp_path, "routed.json", doc)
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    with open(tmp_path / "b" / "bounds.csv") as fh:
        bound_rows = list(csv.DictReader(fh))
    with open(tmp_path / "v" / "variance.csv") as fh:
        variance_rows = list(csv.DictReader(fh))
    assert [(r["n"], r["bound_name"]) for r in bound_rows] == [("20", "corollary2"), ("40", "corollary2")]
    keys = ("n", "bound_name", "bound", "inputs_hash")
    assert [[r[k] for k in keys] for r in bound_rows] == [[r[k] for k in keys] for r in variance_rows]


def test_cli_verify_variance_pass_and_exit_codes(tmp_path):
    cfg = _write(tmp_path, "v.json", _variance_doc())
    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "v1")]) == 0
    summary = json.loads((tmp_path / "v1" / "variance_summary.json").read_text())
    assert summary["pass"] is True
    # malformed config -> exit 2
    bad = tmp_path / "broken.json"
    bad.write_text("[1, 2]")
    assert main(["verify-variance", "--config", str(bad), "--out", str(tmp_path / "v2")]) == 2


def test_cli_verify_variance_passes_on_a_kernel_of_tiny_values(tmp_path):
    # a table of order 1e-11 is not completely degenerate: its corollary2 bound is not the empty sum 0
    doc = _variance_doc()
    doc["kernel_fn"] = {"name": "table", "degree": 2, "params": {"values": [[3e-11, 1e-11], [1e-11, 2e-11]]}}
    doc["experiment"].update(n_grid=[6, 10], bounds=[{"name": "corollary2"}])
    cfg = _write(tmp_path, "tiny.json", doc)
    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    with open(tmp_path / "v" / "variance.csv") as fh:
        assert all(float(row["bound"]) > float(row["estimate"]) > 0 for row in csv.DictReader(fh))


def test_cli_verify_variance_jobs_byte_identical(tmp_path, monkeypatch):
    # a budget that holds the count of 40 of the 300 replicates beside all their seeds and
    # results cuts them into 8 blocks; --jobs 4 still parses and changes nothing
    cfg = _write(tmp_path, "v.json", _variance_doc())
    budget = count_cells(40, 40, 2, 2, 1, 2, replicates=300)
    blocks, sample_paths = [], montecarlo.sample_paths

    def counted(kernel, mu0, n, seeds):
        blocks.append(len(seeds))
        return sample_paths(kernel, mu0, n, seeds)

    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "whole")]) == 0
    monkeypatch.setattr(montecarlo, "sample_paths", counted)
    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "cut"), "--budget", str(budget),
                 "--jobs", "4"]) == 0
    assert blocks == [40] * 7 + [20]
    whole = (tmp_path / "whole" / "variance.csv").read_bytes()
    assert b"monte-carlo" in whole and whole == (tmp_path / "cut" / "variance.csv").read_bytes()


def test_importing_the_cli_leaves_numpy_random_unimported():
    # numpy loads numpy.random on first attribute access; a command that samples nothing has no use for it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    script = "import sys, ustatmc.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout.splitlines()[-1] == "False", done.stdout + done.stderr


def test_cli_verify_variance_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on its first call; a sampling run has no use for it
    doc = _variance_doc()
    doc["experiment"].update(n_grid=[30, 3000], replicates=20, bounds=[{"name": "theorem1"}])
    cfg = _write(tmp_path, "v.json", doc)
    # and --jobs starts no thread pool: the blocks run in order in the main thread
    script = ("import sys, threading; from ustatmc.cli import main; "
              f"status = main(['verify-variance', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}, "
              "'--jobs', '4']); "
              "print(status, 'numpy.ma' in sys.modules, 'concurrent.futures' in sys.modules, "
              "threading.active_count())")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout.splitlines()[-1] == "0 False False 1", done.stdout + done.stderr
    rows = list(csv.DictReader((tmp_path / "out" / "variance.csv").open()))
    assert [row["l2_kind"] for row in rows] == ["monte-carlo"] * 2


def test_cli_verify_slln_threshold_and_exit(tmp_path):
    doc = {
        "chain": TWO_STATE,
        "kernel_fn": {"name": "product", "degree": 2},
        "experiment": {"replicates": 2, "master_seed": 20240, "n_grid": []},
        "slln": {"n_max": 4000, "delta": 0.1, "threshold": 0.05},
    }
    cfg = _write(tmp_path, "s.json", doc)
    assert main(["verify-slln", "--config", cfg, "--out", str(tmp_path / "s1")]) == 0
    rows = (tmp_path / "s1" / "slln.csv").read_text().splitlines()
    assert rows[0] == "n,u_n,target,abs_error"
    doc["slln"]["threshold"] = 1e-9  # unattainably tight -> violation exit code
    cfg2 = _write(tmp_path, "s2.json", doc)
    assert main(["verify-slln", "--config", cfg2, "--out", str(tmp_path / "s2")]) == 1


def test_cli_verify_slln_over_budget_exits_3_before_sampling(tmp_path, monkeypatch, capsys):
    doc = {
        "chain": TWO_STATE,
        "kernel_fn": {"name": "product", "degree": 2},
        "experiment": {"replicates": 2, "master_seed": 20240, "n_grid": []},
        "slln": {"n_max": 4000, "checkpoints": [100, 4000]},
    }
    cfg = _write(tmp_path, "s.json", doc)
    # the one charge of counting one 4000-step path at two checkpoints
    charge = count_cells(1, 4000, 2, 2, 1, 2)
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "simulate", lambda *a, **k: pytest.fail("sampling started over the budget"))
        assert main(["verify-slln", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--budget", str(charge - 1)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("could not check:") and f"budget {charge - 1}" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    # a budget of exactly the charge runs
    assert main(["verify-slln", "--config", cfg, "--out", str(tmp_path / "out"), "--budget", str(charge)]) == 0
    assert (tmp_path / "out" / "slln.csv").exists()


def test_cli_verify_slln_reads_only_the_strong_law_inputs(tmp_path, monkeypatch, capsys):
    # a chain too sticky for a rho table of 64 steps to show decay, and experiment and profile
    # sections the strong-law run never reads: no profile is certified and none of them is refused
    def no_profile(*args, **kwargs):
        raise AssertionError("verify-slln certified a mixing profile")

    for module in (config, markov):
        monkeypatch.setattr(module, "certify_rho", no_profile)
    stay = 1.0 - 1e-13
    doc = {
        "chain": {"states": [-1.0, 1.0], "matrix": [[stay, 1e-13], [1e-13, stay]]},
        "kernel_fn": {"name": "product", "degree": 2},
        "profile": {"k_max": 0},
        "experiment": {"bounds": [{"name": "nope"}], "n_grid": "not a list", "replicates": 1, "master_seed": 7},
        "slln": {"n_max": 1000},
    }
    cfg = _write(tmp_path, "sticky.json", doc)
    assert main(["verify-slln", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("verify-slln: n=1000 ")
    summary = json.loads((tmp_path / "out" / "slln_summary.json").read_text())
    assert summary["seed"] == 7 and summary["pass"]


def test_cli_verify_slln_jobs_byte_identical(tmp_path):
    doc = {
        "chain": TWO_STATE,
        "kernel_fn": {"name": "product", "degree": 2},
        "experiment": {"replicates": 2, "master_seed": 20240, "n_grid": []},
        "slln": {"n_max": 4000, "delta": 0.1},
    }
    cfg = _write(tmp_path, "s.json", doc)
    assert main(["verify-slln", "--config", cfg, "--out", str(tmp_path / "a"), "--jobs", "1"]) == 0
    assert main(["verify-slln", "--config", cfg, "--out", str(tmp_path / "b"), "--jobs", "5"]) == 0
    assert (tmp_path / "a" / "slln.csv").read_bytes() == (tmp_path / "b" / "slln.csv").read_bytes()


def test_cli_check_propositions(tmp_path):
    doc = {"propositions": {"chains": 1, "size": 3, "m": 2, "i_max": 5, "seed": 11}}
    cfg = _write(tmp_path, "p.json", doc)
    assert main(["check-propositions", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    report = json.loads((tmp_path / "p" / "propositions.json").read_text())
    assert report["pass"] is True
    assert report["eq19"]["max_abs_residual"] <= 1e-11


BAD_PROPOSITIONS = {
    "zero-p": {"p_values": [0.0]},
    "p-values-string": {"p_values": "ab"},
    "one-state": {"size": 1},
    "degree-zero": {"m": 0},
    "chains-not-int": {"chains": "x"},
    "size-fraction": {"size": 2.9},
    "degree-fraction": {"m": 2.5},
    "chains-bool": {"chains": True},
}


@pytest.mark.parametrize("bad", BAD_PROPOSITIONS.values(), ids=BAD_PROPOSITIONS.keys())
def test_cli_bad_propositions_section_is_config_error(tmp_path, monkeypatch, capsys, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("the proposition grid started before its section was validated")

    for module in (cli, proofs):
        monkeypatch.setattr(module, "proposition_grid_check", no_work)
    cfg = _write(tmp_path, "bad.json", {"propositions": {"chains": 1, "i_max": 3, **bad}})
    assert main(["check-propositions", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "out").exists()


OVERSIZED_GRIDS = {
    "degree-six": {"m": 6},
    "i-max-10000": {"i_max": 10_000},
    # the law cells and the (tuple, split) work fit, but the f_sigma split matrix does not
    "f-sigma-split-matrix": {"size": 4, "m": 5, "i_max": 1},
}


@pytest.mark.parametrize("big", OVERSIZED_GRIDS.values(), ids=OVERSIZED_GRIDS.keys())
def test_cli_oversized_proposition_grid_exits_3_before_any_work(tmp_path, monkeypatch, capsys, big):
    def no_work(*args, **kwargs):
        raise AssertionError("the proposition grid started work before its size was checked")

    for name in ("_splits", "random_ergodic_kernel"):
        monkeypatch.setattr(proofs, name, no_work)
    cfg = _write(tmp_path, "big.json", {"propositions": {"chains": 1, **big}})
    start = time.perf_counter()
    assert main(["check-propositions", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("could not check:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


BAD_SECTIONS = {
    "degree-text": {"kernel_fn": {"name": "product", "degree": "x"}},
    "degree-zero": {"kernel_fn": {"name": "product", "degree": 0}},
    "rbf-bandwidth-zero": {"kernel_fn": {"name": "gaussian-rbf", "degree": 2, "params": {"bandwidth": 0}}},
    "rbf-bandwidth-infinite": {"kernel_fn": {"name": "gaussian-rbf", "degree": 2,
                                             "params": {"bandwidth": float("inf")}}},
    "table-size": {"kernel_fn": {"name": "table", "degree": 1, "params": {"values": [1.0, 2.0, 3.0]}}},
    "n-grid-text": {"experiment": {"n_grid": ["a"], "bounds": [{"name": "theorem1"}]}},
    "n-below-degree": {"experiment": {"n_grid": [1, 20], "bounds": [{"name": "theorem1"}]}},
    "profile-not-object": {"profile": ["certify"]},
    "checkpoint-text": {"slln": {"n_max": 100, "checkpoints": ["a"]}},
    "checkpoint-fraction": {"slln": {"n_max": 100, "checkpoints": [10, 20.5]}},
    "degree-fraction": {"kernel_fn": {"name": "product", "degree": 2.5}},
    "n-grid-fraction": {"experiment": {"n_grid": [10, 20.5], "bounds": [{"name": "theorem1"}]}},
    "n-grid-not-list": {"experiment": {"n_grid": 20, "bounds": [{"name": "theorem1"}]}},
    "replicates-text": {"experiment": {"n_grid": [10], "replicates": "3", "bounds": [{"name": "theorem1"}]}},
    "n-max-fraction": {"slln": {"n_max": 100.5}},
    "bounds-number": {"experiment": {"n_grid": [10], "bounds": 5}},
    "bounds-object": {"experiment": {"n_grid": [10], "bounds": {"name": "theorem1"}}},
    "declared-v-length": {"profile": {"kind": "declared", "v": [1.0, 1.0, 1.0], "m_value": 1.0,
                                      "rho": {"kind": "explicit", "values": [1.0, 0.5], "tail_rate": 0.5}}},
    "dirac-fraction": {"initial": {"dirac": 1.7}},
    "dirac-bool": {"initial": {"dirac": True}},
    "dirac-negative": {"initial": {"dirac": -1}},
    "threshold-text": {"slln": {"n_max": 100, "threshold": "abc"}},
    "threshold-negative": {"slln": {"n_max": 100, "threshold": -1}},
    "threshold-zero": {"slln": {"n_max": 100, "threshold": 0}},
    "threshold-infinite": {"slln": {"n_max": 100, "threshold": float("inf")}},
    "checkpoint-below-degree": {"slln": {"n_max": 100, "checkpoints": [1]}},
    "checkpoint-past-n-max": {"slln": {"n_max": 100000, "checkpoints": [10**9]}},
    "initial-too-long": {"initial": [0.5, 0.25, 0.25]},
    "initial-too-short": {"initial": [1.0]},
    "m-value-negative": {"profile": {"kind": "geometric", "c": 1.0, "varrho": 0.5, "m_value": -1}},
    "m-value-nan": {"profile": {"kind": "geometric", "c": 1.0, "varrho": 0.5, "m_value": float("nan")}},
    "m-value-below-one": {"profile": {"kind": "geometric", "c": 1.0, "varrho": 0.5, "m_value": 0.5}},
    "m-value-bool": {"profile": {"kind": "geometric", "c": 1.0, "varrho": 0.5, "m_value": True}},
    "declared-m-below-one": {"profile": {"kind": "declared", "declared_m": 0.5,
                                         "rho": {"values": [1.0, 0.5], "tail_rate": 0.5}}},
    "n-grid-empty": {"experiment": {"n_grid": [], "bounds": [{"name": "theorem1"}]}},
    "bounds-empty": {"experiment": {"n_grid": [10], "bounds": []}},
    "initial-nan": {"initial": [float("nan"), 1.0]},
    "states-nan": {"chain": {**TWO_STATE, "states": [float("nan"), 1.0]}},
    "matrix-nan": {"chain": {**TWO_STATE, "matrix": [[float("nan"), 0.3], [0.2, 0.8]]}},
    "v-nan": {"chain": {**TWO_STATE, "v": [float("nan"), 1.0]}},
    "v-infinite": {"chain": {**TWO_STATE, "v": [float("inf"), 1.0]}},
    "table-nan": {"kernel_fn": {"name": "table", "degree": 2, "params": {"values": [[float("nan"), 0.0],
                                                                                   [0.0, 1.0]]}}},
    "table-infinite": {"kernel_fn": {"name": "table", "degree": 2, "params": {"values": [[float("inf"), 0.0],
                                                                                        [0.0, 1.0]]}}},
    "explicit-rho-nan": {"profile": {"kind": "explicit", "values": [1.0, float("nan")], "m_value": 1.0}},
    "declared-v-nan": {"profile": {"kind": "declared", "v": [float("nan"), 1.0], "m_value": 1.0,
                                   "rho": {"values": [1.0, 0.5], "tail_rate": 0.5}}},
    # a table of rho(0) alone can never show rho decaying
    "k-max-zero": {"profile": {"k_max": 0}},
}


@pytest.mark.parametrize("command", ["bound", "verify-variance"])
@pytest.mark.parametrize("bad", BAD_SECTIONS.values(), ids=BAD_SECTIONS.keys())
def test_cli_malformed_section_is_config_error(tmp_path, capsys, command, bad):
    cfg = _write(tmp_path, "bad.json", {**_variance_doc(), **bad})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["certify-profile", "bound", "verify-variance"])
def test_cli_k_max_zero_is_config_error_before_the_profile_is_certified(tmp_path, monkeypatch, capsys, command):
    def no_work(*args, **kwargs):
        raise AssertionError("the profile was certified with k_max = 0")

    monkeypatch.setattr(config, "certify_rho", no_work)
    monkeypatch.setattr(cli, "certify_rho", no_work)
    cfg = _write(tmp_path, "k.json", {**_variance_doc(), "profile": {"k_max": 0}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: profile.k_max must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


UNUSABLE_CHECKPOINTS = {
    "below-degree": (2, {"n_max": 100000, "checkpoints": [1]}, "slln.checkpoints has no entry in [m, n_max] = [2,"),
    "past-n-max": (2, {"n_max": 100000, "checkpoints": [10**9]}, "slln.checkpoints has no entry"),
    # no checkpoints listed: the defaults end at n_max, so n_max itself is below the degree
    "n-max-below-degree": (3, {"n_max": 2}, "slln.n_max = 2 is below the kernel degree m = 3"),
}


@pytest.mark.parametrize("degree, slln, message", UNUSABLE_CHECKPOINTS.values(), ids=UNUSABLE_CHECKPOINTS.keys())
def test_cli_unusable_checkpoints_exit_2_from_verify_slln(tmp_path, monkeypatch, capsys, degree, slln, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the strong-law run started before its checkpoints were resolved")

    for module, name in [(cli, "run_slln_experiment"), (montecarlo, "simulate")]:
        monkeypatch.setattr(module, name, no_work)
    doc = {**_variance_doc(), "slln": slln}
    doc["kernel_fn"] = {**doc["kernel_fn"], "degree": degree}
    cfg = _write(tmp_path, "s.json", doc)
    assert main(["verify-slln", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and message in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bound", "verify-variance"])
def test_cli_bad_bound_request_refused_before_profile_is_certified(tmp_path, monkeypatch, capsys, command):
    def no_work(*args, **kwargs):
        raise AssertionError("the profile was certified before the bound requests were validated")

    monkeypatch.setattr(config, "certify_rho", no_work)
    doc = _variance_doc()
    doc["experiment"]["bounds"] = [{"name": "corollary3", "p": True}]
    cfg = _write(tmp_path, "bad.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


WRONG_LENGTH_INITIAL = {"too-long": [0.5, 0.25, 0.25], "too-short": [1.0]}


@pytest.mark.parametrize("initial", WRONG_LENGTH_INITIAL.values(), ids=WRONG_LENGTH_INITIAL.keys())
def test_cli_wrong_length_initial_exit_2_from_simulate(tmp_path, monkeypatch, capsys, initial):
    monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("sampling started with a bad initial law"))
    cfg = _write(tmp_path, "c.json", {"chain": TWO_STATE, "initial": initial, "simulate": {"n": 10}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_could_not_check_exits_3(tmp_path, capsys):
    # a periodic chain has no certified profile: the bounds cannot be evaluated
    doc = {**_variance_doc(), "chain": {"states": [-1.0, 1.0], "matrix": [[0.0, 1.0], [1.0, 0.0]]}}
    cfg = _write(tmp_path, "periodic.json", doc)
    assert main(["bound", "--config", cfg, "--out", str(tmp_path / "b")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("could not check:") and err.count("\n") == 1
    # the exact oracle refuses n = 50, and counting one replicate of 50 steps holds more than
    # its 50 path cells, over --budget 3
    demo = str(CONFIGS / "two_state_variance.json")
    assert main(["verify-variance", "--config", demo, "--out", str(tmp_path / "v"), "--budget", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("could not check:") and err.count("\n") == 1
    assert not (tmp_path / "v").exists()
    # a declared profile without M(mu, V) cannot bound anything
    doc = {**_variance_doc(), "profile": {"kind": "geometric", "c": 1.0, "varrho": 0.5}}
    cfg = _write(tmp_path, "no_m.json", doc)
    for command in ("bound", "verify-variance"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 3
        assert capsys.readouterr().err.startswith("could not check:")


TWENTY_STATES = {"states": [float(x) for x in range(20)], "matrix": [[0.05] * 20] * 20}
OVERSIZED_ARRAYS = {
    # certify_rho would tabulate rho(0..10^9)
    "certified-n-1e9": {"experiment": {"n_grid": [10**9]}},
    # the bounds would read a declared rho(0..10^9)
    "declared-n-1e9": {"experiment": {"n_grid": [10**9]},
                       "profile": {"kind": "geometric", "c": 1.0, "varrho": 0.5, "m_value": 1.0}},
    # the product kernel would be tabulated over 20^7 cells
    "degree-7-on-20-states": {"chain": TWENTY_STATES, "kernel_fn": {"name": "product", "degree": 7}},
}


@pytest.mark.parametrize("command", ["bound", "verify-variance"])
@pytest.mark.parametrize("big", OVERSIZED_ARRAYS.values(), ids=OVERSIZED_ARRAYS.keys())
def test_cli_config_sized_array_exits_3_before_allocating(tmp_path, capsys, command, big):
    doc = _variance_doc()
    doc.update({key: value for key, value in big.items() if key != "experiment"})
    doc["experiment"].update(big.get("experiment", {}))
    cfg = _write(tmp_path, "big.json", doc)
    start = time.perf_counter()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("could not check:") and "tensor budget" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_out_of_memory_exits_3(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_variance_experiment", exhausted)
    cfg = _write(tmp_path, "v.json", _variance_doc())
    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "v")]) == 3
    assert capsys.readouterr().err == "could not check: out of memory\n"


def test_budget_does_not_cap_the_exact_oracle(tmp_path):
    # every n of this grid is exact, so no counting runs and --budget 1 is never consulted
    doc = _variance_doc()
    doc["experiment"]["n_grid"] = [6, 10]
    cfg = _write(tmp_path, "exact.json", doc)
    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "v"), "--budget", "1"]) == 0
    with open(tmp_path / "v" / "variance.csv") as fh:
        assert {row["l2_kind"] for row in csv.DictReader(fh)} == {"exact"}


BAD_OVERRIDES = {"seed-negative": ["--seed", "-1"], "budget-zero": ["--budget", "0"],
                 "seed-2-to-the-64": ["--seed", str(2**64)], "jobs-zero": ["--jobs", "0"],
                 "jobs-negative": ["--jobs", "-3"]}


@pytest.mark.parametrize("command", ["simulate", "certify-profile", "bound", "verify-variance", "verify-slln",
                                     "check-propositions"])
@pytest.mark.parametrize("flag", BAD_OVERRIDES.values(), ids=BAD_OVERRIDES.keys())
def test_cli_bad_seed_or_budget_override_is_config_error(tmp_path, monkeypatch, capsys, command, flag):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the overrides were validated")

    for module, name in [(cli, "simulate"), (markov, "certify_rho"), (cli, "evaluate_bounds"),
                         (cli, "run_variance_experiment"), (cli, "run_slln_experiment"),
                         (cli, "proposition_grid_check")]:
        monkeypatch.setattr(module, name, no_work)
    doc = {**_variance_doc(), "slln": {"n_max": 100}, "propositions": {"chains": 1, "i_max": 3}}
    cfg = _write(tmp_path, "c.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), *flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


COMMANDS = ["simulate", "certify-profile", "bound", "verify-variance", "verify-slln", "check-propositions"]


def _every_command_doc():
    return {**_variance_doc(), "simulate": {"n": 10}, "profile": {"k_max": 16}, "slln": {"n_max": 100},
            "propositions": {"chains": 1, "i_max": 3}}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_out_naming_a_file_is_config_error(tmp_path, monkeypatch, capsys, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for module, name in [(cli, "simulate"), (markov, "certify_rho"), (config, "certify_rho"),
                         (cli, "run_variance_experiment"), (cli, "run_slln_experiment"),
                         (cli, "proposition_grid_check")]:
        monkeypatch.setattr(module, name, no_work)
    out = tmp_path / "out"
    out.write_text("keep")
    cfg = _write(tmp_path, "c.json", _every_command_doc())
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert out.read_text() == "keep"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("failure", ["disk-full", "parent-is-a-file"])
def test_cli_unwritable_out_exits_3(tmp_path, monkeypatch, capsys, command, failure):
    out = tmp_path / "out"
    if failure == "disk-full":
        def full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        for name in ("write_csv", "write_json"):
            monkeypatch.setattr(cli, name, full)
    else:
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    cfg = _write(tmp_path, "c.json", _every_command_doc())
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("could not write:") and err.count("\n") == 1


SEED_ENTRY_POINTS = {
    "master-seed": ("verify-variance", "experiment", "master_seed"),
    "simulate-seed": ("simulate", "simulate", "seed"),
    "propositions-seed": ("check-propositions", "propositions", "seed"),
}


@pytest.mark.parametrize("entry", SEED_ENTRY_POINTS.values(), ids=SEED_ENTRY_POINTS.keys())
def test_seed_of_2_to_the_64_is_config_error(tmp_path, monkeypatch, capsys, entry):
    # --seed is checked over every command by test_cli_bad_seed_or_budget_override_is_config_error
    command, where, key = entry
    for module, name in [(cli, "simulate"), (cli, "run_variance_experiment"), (cli, "proposition_grid_check")]:
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("work started with a seed past 2^64"))
    doc = {**_variance_doc(), "simulate": {"n": 10}, "propositions": {"chains": 1, "i_max": 3}}
    doc[where][key] = 2**64
    cfg = _write(tmp_path, "c.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_largest_seed_is_accepted(tmp_path):
    doc = {"chain": TWO_STATE, "simulate": {"n": 10, "seed": 2**64 - 1}}
    cfg = _write(tmp_path, "c.json", doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", str(2**64 - 1)]) == 0
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (tmp_path / "b" / "trajectory.csv").read_bytes()


def test_integral_float_counts_are_integers():
    doc = _variance_doc()
    doc["kernel_fn"]["degree"] = 2.0
    doc["experiment"].update(n_grid=[20.0, 40], replicates=300.0, budget=1e8)
    config = build_experiment(doc)
    assert config.m == 2 and config.n_grid == [20, 40] and config.replicates == 300
    assert all(type(x) is int for x in (config.m, *config.n_grid, config.replicates, config.budget))


def test_cli_rerun_byte_identical(tmp_path):
    cfg = _write(tmp_path, "v.json", _variance_doc())
    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "r1")]) == 0
    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1" / "variance.csv").read_bytes() == (tmp_path / "r2" / "variance.csv").read_bytes()
