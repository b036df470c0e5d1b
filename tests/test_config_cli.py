import csv
import json

import numpy as np
import pytest

from ustatmc import ConfigError, bounds, montecarlo
from ustatmc.cli import main
from ustatmc.config import SCHEMA, build_chain, build_experiment, build_initial, build_kernel_fn, load_document

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
}


@pytest.mark.parametrize("command", ["bound", "verify-variance"])
@pytest.mark.parametrize("bad", BAD_BOUND_REQUESTS.values(), ids=BAD_BOUND_REQUESTS.keys())
def test_cli_bad_bound_request_is_config_error(tmp_path, monkeypatch, command, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("bound or L2 work started before the requests were validated")

    for module, name in [(bounds, "m_sup"), (montecarlo, "m_sup"), (montecarlo, "exact_l2"),
                         (montecarlo, "estimate_l2")]:
        monkeypatch.setattr(module, name, no_work)
    doc = _variance_doc()
    doc["experiment"]["bounds"] = [{"name": "theorem1"}, bad]
    cfg = _write(tmp_path, "bad.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


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


def test_cli_verify_variance_jobs_byte_identical(tmp_path):
    cfg = _write(tmp_path, "v.json", _variance_doc())
    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "j1"), "--jobs", "1"]) == 0
    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "j4"), "--jobs", "4"]) == 0
    assert (tmp_path / "j1" / "variance.csv").read_bytes() == (tmp_path / "j4" / "variance.csv").read_bytes()


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


def test_cli_rerun_byte_identical(tmp_path):
    cfg = _write(tmp_path, "v.json", _variance_doc())
    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "r1")]) == 0
    assert main(["verify-variance", "--config", cfg, "--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1" / "variance.csv").read_bytes() == (tmp_path / "r2" / "variance.csv").read_bytes()
