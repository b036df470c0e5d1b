"""Every cap, fixed or ``--budget``, is checked by one rule,
``errors.refuse_over``.  Each call of it, driven past its cap, must raise
``BudgetExceeded`` naming the allocation, its size and the cap, before the
allocation is made: each case would otherwise allocate well over 1 MiB."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ustatmc import (
    BudgetExceeded,
    Distribution,
    ExperimentConfig,
    ExplicitRho,
    FiniteKernel,
    OrderedTuple,
    SllnConfig,
    SymmetricKernelFn,
    b_q,
    certify_rho,
    cli,
    errors,
    exact_l2,
    joint_law,
    jstar_histogram,
    product_kernel,
    proposition_grid_check,
    replicate_u_grid,
    run_slln_experiment,
    sample_paths,
    tilde_law,
    tuple_sums,
)
from ustatmc import markov, montecarlo, proofs
from ustatmc.ustats import count_cells

SRC = Path(__file__).resolve().parent.parent / "src" / "ustatmc"
TWO_STATE = FiniteKernel([-1.0, 1.0], [[0.7, 0.3], [0.2, 0.8]])
H2 = SymmetricKernelFn(np.array([[1.0, -0.5], [-0.5, 2.0]]))

CASES = {}


def case(build):
    """Register ``build(tmp_path, fixed_cap)``: it prepares its inputs
    untraced, sets the fixed cap through ``fixed_cap`` where the call reads
    it, and returns (call, allocation named, size, cap)."""
    CASES[build.__name__] = build
    return build


def _uniform(s):
    return FiniteKernel(np.arange(s, dtype=float), np.full((s, s), 1.0 / s))


@case
def explicit_rho_table(tmp_path, fixed_cap):
    rho = ExplicitRho(np.array([1.0, 0.5]), 0.5)
    return lambda: rho.table(10**6), "rho(0..n) cells", 10**6 + 1, fixed_cap(10**6)


@case
def certify_rho_table(tmp_path, fixed_cap):
    return lambda: certify_rho(TWO_STATE, np.ones(2), 10**6), "rho(0..k_max) cells", 10**6 + 1, fixed_cap(10**6)


@case
def certify_rho_dirac_block(tmp_path, fixed_cap):
    # one step of 400 Diracs over 400 states is 160 000 cells, at least S^2 whatever k_max
    kernel = _uniform(400)
    return lambda: certify_rho(kernel, np.ones(400), 1), "Dirac block", 400**2, fixed_cap(400**2 - 1)


@case
def sample_paths_next_state_table(tmp_path, fixed_cap):
    # 2 states x (3 distinct CDF values + 1); the store would then take 2 MB
    return (lambda: sample_paths(TWO_STATE, Distribution.uniform(2), 2 * 10**6, [1]), "next-state table", 8,
            fixed_cap(7))


@case
def kernel_table(tmp_path, fixed_cap):
    return lambda: product_kernel(6).tabulated(range(10)), "kernel table", 10**6, fixed_cap(10**6 - 1)


@case
def tuple_sums_count(tmp_path, fixed_cap):
    # the symmetry check alone would take two 30^4-cell temporaries
    table = product_kernel(4).tabulated(range(30)).table
    charge = count_cells(1, 10, 30, 4)
    path = np.zeros(10, dtype=np.int8)
    return lambda: tuple_sums(path, [table], [10], charge - 1), "cells to count 1 path(s)", charge, charge - 1


@case
def tuple_count_int64(tmp_path, fixed_cap):
    # binom(300000, 4) > 2^63: int64 counts could wrap
    path = np.broadcast_to(np.int64(0), (300_000,))
    bound = 4 * math.comb(300_000, 4)
    return (lambda: tuple_sums(path, [np.zeros((1,) * 4)], [300_000]), "int64 tuple-count bound 4*binom(300000, 4)", bound,
            2**63 - 1)


@case
def replicate_u_grid_count(tmp_path, fixed_cap):
    # the result array alone would hold 200 000 cells
    replicates = 200_000
    charge = count_cells(1, 4, 2, 2, 1, 1, replicates)
    return (lambda: replicate_u_grid(TWO_STATE, Distribution.uniform(2), [H2], [4], replicates, 1,
                                     budget=charge - 1),
            "cells to count 1 path(s)", charge, charge - 1)


@case
def slln_count(tmp_path, fixed_cap):
    n = 2 * 10**6
    charge = count_cells(1, n, 2, 2, 1, 1)
    config = ExperimentConfig(TWO_STATE, Distribution.uniform(2), certify_rho(TWO_STATE, np.ones(2), 8), H2, [], 2, 5,
                              slln=SllnConfig(n, [n]), budget=charge - 1)
    return lambda: run_slln_experiment(config), "cells to count 1 path(s)", charge, charge - 1


def _oracle_inputs():
    # 16 states at m = 2: the second moments would take 16 * 153^2 cells, 3 MB
    kernel = _uniform(16)
    return kernel, Distribution.uniform(16), product_kernel(2).tabulated(range(16))


@case
def exact_l2_pairs(tmp_path, fixed_cap):
    kernel, mu, h = _oracle_inputs()
    pairs = math.comb(5, 2) ** 2
    return lambda: exact_l2(mu, kernel, h, 5, 2, pairs - 1), "binom(n,m)^2", pairs, pairs - 1


@case
def exact_l2_cells(tmp_path, fixed_cap):
    kernel, mu, h = _oracle_inputs()
    cells = 16 * 153**2
    return lambda: exact_l2(mu, kernel, h, 5, 2), "second-moment cells", cells, fixed_cap(cells - 1)


@case
def b_q_table(tmp_path, fixed_cap):
    h = SymmetricKernelFn(np.ones((2,) * 18))
    profile = certify_rho(TWO_STATE, np.ones(2), 8)
    return lambda: b_q(h, profile, 2.0), "B_q table", 2**18, fixed_cap(2**18 - 1)


@case
def joint_law_cells(tmp_path, fixed_cap):
    kernel, mu = _uniform(10), Distribution.uniform(10)
    return lambda: joint_law(mu, kernel, range(6)), "joint-law cells", 10**6, fixed_cap(10**6 - 1)


@case
def tilde_law_cells(tmp_path, fixed_cap):
    kernel, mu = _uniform(10), Distribution.uniform(10)
    tup = OrderedTuple((1, 2, 3, 4, 5, 6))
    return lambda: tilde_law(mu, kernel, tup), "tilted-law cells", 10**6, fixed_cap(10**6 - 1)


@case
def jstar_enumeration(tmp_path, fixed_cap):
    cells = math.comb(35, 6) * 6
    return lambda: jstar_histogram(30, 3), "j* enumeration", cells, fixed_cap(cells - 1)


@case
def proposition_grid(tmp_path, fixed_cap):
    # the f_sigma split matrix, binom(10, 5) / 2 * 2^10 cells, and a block's 4 laws of 2^10 cells a tuple
    held = (math.comb(10, 5) // 2 + 4 * (proofs._BLOCK_CELLS // 2**10)) * 2**10
    return (lambda: proposition_grid_check(num_chains=1, size=2, m=5, i_max=1), "f_sigma cells", held,
            fixed_cap(held - 1))


@case
def simulate_path(tmp_path, fixed_cap):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"chain": {"states": [-1.0, 1.0], "matrix": [[0.7, 0.3], [0.2, 0.8]]},
                                  "simulate": {"n": 4 * 10**6}}))
    args = cli._parser().parse_args(["simulate", "--config", str(config), "--out", str(tmp_path / "out"),
                                     "--budget", "3999999"])
    return lambda: cli.cmd_simulate(args), "simulate.n path cells", 4 * 10**6, 3_999_999


@pytest.mark.parametrize("name", CASES)
def test_every_call_of_the_rule_refuses_before_allocating(name, tmp_path, monkeypatch):
    def fixed_cap(cap):
        monkeypatch.setattr(errors, "TENSOR_BUDGET", cap)
        return cap

    call, what, size, cap = CASES[name](tmp_path, fixed_cap)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as refusal:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = str(refusal.value)
    assert what in message and f"= {size} exceeds" in message and message.endswith(f"budget {cap}"), message
    assert peak < 2**20
    assert not (tmp_path / "out").exists()


def test_each_call_of_the_rule_has_a_case():
    calls = sum(len(re.findall(r"\brefuse_over\(", path.read_text())) for path in SRC.glob("*.py"))
    assert calls - 1 == len(CASES)  # less the rule's own definition


@pytest.mark.parametrize("command, doc", [
    # m = 3 at n = 3 * 10^6: the path alone would take 3 MB, and sampling it about 0.17 s
    ("verify-slln", {"kernel_fn": {"name": "product", "degree": 3}, "slln": {"n_max": 3 * 10**6}}),
    # m = 6 at n = 3300, where one replicate's path is small but its counts could wrap
    ("verify-variance", {"kernel_fn": {"name": "product", "degree": 6},
                         "experiment": {"n_grid": [3300], "bounds": [{"name": "theorem1"}]}}),
])
def test_int64_tuple_count_is_refused_before_any_path_is_drawn(command, doc, tmp_path, monkeypatch, capsys):
    def no_path(*args, **kwargs):
        pytest.fail("a path was drawn before the int64 refusal")

    monkeypatch.setattr(markov, "sample_paths", no_path)
    monkeypatch.setattr(montecarlo, "sample_paths", no_path)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"chain": {"states": [-1.0, 1.0], "matrix": [[0.7, 0.3], [0.2, 0.8]]}, **doc}))
    tracemalloc.start()
    try:
        status = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 3
    assert "int64 tuple-count bound" in capsys.readouterr().err
    assert peak < 2**20
    assert not (tmp_path / "out").exists()
