"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see every line; tolerances
and runtime limits are asserted, not just reported.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from ustatmc import (
    Distribution,
    OrderedTuple,
    SllnConfig,
    SymmetricKernelFn,
    ExperimentConfig,
    b_q,
    certify_rho,
    corollary3_bound,
    counting_bound,
    d_constant,
    exact_l2,
    f_sigma_values,
    geometric_sum_bound,
    hoeffding_project,
    j_indices,
    joint_law,
    jstar_histogram,
    m_sup,
    product_kernel,
    random_canonical_kernel,
    random_ergodic_kernel,
    run_slln_experiment,
    run_variance_experiment,
    simulate,
    theorem1_bound,
    tilde_law,
    u_statistic,
    verify_hoeffding,
    verify_lemma6,
)
from ustatmc import montecarlo
from ustatmc.cli import main as cli_main
from ustatmc.ustats import count_cells

CHAIN8_SEED = 2024   # criterion 8 master seed (frozen)
SLLN_SEED = 20240    # criterion 13 master seed (frozen)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def _symmetric_table(rng, s, m):
    raw = rng.standard_normal((s,) * m)
    out = np.zeros_like(raw)
    for perm in itertools.permutations(range(m)):
        out += np.transpose(raw, perm)
    return out / math.factorial(m)


def _hoeffding_grid():
    rng = np.random.default_rng(202401)
    for i in range(50):
        kernel = random_ergodic_kernel(5, rng)
        m = 2 if i % 2 == 0 else 3
        n = int(rng.integers(10, 31))
        h = SymmetricKernelFn(_symmetric_table(rng, 5, m))
        path = simulate(kernel, Distribution.uniform(5), n, seed=int(rng.integers(1 << 32)))
        yield kernel, h, path


def test_criterion_01_hoeffding_identity():
    start = time.perf_counter()
    worst = 0.0
    for kernel, h, path in _hoeffding_grid():
        pi = kernel.stationary()
        u = u_statistic(path, h)
        residual = verify_hoeffding(path, h, pi)
        worst = max(worst, residual / (1.0 + abs(u)))
        assert residual <= 1e-10 * (1.0 + abs(u))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-10 and elapsed < 30.0,
            f"50 configs, worst scaled residual {worst:.3e}, {elapsed:.1f}s (< 30s)")


def test_criterion_02_projection_canonicity():
    worst = 0.0
    for kernel, h, _ in _hoeffding_grid():
        pi = kernel.stationary()
        for c in range(1, h.degree + 1):
            proj = hoeffding_project(h, pi, c)
            integral = np.tensordot(proj.table, pi.weights, axes=([-1], [0]))
            worst = max(worst, float(np.abs(integral).max()))
    _report(2, worst <= 1e-10, f"all prefix integrals against pi, worst {worst:.3e} (tol 1e-10)")


@pytest.fixture(scope="module")
def proposition_grid():
    rng = np.random.default_rng(331)
    grid = []
    tuples = [OrderedTuple(c) for c in itertools.combinations_with_replacement(range(1, 9), 4)]
    for _ in range(3):
        kernel = random_ergodic_kernel(3, rng)
        mu = Distribution.normalized(rng.random(3) + 0.05)
        profile = certify_rho(kernel, np.ones(3), k_max=9)
        h = random_canonical_kernel(kernel, 2, rng)
        laws = {}
        for tup in tuples:
            laws[tup.indices] = (
                joint_law(mu, kernel, tup.indices),
                tilde_law(mu, kernel, tup),
                j_indices(tup)[1],
            )
        grid.append({"kernel": kernel, "mu": mu, "profile": profile, "h": h, "laws": laws})
    return grid


def test_criterion_03_tilted_moment_identity(proposition_grid):
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for entry in proposition_grid:
        values = f_sigma_values([tilted for _, tilted, _ in entry["laws"].values()], entry["h"])
        # one column per split of the 4 positions into two pairs, each standing for 8 of the 24 sigma
        assert values.shape == (len(entry["laws"]), 3)
        worst = max(worst, float(np.abs(values).max()))
        count += values.size * 8
    elapsed = time.perf_counter() - start
    _report(3, worst <= 1e-11 and elapsed < 120.0,
            f"{count} (I, sigma) pairs on 3 chains, worst |E~[f_sigma]| {worst:.3e} (tol 1e-11), {elapsed:.1f}s (< 2min)")


def test_criterion_04_proposition5(proposition_grid):
    violations = 0
    worst_ratio = 0.0
    count = 0
    for entry in proposition_grid:
        m_value = m_sup(entry["mu"], entry["profile"], entry["kernel"])
        for true_law, tilted, j_star in entry["laws"].values():
            tv = float(np.abs(true_law - tilted).sum())
            bound = 4.0 * entry["profile"].rho_at(j_star) * m_value
            count += 1
            if tv > bound:
                violations += 1
            if bound > 0:
                worst_ratio = max(worst_ratio, tv / bound)
    _report(4, violations == 0,
            f"{count} tuples exhaustively, zero violations, worst tv/bound {worst_ratio:.3f}")


def test_criterion_05_proposition7(proposition_grid):
    violations = 0
    count = 0
    for entry in proposition_grid:
        h = entry["h"]
        m_value = m_sup(entry["mu"], entry["profile"], entry["kernel"])
        sup_sq = h.sup_norm() ** 2
        d_sq = {p: d_constant(p, m_value, b_q(h, entry["profile"], 2 * (p + 1))) ** 2 for p in (0.5, 1.0)}
        for true_law, _, j_star in entry["laws"].values():
            rho_j = entry["profile"].rho_at(j_star)
            bound1 = 4.0 * m_value * rho_j * sup_sq
            bound2 = {p: 4.0 * d_sq[p] * rho_j ** (p / (p + 1.0)) for p in (0.5, 1.0)}
            for lhs in np.abs(f_sigma_values([true_law], h)[0]):
                count += 8  # one split column stands for 8 of the 24 sigma
                if lhs > bound1 or any(lhs > bound2[p] for p in (0.5, 1.0)):
                    violations += 1
    _report(5, violations == 0, f"{count} (I, sigma) instances, both certificates, zero violations")


def test_criterion_06_lemma6_randomized():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    violations = 0
    for _ in range(1000):
        xi = Distribution.normalized(rng.random(10) + 1e-4)
        xi_p = Distribution.normalized(rng.random(10) + 1e-4)
        f = rng.standard_normal(10) * rng.uniform(0.1, 25.0)
        p = float(rng.choice([0.5, 1.0, 2.0]))
        lhs, rhs = verify_lemma6(xi, xi_p, f, p)
        if lhs > rhs * (1.0 + 1e-12):
            violations += 1
    elapsed = time.perf_counter() - start
    _report(6, violations == 0 and elapsed < 5.0,
            f"1000 randomized instances, zero violations, {elapsed:.2f}s (< 5s)")


def test_criterion_07_theorem1_exact_regime(
    two_state_kernel, two_state_profile, mu_dirac0, canonical_product_h
):
    sup_h = canonical_product_h.sup_norm()
    m_val = m_sup(mu_dirac0, two_state_profile, two_state_kernel)
    worst_ratio = 0.0
    ok = True
    for n in range(2, 13):
        exact = exact_l2(mu_dirac0, two_state_kernel, canonical_product_h, n, 2)
        bound = theorem1_bound(n, 2, two_state_profile, m_val, sup_h, 2)
        ok &= exact <= bound
        worst_ratio = max(worst_ratio, exact / bound)
    _report(7, ok and worst_ratio < 0.2,
            f"n in 2..12 exact_l2 <= bound, worst exact/bound ratio {worst_ratio:.4f} (< 0.2)")


def test_criterion_08_theorem1_statistical_regime(
    two_state_kernel, two_state_profile, mu_dirac0, canonical_product_h
):
    start = time.perf_counter()
    config = ExperimentConfig(
        kernel=two_state_kernel, mu0=mu_dirac0, profile=two_state_profile,
        h=canonical_product_h, n_grid=[50, 100, 200, 400],
        replicates=2000, master_seed=CHAIN8_SEED, bounds=[{"name": "theorem1"}],
    )
    rows = run_variance_experiment(config)
    ok = all(r["l2_kind"] == "monte-carlo" and r["pass"] for r in rows)
    points = [r["estimate"] for r in rows]
    slope = float(np.polyfit(np.log([50, 100, 200, 400]), np.log(points), 1)[0])
    elapsed = time.perf_counter() - start
    _report(8, ok and -1.2 <= slope <= -0.8 and elapsed < 120.0,
            f"R=2000 seed={CHAIN8_SEED}: point+3se <= bound at every n, slope {slope:.3f} in [-1.2,-0.8], "
            f"{elapsed:.1f}s (< 2min)")


def _additive_plus_product_kernel(kernel):
    f = kernel.states
    table = f[:, None] + f[None, :] + f[:, None] * f[None, :]
    return SymmetricKernelFn(table)


def test_criterion_09_corollary2_statistical(two_state_kernel, two_state_profile, mu_dirac0):
    h = _additive_plus_product_kernel(two_state_kernel)
    config = ExperimentConfig(
        kernel=two_state_kernel, mu0=mu_dirac0, profile=two_state_profile,
        h=h, n_grid=[50, 100, 200, 400], replicates=2000,
        master_seed=CHAIN8_SEED, bounds=[{"name": "corollary2"}],
    )
    rows = run_variance_experiment(config)
    # binom(50, 2)^2 already exceeds the exact-oracle budget: Monte Carlo on the whole grid
    ok = all(r["statistic"] == "u_centered" and r["l2_kind"] == "monte-carlo" and r["pass"] for r in rows)
    worst = min(r["margin"] for r in rows)
    _report(9, ok, f"centered point+3se <= corollary2 bound on the grid, worst margin {worst:.4f}")


def test_criterion_10_corollary3(two_state_kernel, two_state_profile, mu_dirac0, canonical_product_h):
    p = 1.0
    bq4 = b_q(canonical_product_h, two_state_profile, 2 * (p + 1))  # exact B_4
    m_val = m_sup(mu_dirac0, two_state_profile, two_state_kernel)
    ok = True
    for n in range(2, 13):
        exact = exact_l2(mu_dirac0, two_state_kernel, canonical_product_h, n, 2)
        ok &= exact <= corollary3_bound(n, 2, two_state_profile, m_val, bq4, p, 2)
    config = ExperimentConfig(
        kernel=two_state_kernel, mu0=mu_dirac0, profile=two_state_profile,
        h=canonical_product_h, n_grid=[50, 100, 200, 400], replicates=2000,
        master_seed=CHAIN8_SEED, bounds=[{"name": "corollary3", "p": p}],
    )
    ok &= all(r["pass"] for r in run_variance_experiment(config))
    _report(10, ok, f"B4={bq4:.4f} exact: bound >= exact_l2 (n<=12) and >= point+3se on the grid")


def test_criterion_11_geometric_remark():
    violations = 0
    for m in (1, 2, 3):
        for varrho in (0.2, 0.5, 0.8, 0.9, math.exp(-m)):
            bound = geometric_sum_bound(varrho, m)
            k = np.arange(10_001, dtype=float)
            partial = np.cumsum((k + 1.0) ** m * varrho**k)
            if float(partial.max()) > bound:
                violations += 1
    _report(11, violations == 0, "15 (varrho, m) pairs, partial sums to n=1e4, zero violations")


def test_criterion_12_counting_bound():
    ok = True
    for n in range(1, 11):
        for m in (1, 2):
            hist = jstar_histogram(n, m)
            ok &= sum(hist.values()) == math.comb(n + 2 * m - 1, 2 * m)
            ok &= all(cnt <= counting_bound(n, m, k) for k, cnt in hist.items())
    _report(12, ok, "n <= 10, m in {1,2}: buckets within 2^m n^m (k+1)^m, totals = binom(n+2m-1, 2m)")


def test_criterion_13_slln(two_state_kernel, two_state_profile, mu_dirac0):
    start = time.perf_counter()
    h = product_kernel(2).tabulated(two_state_kernel.states)  # h(x, y) = xy on {-1, +1}
    config = ExperimentConfig(
        kernel=two_state_kernel, mu0=mu_dirac0, profile=two_state_profile,
        h=h, n_grid=[10], replicates=2, master_seed=SLLN_SEED,
        slln=SllnConfig(n_max=100_000),
    )
    result = run_slln_experiment(config)
    errs = [row["abs_error"] for row in result["rows"]]
    final_ok = errs[-1] < 0.01
    shrink_ok = max(errs[-3:]) < max(errs[:3])
    elapsed = time.perf_counter() - start
    _report(13, final_ok and shrink_ok and elapsed < 60.0,
            f"seed={SLLN_SEED}: final error {errs[-1]:.5f} (< 0.01), last-3 max {max(errs[-3:]):.5f} "
            f"< first-3 max {max(errs[:3]):.5f}, {elapsed:.1f}s (< 1min)")


def test_criterion_14_jobs_determinism(tmp_path, monkeypatch):
    variance_doc = {
        "chain": {"states": [-1.0, 1.0], "matrix": [[0.7, 0.3], [0.2, 0.8]]},
        "initial": {"dirac": 0},
        "kernel_fn": {"name": "product", "degree": 2, "params": {"center": "pi"}},
        "experiment": {"n_grid": [50, 100, 200, 400], "replicates": 2000,
                       "master_seed": CHAIN8_SEED, "bounds": [{"name": "theorem1"}]},
    }
    slln_doc = {
        "chain": {"states": [-1.0, 1.0], "matrix": [[0.7, 0.3], [0.2, 0.8]]},
        "initial": {"dirac": 0},
        "kernel_fn": {"name": "product", "degree": 2},
        "experiment": {"replicates": 2, "master_seed": SLLN_SEED, "n_grid": []},
        "slln": {"n_max": 100_000, "delta": 0.1, "threshold": 0.01},
    }
    vpath = tmp_path / "variance.json"
    vpath.write_text(json.dumps(variance_doc))
    spath = tmp_path / "slln.json"
    spath.write_text(json.dumps(slln_doc))
    # verify-variance: the whole 2000 replicates in one block against a --budget that holds the
    # count of 300 of them beside all their seeds and results, so 7 blocks; --jobs 3 still parses
    blocks, sample_paths = [], montecarlo.sample_paths

    def counted(kernel, mu0, n, seeds):
        blocks.append(len(seeds))
        return sample_paths(kernel, mu0, n, seeds)

    monkeypatch.setattr(montecarlo, "sample_paths", counted)
    cut = str(count_cells(300, 400, 2, 2, 1, 4, replicates=2000))
    outputs = {}
    for jobs, budget in (("1", []), ("3", ["--budget", cut])):
        vout = tmp_path / f"v{jobs}"
        sout = tmp_path / f"s{jobs}"
        assert cli_main(["verify-variance", "--config", str(vpath), "--out", str(vout), "--jobs", jobs, *budget]) == 0
        assert cli_main(["verify-slln", "--config", str(spath), "--out", str(sout), "--jobs", jobs]) == 0
        outputs[jobs] = (
            (vout / "variance.csv").read_bytes(),
            (sout / "slln.csv").read_bytes(),
        )
    assert blocks == [2000] + [300] * 6 + [200]
    same = outputs["1"] == outputs["3"]
    _report(14, same, "criterion 8 rerun in 1 vs 7 replicate blocks and criterion 13 rerun at --jobs 1 vs 3: "
                      "byte-identical CSVs")
