"""The one sampler and the one counting engine against naive oracles, and
the budget checks that refuse before anything large is allocated."""

import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import multiset_counts_enum, replay_path
from ustatmc import (
    BudgetExceeded, Distribution, FiniteKernel, SllnConfig, SymmetricKernelFn,
    exact_l2, mix64, replicate_u_grid, run_slln_experiment, sample_paths, simulate, tuple_sums, u_statistic,
)
from ustatmc import markov, montecarlo, ustats
from ustatmc.markov import _guide_coder, index_dtype
from ustatmc.ustats import count_cells


@st.composite
def counting_cases(draw):
    s = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 40))
    path = np.array(draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n)))
    checkpoints = sorted(draw(st.sets(st.integers(m, n), min_size=1, max_size=5)))
    # the budget holds this many rows: see _budget
    return s, m, path, checkpoints, draw(st.integers(1, 8))


def _budget(rows, path, tables, checkpoints):
    """The budget that holds exactly ``rows`` paths like ``path`` by the
    engine's one charge, so a one-path count fits it at rows = 1."""
    return count_cells(rows, path.shape[-1], tables[0].shape[0], tables[0].ndim, len(tables), len(checkpoints))


def _multiset_tables(s, m):
    """One symmetric table per multiset of m states, in
    combinations_with_replacement order, holding 1 at every ordering of
    that multiset, so that the kernel sums are the multiset counts."""
    tables = []
    for multiset in itertools.combinations_with_replacement(range(s), m):
        table = np.zeros((s,) * m)
        for index in itertools.permutations(multiset):
            table[index] = 1.0
        tables.append(table)
    return tables


def _symmetric(raw):
    """The table that holds raw at the sorted index of every cell."""
    return raw[tuple(np.sort(np.indices(raw.shape), axis=0))]


@settings(max_examples=150, deadline=None)
@given(counting_cases())
def test_counts_match_enumeration_at_checkpoints(case):
    s, m, path, checkpoints, rows = case
    tables = _multiset_tables(s, m)
    got = tuple_sums(path, tables, checkpoints, _budget(rows, path, tables, checkpoints))
    assert got.shape == (len(tables), len(checkpoints))
    for c, counts in zip(checkpoints, got.T):
        assert np.array_equal(counts, multiset_counts_enum(path[:c], s, m))
    whole = tuple_sums(path, tables, [path.size])[:, 0]
    assert np.array_equal(whole, multiset_counts_enum(path, s, m))


@settings(max_examples=100, deadline=None)
@given(counting_cases(), st.data())
def test_one_path_sums_match_a_one_row_batch(case, data):
    s, m, path, checkpoints, rows = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tables = [_symmetric(rng.normal(size=(s,) * m)), _symmetric(rng.normal(size=(s,) * m))]
    budget = _budget(rows, path, tables, checkpoints)
    one = tuple_sums(path, tables, checkpoints, budget)
    batch = tuple_sums(path[None, :], tables, checkpoints, budget)
    assert one.shape == (2, len(checkpoints)) and batch.shape == (2, len(checkpoints), 1)
    assert one.tobytes() == batch[..., 0].tobytes()


@st.composite
def checkpoint_runs(draw):
    """A path, checkpoints with adjacent pairs among them (so a stretch
    between two checkpoints may be one step), and a budget of 1 to 3 rows
    (see _budget)."""
    s = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 1, 120 if m < 3 else 40))
    path = np.array(draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n)))
    marks = draw(st.sets(st.integers(m, n - 1), max_size=6))
    checkpoints = sorted(marks | {c + 1 for c in marks if draw(st.booleans())} | {n})
    return s, m, path, checkpoints, draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(checkpoint_runs())
def test_checkpoints_with_adjacent_pairs_match_one_row_batch_and_enumeration(case):
    # the stretches of the path between adjacent checkpoints, one path against its one-row batch
    s, m, path, checkpoints, rows = case
    tables = _multiset_tables(s, m)
    one = tuple_sums(path, tables, checkpoints, _budget(rows, path, tables, checkpoints))
    assert one.tobytes() == tuple_sums(path[None, :], tables, checkpoints)[..., 0].tobytes()
    for c, counts in zip(checkpoints, one.T):
        assert np.array_equal(counts, multiset_counts_enum(path[:c], s, m))


@settings(max_examples=100, deadline=None)
@given(counting_cases(), st.data())
def test_chen_identity_on_random_splits(case, data):
    # Chen's identity for multiset counts: an increasing tuple of a concatenation P Q is a
    # tuple of P followed by one of Q, so N_A(P Q) = sum_{B + C = A} N_B(P) N_C(Q), over
    # multisets B and C of every size; each piece is counted by the engine at every degree
    s, m, path, _, _ = case
    n = path.size
    bounds = [0, *sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1))), n] if n > 1 else [0, 1]
    acc = {(): 1}
    for a, b in zip(bounds, bounds[1:]):
        piece = {(): 1}
        for degree in range(1, min(m, b - a) + 1):
            sums = tuple_sums(path[a:b], _multiset_tables(s, degree), [b - a])[:, 0]
            piece.update(zip(itertools.combinations_with_replacement(range(s), degree), sums))
        joined = {}
        for (left, x), (right, y) in itertools.product(acc.items(), piece.items()):
            if len(left) + len(right) <= m:
                key = tuple(sorted(left + right))
                joined[key] = joined.get(key, 0) + x * y
        acc = joined
    multisets = itertools.combinations_with_replacement(range(s), m)
    assert np.array_equal([acc.get(a, 0) for a in multisets], multiset_counts_enum(path, s, m))


@settings(max_examples=50, deadline=None)
@given(counting_cases(), st.integers(1, 5))
def test_batch_counts_match_enumeration(case, rows):
    s, m, path, _, _ = case
    batch = np.array([np.roll(path, k) for k in range(rows)])
    got = tuple_sums(batch, _multiset_tables(s, m), [path.size])
    for row, counts in zip(batch, got[:, 0].T):
        assert np.array_equal(counts, multiset_counts_enum(row, s, m))


@settings(max_examples=100, deadline=None)
@given(counting_cases(), st.integers(1, 4), st.data())
def test_sums_within_the_float_bound_of_exact(case, rows, data):
    # a sum of K = binom(S + m - 1, m) products N_A h(A), in any order and with or without
    # fused multiply-adds, is within gamma_K * sum_A |N_A h(A)| of the exact sum
    # (N_A < 2^53 converts exactly), gamma_K = K u / (1 - K u)
    s, m, path, checkpoints, budget_rows = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tables = [_symmetric(rng.normal(size=(s,) * m) * 10.0 ** rng.integers(-3, 4)) for _ in range(2)]
    batch = np.array([np.roll(path, 3 * k) for k in range(rows)])
    got = tuple_sums(batch, tables, checkpoints)
    k = math.comb(s + m - 1, m)
    u = Fraction(1, 2**53)
    gamma = k * u / (1 - k * u)
    multisets = list(itertools.combinations_with_replacement(range(s), m))
    for i, row in enumerate(batch):
        for j, c in enumerate(checkpoints):
            counts = multiset_counts_enum(row[:c], s, m)
            for t, table in enumerate(tables):
                terms = [int(n_a) * Fraction(float(table[a])) for n_a, a in zip(counts, multisets)]
                assert abs(Fraction(float(got[t, j, i])) - sum(terms)) <= gamma * sum(map(abs, terms))
    # the one-path route and any split of the rows give the same bytes
    budget = _budget(budget_rows, path, tables, checkpoints)
    assert tuple_sums(path, tables, checkpoints, budget).tobytes() == got[..., 0].tobytes()
    cut = data.draw(st.integers(0, rows))
    parts = [tuple_sums(part, tables, checkpoints) for part in (batch[:cut], batch[cut:]) if len(part)]
    assert np.concatenate(parts, axis=-1).tobytes() == got.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(3, 12), st.integers(1, 40), st.data())
def test_duplicate_rows_contract_once_with_the_bytes_of_each_row_alone(s, m, n, rows, data):
    # short paths over a few states repeat occupation vectors: most rows copy one of a few
    # paths, and the rest are random
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    few = rng.integers(0, s, size=(data.draw(st.integers(1, 4)), n))
    batch = np.concatenate((few[rng.integers(0, len(few), rows)], rng.integers(0, s, size=(rows // 8, n))))
    tables = [_symmetric(rng.normal(size=(s,) * m)) for _ in range(2)]
    checkpoints = sorted(data.draw(st.sets(st.integers(m, n), min_size=1, max_size=4)))
    contract, contracted = ustats._contract, []

    def spy(counts, *args):
        contracted.append(len(counts))
        return contract(counts, *args)

    with mock.patch.object(ustats, "_contract", spy):
        got = tuple_sums(batch, tables, checkpoints)
    # one call per checkpoint, on each distinct occupation vector once
    assert contracted == [len({tuple(np.bincount(row[:c], minlength=s)) for row in batch}) for c in checkpoints]
    for i, row in enumerate(batch):
        assert tuple_sums(row, tables, checkpoints).tobytes() == got[..., i].tobytes()


def test_engine_refuses_tables_it_cannot_read_by_multiset():
    path = np.array([0, 1, 1, 0, 2])
    asymmetric = np.arange(9.0).reshape(3, 3)
    for tables in ([asymmetric], [np.ones((3, 3)), asymmetric]):
        with pytest.raises(ValueError, match="not symmetric"):
            tuple_sums(path, tables, [5])
        with pytest.raises(ValueError, match="not symmetric"):
            tuple_sums(path[None, :], tables, [5])
    with pytest.raises(ValueError, match="one shape"):
        tuple_sums(path, [np.ones((3, 3)), np.ones((4, 4))], [5])


def test_replicates_beyond_budget_match_at_any_jobs(two_state_kernel):
    # the budget holds the count of 2 replicates of 30 steps beside the seeds and results of
    # all 7, so they go in blocks of 2 rows
    h = SymmetricKernelFn(np.array([1.0, -0.5, 2.0, 0.25])[np.indices((2, 2, 2)).sum(axis=0)])
    mu0 = Distribution.uniform(2)
    whole = replicate_u_grid(two_state_kernel, mu0, [h], [30], 7, 11)[0, 0]
    budget = count_cells(2, 30, 2, 3, replicates=7)
    got = replicate_u_grid(two_state_kernel, mu0, [h], [30], 7, 11, budget=budget)[0, 0]
    assert got.tobytes() == whole.tobytes()


@st.composite
def chains_with_ties(draw):
    """Random chains whose rows and initial law have zero entries, so the
    CDFs have ties."""
    s = draw(st.integers(1, 5))
    weights = st.lists(st.integers(0, 3), min_size=s, max_size=s).filter(any)
    matrix = np.array([draw(weights) for _ in range(s)], dtype=float)
    matrix /= matrix.sum(axis=1, keepdims=True)
    mu0 = Distribution.normalized(draw(weights))
    return FiniteKernel(np.arange(s, dtype=float), matrix), mu0


@settings(max_examples=100, deadline=None)
@given(
    chains_with_ties(),
    st.integers(1, 300),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
)
def test_sampler_matches_per_step_replay(chain, n, seeds):
    kernel, mu0 = chain
    paths = sample_paths(kernel, mu0, n, seeds)
    assert paths.shape == (len(seeds), n)
    for row, seed in zip(paths, seeds):
        assert np.array_equal(simulate(kernel, mu0, n, seed), row)
        assert row.tolist() == replay_path(kernel.matrix, mu0.weights, n, seed)


def test_sampler_many_rows_match_replay():
    # enough rows that every step advances all replicates at once
    rng = np.random.default_rng(3)
    matrix = rng.random((4, 4)) * (rng.random((4, 4)) > 0.3) + np.eye(4) * 0.01
    kernel = FiniteKernel(np.arange(4.0), matrix / matrix.sum(axis=1, keepdims=True))
    mu0 = Distribution.uniform(4)
    seeds = [int(x) for x in rng.integers(0, 2**63, 200)]
    paths = sample_paths(kernel, mu0, 37, seeds)
    for row, seed in zip(paths, seeds):
        assert row.tolist() == replay_path(kernel.matrix, mu0.weights, 37, seed)


@st.composite
def clustered_chains(draw):
    """Rows whose entries are 0, small integers or tiny weights, so CDF
    values tie or crowd into one bucket of the guide table."""
    s = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(0, 3).map(float), st.floats(1e-12, 1e-3))
    matrix = np.array([draw(st.lists(entry, min_size=s, max_size=s).filter(any)) for _ in range(s)])
    return matrix / matrix.sum(axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(st.one_of(clustered_chains(), chains_with_ties().map(lambda chain: chain[0].matrix)), st.data())
def test_guide_coder_matches_binary_search(matrix, data):
    cuts = np.unique(np.cumsum(matrix, axis=1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    edges = np.concatenate((cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf)))
    u = np.concatenate((rng.random(500), edges, [0.0, np.nextafter(1.0, 0.0)]))
    u = u[(u >= 0.0) & (u < 1.0)]
    # codes come out in the sampler's store type, as narrow as int8
    dtype = index_dtype(len(matrix))
    code = _guide_coder(cuts, dtype)
    assert code(u).dtype == dtype
    assert np.array_equal(code(u), np.searchsorted(cuts, u, "right"))
    # a 2-D block codes as its cells do
    block = rng.random((3, 7))
    assert np.array_equal(code(block), np.searchsorted(cuts, block.ravel(), "right").reshape(3, 7))


@settings(max_examples=150, deadline=None)
@given(st.one_of(clustered_chains(), chains_with_ties().map(lambda chain: chain[0].matrix)))
def test_sampler_cut_list_is_np_unique(matrix):
    # zero entries repeat CDF values within a row, and rows share values (1.0 ends every row);
    # the sampler hands its cut list to the guide coder
    cut_lists = []
    kernel = FiniteKernel(np.arange(float(len(matrix))), matrix)
    spy = lambda cuts, dtype: cut_lists.append(cuts) or _guide_coder(cuts, dtype)  # noqa: E731
    with mock.patch.object(markov, "_guide_coder", spy):
        sample_paths(kernel, Distribution.uniform(len(matrix)), 2, [5])
    [cuts] = cut_lists
    assert cuts.dtype == np.float64 and cuts.tobytes() == np.unique(np.cumsum(kernel.matrix, axis=1)).tobytes()


@pytest.mark.parametrize("rows", [0, 1, 3, 200])
@pytest.mark.parametrize("width, cells", [(512, 7), (512, 200), (1, 7), (1, 200), (10**9, 7)])
def test_sampler_slices_and_layouts_match_replay(monkeypatch, rows, width, cells):
    # slices of 7 cells cut each path at odd places, and slices of 200 cells code
    # groups of 3 paths side by side, the last group short; the width
    # sends any row count to the one-lookup-per-step walk (1), to the blocked
    # walk (10^9) or to the choice rows * S >= 512
    monkeypatch.setattr(markov, "_SLICE", cells)
    monkeypatch.setattr(markov, "_WIDTH", width)
    rng = np.random.default_rng(rows)
    matrix = rng.random((4, 4)) * (rng.random((4, 4)) > 0.3) + np.eye(4) * 0.01
    kernel = FiniteKernel(np.arange(4.0), matrix / matrix.sum(axis=1, keepdims=True))
    mu0 = Distribution.normalized([0.0, 1.0, 2.0, 1.0])
    seeds = [int(x) for x in rng.integers(0, 2**63, rows)]
    paths = sample_paths(kernel, mu0, 61, seeds)
    # 4 states: codes reach at most 4^2 = 16, so the store is int8
    assert paths.shape == (rows, 61) and paths.dtype == np.int8
    for row, seed in zip(paths, seeds):
        assert row.tolist() == replay_path(kernel.matrix, mu0.weights, 61, seed)


# (_SLICE, _STAGE), n, row counts.  A path of n <= _SLICE steps is coded whole, _SLICE // n
# paths to a group, and a stage holds the most whole groups that fit in _STAGE bytes, but no
# more groups than the paths fill (full stage sizes in brackets: int8 at 4 states, then int16
# at 12).  The first four cases take the sampler's own sizes, the rest small ones
STAGE_CASES = [
    # n = 1: groups of 4096 (stages of 32768 and 16384): below one group, one group, two
    ((4096, 2**15), 1, [3, 4096, 4099]),
    # the variance-m2 shape, groups of 2 (stages of 20 and 10): one or two stages, then partial
    ((4096, 2**15), 1600, [20, 21, 67]),
    # n = _SLICE: groups of 1 (stages of 8 and 4): one or two stages, then partial
    ((4096, 2**15), 4096, [8, 19]),
    # n = _SLICE + 1: each path coded into its row in slices, no stage
    ((4096, 2**15), 4097, [1, 3]),
    # small slices and stages flush many times: groups of 64 (stages of 256 and 128) ...
    ((64, 256), 1, [3, 64, 300]),
    # ... groups of 3 (stages of 12 and 6) ...
    ((64, 256), 20, [2, 12, 50]),
    # ... groups of 1 at n = _SLICE (stages of 4 and 2), and slices past it
    ((64, 256), 64, [4, 11]),
    ((64, 256), 65, [1, 3]),
]


@pytest.mark.parametrize("s", [4, 12])
@pytest.mark.parametrize("sizes, n, row_counts", STAGE_CASES)
def test_sampler_stage_boundaries_match_replay(monkeypatch, s, sizes, n, row_counts):
    monkeypatch.setattr(markov, "_SLICE", sizes[0])
    monkeypatch.setattr(markov, "_STAGE", sizes[1])
    rng = np.random.default_rng(s * n)
    matrix = rng.random((s, s)) * (rng.random((s, s)) > 0.3) + np.eye(s) * 0.01
    kernel = FiniteKernel(np.arange(float(s)), matrix / matrix.sum(axis=1, keepdims=True))
    mu0 = Distribution.normalized(rng.random(s) + 0.1)
    seeds = [mix64(n, r) for r in range(max(row_counts))]
    expected = [replay_path(kernel.matrix, mu0.weights, n, seed) for seed in seeds]
    for rows in row_counts:
        paths = sample_paths(kernel, mu0, n, seeds[:rows])
        assert paths.shape == (rows, n) and paths.dtype == index_dtype(s)
        assert paths.tolist() == expected[:rows]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 300), st.integers(1, 80), st.integers(1, 1000), st.data())
def test_sampler_rows_match_replay_at_any_width(s, n, rows, width, data):
    # the width picks the blocked walk (rows * S below it) or one lookup per step;
    # zero entries give rows with repeated CDF values
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    matrix = rng.random((s, s)) * (rng.random((s, s)) > 0.4) + np.eye(s) * 1e-3
    kernel = FiniteKernel(np.arange(float(s)), matrix / matrix.sum(axis=1, keepdims=True))
    mu0 = Distribution.normalized(rng.random(s) + 0.01)
    seeds = [int(x) for x in rng.integers(0, 2**63, rows)]
    with mock.patch.object(markov, "_WIDTH", width):
        paths = sample_paths(kernel, mu0, n, seeds)
    assert paths.shape == (rows, n) and paths.dtype == index_dtype(s)
    for row, seed in zip(paths, seeds):
        assert row.tolist() == replay_path(kernel.matrix, mu0.weights, n, seed)


def _cycle(s):
    return np.roll(np.eye(s), 1, axis=1)


# the blocked walk's cases, by when the copies of a block started from every state meet
# under the inverse-CDF coupling: never (a permutation), late (rows that nearly permute or
# stay put), at a block's first code below 0.3 (a reset to state 0, else a cycle: some
# blocks agree at the first check and others do not), within a few steps (dense rows),
# or at once (one state)
WALK_CHAINS = {
    "cycle": _cycle(8),
    "near-permutation": 0.995 * _cycle(8) + 0.005 / 8,
    "sticky": 0.99 * np.eye(8) + 0.01 / 8,
    "reset": 0.3 * np.eye(5)[[0] * 5] + 0.7 * _cycle(5),
    "dense": (lambda m: m / m.sum(axis=1, keepdims=True))(np.random.default_rng(4).random((6, 6)) + 0.05),
    "one-state": np.ones((1, 1)),
}


@pytest.mark.parametrize("name", WALK_CHAINS)
@pytest.mark.parametrize("n", [401, 411, 2000])
def test_walk_rows_match_replay_on_chains_whose_copies_meet_late_or_never(name, n):
    # 400 steps are 20 whole blocks of 20; 410 and 1999 steps leave a tail of 10 and 19
    # steps after the last whole block.  Rows 1 to 5 on both routes: a width of 1 takes one
    # lookup per step, 10^9 the blocked walk
    matrix = WALK_CHAINS[name]
    kernel = FiniteKernel(np.arange(float(len(matrix))), matrix)
    mu0 = Distribution.uniform(len(matrix))
    seeds = [mix64(n, r) for r in range(5)]
    expected = [replay_path(matrix, mu0.weights, n, seed) for seed in seeds]
    for width in (1, 10**9):
        with mock.patch.object(markov, "_WIDTH", width):
            for rows in range(1, 6):
                assert sample_paths(kernel, mu0, n, seeds[:rows]).tolist() == expected[:rows]


@pytest.mark.parametrize("name, falls_back", [
    ("cycle", True), ("near-permutation", True), ("sticky", True), ("reset", False), ("dense", False),
    ("one-state", False),
])
def test_walk_chains_block_maps_only_when_some_block_never_agrees(name, falls_back):
    # 1999 steps: 45 blocks of 44.  Block maps are composed only when some block's copies
    # still disagree at its last step
    matrix = WALK_CHAINS[name]
    kernel = FiniteKernel(np.arange(float(len(matrix))), matrix)
    seeds = [mix64(7, r) for r in range(3)]
    with mock.patch.object(markov, "_chain_block_maps", wraps=markov._chain_block_maps) as chain:
        paths = sample_paths(kernel, Distribution.uniform(len(matrix)), 2000, seeds)
    assert chain.called == falls_back
    for row, seed in zip(paths, seeds):
        assert row.tolist() == replay_path(matrix, np.full(len(matrix), 1 / len(matrix)), 2000, seed)
    if name == "reset":
        # the premise: some block of some row starts with a reset code and some does not
        firsts = [np.random.Generator(np.random.PCG64(seed)).random(2000)[1:1981:44] for seed in seeds]
        assert 0 < (np.concatenate(firsts) < 0.3).sum() < 45 * len(seeds)


@pytest.mark.parametrize("s, width", [
    (1, np.int8), (11, np.int8), (12, np.int16), (181, np.int16), (182, np.int32), (46_340, np.int32),
    (46_341, np.int64),
])
def test_index_width_holds_every_code(s, width):
    # a code counts distinct CDF values, at most S^2: 121 fits int8 and 144 does not,
    # 32761 fits int16 and 33124 does not
    assert index_dtype(s) == width


@pytest.mark.parametrize("s", [11, 12])
@pytest.mark.parametrize("rows", [2, 60])
def test_sampler_stores_codes_up_to_s_squared(s, rows):
    # a dense random chain has nearly S^2 distinct CDF values: more than int8
    # holds at S = 12.  Each row count takes both walks: a width of 1 takes one
    # lookup per step, 10^9 the blocked walk
    rng = np.random.default_rng(s)
    matrix = rng.random((s, s)) + 0.01
    kernel = FiniteKernel(np.arange(float(s)), matrix / matrix.sum(axis=1, keepdims=True))
    assert (np.unique(np.cumsum(kernel.matrix, axis=1)).size > 127) == (s == 12)
    mu0 = Distribution.uniform(s)
    seeds = [int(x) for x in rng.integers(0, 2**63, rows)]
    expected = [replay_path(kernel.matrix, mu0.weights, 300, seed) for seed in seeds]
    for width in (1, 10**9):
        with mock.patch.object(markov, "_WIDTH", width):
            paths = sample_paths(kernel, mu0, 300, seeds)
        assert paths.dtype == index_dtype(s)
        assert paths.tolist() == expected


def test_concurrent_calls_keep_their_own_streams():
    # callers' threads may sample at once (more threads than cores, switching often):
    # each call builds its own generators, so no stream sees another call's draws
    rng = np.random.default_rng(5)
    matrix = rng.random((3, 3)) + 0.1
    kernel = FiniteKernel(np.arange(3.0), matrix / matrix.sum(axis=1, keepdims=True))
    mu0 = Distribution.uniform(3)
    blocks = [[mix64(k, r) for r in range(300)] for k in (1, 2, 3)]
    start = threading.Barrier(len(blocks))

    def work(seeds):
        start.wait(timeout=30)
        return [sample_paths(kernel, mu0, 200, seeds) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            results = list(pool.map(work, blocks, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for seeds, runs in zip(blocks, results):
        expected = [replay_path(kernel.matrix, mu0.weights, 200, seed) for seed in seeds]
        for paths in runs:
            assert paths.tolist() == expected


def test_replicate_block_holds_its_paths_in_one_byte_a_cell(two_state_kernel):
    # a variance-m2 block, 2000 paths of 1600 steps over 2 states: 3.05 MiB in
    # int8 (24.4 MiB in int64); the walk's temporaries are one step wide
    mu0 = Distribution.uniform(2)
    seeds = [mix64(1, r) for r in range(2000)]
    # a first call loads what numpy loads once: keep that out of the trace
    sample_paths(two_state_kernel, mu0, 2, seeds[:1])
    tracemalloc.start()
    try:
        paths = sample_paths(two_state_kernel, mu0, 1600, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert paths.dtype == np.int8
    for r in (0, 1999):
        assert paths[r].tolist() == replay_path(two_state_kernel.matrix, mu0.weights, 1600, seeds[r])


def test_simulate_draws_a_long_path_in_slices():
    # 10^6 steps over 8 states: the int8 path is 0.95 MiB; the uniforms and
    # their codes are drawn and coded a slice at a time, so no other array
    # of 10^6 cells exists.  The dense chain's block copies meet; the cycle's
    # never do, so its maps of 1000 blocks x 8 start states are chained by
    # doubling, and that stays within the same pin
    dense = np.random.default_rng(8).random((8, 8)) + 0.05
    for matrix in (dense / dense.sum(axis=1, keepdims=True), _cycle(8)):
        kernel = FiniteKernel(np.linspace(0.5, 1.5, 8), matrix)
        tracemalloc.start()
        try:
            path = simulate(kernel, Distribution.dirac(0, 8), 10**6, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        assert path[:3000].tolist() == replay_path(kernel.matrix, np.eye(8)[0], 3000, 12)
    # the cycle from state 0 is at state t mod 8 at time t
    assert np.array_equal(path, np.arange(10**6) % 8)


def _peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_tables_refused_before_allocation():
    # a 100-state degree-3 table alone is charged twice its 100^3 cells (the symmetry
    # check's temporaries), over the budget for one row as for many
    batch = np.broadcast_to(np.int64(0), (1000, 50))
    table = np.broadcast_to(0.0, (100,) * 3)
    assert _peak_bytes(tuple_sums, batch, [table], [50], budget=10**5) < 2**20
    assert _peak_bytes(tuple_sums, batch[0], [table], [50], budget=10**5) < 2**20


def test_batch_level_tensors_refused_before_allocation():
    # the budget holds the count of 100 rows, so 1000 rows are refused though 100 fit: a
    # batch is charged whole
    batch = np.broadcast_to(np.int64(0), (1000, 50))
    table = np.broadcast_to(0.0, (10, 10))
    budget = count_cells(100, 50, 10, 2)
    assert _peak_bytes(tuple_sums, batch, [table], [50], budget=budget) < 2**20
    assert tuple_sums(batch[:100], [table], [50], budget=budget).shape == (1, 1, 100)


def test_replicate_blocks_hold_their_paths_within_the_budget(two_state_kernel):
    # 300 int8 paths of 2000 steps are 0.6 MB; the budget holds the count of a block of 29
    # replicates (count_cells: 41 001 fixed cells and 2021 a replicate), 58 kB of paths
    h = SymmetricKernelFn(np.array([[1.0, -0.5], [-0.5, 2.0]]))
    mu0 = Distribution.uniform(2)
    # a first call loads what numpy loads once: keep that out of the trace
    replicate_u_grid(two_state_kernel, mu0, [h], [2], 1, 21)
    tracemalloc.start()
    try:
        got = replicate_u_grid(two_state_kernel, mu0, [h], [100, 2000], 300, 21, budget=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10**5
    whole = replicate_u_grid(two_state_kernel, mu0, [h], [100, 2000], 300, 21)
    assert got.tobytes() == whole.tobytes()


def test_replicate_over_budget_refused_before_sampling(two_state_kernel):
    # counting one replicate holds its 10^5 path cells and more, over the budget
    h = SymmetricKernelFn(np.ones((2, 2)))
    args = (two_state_kernel, Distribution.uniform(2), [h], [10**5], 2, 3)
    assert _peak_bytes(replicate_u_grid, *args, budget=10**5) < 2**20


# Slack over 8 bytes a charged cell for what the allocator and numpy add. Measured on
# 2000 draws of the test below (numpy 2.4, Python 3.11): the largest traced peak less
# 8 * count_cells was -121 kB for the replicate pass and -90 kB for tuple_sums, so the
# charge alone covered every peak.
CHARGE_BASE = 2**16


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 20), st.integers(1, 3), st.integers(2, 50), st.integers(1, 2), st.data())
def test_counts_peak_within_their_charge(s, m, replicates, tables, data):
    # a count's traced peak, its int64 paths or the sampler's included, is at most 8 bytes a
    # cell of count_cells plus CHARGE_BASE; one cell less is refused before any allocation
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ns = sorted(data.draw(st.sets(st.integers(m, 120), min_size=1, max_size=2)))
    hs = [SymmetricKernelFn(_symmetric(rng.normal(size=(s,) * m))) for _ in range(tables)]
    matrix = rng.random((s, s)) + 0.05
    kernel = FiniteKernel(np.arange(s, dtype=float), matrix / matrix.sum(axis=1, keepdims=True))
    mu0 = Distribution.uniform(s)
    charge = count_cells(replicates, max(ns), s, m, tables, len(ns))
    # a first call of each loads what numpy loads once: keep that out of the trace
    tuple_sums(np.zeros((2, m), dtype=np.int64), [h.table for h in hs], [m])
    replicate_u_grid(kernel, mu0, hs, [m], 2, 1)

    def count(budget):
        paths = rng.integers(0, s, (replicates, max(ns)))
        return tuple_sums(paths, [h.table for h in hs], ns, budget)

    assert _traced_peak(count, charge) <= 8 * charge + CHARGE_BASE
    assert _peak_bytes(count, charge - 1) < 2**20
    # blocks of `rows` replicates, at least two of them, beside every replicate's seed and results
    rows = data.draw(st.integers(1, replicates - 1))
    budget = count_cells(rows, max(ns), s, m, tables, len(ns), replicates=replicates)
    assert _traced_peak(replicate_u_grid, kernel, mu0, hs, ns, replicates, 7, budget=budget) <= 8 * budget + CHARGE_BASE
    one = count_cells(1, max(ns), s, m, tables, len(ns), replicates=replicates)
    assert _peak_bytes(replicate_u_grid, kernel, mu0, hs, ns, replicates, 7, budget=one - 1) < 2**20


def test_replicate_pass_charges_every_seed_and_result(two_state_kernel):
    # 10^5 replicates of 4 steps in blocks of 2000: each replicate's uint64 seed and result
    # are charged in the fixed part, a cell each, and nothing else grows with the replicates
    # (a Python int per seed, the block results, their concatenation and the divided stack
    # once took about 86 bytes a replicate outside the charge)
    h = SymmetricKernelFn(np.array([[1.0, -0.5], [-0.5, 2.0]]))
    mu0 = Distribution.uniform(2)
    replicates = 10**5
    budget = count_cells(2000, 4, 2, 2, replicates=replicates)
    replicate_u_grid(two_state_kernel, mu0, [h], [4], 2, 1)
    assert _traced_peak(replicate_u_grid, two_state_kernel, mu0, [h], [4], replicates, 1, budget=budget) <= (
        8 * budget + CHARGE_BASE)
    one = count_cells(1, 4, 2, 2, replicates=replicates)
    assert _peak_bytes(replicate_u_grid, two_state_kernel, mu0, [h], [4], replicates, 1, budget=one - 1) < 2**20


def test_every_counting_caller_reaches_the_one_charge(two_state_kernel):
    h = SymmetricKernelFn(np.array([[1.0, -0.5], [-0.5, 2.0]]))
    mu0 = Distribution.uniform(2)
    config = SllnConfig(two_state_kernel, mu0, h, 40, 5)
    calls = []

    def spy(*args):
        calls.append(args)
        return count_cells(*args)

    with mock.patch.object(ustats, "count_cells", spy), mock.patch.object(montecarlo, "count_cells", spy):
        for run in (lambda: u_statistic(np.zeros(10, dtype=np.int8), h),
                    lambda: tuple_sums(np.zeros((3, 10), dtype=np.int8), [h.table], [5, 10]),
                    lambda: replicate_u_grid(two_state_kernel, mu0, [h], [5, 10], 3, 1),
                    lambda: run_slln_experiment(config)):
            calls.clear()
            run()
            assert calls


def test_int64_overflow_refused():
    # binom(300000, 4) > 2^63: int64 counts could wrap
    path = np.broadcast_to(np.int64(0), (300_000,))
    assert _peak_bytes(tuple_sums, path, [np.zeros((1,) * 4)], [300_000]) < 2**20


def test_int64_refusal_covers_every_intermediate():
    # S = 1, m = 4: binom(c, 4) passes through 4 * binom(c, 4) before its // 4, which first
    # reaches 2^63 at n = 86252 while binom(86252, 4) is about 2^61
    n = 86_252
    assert 4 * math.comb(n, 4) >= 2**63 > 4 * math.comb(n - 1, 4) and math.comb(n, 4) < 2**63
    table = np.ones((1,) * 4)
    assert _peak_bytes(tuple_sums, np.broadcast_to(np.int8(0), (n,)), [table], [n]) < 2**20
    path = np.zeros(n - 1, dtype=np.int8)
    assert tuple_sums(path, [table], [n - 1])[0, 0] == float(math.comb(n - 1, 4))
    assert tuple_sums(path[None, :], [table], [n - 1])[0, 0, 0] == float(math.comb(n - 1, 4))


@pytest.mark.parametrize("n", [65_536, 65_537])
def test_pair_counts_are_exact_at_the_int32_edge(n):
    # S = 1, m = 2: the one count is binom(n, 2), 2^31 - 32768 at n = 65536 and
    # 2^31 + 32768 at n = 65537 (past int32), on the one-path and the batch route
    path = np.zeros(n, dtype=np.int64)
    table = np.ones((1, 1))
    assert tuple_sums(path, [table], [n])[0, 0] == math.comb(n, 2)
    assert tuple_sums(path[None, :], [table], [n])[0, 0, 0] == math.comb(n, 2)


def test_binomials_are_exact_past_int32():
    # S = 1, m = 20, 34 steps: binom(c, k) for k <= 20 passes binom(34, 17) > 2^31 on its
    # way to binom(34, 20) < 2^31; every checkpoint and every degree up to 20 is exact
    path = np.zeros(34, dtype=np.int8)
    assert tuple_sums(path, [np.ones((1,) * 20)], range(20, 35))[0].tolist() == [
        math.comb(c, 20) for c in range(20, 35)
    ]
    assert [tuple_sums(path, [np.ones((1,) * m)], [34])[0, 0] for m in range(1, 21)] == [
        math.comb(34, m) for m in range(1, 21)
    ]


def _counting_peak(paths, tables, checkpoints):
    tracemalloc.start()
    try:
        tuple_sums(paths, tables, checkpoints)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_counts_in_fixed_chunks():
    # 500 rows at S = 20, m = 3: the occupation counts are 500 * 20 cells, and the
    # 500 * 1540 multiset counts are formed a chunk of rows at a time
    rng = np.random.default_rng(5)
    paths = rng.integers(0, 20, (500, 400))
    table = _symmetric(rng.normal(size=(20,) * 3))
    assert _counting_peak(paths, [table], [50, 100, 200, 400]) < 2**20


def test_one_long_path_counts_in_fixed_slices():
    # 10^6 steps: the path is counted a slice at a time, so no temporary grows with n
    rng = np.random.default_rng(6)
    path = rng.integers(0, 8, 10**6)
    table = _symmetric(rng.normal(size=(8, 8)))
    assert _counting_peak(path, [table], [10**3, 10**4, 10**5, 10**6]) < 2**19


@pytest.mark.parametrize("m", [2, 3])
def test_counts_do_not_depend_on_the_path_type(m):
    # the sampler's int8 paths and their int64 copies, on the batch route and the one-path route
    rng = np.random.default_rng(m)
    paths = rng.integers(0, 5, (6, 900)).astype(np.int8)
    tables = [_symmetric(rng.normal(size=(5,) * m)), _symmetric(rng.normal(size=(5,) * m))]
    for narrow in (paths, paths[0]):
        wide = narrow.astype(np.int64)
        got = tuple_sums(narrow, tables, [m, 100, 900])
        assert got.tobytes() == tuple_sums(wide, tables, [m, 100, 900]).tobytes()


def test_exact_l2_refuses_before_listing_tuples(two_state_kernel):
    h = SymmetricKernelFn(np.zeros((2, 2, 2)))
    peak = _peak_bytes(exact_l2, Distribution.dirac(0, 2), two_state_kernel, h, 400, 3)
    assert peak < 2**20


def test_exact_l2_refuses_its_second_moments_before_allocating():
    # S = 32, m = 2: K' = 1 + 32 + binom(33, 2) = 561 multisets and S*K'^2 > 10^7 (the smallest
    # such S), while one tuple pair passes the pair cap
    s = 32
    kernel = FiniteKernel(np.arange(s, dtype=float), np.full((s, s), 1.0 / s))
    h = SymmetricKernelFn(np.ones((s, s)))
    assert _peak_bytes(exact_l2, Distribution.uniform(s), kernel, h, 2, 2) < 2**20
    # the pair cap is checked first
    with pytest.raises(BudgetExceeded, match="binom"):
        exact_l2(Distribution.uniform(s), kernel, h, 400, 2)


def test_exact_l2_memory_stays_at_its_second_moments():
    # S = 10, m = 2, n = 17: 18,496 tuple pairs; the second moments hold S * K'^2 = 10 * 66^2
    # cells (0.35 MB), and a step holds them twice
    rng = np.random.default_rng(4)
    matrix = rng.random((10, 10))
    kernel = FiniteKernel(np.arange(10.0), matrix / matrix.sum(axis=1, keepdims=True))
    raw = rng.normal(size=(10, 10))
    h = SymmetricKernelFn(raw + raw.T)
    tracemalloc.start()
    try:
        exact_l2(Distribution.uniform(10), kernel, h, 17, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * 10 * 66**2


def test_engine_rejects_bad_checkpoints():
    path = np.zeros(10, dtype=np.int64)
    table = np.zeros((1, 1))
    for paths in (path, path[None, :]):
        for checkpoints in ([1], [4, 11], []):
            with pytest.raises(ValueError, match="checkpoints"):
                tuple_sums(paths, [table], checkpoints)


@settings(max_examples=60, deadline=None)
@given(
    chains_with_ties(),
    st.integers(1, 3),
    st.data(),
    st.integers(2, 9),
    st.integers(1, 4),
    st.integers(0, 2**63),
)
def test_grid_pass_matches_one_n_runs(chain, m, data, replicates, rows, master_seed):
    kernel, mu0 = chain
    s = kernel.size
    ns = sorted(data.draw(st.sets(st.integers(m + 1, 40), max_size=4)) | {m})
    rng = np.random.default_rng(master_seed % 2**32)
    idx = np.indices((s,) * m)
    h = SymmetricKernelFn(rng.normal(size=s)[idx].sum(axis=0) + rng.normal(size=s)[idx].prod(axis=0))
    hs = [h, h.shifted(0.375)]
    # blocks of `rows` replicates: the budget holds the count of exactly `rows` replicates
    # beside every seed and result
    budget = count_cells(rows, max(ns), s, m, len(hs), len(ns), replicates=replicates)
    got = replicate_u_grid(kernel, mu0, hs, ns, replicates, master_seed, budget=budget)
    assert got.shape == (2, len(ns), replicates)
    for k, hk in enumerate(hs):
        for j, n in enumerate(ns):
            one = replicate_u_grid(kernel, mu0, [hk], [n], replicates, master_seed)[0, 0]
            assert np.all(got[k, j] == one)
            # and each value is the U-statistic of that replicate's own length-n path
            for r in range(replicates):
                assert got[k, j, r] == u_statistic(simulate(kernel, mu0, n, mix64(master_seed, r)), hk)


def test_engine_refuses_states_outside_the_table():
    # a path over 3 states counted against a 2-state table
    path = np.array([0, 2, 1, 0, 1, 1, 0, 2, 0, 1, 0, 0, 1, 1, 1, 0])
    with pytest.raises(ValueError, match="state indices"):
        u_statistic(path, SymmetricKernelFn(np.array([[1.0, 2.0], [2.0, 3.0]])))
    # the last piece of the path, where the overflow used to hit past the array
    with pytest.raises(ValueError, match="state indices"):
        tuple_sums([0, 2, 1, 0, 1, 1, 0, 2, 0], [np.ones((2, 2))], [9])
    with pytest.raises(ValueError, match="state indices"):
        tuple_sums(np.array([[0, 1, -1], [0, 1, 1]]), [np.ones((2, 2))], [3])
    with pytest.raises(ValueError, match="state indices"):
        tuple_sums(np.array([[0, 1, 1], [0, 2, 1]]), [np.ones((2, 2))], [2, 3])


@pytest.mark.parametrize("path", [np.array([0.5, 1.7, 1.2]), np.array([0.0, 1.0, 1.0]), np.array([False, True, True]),
                                  np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])], ids=["fractions", "whole-floats",
                                                                                   "bools", "float-batch"])
def test_engine_refuses_paths_that_are_not_integer(path):
    # a float path was truncated to states: [0.5, 1.7, 1.2] counted as [0, 1, 1]
    table = np.array([[1.0, 2.0], [2.0, 3.0]])
    with pytest.raises(ValueError, match=f"dtype {path.dtype}"):
        tuple_sums(path, [table], [3])
    if path.ndim == 1:
        with pytest.raises(ValueError, match=f"dtype {path.dtype}"):
            u_statistic(path, SymmetricKernelFn(table))
