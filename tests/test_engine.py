"""The one sampler and the one counting engine against naive oracles, and
the budget checks that refuse before anything large is allocated."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import replay_path, tuple_counts_enum
from ustatmc import (
    BudgetExceeded, Distribution, FiniteKernel, SymmetricKernelFn, exact_l2, mix64, replicate_u_grid,
    sample_paths, simulate, tuple_sums, u_statistic,
)
from ustatmc import markov, ustats
from ustatmc.markov import _guide_coder, index_dtype
from ustatmc.ustats import _count_rows, _empty_levels, _join, _oldest_first


@st.composite
def counting_cases(draw):
    s = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 40))
    path = np.array(draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n)))
    checkpoints = sorted(draw(st.sets(st.integers(m, n), min_size=1, max_size=5)))
    # the budget holds the levels of this many pieces of the path
    rows = draw(st.integers(1, 8))
    return s, m, path, checkpoints, rows * s**m


def _one_hot_tables(s, m):
    """One table per cell of (S,) * m, so that the kernel sums are the counts."""
    return list(np.eye(s**m).reshape((s**m,) + (s,) * m))


@settings(max_examples=150, deadline=None)
@given(counting_cases())
def test_counts_match_enumeration_at_checkpoints(case):
    s, m, path, checkpoints, budget = case
    got = tuple_sums(path, _one_hot_tables(s, m), checkpoints, budget)
    assert got.shape == (s**m, len(checkpoints))
    for c, counts in zip(checkpoints, got.T):
        assert np.array_equal(counts.reshape((s,) * m), tuple_counts_enum(path[:c], s, m))
    # the whole path, cut into about sqrt(n) pieces
    whole = tuple_sums(path, _one_hot_tables(s, m), [path.size])[:, 0]
    assert np.array_equal(whole.reshape((s,) * m), tuple_counts_enum(path, s, m))


@settings(max_examples=100, deadline=None)
@given(counting_cases(), st.data())
def test_one_path_sums_match_a_one_row_batch(case, data):
    s, m, path, checkpoints, budget = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tables = [rng.normal(size=(s,) * m), rng.normal(size=(s,) * m)]
    one = tuple_sums(path, tables, checkpoints, budget)
    batch = tuple_sums(path[None, :], tables, checkpoints, budget)
    assert one.shape == (2, len(checkpoints)) and batch.shape == (2, len(checkpoints), 1)
    assert one.tobytes() == batch[..., 0].tobytes()


@st.composite
def checkpoint_runs(draw):
    """A path, checkpoints with adjacent pairs among them, and a budget of
    1 to 3 pieces, so runs of pieces between checkpoints have one, an odd
    or an even number of pieces and straddle sub-batches."""
    s = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 1, 120 if m < 3 else 40))
    path = np.array(draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n)))
    marks = draw(st.sets(st.integers(m, n - 1), max_size=6))
    checkpoints = sorted(marks | {c + 1 for c in marks if draw(st.booleans())} | {n})
    return s, m, path, checkpoints, draw(st.integers(1, 3)) * s**m


@settings(max_examples=150, deadline=None)
@given(checkpoint_runs())
def test_tree_joined_pieces_match_batch_and_enumeration(case):
    s, m, path, checkpoints, budget = case
    tables = _one_hot_tables(s, m)
    one = tuple_sums(path, tables, checkpoints, budget)
    assert one.tobytes() == tuple_sums(path[None, :], tables, checkpoints)[..., 0].tobytes()
    for c, counts in zip(checkpoints, one.T):
        assert np.array_equal(counts.reshape((s,) * m), tuple_counts_enum(path[:c], s, m))


@settings(max_examples=100, deadline=None)
@given(counting_cases(), st.data())
def test_chen_identity_on_random_splits(case, data):
    s, m, path, _, _ = case
    n = path.size
    bounds = [0, *sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1))), n] if n > 1 else [0, 1]
    acc = _empty_levels(1, s, m)
    for a, b in zip(bounds, bounds[1:]):
        piece = _count_rows(path[None, a:b], np.array([b - a]), s, m, {})[0]
        acc = _join(acc, piece, m)
    assert np.array_equal(_oldest_first(acc[m], s, m)[0], tuple_counts_enum(path, s, m))


@settings(max_examples=50, deadline=None)
@given(counting_cases(), st.integers(1, 5))
def test_batch_counts_match_enumeration(case, rows):
    s, m, path, _, _ = case
    batch = np.array([np.roll(path, k) for k in range(rows)])
    got = tuple_sums(batch, _one_hot_tables(s, m), [path.size])
    for row, counts in zip(batch, got[:, 0].T):
        assert np.array_equal(counts.reshape((s,) * m), tuple_counts_enum(row, s, m))


def test_replicates_beyond_budget_match_at_any_jobs(two_state_kernel):
    # one replicate holds 30 path cells and 1 + 2 + 4 + 8 level cells, so 7 replicates
    # do not fit a budget of 90: blocks of 2 rows
    h = SymmetricKernelFn(np.array([1.0, -0.5, 2.0, 0.25])[np.indices((2, 2, 2)).sum(axis=0)])
    mu0 = Distribution.uniform(2)
    whole = replicate_u_grid(two_state_kernel, mu0, [h], [30], 7, 11)[0, 0]
    for jobs in (1, 2, 3):
        got = replicate_u_grid(two_state_kernel, mu0, [h], [30], 7, 11, jobs, budget=90)[0, 0]
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
    code = _guide_coder(cuts)
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
    with mock.patch.object(markov, "_guide_coder", lambda cuts: cut_lists.append(cuts) or _guide_coder(cuts)):
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
    # holds at S = 12.  rows * S is 22 or 24 (the blocked walk) and 660 or 720
    # (the one-lookup-per-step walk), against a width of 512
    rng = np.random.default_rng(s)
    matrix = rng.random((s, s)) + 0.01
    kernel = FiniteKernel(np.arange(float(s)), matrix / matrix.sum(axis=1, keepdims=True))
    assert (np.unique(np.cumsum(kernel.matrix, axis=1)).size > 127) == (s == 12)
    mu0 = Distribution.uniform(s)
    seeds = [int(x) for x in rng.integers(0, 2**63, rows)]
    paths = sample_paths(kernel, mu0, 300, seeds)
    assert paths.dtype == index_dtype(s)
    for row, seed in zip(paths, seeds):
        assert row.tolist() == replay_path(kernel.matrix, mu0.weights, 300, seed)


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
    # of 10^6 cells exists
    rng = np.random.default_rng(8)
    matrix = rng.random((8, 8)) + 0.05
    kernel = FiniteKernel(np.linspace(0.5, 1.5, 8), matrix / matrix.sum(axis=1, keepdims=True))
    tracemalloc.start()
    try:
        path = simulate(kernel, Distribution.dirac(0, 8), 10**6, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    assert path[:3000].tolist() == replay_path(kernel.matrix, np.eye(8)[0], 3000, 12)


def _peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_level_tensors_refused_before_allocation():
    # one row's levels, 100^3 cells, exceed the budget
    batch = np.broadcast_to(np.int64(0), (1000, 50))
    table = np.broadcast_to(0.0, (100,) * 3)
    assert _peak_bytes(tuple_sums, batch, [table], [50], budget=10**5) < 2**20
    assert _peak_bytes(tuple_sums, batch[0], [table], [50], budget=10**5) < 2**20


def test_batch_level_tensors_refused_before_allocation():
    # 1000 rows of 10^2 level cells exceed the budget though one row fits: a batch is counted whole
    batch = np.broadcast_to(np.int64(0), (1000, 50))
    table = np.broadcast_to(0.0, (10, 10))
    assert _peak_bytes(tuple_sums, batch, [table], [50], budget=10**4) < 2**20
    assert tuple_sums(batch[:100], [table], [50], budget=10**4).shape == (1, 1, 100)


def test_replicate_blocks_hold_their_paths_within_the_budget(two_state_kernel):
    # 300 int8 paths of 2000 steps are 0.6 MB; the budget holds blocks of 49 replicates (0.1 MB)
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
    # one replicate's 10^5 path cells and 1 + 2 + 4 level cells exceed the budget
    h = SymmetricKernelFn(np.ones((2, 2)))
    args = (two_state_kernel, Distribution.uniform(2), [h], [10**5], 2, 3)
    assert _peak_bytes(replicate_u_grid, *args, budget=10**5) < 2**20


def test_int64_overflow_refused():
    # binom(300000, 4) > 2^63: int64 counts could wrap
    path = np.broadcast_to(np.int64(0), (300_000,))
    assert _peak_bytes(tuple_sums, path, [np.zeros((1,) * 4)], [300_000]) < 2**20


@pytest.mark.parametrize("n, width", [(65_536, np.int32), (65_537, np.int64)])
def test_level_width_at_the_int32_edge(monkeypatch, n, width):
    # S = 1, m = 2: the one cell of L_2 ends at binom(n, 2), which is 2^31 - 32768 at
    # n = 65536 (int32 holds it) and 2^31 + 32768 at n = 65537 (int32 would wrap)
    widths = []
    contract = ustats._contract
    monkeypatch.setattr(ustats, "_contract", lambda counts, table: widths.append(counts.dtype) or contract(counts, table))
    path = np.zeros(n, dtype=np.int64)
    table = np.ones((1, 1))
    assert tuple_sums(path, [table], [n])[0, 0] == math.comb(n, 2)
    # one path joins its pieces in int64, whatever their width
    assert widths == [np.int64]
    assert tuple_sums(path[None, :], [table], [n])[0, 0, 0] == math.comb(n, 2)
    assert widths[1:] == [width]


def test_every_level_of_a_piece_is_exact():
    # S = 1, m = 20, 34 steps: L_20 ends at binom(34, 20) < 2^31 but L_17 passes
    # binom(34, 17) > 2^31, and Chen's identity multiplies every level of a piece
    levels = _count_rows(np.zeros((1, 34), dtype=np.int64), np.array([34]), 1, 20, {})[0]
    assert [int(lv[0, 0]) for lv in levels] == [math.comb(34, c) for c in range(21)]


def _counting_peak(paths, tables, checkpoints):
    tracemalloc.start()
    try:
        tuple_sums(paths, tables, checkpoints)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_levels_count_in_int32():
    # 500 rows at S = 20, m = 3: L_3 holds 500 * 20^3 cells, 16 MB in int32 and 32 MB in int64
    rng = np.random.default_rng(5)
    paths = rng.integers(0, 20, (500, 400))
    assert _counting_peak(paths, [rng.normal(size=(20,) * 3)], [50, 100, 200, 400]) < 24 * 2**20


def test_one_long_path_counts_its_pieces_in_int32():
    # about 1000 pieces of about 1000 steps, padded into one grid of state indices:
    # 1 MB in int8 (4 MB in int32); the piece levels are int32
    rng = np.random.default_rng(6)
    path = rng.integers(0, 8, 10**6)
    assert _counting_peak(path, [rng.normal(size=(8, 8))], [10**3, 10**4, 10**5, 10**6]) < 2 * 10**6


@pytest.mark.parametrize("m", [2, 3])
def test_counts_do_not_depend_on_the_path_type(m):
    # the sampler's int8 paths and their int64 copies, on the batch route and the one-path route
    rng = np.random.default_rng(m)
    paths = rng.integers(0, 5, (6, 900)).astype(np.int8)
    tables = [rng.normal(size=(5,) * m), rng.normal(size=(5,) * m)]
    for narrow in (paths, paths[0]):
        wide = narrow.astype(np.int64)
        got = tuple_sums(narrow, tables, [m, 100, 900])
        assert got.tobytes() == tuple_sums(wide, tables, [m, 100, 900]).tobytes()


def test_exact_l2_refuses_before_listing_tuples(two_state_kernel):
    h = SymmetricKernelFn(np.zeros((2, 2, 2)))
    peak = _peak_bytes(exact_l2, Distribution.dirac(0, 2), two_state_kernel, h, 400, 3)
    assert peak < 2**20


def test_exact_l2_refuses_its_second_moments_before_allocating():
    # S = 25, m = 2: K = 1 + 25 + 625 and S*K^2 > 10^7, while one tuple pair passes the pair cap
    s = 25
    kernel = FiniteKernel(np.arange(s, dtype=float), np.full((s, s), 1.0 / s))
    h = SymmetricKernelFn(np.ones((s, s)))
    assert _peak_bytes(exact_l2, Distribution.uniform(s), kernel, h, 2, 2) < 2**20
    # the pair cap is checked first
    with pytest.raises(BudgetExceeded, match="binom"):
        exact_l2(Distribution.uniform(s), kernel, h, 400, 2)


def test_exact_l2_memory_stays_at_its_second_moments():
    # S = 10, m = 2, n = 17: 18,496 tuple pairs; the second moments hold 10 * 111^2 cells
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
    assert peak < 16 * 2**20


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
    st.sampled_from([1, 2, 3]),
    st.integers(1, 4),
    st.integers(0, 2**63),
)
def test_grid_pass_matches_one_n_runs(chain, m, data, replicates, jobs, rows, master_seed):
    kernel, mu0 = chain
    s = kernel.size
    ns = sorted(data.draw(st.sets(st.integers(m + 1, 40), max_size=4)) | {m})
    rng = np.random.default_rng(master_seed % 2**32)
    idx = np.indices((s,) * m)
    h = SymmetricKernelFn(rng.normal(size=s)[idx].sum(axis=0) + rng.normal(size=s)[idx].prod(axis=0))
    hs = [h, h.shifted(0.375)]
    # blocks of `rows` replicates, fewer than ceil(replicates / jobs) when rows is smaller:
    # one replicate holds max(ns) path cells and sum_c S^c level cells
    budget = rows * (max(ns) + sum(s**c for c in range(m + 1)))
    got = replicate_u_grid(kernel, mu0, hs, ns, replicates, master_seed, jobs, budget=budget)
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
