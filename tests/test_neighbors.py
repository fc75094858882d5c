import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    epsilon_neighborhood,
    full_sort_knn_oracle,
    influence_oracle,
    kdtree_knn_oracle,
    knn_oracle,
    leaf_tau_knn_oracle,
    neighborhood_lists_oracle,
    rnn_oracle,
    sorted_keys_influence_oracle,
    stable_argsort_rnn_oracle,
)
import rnncluster.data
from rnncluster import build_index, make_blobs, range_standardize
from rnncluster.data import compact_blocks
from rnncluster.neighbors import NeighborIndex
from rnncluster.dbscan import neighborhood_lists

LINE = np.array([[0.0], [1.0], [2.0], [4.0], [8.0]])


def rnn_row(index, i, k):
    """RNN_k(i), row i of the index's reverse lists."""
    offsets, members = index.rnn_csr(k)
    return members[offsets[i] : offsets[i + 1]]


def test_knn_examples_on_line():
    index = build_index(LINE, k_max=4)
    # squared distances from point 2: 1 then a 4-vs-4 tie won by index 0
    assert index.knn_idx[2, :2].tolist() == [1, 0]
    assert index.knn_idx[1, :1].tolist() == [0]  # 1-vs-1 tie between 0 and 2
    assert index.knn_idx[0, :4].tolist() == knn_oracle(LINE, 0, 4)


def test_two_entities_list_each_other():
    index = build_index(np.array([[0.0], [1.0]]), k_max=1)
    assert index.knn_idx.tolist() == [[1], [0]]
    assert rnn_row(index, 0, 1).tolist() == [1]
    assert index.influence_space(0, 1).tolist() == [1]


def test_rnn_examples_on_line():
    index = build_index(LINE, k_max=4)
    assert rnn_row(index, 1, 1).tolist() == [0, 2]
    assert rnn_row(index, 4, 1).tolist() == []  # nobody's nearest is the far outlier
    assert index.influence_space(1, 1).tolist() == [0]


def test_rnn_empty_makes_influence_space_empty():
    index = build_index(LINE, k_max=4)
    for i in range(5):
        for k in (1, 2, 3):
            if rnn_row(index, i, k).size == 0:
                assert index.influence_space(i, k).size == 0


def test_k_bounds_are_enforced():
    index = build_index(LINE, k_max=2)
    for query in (index.rnn_sizes, index.rnn_csr, index.influence_csr):
        for k in (0, 3):
            with pytest.raises(ValueError, match=rf"k={k} outside .*k_max=2"):
                query(k)
        query(1)  # the first and last k are in range
        query(2)
    with pytest.raises(ValueError):
        build_index(LINE, k_max=5)
    with pytest.raises(ValueError):
        build_index(LINE, k_max=0)


@pytest.mark.parametrize("query", ["influence_space"])
@pytest.mark.parametrize("i", [-1, 5])
def test_entity_bounds_are_enforced(query, i):
    index = build_index(LINE, k_max=2)
    with pytest.raises(ValueError, match=rf"i={i}\b.*n=5"):
        getattr(index, query)(i, 2)
    getattr(index, query)(0, 2)  # the first and last entities are in range
    getattr(index, query)(4, 2)


def _random_dataset(rng):
    n = int(rng.integers(5, 60))
    m = int(rng.integers(1, 5))
    x = rng.normal(size=(n, m))
    if rng.random() < 0.3:  # duplicate rows exercise the index tie-break
        x[rng.integers(n)] = x[rng.integers(n)]
    return x


def test_duality_and_nesting_properties():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = _random_dataset(rng)
        n = x.shape[0]
        k_max = min(8, n - 1)
        index = build_index(x, k_max)
        for k in range(1, k_max + 1):
            rnn_sets = [set(rnn_row(index, i, k).tolist()) for i in range(n)]
            for i in range(n):
                knn_i = set(index.knn_idx[i, :k].tolist())
                # duality: j in RNN_k(i) iff i in NN_k(j)
                for j in range(n):
                    assert (j in rnn_sets[i]) == (i in set(index.knn_idx[j, :k].tolist()))
                assert len(index.influence_space(i, k)) <= k
                assert set(index.influence_space(i, k).tolist()) <= knn_i
                if k < k_max:
                    assert knn_i <= set(index.knn_idx[i, : k + 1].tolist())


def test_matches_plain_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = _random_dataset(rng)
        k_max = min(6, x.shape[0] - 1)
        index = build_index(x, k_max)
        n = x.shape[0]
        for i in range(n):
            assert index.knn_idx[i].tolist() == knn_oracle(x, i, k_max)
            for k in (1, k_max):
                assert rnn_row(index, i, k).tolist() == rnn_oracle(x, i, k)
            for k in range(1, k_max + 1):
                assert index.influence_space(i, k).tolist() == influence_oracle(x, i, k)
        for k in range(1, k_max + 1):
            sizes = index.rnn_sizes(k)
            np.testing.assert_array_equal(sizes, np.diff(index.rnn_csr(k)[0]))
            assert sizes.tolist() == [len(rnn_oracle(x, i, k)) for i in range(n)]


def test_backends_are_bit_identical():
    rng = np.random.default_rng(42)
    multi_block = 0
    for trial in range(50):
        n = 300 if trial == 1 else int(rng.integers(5, 300))
        m = 10 if trial == 1 else int(rng.integers(1, 11))
        x = rng.normal(size=(n, m)) * rng.uniform(0.01, 100)
        if trial % 4 == 0:  # force exact distance ties
            x[: n // 2] = x[n - n // 2 :][::-1]
        if trial % 4 == 2:  # integer grid: many equal distances straddle the k-th
            x = np.round(x / x.std() * 1.5)
        k_max = min(int(rng.integers(1, 11)), n - 1)
        multi_block += len(list(compact_blocks(x))) > 1
        brute = build_index(x, k_max, backend="brute")
        spatial = build_index(x, k_max, backend="spatial")
        for idx, d2 in (
            (spatial.knn_idx, spatial.knn_d2),
            full_sort_knn_oracle(x, k_max),
            kdtree_knn_oracle(x, k_max),
        ):
            np.testing.assert_array_equal(brute.knn_idx, idx)
            assert np.array_equal(brute.knn_d2.view(np.int64), d2.view(np.int64))
    assert multi_block >= 1


def test_self_is_never_a_neighbour_when_distances_overflow():
    # every squared distance overflows to inf, so only ids can order the rows
    x = np.array([[0.0], [1e200], [2e200], [3e200]])
    expected = [[1, 2], [0, 2], [0, 1], [0, 1]]
    for backend in ("brute", "spatial"):
        assert build_index(x, 2, backend=backend).knn_idx.tolist() == expected
    assert full_sort_knn_oracle(x, 2)[0].tolist() == expected
    assert kdtree_knn_oracle(x, 2)[0].tolist() == expected


@pytest.mark.parametrize("backend", ["brute", "spatial"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_rejected(backend, bad):
    x = np.random.default_rng(1).normal(size=(20, 3))
    x[4, 2] = bad
    with pytest.raises(ValueError, match=f"{bad} at row 4, column 2"):
        build_index(x, 5, backend=backend)


def assert_build_matches_oracles(x, k_max):
    """The default build equals the full sort and the replaced ranking bit for bit,
    and its reverse lists at k = 1 and k_max equal the replaced stable argsort."""
    index = build_index(x, k_max)
    for oracle_idx, oracle_d2 in (full_sort_knn_oracle(x, k_max), leaf_tau_knn_oracle(x, k_max)):
        np.testing.assert_array_equal(index.knn_idx, oracle_idx)
        assert np.array_equal(index.knn_d2.view(np.int64), oracle_d2.view(np.int64))
    for k in {1, k_max}:
        for got, want in zip(index.rnn_csr(k), stable_argsort_rnn_oracle(index.knn_idx, k)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def far_outlier():
    # one leaf holds a row whose cap lies far above every other row's k-th distance
    x = np.random.default_rng(8).normal(size=(300, 2))
    x[7] = [40.0, -40.0]
    return x, 10


def overflowing_row():
    # every distance from row 0 overflows to inf, so its k-th is inf and only
    # ids order its list; the others rank it last, at inf
    x = np.random.default_rng(9).normal(size=(200, 3))
    x[0] = [1e200, -1e200, 1e200]
    return x, 5


def identical_points():
    return np.zeros((40, 2)), 7


def k_max_n_minus_1():
    return np.random.default_rng(10).uniform(size=(200, 3)), 199


def integer_grid():
    # tied distances everywhere: a row's members come from many positions
    return np.round(2 * np.random.default_rng(11).normal(size=(300, 2))), 12


@pytest.mark.parametrize(
    "case", [far_outlier, overflowing_row, identical_points, k_max_n_minus_1, integer_grid]
)
def test_build_examples_match_oracles(case):
    assert_build_matches_oracles(*case())


@st.composite
def exactness_cases(draw):
    """Tie-heavy data over several compact blocks, at scales from 1e-150 to
    1e150, with k from 1 to n-1 and an epsilon equal to some pair's distance.
    Up to 30 features, where bounds prune little and each row's cap lies far
    above its k-th distance."""
    n = draw(st.integers(2, 450))
    m = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, m))
    if draw(st.booleans()):
        x = np.round(2 * x)  # integer grid: ties everywhere
    if draw(st.booleans()):
        x[n // 2 :] = x[: n - n // 2]  # duplicated rows
    x *= 10.0 ** draw(st.integers(-150, 150))
    i, j = rng.integers(n, size=2)
    epsilon = float(np.sum((x[i] - x[j]) ** 2))
    return x, draw(st.integers(1, n - 1)), epsilon


@given(exactness_cases())
@settings(max_examples=120, deadline=None)
def test_pruned_scans_match_full_scans(case):
    x, k_max, epsilon = case
    assert_build_matches_oracles(x, k_max)
    offsets, members = neighborhood_lists(x, epsilon)
    assert offsets.size == x.shape[0] + 1
    for i, oracle in enumerate(neighborhood_lists_oracle(x, epsilon)):
        row = members[offsets[i] : offsets[i + 1]]
        np.testing.assert_array_equal(row, epsilon_neighborhood(x, i, epsilon))
        np.testing.assert_array_equal(row, oracle)


def test_build_prunes_most_pairs(kernel_pairs):
    x, _ = range_standardize(make_blobs(7, 500, 0.08).matrix)
    build_index(x, 10)
    assert 0 < kernel_pairs[0] < x.shape[0] ** 2 / 4


def test_rebuild_is_deterministic():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(120, 3))
    a = build_index(x, 10)
    b = build_index(x, 10)
    np.testing.assert_array_equal(a.knn_idx, b.knn_idx)
    np.testing.assert_array_equal(a.knn_d2, b.knn_d2)
    assert rnn_row(a, 17, 7).tolist() == rnn_row(b, 17, 7).tolist()


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="backend"):
        build_index(LINE, 2, backend="approximate")


def test_kdtree_handles_identical_points():
    # all-tied distances resolve by id, in both backends and the kd-tree oracle
    x = np.zeros((40, 2))
    for backend in ("brute", "spatial"):
        index = build_index(x, 5, backend=backend)
        assert index.knn_idx[0].tolist() == [1, 2, 3, 4, 5]
        np.testing.assert_array_equal(index.knn_d2[0], np.zeros(5))
    assert kdtree_knn_oracle(x, 5)[0][0].tolist() == [1, 2, 3, 4, 5]


def test_brute_build_memory_is_bounded():
    # one n x n float64 at n = 6,000 is 275 MB; the blocked build stays far
    # below. At 30 features caps are loose, so rows hold many hits: they are
    # ranked in pieces no larger than a kernel block, never a leaf at once
    for m, k_max, limit_mb in ((2, 10, 64), (30, 30, 12)):
        x = np.random.default_rng(6).uniform(size=(6000, m))
        tracemalloc.start()
        try:
            index = build_index(x, k_max)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak_mb < limit_mb, (m, k_max, peak_mb)
        assert index.knn_idx.shape == (6000, k_max)


@st.composite
def influence_cases(draw):
    """Lists to read every influence graph from, and the order of the k.

    Rows are normal, on an integer grid (tied distances), a few distinct
    rows repeated (duplicates) or 1-D; k_max reaches n - 1. The k go
    ascending from 1 (so the table is rebuilt at k_max), descending, or
    shuffled.
    """
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "grid", "duplicates", "1-D"]))
    x = rng.normal(size=(n, 1 if kind == "1-D" else 2))
    if kind == "grid":
        x = np.round(2 * x)
    elif kind == "duplicates":
        x = rng.normal(size=(3, 2))[rng.integers(0, 3, size=n)]
    k_max = draw(st.sampled_from([n - 1, min(n - 1, 8)]))
    ks = list(range(1, k_max + 1))
    order = draw(st.sampled_from(["ascending", "descending", "shuffled"]))
    if order == "descending":
        ks.reverse()
    elif order == "shuffled":
        ks = draw(st.permutations(ks))
    return x, k_max, ks


@given(influence_cases())
@settings(max_examples=150, deadline=None)
def test_influence_graphs_match_the_sorted_keys_build_in_any_order(case):
    x, k_max, ks = case
    index = build_index(x, k_max)
    for k in ks:
        offsets, members = index.influence_csr(k)
        want_offsets, want_members = sorted_keys_influence_oracle(index.knn_idx, k)
        np.testing.assert_array_equal(offsets, want_offsets)
        np.testing.assert_array_equal(members, want_members)
    # one table, as wide as the first k, or rebuilt at k_max for a wider one
    widths = [width for kind, width in index._per_k if kind == "mutual"]
    assert widths == ([ks[0]] if max(ks) <= ks[0] else [k_max])


def test_the_mutual_rank_table_holds_no_gather_of_all_rows():
    x = np.random.default_rng(12).uniform(size=(5000, 2))
    built = build_index(x, 30)
    index = NeighborIndex(built.data, 30, built.knn_idx, built.knn_d2)
    tracemalloc.start()
    try:
        table = index._mutual_ranks(30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a plain knn_idx[knn_idx] gather holds n * k_max**2 ids: 36 MB here
    assert 8 * x.shape[0] * 30**2 > 8 * rnncluster.data._BLOCK_BYTES
    assert peak - table.nbytes <= rnncluster.data._BLOCK_BYTES
