import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rnncluster.data
from oracles import einsum_squared_distances_oracle, lloyd_oracle
from rnncluster import KmeansParams, canonicalize_labels, kmeans, lloyd, make_blobs, range_standardize
from rnncluster.kmeans import _assign, _first_minimum, _lloyd_runs


def test_k_equals_n_gives_singletons_and_zero_objective():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 2))
    labels, objective = lloyd(x, 12, np.random.default_rng(1))
    assert objective == 0.0
    assert len(set(labels.tolist())) == 12


def test_k_one_centroid_is_the_mean():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 3))
    clustering = kmeans(x, KmeansParams(k_clusters=1, restarts=3, seed=0))
    assert clustering.n_clusters == 1
    labels, objective = lloyd(x, 1, np.random.default_rng(0))
    centered = x - x.mean(axis=0)
    assert objective == pytest.approx(float((centered**2).sum()))


def test_objective_never_increases_within_a_run():
    rng = np.random.default_rng(2)
    for trial in range(8):
        x = rng.normal(size=(60, 2))
        trace: list = []
        lloyd(x, 5, np.random.default_rng(trial), trace=trace)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_fixed_seed_reproducible():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 2))
    params = KmeansParams(k_clusters=4, restarts=5, seed=9)
    np.testing.assert_array_equal(kmeans(x, params).labels, kmeans(x, params).labels)


def test_no_cluster_is_ever_empty():
    rng = np.random.default_rng(4)
    for trial in range(10):
        x = rng.normal(size=(30, 2))
        clustering = kmeans(x, KmeansParams(k_clusters=8, restarts=4, seed=trial))
        assert clustering.n_clusters == 8
        assert np.bincount(clustering.labels).min() >= 1


def test_an_emptied_cluster_is_reseeded_with_the_farthest_entity():
    x = np.vstack([np.zeros((10, 2)), [[5.0, 5.0]]])
    # both initial centroids are copies of (0, 0), so every entity joins
    # cluster 0 and cluster 1 is reseeded with the outlier
    assert (np.random.default_rng(0).choice(11, size=2, replace=False) < 10).all()
    labels, objective = lloyd(x, 2, np.random.default_rng(0))
    assert labels.tolist() == [0] * 10 + [1]
    assert objective == 0.0
    assert kmeans(x, KmeansParams(k_clusters=2, restarts=3, seed=0)).n_clusters == 2


def test_k_larger_than_n_rejected():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans(x, KmeansParams(k_clusters=4, restarts=1, seed=0))


def test_assign_matches_the_stacked_per_centroid_form():
    # integer grids put many rows at equal distance from two centroids (and
    # a repeated centroid ties everywhere): the smaller centroid index wins
    rng = np.random.default_rng(5)
    for m in (2, 4, 9):
        x = rng.integers(-3, 4, size=(300, m)).astype(np.float64)
        for centroids in (x[:6], np.round(rng.normal(size=(5, m))), np.repeat(x[:3], 2, axis=0)):
            stacked = np.stack([einsum_squared_distances_oracle(x, c) for c in centroids], axis=1)
            assert _assign(x, centroids[None])[0].tolist() == np.argmin(stacked, axis=1).tolist()


@st.composite
def distance_blocks(draw):
    """(n, runs, k) blocks from a few values, so ties, +-inf and NaN recur."""
    n, runs, k = draw(st.integers(1, 30)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    values = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, np.inf, -np.inf, np.nan]) | st.floats(0, 10),
                           min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array(values)[rng.integers(0, len(values), size=(n, runs, k))]


@given(distance_blocks())
@example(np.array([[[1.0, np.nan, 0.0, np.nan]], [[2.0, 2.0, 1.0, 1.0]], [[np.nan, -np.inf, np.nan, 0.0]]]))
@settings(max_examples=300, deadline=None)
def test_first_minimum_picks_as_argmin(block):
    kept = block.copy()
    out = np.full(block.shape[:2], -1, dtype=np.int64)
    _first_minimum(lambda c: block[:, :, c].copy(), block.shape[2], out)
    assert out.tolist() == np.argmin(block, axis=2).tolist()
    np.testing.assert_array_equal(block, kept)


@st.composite
def lloyd_cases(draw):
    """Data, K, max_iters, restarts, seed and runs per chunk.

    The rows are normal, on an integer grid (distance ties), a few distinct
    rows repeated (clusters empty out and are reseeded) or scaled to 1e200
    (every distance and objective overflows to inf).
    """
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "grid", "repeated", "overflowing"]))
    x = rng.normal(size=(n, m))
    if kind == "grid":
        x = rng.integers(-2, 3, size=(n, m)).astype(np.float64)
    elif kind == "repeated":
        x = rng.integers(-2, 3, size=(3, m)).astype(np.float64)[rng.integers(0, 3, size=n)]
    elif kind == "overflowing":
        x *= 1e200
    # a few clusters give large groups, whose means sum a column pairwise at m = 1
    k = draw(st.integers(1, min(n, 3)) | st.integers(1, n))
    max_iters = draw(st.sampled_from([1, 2, 300]))
    restarts = draw(st.integers(1, 12))
    chunk = draw(st.sampled_from([1, 2, 5, 100]))
    return x, k, max_iters, restarts, draw(st.integers(0, 2**32 - 1)), chunk


@given(lloyd_cases())
# one column of 40 rows in two clusters: at m = 1 the means are pairwise sums
@example((np.random.default_rng(0).normal(size=(40, 1)), 2, 300, 4, 0, 100))
@settings(max_examples=200, deadline=None)
def test_lockstep_restarts_match_the_one_run_loop_bit_for_bit(case):
    x, k, max_iters, restarts, seed, chunk = case
    rng = np.random.default_rng(seed)
    want = [lloyd_oracle(x, k, rng, max_iters) for _ in range(restarts)]
    with pytest.MonkeyPatch.context() as patch:
        # kmeans takes `chunk` runs at a time, and the assignment's distance
        # blocks split the rows too
        patch.setattr(rnncluster.data, "_BLOCK_BYTES", 8 * x.shape[0] * chunk)
        labels, objectives = _lloyd_runs(x, k, np.random.default_rng(seed), restarts, max_iters)
        clustering = kmeans(x, KmeansParams(k, restarts, max_iters, seed))
    assert labels.tolist() == [run_labels.tolist() for run_labels, _ in want]
    assert [o.hex() for o in objectives] == [o.hex() for _, o in want]
    # the first best run wins, also when every objective is inf
    best, _ = min(want, key=lambda run: run[1])
    assert clustering.labels.tolist() == canonicalize_labels(best).labels.tolist()
    trace: list = []
    want_trace: list = []
    one, objective = lloyd(x, k, np.random.default_rng(seed), max_iters, trace)
    want_one, want_objective = lloyd_oracle(x, k, np.random.default_rng(seed), max_iters, want_trace)
    assert one.tolist() == want_one.tolist()
    assert [o.hex() for o in [objective, *trace]] == [o.hex() for o in [want_objective, *want_trace]]


def test_restarts_run_in_chunks_under_the_block_budget():
    blobs = make_blobs(n_centers=7, points_per_center=3000, spread=0.08, seed=5)
    x, _ = range_standardize(blobs.matrix)
    peaks = {}
    for restarts in (50, 200):
        tracemalloc.start()
        try:
            kmeans(x, KmeansParams(k_clusters=7, restarts=restarts, max_iters=2))
            peaks[restarts] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a chunk holds 24 runs at n = 21,000 (4 MB of labels); the labels of
    # all 200 runs at once would be 33.6 MB per array
    assert peaks[200] < 32 * 2**20
    assert peaks[200] <= 1.1 * peaks[50]
