import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dbscan_bfs_oracle, epsilon_neighborhood, neighborhood_lists_oracle
from rnncluster import (
    DbscanParams,
    NOISE,
    dbscan,
    make_blobs,
    make_two_moons,
    pairwise_distance_extrema,
    range_standardize,
)
from rnncluster.dbscan import dbscan_from_neighborhoods, neighborhood_lists

LINE = np.array([[0.0], [1.0], [2.0], [4.0], [8.0]])


def test_epsilon_neighborhood_examples():
    assert epsilon_neighborhood(LINE, 1, 1.0).tolist() == [0, 1, 2]
    assert epsilon_neighborhood(LINE, 3, 0.0).tolist() == [3]  # only self at distance 0
    _, hi = pairwise_distance_extrema(LINE)
    assert epsilon_neighborhood(LINE, 0, hi).tolist() == [0, 1, 2, 3, 4]


def test_hand_case_line():
    # squared-distance neighborhoods at eps=1: {0,1},{0,1,2},{1,2},{3},{4}
    clustering = dbscan(LINE, DbscanParams(epsilon=1.0, min_pts=2), seed=0)
    assert clustering.labels.tolist() == [0, 0, 0, NOISE, NOISE]


def test_everything_within_epsilon_is_one_cluster():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 2))
    _, hi = pairwise_distance_extrema(x)
    clustering = dbscan(x, DbscanParams(epsilon=hi, min_pts=30), seed=1)
    assert clustering.n_clusters == 1
    assert clustering.n_noise == 0


def test_params_validation():
    with pytest.raises(ValueError):
        DbscanParams(epsilon=-1.0, min_pts=2)
    with pytest.raises(ValueError):
        DbscanParams(epsilon=np.nan, min_pts=2)
    with pytest.raises(ValueError):
        DbscanParams(epsilon=0.5, min_pts=0)


def test_core_and_noise_status_independent_of_seed():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(80, 2))
    params = DbscanParams(epsilon=0.2, min_pts=4)
    reference = dbscan(x, params, seed=0)
    neighborhoods = [epsilon_neighborhood(x, i, params.epsilon) for i in range(80)]
    core = {i for i in range(80) if neighborhoods[i].size >= params.min_pts}
    for seed in range(6):
        clustering = dbscan(x, params, seed=seed)
        assert (clustering.labels == NOISE).sum() == (reference.labels == NOISE).sum()
        np.testing.assert_array_equal(clustering.labels == NOISE, reference.labels == NOISE)
        # every core entity belongs to exactly one cluster, never noise
        for i in core:
            assert clustering.labels[i] != NOISE
        # every assigned non-core entity sits within eps of a core cluster-mate
        for i in range(80):
            if clustering.labels[i] == NOISE or i in core:
                continue
            mates = [j for j in neighborhoods[i] if j != i and j in core]
            assert any(clustering.labels[j] == clustering.labels[i] for j in mates)


def test_fixed_seed_is_reproducible():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(60, 3))
    params = DbscanParams(epsilon=0.5, min_pts=3)
    a = dbscan(x, params, seed=123)
    b = dbscan(x, params, seed=123)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_raising_epsilon_never_adds_noise():
    rng = np.random.default_rng(3)
    for trial in range(5):
        x = rng.normal(size=(70, 2))
        lo, hi = pairwise_distance_extrema(x)
        previous = 70
        for eps in np.linspace(lo, hi, 12):
            clustering = dbscan(x, DbscanParams(epsilon=float(eps), min_pts=4), seed=trial)
            assert clustering.n_noise <= previous
            previous = clustering.n_noise


def test_neighborhood_lists_match_single_row_scans():
    rng = np.random.default_rng(4)
    for x, eps in [(rng.normal(size=(700, 9)), 6.0), (np.round(rng.normal(size=(60, 2))), 1.0)]:
        offsets, members = neighborhood_lists(x, eps)
        assert offsets.size == x.shape[0] + 1
        for i, oracle in enumerate(neighborhood_lists_oracle(x, eps)):
            row = members[offsets[i] : offsets[i + 1]]
            np.testing.assert_array_equal(row, epsilon_neighborhood(x, i, eps))
            np.testing.assert_array_equal(row, oracle)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_neighborhood_lists_reject_non_finite_data(bad):
    x = np.random.default_rng(2).normal(size=(20, 2))
    x[7, 1] = bad
    with pytest.raises(ValueError, match=f"{bad} at row 7, column 1"):
        neighborhood_lists(x, 1.0)


@pytest.mark.parametrize("epsilon", [-1e-9, np.nan])
def test_neighborhood_lists_reject_a_negative_or_nan_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        neighborhood_lists(LINE, epsilon)


def test_neighborhood_lists_prune_most_pairs(kernel_pairs):
    x, _ = range_standardize(make_blobs(7, 500, 0.08).matrix)
    neighborhood_lists(x, 4e-4)
    assert 0 < kernel_pairs[0] < x.shape[0] ** 2 / 4


def test_neighborhood_lists_are_symmetric():
    # the claim pass reads a border entity's own list to find its groups
    rng = np.random.default_rng(5)
    tied = np.round(2 * rng.normal(size=(80, 2)))
    for x, eps in [(rng.normal(size=(700, 9)), 6.0), (tied, 2.0)]:
        offsets, members = neighborhood_lists(x, eps)
        owners = np.repeat(np.arange(x.shape[0]), np.diff(offsets))
        pairs = set(zip(owners.tolist(), members.tolist()))
        assert pairs == {(j, i) for i, j in pairs}


def test_border_entity_goes_to_the_group_drawn_first():
    # two core groups of five with one border entity (2.0) within eps of both
    x = np.array([[0.0], [0.25], [0.5], [0.75], [1.0], [2.0], [3.0], [3.25], [3.5], [3.75], [4.0]])
    neigh = neighborhood_lists(x, 1.0)
    offsets, members = neigh
    # fewer than min_pts: a border entity
    assert members[offsets[5] : offsets[6]].tolist() == [4, 5, 6]
    sides = set()
    for seed in range(20):
        labels = dbscan_from_neighborhoods(neigh, 4, seed).labels
        assert labels.tolist() == dbscan_bfs_oracle(neigh, 4, seed)
        assert labels[:5].tolist() == [0] * 5 and labels[6:].tolist() == [1] * 5
        sides.add(int(labels[5]))
    assert sides == {0, 1}


@st.composite
def dbscan_cases(draw):
    """Small data with many exact distance ties and some duplicated rows; eps
    from 0 (only duplicates are neighbours) to beyond the largest distance."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, m))
    if draw(st.booleans()):
        x = np.round(2 * x)  # integer grid: ties everywhere
    if draw(st.booleans()):
        x[n // 2 :] = x[: n - n // 2]  # duplicated rows
    hi = pairwise_distance_extrema(x)[1] if n > 1 else 1.0
    eps = draw(st.sampled_from([0.0, hi, 2 * hi]) | st.floats(0.0, hi))
    return x, eps, draw(st.integers(1, 14)), draw(st.integers(0, 50))


@given(dbscan_cases())
@settings(max_examples=150, deadline=None)
def test_dbscan_matches_bfs_oracle(case):
    x, eps, min_pts, seed = case
    neigh = neighborhood_lists(x, eps)
    got = dbscan_from_neighborhoods(neigh, min_pts, seed).labels
    assert got.tolist() == dbscan_bfs_oracle(neigh, min_pts, seed)


def test_dbscan_memory_stays_near_its_input():
    # at the largest eps every row holds all n ids; the claim pass reads the
    # CSR pair in place and holds one same-sized gather at a time, never a
    # copy of the graph or per-edge pairs
    x, _ = range_standardize(make_two_moons().matrix)
    neigh = neighborhood_lists(x, pairwise_distance_extrema(x)[1])
    graph_bytes = neigh[0].nbytes + neigh[1].nbytes
    tracemalloc.start()
    try:
        dbscan_from_neighborhoods(neigh, 10, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * graph_bytes


def test_neighborhood_lists_memory_is_bounded():
    # one n x n float64 at n = 6,000 is 275 MB; about 10 neighbours per entity
    x = np.random.default_rng(6).uniform(size=(6000, 2))
    tracemalloc.start()
    try:
        offsets, _ = neighborhood_lists(x, 5e-4)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 64
    assert offsets.size == 6001
