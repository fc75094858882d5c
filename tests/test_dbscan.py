import tracemalloc

import numpy as np
import pytest

from rnncluster import (
    DbscanParams,
    NOISE,
    dbscan,
    epsilon_neighborhood,
    pairwise_distance_extrema,
)
from rnncluster.dbscan import neighborhood_lists

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
        lists = neighborhood_lists(x, eps)
        assert len(lists) == x.shape[0]
        for i, members in enumerate(lists):
            np.testing.assert_array_equal(members, epsilon_neighborhood(x, i, eps))


def test_neighborhood_lists_memory_is_bounded():
    # one n x n float64 at n = 6,000 is 275 MB; about 10 neighbours per entity
    x = np.random.default_rng(6).uniform(size=(6000, 2))
    tracemalloc.start()
    try:
        lists = neighborhood_lists(x, 5e-4)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 64
    assert len(lists) == 6000
