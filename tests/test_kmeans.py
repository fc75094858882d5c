import numpy as np
import pytest

from oracles import einsum_squared_distances_oracle
from rnncluster import KmeansParams, kmeans, lloyd
from rnncluster.kmeans import _assign


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
        assert clustering.sizes().min() >= 1


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
            assert _assign(x, centroids).tolist() == np.argmin(stacked, axis=1).tolist()
