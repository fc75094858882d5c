import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jittered_ring
from oracles import isdbscan_closure_oracle, isdbscan_worklist_oracle, make_cluster
from rnncluster import (
    IsdbscanParams,
    NOISE,
    build_index,
    isdbscan,
    range_standardize,
)
from rnncluster.clustering import claim_in_draw_order


def test_guard_failure_returns_empty_set():
    # far outlier: influence space empty, 2k/3 guard fails immediately
    x = np.vstack([jittered_ring(20, [0.0, 0.0], 0.5, 0), [[40.0, 40.0]]])
    index = build_index(x, k_max=6)
    visited = set()
    assert make_cluster(index, 20, 5, visited) == set()
    assert visited == set()


def test_two_points_expand_into_each_other():
    x = np.array([[0.0], [1.0]])
    index = build_index(x, k_max=1)
    assert make_cluster(index, 0, 1, set()) == {0, 1}  # threshold 2/3 < 1


def test_ring_collects_all_twenty_points():
    x = jittered_ring(20, [0.0, 0.0], 0.5, 1)
    index = build_index(x, k_max=6)
    collected = make_cluster(index, 0, 5, set())
    assert collected == set(range(20))
    assert collected == isdbscan_closure_oracle(x, 0, 5, set())


def test_make_cluster_matches_closure_oracle_on_random_data():
    rng = np.random.default_rng(21)
    for _ in range(12):
        x = rng.normal(size=(int(rng.integers(10, 50)), 2))
        k = int(rng.integers(3, 6))
        index = build_index(x, k_max=k)
        for start in range(0, x.shape[0], 7):
            assert make_cluster(index, start, k, set()) == isdbscan_closure_oracle(
                x, start, k, set()
            )


def test_two_rings_become_two_clusters_without_noise(two_rings):
    x, _ = range_standardize(two_rings.matrix)
    index = build_index(x, k_max=6)
    clustering = isdbscan(x, index, IsdbscanParams(k=5, seed=3))
    assert clustering.n_clusters == 2
    assert clustering.n_noise == 0
    assert len(set(clustering.labels[:20].tolist())) == 1
    assert len(set(clustering.labels[20:].tolist())) == 1


def test_all_noise_when_k_at_least_n():
    x = np.random.default_rng(0).normal(size=(4, 2))
    index = build_index(x, k_max=3)
    clustering = isdbscan(x, index, IsdbscanParams(k=5))
    assert np.array_equal(clustering.labels, np.full(4, NOISE))
    clustering = isdbscan(x, index, IsdbscanParams(k=4))
    assert np.array_equal(clustering.labels, np.full(4, NOISE))


def test_partition_and_termination_invariants():
    rng = np.random.default_rng(9)
    for trial in range(50):
        n = int(rng.integers(3, 60))
        x = rng.normal(size=(n, int(rng.integers(1, 4))))
        k = int(rng.integers(3, 12))  # sometimes k >= n: the all-noise edge
        index = build_index(x, k_max=min(k, n - 1))
        clustering = isdbscan(x, index, IsdbscanParams(k=k, seed=trial))
        labels = clustering.labels
        assert labels.shape == (n,)
        assert labels.min() >= NOISE  # clusters and noise partition the data
        for cluster_id in range(clustering.n_clusters):
            assert (labels == cluster_id).sum() > k  # the |S_c| > k rule


def test_fixed_seed_reproducible_and_seeds_differ():
    x = np.random.default_rng(1).normal(size=(60, 2))
    index = build_index(x, k_max=6)
    a = isdbscan(x, index, IsdbscanParams(k=5, seed=11))
    b = isdbscan(x, index, IsdbscanParams(k=5, seed=11))
    np.testing.assert_array_equal(a.labels, b.labels)
    labelings = {
        isdbscan(x, index, IsdbscanParams(k=5, seed=seed)).labels.tobytes() for seed in range(20)
    }
    assert len(labelings) > 1


def test_repeated_fits_at_one_k_build_the_influence_graph_once(monkeypatch):
    x = np.random.default_rng(5).normal(size=(80, 2))
    index = build_index(x, k_max=6)
    graphs = []

    def spy(offsets, members, dense, order):
        graphs.append((offsets, members))
        return claim_in_draw_order(offsets, members, dense, order)

    # the package exports the function under the module's name
    monkeypatch.setattr(importlib.import_module("rnncluster.isdbscan"),
                        "claim_in_draw_order", spy)
    for seed in range(5):
        isdbscan(x, index, IsdbscanParams(k=5, seed=seed))
    offsets, members = index.influence_csr(5)
    assert len(graphs) == 5
    assert all(o is offsets and m is members for o, m in graphs)


def test_k_beyond_index_capacity_raises():
    x = np.random.default_rng(2).normal(size=(30, 2))
    index = build_index(x, k_max=4)
    with pytest.raises(ValueError, match="k_max"):
        isdbscan(x, index, IsdbscanParams(k=9))


def test_data_not_matching_the_index_is_rejected():
    x = np.random.default_rng(4).normal(size=(150, 4))
    index = build_index(x, k_max=10)
    with pytest.raises(ValueError, match=r"\(40, 4\).*\(150, 4\)"):
        isdbscan(x[:40], index, IsdbscanParams(k=5))


@st.composite
def isdbscan_cases(draw):
    """Small data with many exact distance ties, some duplicated rows, and
    k from 1 up to beyond n (the all-noise edge)."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, m))
    if draw(st.booleans()):
        x = np.round(2 * x)  # integer grid: ties everywhere
    if draw(st.booleans()):
        x[n // 2 :] = x[: n - n // 2]  # duplicated rows
    return x, draw(st.integers(1, n + 2)), draw(st.integers(0, 50))


@given(isdbscan_cases())
@settings(max_examples=150, deadline=None)
def test_isdbscan_matches_worklist_oracle(case):
    x, k, seed = case
    index = build_index(x, k_max=min(k, x.shape[0] - 1))
    got = isdbscan(x, index, IsdbscanParams(k=k, seed=seed)).labels
    assert got.tolist() == isdbscan_worklist_oracle(index, k, seed)
