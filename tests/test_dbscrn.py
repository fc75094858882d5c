import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jittered_ring
from oracles import (
    classify_core,
    dbscrn_expansion_oracle,
    dbscrn_oracle,
    dbscrn_wave_oracle,
    expand_cluster,
    rnn_oracle,
)
from rnncluster import DbscrnParams, build_index, dbscrn, range_standardize

LINE = np.array([[0.0], [1.0], [2.0], [4.0], [8.0]])


def test_classify_core_examples():
    two = build_index(np.array([[0.0], [1.0]]), k_max=1)
    assert classify_core(two, 0, 1) and classify_core(two, 1, 1)
    line = build_index(LINE, k_max=4)
    assert not classify_core(line, 4, 1)  # RNN_1 of the far point is empty
    assert classify_core(line, 1, 1)  # |RNN_1(1)| = 2 >= 1


def test_core_criterion_matches_oracle_counts():
    rng = np.random.default_rng(3)
    for _ in range(8):
        x = rng.normal(size=(int(rng.integers(8, 40)), 2))
        k = int(rng.integers(2, 6))
        index = build_index(x, k_max=k)
        for i in range(x.shape[0]):
            assert classify_core(index, i, k) == (len(rnn_oracle(x, i, k)) >= k)


def test_expand_two_points():
    index = build_index(np.array([[0.0], [1.0]]), k_max=1)
    assignment = np.full(2, -1, dtype=np.int64)
    members = expand_cluster(index, 0, 1, assignment, 0)
    assert sorted(members.tolist()) == [0, 1]  # |RNN_1(1)| = 1 > 2/pi


def test_expand_ring_excludes_far_outlier():
    x = np.vstack([jittered_ring(20, [0.0, 0.0], 0.5, 1), [[30.0, 30.0]]])
    index = build_index(x, k_max=6)
    assignment = np.full(21, -1, dtype=np.int64)
    members = expand_cluster(index, 0, 5, assignment, 0)
    assert sorted(members.tolist()) == list(range(20))
    assert assignment[20] == -1  # sparse outlier is left to the nearest-core pass
    assert set(members.tolist()) == dbscrn_expansion_oracle(x, 0, 5, set())


def test_expand_with_everything_claimed_returns_start_only():
    x = jittered_ring(20, [0.0, 0.0], 0.5, 2)
    index = build_index(x, k_max=6)
    assignment = np.zeros(20, dtype=np.int64)  # everyone already claimed
    assignment[5] = -1
    members = expand_cluster(index, 5, 5, assignment, 9)
    assert members.tolist() == [5]


def test_two_rings_fully_assigned(two_rings):
    x, _ = range_standardize(two_rings.matrix)
    index = build_index(x, k_max=6)
    clustering = dbscrn(x, index, DbscrnParams(k=5))
    assert clustering.n_clusters == 2
    assert clustering.n_noise == 0  # DBSCRN never outputs noise
    assert len(set(clustering.labels[:20].tolist())) == 1
    assert len(set(clustering.labels[20:].tolist())) == 1


def test_matches_full_oracle_on_random_data():
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.normal(size=(int(rng.integers(10, 45)), 2))
        k = int(rng.integers(2, 6))
        index = build_index(x, k_max=k)
        clustering = dbscrn(x, index, DbscrnParams(k=k))
        expected = dbscrn_oracle(x, k)
        # same partition up to label names; both canonical by construction
        from rnncluster import canonicalize_labels

        np.testing.assert_array_equal(
            clustering.labels, canonicalize_labels(np.array(expected)).labels
        )


def test_deterministic_across_repeated_runs(two_rings):
    x, _ = range_standardize(two_rings.matrix)
    index = build_index(x, k_max=10)
    reference = dbscrn(x, index, DbscrnParams(k=5)).labels
    for _ in range(10):
        rebuilt = build_index(x, k_max=10)
        np.testing.assert_array_equal(
            dbscrn(x, rebuilt, DbscrnParams(k=5)).labels, reference
        )


def test_every_cluster_contains_a_core_entity():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(80, 2))
    k = 5
    index = build_index(x, k_max=k)
    clustering = dbscrn(x, index, DbscrnParams(k=k))
    sizes = index.rnn_sizes(k)
    assert clustering.n_clusters <= int((sizes >= k).sum())
    for cluster_id in range(clustering.n_clusters):
        members = np.flatnonzero(clustering.labels == cluster_id)
        assert (sizes[members] >= k).any()


def test_params_validated():
    with pytest.raises(ValueError):
        DbscrnParams(k=0)


def test_data_not_matching_the_index_is_rejected():
    x = np.random.default_rng(4).normal(size=(150, 4))
    index = build_index(x, k_max=10)
    with pytest.raises(ValueError, match=r"\(40, 4\).*\(150, 4\)"):
        dbscrn(x[:40], index, DbscrnParams(k=5))


@st.composite
def dbscrn_cases(draw):
    """Small data with many exact distance ties and some duplicated rows,
    k from 1 to n-1 and k_max from k to n-1."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, m))
    if draw(st.booleans()):
        x = np.round(2 * x)  # integer grid: ties everywhere
    if draw(st.booleans()):
        x[n // 2 :] = x[: n - n // 2]  # duplicated rows
    k = draw(st.integers(1, n - 1))
    return x, k, draw(st.integers(k, n - 1))


@given(dbscrn_cases())
@settings(max_examples=150, deadline=None)
def test_dbscrn_matches_wave_oracle(case):
    x, k, k_max = case
    index = build_index(x, k_max=k_max)
    try:
        expected = dbscrn_wave_oracle(x, index, k)
    except ValueError:
        with pytest.raises(ValueError, match="no core entities"):
            dbscrn(x, index, DbscrnParams(k=k))
        return
    np.testing.assert_array_equal(dbscrn(x, index, DbscrnParams(k=k)).labels, expected)


def _chain(name):
    rng = np.random.default_rng(8)
    if name == "jittered-line":
        return (np.arange(10_000) + rng.uniform(-0.1, 0.1, 10_000))[:, None]
    if name == "squares":
        return (np.arange(5_000.0) ** 2)[:, None]
    return (1.5 ** np.arange(1_500.0))[:, None]  # squared gaps overflow to inf


@pytest.mark.parametrize("name", ["jittered-line", "squares", "powers-of-1.5"])
def test_long_chains_match_wave_oracle(name):
    # reachability runs along one long path, the worst case for label pulls
    x = _chain(name)
    index = build_index(x, k_max=10)
    for k in (1, 3, 10):
        np.testing.assert_array_equal(
            dbscrn(x, index, DbscrnParams(k=k)).labels, dbscrn_wave_oracle(x, index, k)
        )


def test_entity_without_a_core_in_its_row_uses_the_blocked_scan():
    x = np.random.default_rng(2).normal(size=(30, 2))
    k = 2
    index = build_index(x, k_max=k)
    guard = index.rnn_sizes(k) > 2.0 * k / math.pi
    # entity 13 fails the guard and so does its whole row: nothing reaches
    # it, and no core is among its k_max nearest
    assert not guard[13] and not guard[index.knn_idx[13]].any()
    np.testing.assert_array_equal(
        dbscrn(x, index, DbscrnParams(k=k)).labels, dbscrn_wave_oracle(x, index, k)
    )
