import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    canonicalize_oracle,
    contiguous_ids_oracle,
    draw_order_claim_oracle,
    full_scan_claim_oracle,
)
from rnncluster import NOISE, Clustering, canonicalize_labels
from rnncluster.clustering import claim_in_draw_order, group_roots


def test_canonicalize_labels_examples():
    assert canonicalize_labels([5, 5, -1, 2, 9, 2]).labels.tolist() == [0, 0, -1, 1, 2, 1]
    assert canonicalize_labels([-1, -1]).labels.tolist() == [NOISE, NOISE]
    assert canonicalize_labels([3]).labels.tolist() == [0]


def test_ids_below_noise_are_refused_with_one_message():
    # canonicalize_labels once mapped -3 to noise, where Clustering refused it
    for make in (Clustering, canonicalize_labels):
        with pytest.raises(ValueError, match=r"^labels must be cluster ids >= 0 or NOISE \(-1\)$"):
            make(np.array([-3, 1, 1]))


@st.composite
def labelings_of_both_paths(draw):
    """Ids all below n (the first-position pass) or some at n and beyond, up
    to 2**62 (the sort)."""
    n = draw(st.integers(1, 60))
    ids = st.integers(-1, n - 1)
    if draw(st.booleans()):
        ids = st.one_of(ids, st.integers(n, n + 3), st.integers(2**62 - 3, 2**62))
    return draw(st.lists(ids, min_size=n, max_size=n))


@given(labelings_of_both_paths())
@example([0, 2**62])
@example([1, 1, -1])
@example([2**62, 0, 2**62 - 1, -1, 0])
@settings(max_examples=300, deadline=None)
def test_canonicalize_labels_matches_loop_oracle(labels):
    got = canonicalize_labels(np.array(labels, dtype=np.int64)).labels
    assert got.tolist() == canonicalize_oracle(labels)


@given(st.lists(st.integers(-1, 12), min_size=1, max_size=40))
@example([0, 2**62])  # the max test refuses it before a bincount could size 2**62 counts
@example([-1, -1])
@settings(max_examples=300, deadline=None)
def test_contiguity_check_matches_the_unique_rule(labels):
    if contiguous_ids_oracle(labels):
        assert Clustering(np.array(labels)).labels.tolist() == labels
    else:
        with pytest.raises(ValueError, match="contiguous"):
            Clustering(np.array(labels))


# path 0-1-2-3-4 plus an unlinked entity 5, in CSR form
PATH_OFFSETS = np.array([0, 2, 5, 8, 11, 13, 14])
PATH_MEMBERS = np.array([0, 1, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5])
PATH_ORDER = np.array([4, 2, 0, 5, 1, 3])


def test_claim_in_draw_order_example():
    # entity 2 is sparse, so the dense groups are {0, 1} and {3, 4}, and 2 links to both
    dense = np.array([True, True, False, True, True, False])
    groups = group_roots(PATH_OFFSETS, PATH_MEMBERS, dense)
    assert groups[0].tolist() == [0, 0, 6, 3, 3, 6]
    group, drawn = claim_in_draw_order(groups, PATH_ORDER)
    assert drawn.tolist() == [2, 4, 1, 5, 0, 3]
    # {0, 1} is drawn at 2, {3, 4} at 0 and claims 2; nothing links to 5
    assert group.tolist() == [2, 2, 0, 0, 0, 6]


def test_claim_with_no_dense_entity_claims_nothing():
    groups = group_roots(PATH_OFFSETS, PATH_MEMBERS, np.zeros(6, dtype=bool))
    assert groups[0].tolist() == [6] * 6
    group, _ = claim_in_draw_order(groups, PATH_ORDER)
    assert group.tolist() == [6] * 6


def test_claim_with_every_entity_dense_follows_the_components():
    groups = group_roots(PATH_OFFSETS, PATH_MEMBERS, np.ones(6, dtype=bool))
    assert groups[0].tolist() == [0, 0, 0, 0, 0, 5]
    group, _ = claim_in_draw_order(groups, PATH_ORDER)
    # the path's first draw is entity 4, at 0; entity 5 is drawn alone at 3
    assert group.tolist() == [0, 0, 0, 0, 0, 3]


def _random_graph(n, seed, p_dense):
    """A random symmetric graph with self loops, in CSR form, and a dense mask."""
    rng = np.random.default_rng(seed)
    adjacency = np.triu(rng.random((n, n)) < 0.2, 1)
    adjacency |= adjacency.T | np.eye(n, dtype=bool)
    row, col = np.nonzero(adjacency)
    offsets = np.searchsorted(row, np.arange(n + 1))
    dense = rng.random(n) < p_dense
    return rng, adjacency, offsets, col, dense


@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_one_set_of_roots_serves_every_draw(n, seed, p_dense):
    # roots built once, claims per draw
    rng, adjacency, offsets, col, dense = _random_graph(n, seed, p_dense)
    groups = group_roots(offsets, col, dense)
    for _ in range(3):
        order = rng.permutation(n)
        group, drawn = claim_in_draw_order(groups, order)
        assert group.tolist() == draw_order_claim_oracle(adjacency, dense, order)
        assert drawn[order].tolist() == list(range(n))


@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@example(12, 0, 0.0)  # no dense entity
@example(12, 0, 1.0)  # every entity dense
@example(12, 0, 0.5)  # sparse row 9 links only sparse entities; rows 1, 3, 5 and 11 link dense ones
@settings(max_examples=200, deadline=None)
def test_the_claim_reads_only_sparse_rows_and_matches_the_full_scan(n, seed, p_dense):
    rng, adjacency, offsets, col, dense = _random_graph(n, seed, p_dense)
    groups = group_roots(offsets, col, dense)
    root, rows, starts, links = groups
    # the kept rows are the sparse ones with a dense link, so no segment is empty
    kept = [i for i in range(n) if not dense[i] and (adjacency[i] & dense).any()]
    assert rows.tolist() == kept
    assert np.diff(np.append(starts, links.size)).tolist() == [
        int(np.count_nonzero(adjacency[i] & dense)) for i in kept]
    for _ in range(3):
        order = rng.permutation(n)
        group, drawn = claim_in_draw_order(groups, order)
        scanned, scanned_drawn = full_scan_claim_oracle(offsets, col, root, order)
        assert group.dtype == scanned.dtype and drawn.dtype == scanned_drawn.dtype
        assert group.tobytes() == scanned.tobytes() and drawn.tobytes() == scanned_drawn.tobytes()
        assert group.tolist() == draw_order_claim_oracle(adjacency, dense, order)
