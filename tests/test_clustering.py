import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import canonicalize_oracle, contiguous_ids_oracle, draw_order_claim_oracle
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


@given(st.lists(st.integers(-1, 12), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
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
    root = group_roots(PATH_OFFSETS, PATH_MEMBERS, dense)
    assert root.tolist() == [0, 0, 6, 3, 3, 6]
    group, drawn = claim_in_draw_order(PATH_OFFSETS, PATH_MEMBERS, root, PATH_ORDER)
    assert drawn.tolist() == [2, 4, 1, 5, 0, 3]
    # {0, 1} is drawn at 2, {3, 4} at 0 and claims 2; nothing links to 5
    assert group.tolist() == [2, 2, 0, 0, 0, 6]


def test_claim_with_no_dense_entity_claims_nothing():
    root = group_roots(PATH_OFFSETS, PATH_MEMBERS, np.zeros(6, dtype=bool))
    assert root.tolist() == [6] * 6
    group, _ = claim_in_draw_order(PATH_OFFSETS, PATH_MEMBERS, root, PATH_ORDER)
    assert group.tolist() == [6] * 6


def test_claim_with_every_entity_dense_follows_the_components():
    root = group_roots(PATH_OFFSETS, PATH_MEMBERS, np.ones(6, dtype=bool))
    assert root.tolist() == [0, 0, 0, 0, 0, 5]
    group, _ = claim_in_draw_order(PATH_OFFSETS, PATH_MEMBERS, root, PATH_ORDER)
    # the path's first draw is entity 4, at 0; entity 5 is drawn alone at 3
    assert group.tolist() == [0, 0, 0, 0, 0, 3]


@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_one_set_of_roots_serves_every_draw(n, seed, p_dense):
    # a random symmetric graph with self loops; roots built once, claims per draw
    rng = np.random.default_rng(seed)
    adjacency = np.triu(rng.random((n, n)) < 0.2, 1)
    adjacency |= adjacency.T | np.eye(n, dtype=bool)
    row, col = np.nonzero(adjacency)
    offsets = np.searchsorted(row, np.arange(n + 1))
    dense = rng.random(n) < p_dense
    root = group_roots(offsets, col, dense)
    for _ in range(3):
        order = rng.permutation(n)
        group, drawn = claim_in_draw_order(offsets, col, root, order)
        assert group.tolist() == draw_order_claim_oracle(adjacency, dense, order)
        assert drawn[order].tolist() == list(range(n))

