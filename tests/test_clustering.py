import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import canonicalize_oracle
from rnncluster import NOISE, canonicalize_labels
from rnncluster.clustering import claim_in_draw_order


def test_canonicalize_labels_examples():
    assert canonicalize_labels([5, 5, -1, 2, 9, 2]).labels.tolist() == [0, 0, -1, 1, 2, 1]
    assert canonicalize_labels([-1, -1]).labels.tolist() == [NOISE, NOISE]
    assert canonicalize_labels([3]).labels.tolist() == [0]


@given(st.lists(st.integers(-1, 12), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_canonicalize_labels_matches_loop_oracle(labels):
    got = canonicalize_labels(np.array(labels, dtype=np.int64)).labels
    assert got.tolist() == canonicalize_oracle(labels)


def test_claim_in_draw_order_example():
    # path 0-1-2-3-4 plus an unlinked entity 5; entity 2 is sparse, so the
    # dense groups are {0, 1} and {3, 4}, and 2 links to both
    offsets = np.array([0, 2, 5, 8, 11, 13, 14])
    members = np.array([0, 1, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5])
    dense = np.array([True, True, False, True, True, False])
    group, drawn = claim_in_draw_order(offsets, members, dense, np.array([4, 2, 0, 5, 1, 3]))
    assert drawn.tolist() == [2, 4, 1, 5, 0, 3]
    # {0, 1} is drawn at 2, {3, 4} at 0 and claims 2; nothing links to 5
    assert group.tolist() == [2, 2, 0, 0, 0, 6]
