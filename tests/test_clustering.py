import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import canonicalize_oracle
from rnncluster import NOISE, canonicalize_labels


def test_canonicalize_labels_examples():
    assert canonicalize_labels([5, 5, -1, 2, 9, 2]).labels.tolist() == [0, 0, -1, 1, 2, 1]
    assert canonicalize_labels([-1, -1]).labels.tolist() == [NOISE, NOISE]
    assert canonicalize_labels([3]).labels.tolist() == [0]


@given(st.lists(st.integers(-1, 12), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_canonicalize_labels_matches_loop_oracle(labels):
    got = canonicalize_labels(np.array(labels, dtype=np.int64)).labels
    assert got.tolist() == canonicalize_oracle(labels)
