"""Metamorphic checks: what range standardization makes invariant stays invariant.

A positive affine map a * x + b per feature changes the standardized
values only by rounding. On continuous random data no two distances are
that close, so the kNN lists and the kNN-based labelings must not change.
DBSCAN is left out: its epsilon grid starts at a pairwise distance, which
rounding can move across epsilon. So is row permutation: ids break
distance ties and the seeded draw order is over ids.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rnncluster import (
    DbscrnParams,
    IsdbscanParams,
    build_index,
    dbscrn,
    isdbscan,
    range_standardize,
)


@st.composite
def affine_cases(draw):
    n = draw(st.integers(30, 200))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, m))
    scale = 10.0 ** rng.uniform(-2, 2, size=m)  # a in [0.01, 100]
    shift = rng.uniform(-1e3, 1e3, size=m)
    return x, scale * x + shift, draw(st.integers(0, 50))


@given(affine_cases())
@settings(max_examples=40, deadline=None)
def test_positive_affine_maps_leave_knn_lists_and_labels_unchanged(case):
    x, y, seed = case
    x, _ = range_standardize(x)
    y, _ = range_standardize(y)
    k_max = 10
    a, b = build_index(x, k_max), build_index(y, k_max)
    np.testing.assert_array_equal(a.knn_idx, b.knn_idx)
    for k in range(1, k_max + 1):
        np.testing.assert_array_equal(
            dbscrn(x, a, DbscrnParams(k=k)).labels, dbscrn(y, b, DbscrnParams(k=k)).labels
        )
        params = IsdbscanParams(k=k, seed=seed)
        np.testing.assert_array_equal(isdbscan(x, a, params).labels,
                                      isdbscan(y, b, params).labels)
