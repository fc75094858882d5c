"""DBSCRN, ISDBSCAN and DBSCAN on degenerate inputs, checked against the oracles."""

import warnings

import numpy as np
import pytest

from oracles import dbscan_bfs_oracle, dbscrn_oracle, isdbscan_worklist_oracle
from rnncluster import (
    DbscrnParams,
    IsdbscanParams,
    build_index,
    canonicalize_labels,
    dbscrn,
    isdbscan,
    pairwise_distance_extrema,
    range_standardize,
)
from rnncluster.dbscan import dbscan_from_neighborhoods, neighborhood_lists

_rng = np.random.default_rng(17)
K = 5
CASES = {
    "all-identical-rows": np.full((12, 2), 3.5),
    "fewer-distinct-points-than-k": np.repeat(_rng.normal(size=(3, 2)), 4, axis=0),
    "n-is-k-max-plus-one": _rng.normal(size=(K + 1, 2)),
    "single-feature": _rng.normal(size=(30, 1)),
    "constant-feature": np.column_stack([_rng.normal(size=30), np.full(30, 7.0)]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_degenerate_inputs_match_the_oracles(name):
    x, _ = range_standardize(CASES[name])
    index = build_index(x, k_max=K)
    expected = canonicalize_labels(np.array(dbscrn_oracle(x, K))).labels
    np.testing.assert_array_equal(dbscrn(x, index, DbscrnParams(k=K)).labels, expected)
    for k in (2, K):
        for seed in range(3):
            got = isdbscan(x, index, IsdbscanParams(k=k, seed=seed)).labels
            assert got.tolist() == isdbscan_worklist_oracle(index, k, seed)
    hi = pairwise_distance_extrema(x)[1]
    for eps in (0.0, hi / 4, hi):
        neigh = neighborhood_lists(x, eps)
        for min_pts in (1, 3, K):
            for seed in range(3):
                got = dbscan_from_neighborhoods(neigh, min_pts, seed).labels
                assert got.tolist() == dbscan_bfs_oracle(neigh, min_pts, seed)


# finite rows whose distances, box gaps or box widths overflow float64
OVERFLOWING = {
    "powers-of-1.5": (1.5 ** np.arange(1500.0))[:, None],
    "plus-minus-1e308": np.array([[1e308], [-1e308], [0.0], [1.0], [2.0]]),
    "plus-minus-1e308-over-blocks": np.r_[1e308, -1e308, np.arange(298.0)][:, None],
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_overflowing_distances_raise_no_warning(name):
    # an overflowed distance is inf by design, so numpy's warning is noise
    x = OVERFLOWING[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = build_index(x, k_max=4)
        neighborhood_lists(x, 1.0)
        dbscrn(x, index, DbscrnParams(k=4))
        pairwise_distance_extrema(x)
