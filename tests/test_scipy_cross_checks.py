"""Cross-checks against SciPy's graph routines, which share no code with the package.

SciPy is not a dependency: without it these tests skip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy")
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from oracles import pairwise_squared_distances
from rnncluster import make_blobs, make_two_moons, range_standardize
from rnncluster.clustering import group_roots
from rnncluster.dbscan import neighborhood_lists
from rnncluster.validation import _spanning_trees


@pytest.mark.parametrize("dataset", ["two_moons", "blobs"])
def test_dbscan_groups_are_the_connected_components_of_the_core_graph(dataset):
    matrix = make_two_moons().matrix if dataset == "two_moons" else make_blobs(4, 60, 0.08).matrix
    x, _ = range_standardize(matrix)
    n = x.shape[0]
    squared = pairwise_squared_distances(x)[np.triu_indices(n, 1)]
    groups_seen = set()
    for epsilon in np.quantile(squared, [0.002, 0.01, 0.05]):
        offsets, members = neighborhood_lists(x, epsilon)
        row = np.repeat(np.arange(n), np.diff(offsets))
        for min_pts in (3, 5, 10):
            core = np.diff(offsets) >= min_pts
            keep = core[row] & core[members]
            graph = csr_matrix((np.ones(keep.sum()), (row[keep], members[keep])), shape=(n, n))
            _, component = connected_components(graph, directed=False)
            # each core's root is the smallest id of its component; a non-core's is n
            smallest = np.full(n, n)
            np.minimum.at(smallest, component[core], np.flatnonzero(core))
            root = group_roots(offsets, members, core)[0]
            assert root.tolist() == np.where(core, smallest[component], n).tolist()
            groups_seen.add(np.unique(root[core]).size)
    assert max(groups_seen) >= 2  # the grid reaches separate groups


@st.composite
def distinct_reach_matrices(draw):
    """Finite mutual reachability of distinct points: no reach is 0 off the diagonal."""
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, m)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    dist = np.sqrt(pairwise_squared_distances(x))
    np.fill_diagonal(dist, np.inf)
    with np.errstate(divide="ignore"):
        core = (((1.0 / dist) ** m).sum(axis=1) / (n - 1)) ** (-1.0 / m)
    reach = np.maximum(dist, np.maximum(core[:, None], core[None, :]))
    np.fill_diagonal(reach, 0.0)
    return reach


@given(st.lists(distinct_reach_matrices(), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_prim_tree_weighs_what_scipy_minimum_spanning_tree_weighs(matrices):
    assert all(np.isfinite(w).all() and (w + np.eye(w.shape[0]) > 0).all() for w in matrices)
    width = max(w.shape[0] for w in matrices)
    slab = np.full((len(matrices), width, width), np.inf)  # one stack, each cluster before its padding
    for slot, w in zip(slab, matrices):
        slot[: w.shape[0], : w.shape[0]] = w
    trees = _spanning_trees(slab, [w.shape[0] for w in matrices])
    for w, (_, edge_w, _) in zip(matrices, trees):
        want = minimum_spanning_tree(w).sum()  # the diagonal's zeros are no edges
        assert edge_w.sum() == pytest.approx(want, rel=1e-12)
