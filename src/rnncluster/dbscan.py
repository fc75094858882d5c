"""DBSCAN baseline on squared-Euclidean epsilon-neighbourhoods.

The epsilon threshold is compared against *squared* distances, like every
other dissimilarity in this package; sweep grids are produced in the same
units. The epsilon-lists, one symmetric CSR graph, stream from the blocked
distance kernel in O(block * n) memory, block by compact block
(`data.compact_blocks`): an entity whose lower bound to a block exceeds
epsilon is never evaluated against it, which is exact because the bound
never exceeds the kernel's distance. Core entities linked in the graph form
groups; a cluster is a group plus the border entities within epsilon of it.
A border entity near several groups goes to the one whose first core comes
first in a seeded draw (`claim_in_draw_order`): core/noise status never
depends on the seed, but which cluster claims a shared border entity does,
which is exactly the non-determinism DBSCAN is known for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import NOISE, Clustering, canonicalize_labels, check_count, check_radius
from .clustering import claim_in_draw_order, group_roots
from .data import as_feature_matrix, compact_blocks, squared_distance_blocks

__all__ = ["DbscanParams", "dbscan"]


@dataclass(frozen=True)
class DbscanParams:
    """epsilon: squared-distance radius; min_pts: density threshold."""

    epsilon: float
    min_pts: int

    def __post_init__(self):
        check_radius("epsilon", self.epsilon)
        check_count("min_pts", self.min_pts)


def neighborhood_lists(data: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Epsilon-neighbourhood of every entity, in CSR form: (offsets, members).

    Row i, members[offsets[i]:offsets[i+1]], holds the ids within squared
    distance epsilon of i, i included, ascending; the graph is symmetric.
    Raises ValueError on non-finite data, or unless epsilon is a real number >= 0.
    """
    x = as_feature_matrix(data)
    check_radius("epsilon", epsilon)
    own, counts, found = [], [], []
    for ids, bound in compact_blocks(x):
        candidates = np.flatnonzero(bound <= epsilon)
        for start, block in squared_distance_blocks(x[ids], x[candidates]):
            row, col = np.nonzero(block <= epsilon)  # row-major: ids ascend per row
            own.append(ids[start : start + block.shape[0]])
            counts.append(np.bincount(row, minlength=block.shape[0]))
            found.append(candidates[col])
    own, counts, found = np.concatenate(own), np.concatenate(counts), np.concatenate(found)
    offsets = np.zeros(x.shape[0] + 1, dtype=np.int64)
    offsets[own + 1] = counts
    np.cumsum(offsets, out=offsets)
    # each entity's row is one run of `found`: gather the runs in id order
    first = np.empty(x.shape[0], dtype=np.int64)
    first[own] = np.cumsum(counts) - counts
    gather = np.repeat(first - offsets[:-1], np.diff(offsets))
    gather += np.arange(found.size)
    return offsets, found[gather]


def dbscan(data: np.ndarray, params: DbscanParams, seed: int = 0) -> Clustering:
    """Cluster `data` with DBSCAN.

    An entity is core iff its epsilon-neighbourhood (itself included) has
    at least min_pts members; clusters are the maximal sets grown from
    core entities; remaining entities are NOISE.

    Reproducible bit-for-bit for a fixed seed.
    """
    neigh = neighborhood_lists(data, params.epsilon)
    return dbscan_from_neighborhoods(neigh, params.min_pts, seed)


def dbscan_from_neighborhoods(neigh, min_pts: int, seed: int = 0, *, roots=None) -> Clustering:
    """DBSCAN given precomputed epsilon-neighbourhoods (sweeps reuse these).

    `neigh` is the CSR pair (offsets, members) of `neighborhood_lists`, read
    in place: each row holds its own entity, and j is in row i iff i is in j.
    Raises ValueError unless min_pts is an integer >= 1. `roots`, a memo the
    caller owns for one `neigh`, maps min_pts to the `group_roots` of its
    core entities, so the caller's seeded runs at one min_pts group once.
    """
    check_count("min_pts", min_pts)
    offsets, members = neigh
    n = offsets.size - 1
    roots = {} if roots is None else roots
    if min_pts not in roots:
        roots[min_pts] = group_roots(offsets, members, np.diff(offsets) >= min_pts)
    order = np.random.default_rng(seed).permutation(n)
    group, _ = claim_in_draw_order(offsets, members, roots[min_pts], order)
    return canonicalize_labels(np.where(group < n, group, NOISE))
