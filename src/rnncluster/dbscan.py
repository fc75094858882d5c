"""DBSCAN baseline on squared-Euclidean epsilon-neighbourhoods.

The epsilon threshold is compared against *squared* distances, like every
other dissimilarity in this package; sweep grids are produced in the same
units, and the epsilon-lists stream from the blocked distance kernel in
O(block * n) memory. Core entities linked by epsilon-neighbourhoods form
groups; a cluster is a group plus the border entities within epsilon of
it. A border entity near several groups goes to the one whose first core
comes first in a seeded draw (`claim_in_draw_order`): core/noise status
never depends on the seed, but which cluster claims a shared border
entity does, which is exactly the non-determinism DBSCAN is known for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import NOISE, Clustering, canonicalize_labels, claim_in_draw_order
from .data import row_squared_distances, squared_distance_blocks

__all__ = ["DbscanParams", "dbscan", "epsilon_neighborhood"]


@dataclass(frozen=True)
class DbscanParams:
    """epsilon: squared-distance radius; min_pts: density threshold."""

    epsilon: float
    min_pts: int

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


def epsilon_neighborhood(data: np.ndarray, i: int, epsilon: float) -> np.ndarray:
    """All entities within squared distance epsilon of entity i, i included."""
    x = np.asarray(data, dtype=np.float64)
    return np.flatnonzero(row_squared_distances(x, x[i]) <= epsilon)


def neighborhood_lists(data: np.ndarray, epsilon: float):
    """Epsilon-neighbourhood of every entity, as a list of ascending id arrays."""
    x = np.asarray(data, dtype=np.float64)
    lists = []
    for _, block in squared_distance_blocks(x, x):
        within = block <= epsilon
        ids = np.flatnonzero(within) % x.shape[0]
        lists.extend(np.split(ids, np.cumsum(np.count_nonzero(within, axis=1))[:-1]))
    return lists


def dbscan(data: np.ndarray, params: DbscanParams, seed: int = 0) -> Clustering:
    """Cluster `data` with DBSCAN.

    An entity is core iff its epsilon-neighbourhood (itself included) has
    at least min_pts members; clusters are the maximal sets grown from
    core entities; remaining entities are NOISE.

    Reproducible bit-for-bit for a fixed seed.
    """
    neigh = neighborhood_lists(data, params.epsilon)
    return dbscan_from_neighborhoods(neigh, params.min_pts, seed)


def dbscan_from_neighborhoods(neigh, min_pts: int, seed: int = 0) -> Clustering:
    """DBSCAN given precomputed neighbourhood lists (sweeps reuse these).

    Each list must hold its own entity and be symmetric (j in neigh[i]
    iff i in neigh[j]), as `neighborhood_lists` returns them.
    """
    n = len(neigh)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([ids.size for ids in neigh], out=offsets[1:])
    core = np.diff(offsets) >= min_pts
    order = np.random.default_rng(seed).permutation(n)
    group, _ = claim_in_draw_order(offsets, np.concatenate(neigh), core, order)
    return canonicalize_labels(np.where(group < n, group, NOISE))
