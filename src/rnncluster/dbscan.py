"""DBSCAN baseline on squared-Euclidean epsilon-neighbourhoods.

The epsilon threshold is compared against *squared* distances, like every
other dissimilarity in this package; sweep grids are produced in the same
units. The epsilon-lists stream from the blocked distance kernel in
O(block * n) memory, block by compact block (`data.compact_blocks`): an
entity whose lower bound to a block exceeds epsilon is never evaluated
against it, which is exact because the bound never exceeds the kernel's
distance. Core entities linked by epsilon-neighbourhoods form
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
from .data import as_feature_matrix, compact_blocks, row_squared_distances, squared_distance_blocks

__all__ = ["DbscanParams", "dbscan", "epsilon_neighborhood"]


@dataclass(frozen=True)
class DbscanParams:
    """epsilon: squared-distance radius; min_pts: density threshold."""

    epsilon: float
    min_pts: int

    def __post_init__(self):
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be nonnegative")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


def epsilon_neighborhood(data: np.ndarray, i: int, epsilon: float) -> np.ndarray:
    """All entities within squared distance epsilon of entity i, i included."""
    x = np.asarray(data, dtype=np.float64)
    return np.flatnonzero(row_squared_distances(x, x[i]) <= epsilon)


def neighborhood_lists(data: np.ndarray, epsilon: float):
    """Epsilon-neighbourhood of every entity, as a list of ascending id arrays.

    Raises ValueError on a non-finite value in `data` and on a negative or
    NaN epsilon.
    """
    x = as_feature_matrix(data)
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    lists = [None] * x.shape[0]
    for ids, bound in compact_blocks(x):
        candidates = np.flatnonzero(bound <= epsilon)
        for start, block in squared_distance_blocks(x[ids], x[candidates]):
            row, col = np.nonzero(block <= epsilon)  # row-major: ids ascend per row
            parts = np.split(candidates[col], np.searchsorted(row, np.arange(1, block.shape[0])))
            for i, part in zip(ids[start : start + len(parts)].tolist(), parts):
                lists[i] = part
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
