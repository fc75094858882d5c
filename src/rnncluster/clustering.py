"""Shared clustering result type and the draw-order claim of dense groups.

Every algorithm returns a `Clustering`: one label per entity, either a
cluster id in 0..K-1 or the NOISE sentinel (-1). Cluster ids are always
canonical: contiguous from 0, ordered by each cluster's smallest member
index, so identical partitions compare equal regardless of discovery order.

ISDBSCAN and DBSCAN both draw entities in a seeded order from a symmetric
graph whose linked dense entities form groups: a group is claimed at its
first member's draw, and an entity goes to the first claimed group linked
to it. `claim_in_draw_order` applies that rule in one vectorized pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISE = -1

__all__ = ["NOISE", "Clustering", "canonicalize_labels", "claim_in_draw_order"]


@dataclass(frozen=True)
class Clustering:
    """Hard assignment of n entities to K clusters, with optional noise."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a nonempty 1-D integer array")
        if labels.min() < NOISE:
            raise ValueError("labels must be cluster ids >= 0 or NOISE (-1)")
        ids = np.unique(labels[labels >= 0])
        if ids.size and (ids[0] != 0 or ids[-1] != ids.size - 1):
            raise ValueError("cluster ids must be contiguous integers starting at 0")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def n_clusters(self) -> int:
        """K: the number of distinct non-noise cluster ids."""
        mask = self.labels >= 0
        return int(self.labels[mask].max()) + 1 if mask.any() else 0

    @property
    def n_noise(self) -> int:
        return int(np.count_nonzero(self.labels == NOISE))

    def members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster_id)

    def sizes(self) -> np.ndarray:
        """Cluster sizes indexed by cluster id (noise excluded)."""
        return np.bincount(self.labels[self.labels >= 0], minlength=self.n_clusters)


def canonicalize_labels(labels: np.ndarray) -> Clustering:
    """Relabel cluster ids by ascending smallest-member index; noise stays -1.

    Accepts any integer labelling with >= -1 values (ids need not be
    contiguous) and produces the canonical `Clustering`.
    """
    labels = np.asarray(labels, dtype=np.int64)
    out = np.full(labels.shape, NOISE, dtype=np.int64)
    clustered = labels >= 0
    _, first, inverse = np.unique(labels[clustered], return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    out[clustered] = rank[inverse]
    return Clustering(labels=out)


def claim_in_draw_order(offsets, members, dense, order):
    """Claim each entity for the earliest-drawn dense group linked to it.

    The graph is symmetric and in CSR form: row i, members[offsets[i]:
    offsets[i+1]], holds i itself and every j whose row holds i. Dense
    entities joined by an edge form a group, drawn at the first position
    in `order` (a permutation of the n entities) that any member takes.

    Returns (group, drawn): group[i] is the draw position of the earliest
    group in row i, which names that group, or n when the row has none;
    drawn[i] is i's own position in `order`.
    """
    n = dense.size
    drawn = np.empty(n, dtype=np.int64)
    drawn[order] = np.arange(n)
    dense_ids = np.flatnonzero(dense)
    # union-find over dense-dense edges: sparse entities have root n,
    # which never hooks, so a sparse link joins no groups
    root = np.append(np.where(dense, np.arange(n), n), n)
    while True:
        low = np.minimum.reduceat(root[members], offsets[:-1])[dense_ids]
        if np.array_equal(low, root[dense_ids]):
            break
        np.minimum.at(root, root[dense_ids], low)  # hook each root to its lowest linked root
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    first = np.full(n + 1, n, dtype=np.int64)
    np.minimum.at(first, root[dense_ids], drawn[dense_ids])
    return np.minimum.reduceat(first[root][members], offsets[:-1]), drawn
