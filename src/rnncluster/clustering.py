"""Shared clustering result type.

Every algorithm returns a `Clustering`: one label per entity, either a
cluster id in 0..K-1 or the NOISE sentinel (-1). Cluster ids are always
canonical: contiguous from 0, ordered by each cluster's smallest member
index, so identical partitions compare equal regardless of discovery order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISE = -1

__all__ = ["NOISE", "Clustering", "canonicalize_labels"]


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
    def noise_mask(self) -> np.ndarray:
        return self.labels == NOISE

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
