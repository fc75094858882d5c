"""Vanilla Lloyd k-means with seeded restarts.

Initial centroids are distinct entities drawn at random; assignment uses
squared Euclidean distance; clusters that empty out during iteration are
reseeded with the entity currently farthest from its own centroid, so the
returned clustering always has exactly K nonempty clusters. Across
restarts the run with the lowest within-cluster sum of squares wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import Clustering, canonicalize_labels, check_count
from .data import as_feature_matrix, row_squared_distances, squared_distance_blocks

__all__ = ["KmeansParams", "kmeans", "lloyd"]


@dataclass(frozen=True)
class KmeansParams:
    k_clusters: int
    restarts: int = 100
    max_iters: int = 300
    seed: int = 0

    def __post_init__(self):
        for name in ("k_clusters", "restarts", "max_iters"):
            check_count(name, getattr(self, name))


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid; ties go to the smaller index."""
    labels = np.empty(x.shape[0], dtype=np.int64)
    for start, block in squared_distance_blocks(x, centroids):
        labels[start : start + block.shape[0]] = np.argmin(block, axis=1)
    return labels


def _objective(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    diff = x - centroids[labels]
    return float(np.einsum("ij,ij->", diff, diff))


def lloyd(
    x: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iters: int = 300,
    trace: list | None = None,
) -> tuple[np.ndarray, float]:
    """One seeded Lloyd run; returns (labels, within-cluster sum of squares).

    When `trace` is a list, the objective after every full iteration is
    appended to it (the sequence is non-increasing).
    """
    n = x.shape[0]
    if k > n:
        raise ValueError(f"k_clusters={k} exceeds the number of entities {n}")
    centroids = x[rng.choice(n, size=k, replace=False)].copy()
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        new_labels = _assign(x, centroids)
        # reseed empty clusters with the entity farthest from its centroid
        counts = np.bincount(new_labels, minlength=k)
        for empty in np.flatnonzero(counts == 0).tolist():
            residual = row_squared_distances(x, centroids[new_labels])
            residual[counts[new_labels] <= 1] = -1.0  # do not empty another cluster
            runaway = int(np.argmax(residual))
            counts[new_labels[runaway]] -= 1
            new_labels[runaway] = empty
            counts[empty] = 1
            centroids[empty] = x[runaway]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centroids[c] = x[labels == c].mean(axis=0)
        if trace is not None:
            trace.append(_objective(x, centroids, labels))
    return labels, _objective(x, centroids, labels)


def kmeans(data: np.ndarray, params: KmeansParams) -> Clustering:
    """Best-of-restarts k-means clustering (lowest objective wins, first on ties)."""
    x = as_feature_matrix(data)
    rng = np.random.default_rng(params.seed)
    runs = (lloyd(x, params.k_clusters, rng, params.max_iters) for _ in range(params.restarts))
    # min keeps the first best run, also when every objective overflows to inf
    labels, _ = min(runs, key=lambda run: run[1])
    return canonicalize_labels(labels)
