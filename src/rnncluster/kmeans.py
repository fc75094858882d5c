"""Vanilla Lloyd k-means with seeded restarts.

Initial centroids are distinct entities drawn at random; assignment uses
squared Euclidean distance; clusters that empty out during iteration are
reseeded with the entity currently farthest from its own centroid, so the
returned clustering always has exactly K nonempty clusters. Across
restarts the run with the lowest within-cluster sum of squares wins.

The restarts run in lockstep, in chunks of at most `_BLOCK_BYTES // 8n`
runs (so memory does not grow with the restarts): one Lloyd loop steps a
chunk's runs together until each converges or reaches max_iters. Each
run is bit-identical to running it alone: the kernel's floats do not
depend on the shape of its call, and the centroid sums add each group's
rows in row order, as `mean(axis=0)` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as _data
from .clustering import Clustering, canonicalize_labels, check_count
from .data import as_feature_matrix, row_squared_distances

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
        check_count("seed", self.seed, minimum=0)


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Every run's nearest centroid (runs, n) to each row, for centroids (runs, k, m).

    The rows go in the blocks of `squared_distance_blocks` over all the
    centroids. In each block one kernel call per centroid slot covers every
    run: the distances to each run's c-th centroid, which `_first_minimum`
    reads in turn. The kernel squares each difference, so its floats are
    those of the rows' distances to the centroids.
    """
    runs, k, _ = centroids.shape
    labels = np.empty((runs, x.shape[0]), dtype=np.int64)
    rows = max(1, _data._BLOCK_BYTES // (8 * centroids.size))
    for start in range(0, x.shape[0], rows):
        part = x[start : start + rows]
        _first_minimum(lambda c, part=part: row_squared_distances(centroids[:, c, None, :], part), k,
                       labels[:, start : start + rows])
    return labels


def _first_minimum(slice_of, k: int, out: np.ndarray) -> None:
    """Into `out`, elementwise, the c in 0..k-1 of the smallest `slice_of(c)`, as argmin would.

    k - 1 elementwise passes: a later slice wins only where it is strictly
    smaller, so ties go to the smaller index. The winner is the last c that
    won, so the largest, which a maximum keeps without a masked write. The
    running minimum carries a NaN on, and an element whose minimum is NaN
    takes its first NaN, as argmin does, from a second read of the slices.
    Each call of `slice_of` returns a new array; the first becomes the
    running minimum.
    """
    best = slice_of(0)
    out[...] = 0
    closer = np.empty(best.shape, dtype=bool)
    for c in range(1, k):
        distances = slice_of(c)
        np.less(distances, best, out=closer)
        np.maximum(out, closer * c, out=out)
        np.minimum(best, distances, out=best)
    lost = np.isnan(best)
    if lost.any():
        first = out[lost]
        for c in range(k - 1, -1, -1):
            first[np.isnan(slice_of(c)[lost])] = c
        out[lost] = first


def _reseed_empty(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray, counts: np.ndarray):
    """Give one run's empty clusters the entity farthest from its centroid, in place."""
    for empty in np.flatnonzero(counts == 0).tolist():
        residual = row_squared_distances(x, centroids[labels])
        residual[counts[labels] <= 1] = -1.0  # do not empty another cluster
        runaway = int(np.argmax(residual))
        counts[labels[runaway]] -= 1
        labels[runaway] = empty
        counts[empty] = 1
        centroids[empty] = x[runaway]


def _move_centroids(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray, counts: np.ndarray):
    """Set every run's centroids (runs, k, m) to the means of its clusters, in place."""
    runs, k, m = centroids.shape
    if m == 1:
        # the mean of one contiguous column is a pairwise sum, which a grouped
        # sum does not repeat: add.reduce over a cluster's run of a stable sort does
        column = x[np.argsort(labels, axis=1, kind="stable"), 0].ravel()
        ends = np.cumsum(counts).tolist()  # run by run, cluster by cluster
        sums = [np.add.reduce(column[start:end]) for start, end in zip([0, *ends[:-1]], ends)]
        centroids[:, :, 0] = np.reshape(sums, counts.shape) / counts
        return
    # bincount adds each group's rows in row order, as mean(axis=0) does
    keys = (labels + k * np.arange(runs)[:, None]).ravel()
    for j in range(m):
        column = np.broadcast_to(x[:, j], labels.shape).ravel()
        sums = np.bincount(keys, weights=column, minlength=runs * k)
        centroids[:, :, j] = (sums / counts.ravel()).reshape(runs, k)


def _objective(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    diff = x - centroids[labels]
    return float(np.einsum("ij,ij->", diff, diff))


def _lloyd_runs(x: np.ndarray, k: int, rng, runs: int, max_iters: int, trace: list | None = None):
    """`runs` seeded Lloyd runs in lockstep: their labels (runs, n) and objectives.

    Run r is the r-th of `runs` one-run calls in turn with the same `rng`.
    `trace` gets the objective of every run that moved, each iteration.
    """
    n = x.shape[0]
    if k > n:
        raise ValueError(f"k_clusters={k} exceeds the number of entities {n}")
    centroids = np.stack([x[rng.choice(n, size=k, replace=False)] for _ in range(runs)])
    labels = np.full((runs, n), -1, dtype=np.int64)
    active = np.arange(runs)
    for _ in range(max_iters):
        moving = centroids[active]
        new_labels = _assign(x, moving)
        offsets = k * np.arange(active.size)[:, None]
        counts = np.bincount((new_labels + offsets).ravel(), minlength=offsets.size * k)
        counts = counts.reshape(-1, k)
        for run in np.flatnonzero((counts == 0).any(axis=1)).tolist():
            _reseed_empty(x, moving[run], new_labels[run], counts[run])
        moved = (new_labels != labels[active]).any(axis=1)
        if not moved.all():
            # a run that stops keeps its centroids: a cluster reseeded just
            # now held the same one entity before
            active, moving = active[moved], moving[moved]
            new_labels, counts = new_labels[moved], counts[moved]
            if not active.size:
                break
        labels[active] = new_labels
        _move_centroids(x, moving, new_labels, counts)
        centroids[active] = moving
        if trace is not None:
            trace.extend(_objective(x, centroids[run], labels[run]) for run in active.tolist())
    return labels, [_objective(x, centroids[run], labels[run]) for run in range(runs)]


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
    labels, objectives = _lloyd_runs(as_feature_matrix(x), k, rng, 1, max_iters, trace)
    return labels[0], objectives[0]


def kmeans(data: np.ndarray, params: KmeansParams) -> Clustering:
    """Best-of-restarts k-means clustering (lowest objective wins, first on ties)."""
    x = as_feature_matrix(data)
    rng = np.random.default_rng(params.seed)
    chunk = max(1, _data._BLOCK_BYTES // (8 * x.shape[0]))
    best_labels, best = None, None
    for start in range(0, params.restarts, chunk):
        runs = min(chunk, params.restarts - start)
        labels, objectives = _lloyd_runs(x, params.k_clusters, rng, runs, params.max_iters)
        for run, objective in enumerate(objectives):
            # the first best run wins, also when every objective overflows to
            # inf; a copy lets the chunk's labels go
            if best_labels is None or objective < best:
                best_labels, best = labels[run].copy(), objective
    return canonicalize_labels(best_labels)
