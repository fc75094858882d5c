"""External (ARI) and internal (DBCV) clustering validation.

ARI is the Hubert-Arabie adjusted Rand index computed from the pair
counts of the contingency cells, each predicted noise entity a singleton
cluster; a singleton adds no pair, so no cell is kept for one. DBCV
scores a clustering by comparing within-cluster density sparseness
against between-cluster density separation on mutual-reachability
minimum spanning trees, weighing each cluster by its size over n, noise
counted; it drives unsupervised parameter selection via `select_best`.

DBCV works on plain (non-squared) Euclidean distances, unlike the
clustering algorithms; the two scales never mix.

DBCV has two parts. Each cluster's terms (core distances, sparseness and
the pool of internal MST nodes, `_cluster_terms`) depend only on its own
members, and are built over one n_c x n_c array at a time. The
separations then take one blocked distance pass per cluster, from its
pool to the pools of every later cluster. A caller that scores many
labelings of one dataset, as a sweep does, can pass a `cluster_terms`
dict to `dbcv` so that a cluster recurring in another labeling is not
rebuilt; the report is bit-identical either way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import data as _data
from .clustering import NOISE
from .data import as_feature_matrix, as_labels, row_squared_distances, squared_distance_blocks

__all__ = [
    "DbcvReport",
    "adjusted_rand_index",
    "contingency_table",
    "dbcv",
    "select_best",
]


def contingency_table(pred, truth) -> np.ndarray:
    """Cross-tabulation of two labelings (rows: pred, columns: truth)."""
    pred, truth = as_labels(pred), as_labels(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"label arrays differ in length: {pred.shape} vs {truth.shape}")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def _comb2(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float64)
    return x * (x - 1.0) / 2.0


def adjusted_rand_index(pred, truth) -> float:
    """Hubert-Arabie adjusted Rand index in [-1, 1].

    1.0 means the partitions are identical up to label permutation; ~0 is
    chance-level agreement. Each NOISE entity in `pred` counts as its own
    cluster. A singleton adds no pair, so the pair counts of the
    contingency cells and of the cluster sizes run over the entities not
    labelled NOISE, and those of the class sizes over all entities. Returns
    1.0 when the chance-correction denominator vanishes, which only
    happens when both partitions are trivial in the same way.
    """
    pred, truth = as_labels(pred), as_labels(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"label arrays differ in length: {pred.shape} vs {truth.shape}")
    n = pred.size
    clustered = pred != NOISE
    _, class_of, class_sizes = np.unique(truth, return_inverse=True, return_counts=True)
    _, cluster_of, cluster_sizes = np.unique(
        pred[clustered], return_inverse=True, return_counts=True
    )
    _, cells = np.unique(cluster_of * n + class_of[clustered], return_counts=True)
    index = _comb2(cells).sum()
    a = _comb2(cluster_sizes).sum()
    b = _comb2(class_sizes).sum()
    pairs = n * (n - 1.0) / 2.0
    expected = a * b / pairs if pairs > 0 else 0.0
    denominator = 0.5 * (a + b) - expected
    if denominator == 0.0:
        return 1.0
    return float((index - expected) / denominator)


@dataclass(frozen=True)
class DbcvReport:
    """Per-cluster DBCV diagnostics plus the size-weighted overall score.

    Only clusters with >= 2 members are scored; `cluster_ids` names them.
    sparseness: within-cluster density sparseness (max internal MST edge).
    separation: minimum density separation to any other scored cluster.
    validity: per-cluster score in [-1, 1].
    overall: sum of (cluster size / n) * validity, n counting noise too.
    """

    cluster_ids: np.ndarray
    sparseness: np.ndarray
    separation: np.ndarray
    validity: np.ndarray
    overall: float


def _prim_mst(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense Prim MST; returns (edges (n-1, 2), edge weights, node degrees).

    Grown from node 0: each step adds the node nearest the tree, the lowest
    index on ties; a node's parent changes only on a strictly smaller
    distance.
    """
    nc = weights.shape[0]
    outside = np.ones(nc, dtype=bool)
    outside[0] = False
    best = weights[0].copy()
    best[0] = np.inf
    parent = np.zeros(nc, dtype=np.int64)
    closer = np.empty(nc, dtype=bool)
    edges = np.empty((nc - 1, 2), dtype=np.int64)
    edge_w = np.empty(nc - 1, dtype=np.float64)
    for t in range(nc - 1):
        j = best.argmin()
        edges[t] = parent[j], j
        edge_w[t] = best[j]
        outside[j] = False
        best[j] = np.inf
        row = weights[j]
        np.less(row, best, out=closer)
        closer &= outside
        np.copyto(best, row, where=closer)
        parent[closer] = j
    degrees = np.bincount(edges.ravel(), minlength=nc)
    return edges, edge_w, degrees


def _cluster_terms(points: np.ndarray, m: int) -> tuple[np.ndarray, float, np.ndarray]:
    """(core distances, sparseness, pool) of one cluster of >= 2 `points`.

    The within-cluster distances come from the package kernel,
    `data._BLOCK_ROWS` rows at a time: the temporaries stay a small,
    cache-sized fraction of the one n_c x n_c array, and are reused from
    chunk to chunk instead of being mapped afresh for every cluster. Each
    chunk also gives its rows' core distances, ((sum over the other members
    of (1/d)^m) / (n_c - 1)) ** (-1/m) with m the feature count (0 for a
    duplicate point; a mean outside float64's normal range is taken again
    relative to the nearest member s, as s * (mean of (s/d)^m) ** (-1/m)).
    The mutual-reachability matrix is built in place over the distances,
    and its Prim MST gives the sparseness (the largest internal edge, or
    the largest edge when no edge is internal). The pool holds the local
    positions of the internal MST nodes, or of every member when no node
    is internal: separations are measured between pools.
    """
    nc = points.shape[0]
    dist = np.empty((nc, nc))
    core = np.empty(nc)
    with np.errstate(divide="ignore", over="ignore"):
        for lo in range(0, nc, _data._BLOCK_ROWS):
            rows = slice(lo, lo + _data._BLOCK_ROWS)
            np.sqrt(row_squared_distances(points, points[rows, None, :]), out=dist[rows])
            inv = np.divide(1.0, dist[rows])
            np.fill_diagonal(inv[:, lo:], 0.0)
            inv **= m
            inv.sum(axis=1, out=core[rows])
        core /= nc - 1
        redo = np.flatnonzero((core < np.finfo(float).tiny) | (core == np.inf))
        core **= -1.0 / m
    if redo.size:
        d = dist[redo]
        d[np.arange(redo.size), redo] = np.inf
        s = d.min(axis=1)
        keep = (0 < s) & (s < np.inf)  # a duplicate's core stays 0
        redo, d, s = redo[keep], d[keep], s[keep]  # each sum is in [1, n_c - 1]
        core[redo] = s * (((s[:, None] / d) ** m).sum(axis=1) / (nc - 1)) ** (-1.0 / m)
    np.maximum(dist, core[:, None], out=dist)
    np.maximum(dist, core[None, :], out=dist)
    edges, edge_w, degrees = _prim_mst(dist)
    internal_edge = (degrees[edges[:, 0]] > 1) & (degrees[edges[:, 1]] > 1)
    sparseness = float(edge_w[internal_edge].max() if internal_edge.any() else edge_w.max())
    internal_nodes = np.flatnonzero(degrees > 1)
    pool = internal_nodes if internal_nodes.size else np.arange(nc)
    return core, sparseness, pool


def _separations(points: np.ndarray, core: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Minimum density separation of each pool to any other pool.

    The pools are concatenated in `points` and `core`; pool c spans
    cuts[c]:cuts[c + 1]. For each pool a, one blocked pass reaches every
    later pool: max(d, core_a, core_b) over the pass, then a minimum per
    pool (`np.minimum.reduceat` on the column cuts) and over rows gives
    each pair (a, b) its separation. A minimum is exact in any order, so
    every pair gets the float a pass over that pair alone would give.
    """
    n_pools = cuts.size - 1
    separation = np.full(n_pools, np.inf)
    for a in range(n_pools - 1):
        lo, mid = cuts[a], cuts[a + 1]
        later = np.full(n_pools - a - 1, np.inf)
        for start, d2 in squared_distance_blocks(points[lo:mid], points[mid:]):
            np.sqrt(d2, out=d2)
            np.maximum(d2, core[lo + start : lo + start + d2.shape[0], None], out=d2)
            np.maximum(d2, core[mid:], out=d2)
            per_pool = np.minimum.reduceat(d2, cuts[a + 1 : -1] - mid, axis=1)
            np.minimum(later, per_pool.min(axis=0), out=later)
        separation[a] = min(separation[a], later.min())
        np.minimum(separation[a + 1 :], later, out=separation[a + 1 :])
    return separation


def dbcv(data: np.ndarray, clustering, *, cluster_terms: dict | None = None) -> DbcvReport:
    """Density-based clustering validation score of a clustering on `data`.

    Degenerate inputs (fewer than two clusters with >= 2 members) score 0.
    Noise entities take part only through the weights |C| / n, where n
    counts noise as DBCV's |O| does, so a clustering that declares most
    entities noise scores near 0 even when its few clusters are clean.
    `data` must be a finite 2-D matrix and the labels 1-D integers, one per
    row; otherwise ValueError.

    `cluster_terms` is an optional memo that the caller owns: a dict from
    a cluster's member ids (the bytes of its ascending int64 entity ids)
    to its `_cluster_terms`. A cluster already in it is not rebuilt, so a
    caller that scores many labelings of the same data pays for each
    distinct cluster once. The entries depend on `data`, so one dict must
    only ever see one dataset. The report is the same with or without it.
    """
    labels = as_labels(clustering)
    x = as_feature_matrix(data)
    if labels.shape[0] != x.shape[0]:
        raise ValueError("clustering and data disagree on the number of entities")
    ids, counts = np.unique(labels[labels >= 0], return_counts=True)
    scored = ids[counts >= 2]
    empty = np.array([], dtype=np.float64)
    if scored.size < 2:
        return DbcvReport(scored, empty, empty, empty, overall=0.0)

    if cluster_terms is None:
        cluster_terms = {}
    m = x.shape[1]
    sparseness = np.empty(scored.size)
    pool_ids: list[np.ndarray] = []  # each cluster's pool, as entity ids
    pool_core: list[np.ndarray] = []
    for c, cid in enumerate(scored):
        idx = np.flatnonzero(labels == cid)
        key = idx.tobytes()
        if key not in cluster_terms:
            cluster_terms[key] = _cluster_terms(x[idx], m)
        core, sparseness[c], pool = cluster_terms[key]
        pool_ids.append(idx[pool])
        pool_core.append(core[pool])
    cuts = np.cumsum([0] + [p.size for p in pool_ids])
    separation = _separations(x[np.concatenate(pool_ids)], np.concatenate(pool_core), cuts)

    validity = np.zeros(scored.size)
    for c in range(scored.size):
        sep, spa = separation[c], sparseness[c]
        if np.isinf(sep) and np.isinf(spa):
            validity[c] = 0.0
        elif np.isinf(sep):
            validity[c] = 1.0
        elif np.isinf(spa):
            validity[c] = -1.0
        else:
            denom = max(sep, spa)
            validity[c] = (sep - spa) / denom if denom > 0 else 0.0

    sizes = counts[counts >= 2].astype(np.float64)
    overall = float(np.sum(sizes / labels.shape[0] * validity))
    return DbcvReport(scored, sparseness, separation, validity, overall)


def select_best(results):
    """Pick the (params, clustering) with the highest DBCV score.

    `results` is a nonempty sequence of (params, clustering, score)
    triples, each params a dataclass. Score ties resolve to the smaller
    parameter values (epsilon then min_pts, or smaller k), then to the
    earlier entry.
    """
    results = list(results)
    if not results:
        raise ValueError("select_best needs at least one result")
    best = min(
        enumerate(results),
        key=lambda item: (-item[1][2], dataclasses.astuple(item[1][0]), item[0]),
    )
    params, clustering, _ = best[1]
    return params, clustering
