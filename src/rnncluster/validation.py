"""External (ARI) and internal (DBCV) clustering validation.

ARI is the Hubert-Arabie adjusted Rand index computed from the
contingency table. DBCV scores a clustering by comparing within-cluster
density sparseness against between-cluster density separation on
mutual-reachability minimum spanning trees; it drives unsupervised
parameter selection via `select_best`.

DBCV works on plain (non-squared) Euclidean distances, unlike the
clustering algorithms; the two scales never mix.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .clustering import NOISE, Clustering
from .data import pairwise_squared_distances, squared_distance_blocks

__all__ = [
    "DbcvReport",
    "adjusted_rand_index",
    "contingency_table",
    "dbcv",
    "select_best",
]


def _labels_of(clustering) -> np.ndarray:
    if isinstance(clustering, Clustering):
        return clustering.labels
    return np.asarray(clustering, dtype=np.int64)


def _spread_noise(labels: np.ndarray, policy: str) -> np.ndarray:
    """Re-label NOISE entities for external comparison.

    "singletons" (default): each noise entity becomes its own cluster, so
    excessive noise is penalized without inventing one big fake cluster.
    "cluster": all noise entities share a single extra label.
    """
    noise = labels == NOISE
    if not noise.any():
        return labels
    out = labels.copy()
    base = labels.max() + 1
    if policy == "singletons":
        out[noise] = base + np.arange(int(noise.sum()))
    elif policy == "cluster":
        out[noise] = base
    else:
        raise ValueError(f"unknown noise policy {policy!r}")
    return out


def contingency_table(pred, truth) -> np.ndarray:
    """Cross-tabulation of two labelings (rows: pred, columns: truth)."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
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


def adjusted_rand_index(pred, truth, noise: str = "singletons") -> float:
    """Hubert-Arabie adjusted Rand index in [-1, 1].

    1.0 means the partitions are identical up to label permutation; ~0 is
    chance-level agreement. NOISE entities in `pred` are re-labelled per
    `noise` before counting (see `_spread_noise`). Returns 1.0 when the
    chance-correction denominator vanishes, which only happens when both
    partitions are trivial in the same way.
    """
    pred = _spread_noise(_labels_of(pred), noise)
    truth = _labels_of(truth)
    table = contingency_table(pred, truth)
    n = table.sum()
    index = _comb2(table).sum()
    a = _comb2(table.sum(axis=1)).sum()
    b = _comb2(table.sum(axis=0)).sum()
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


def _all_points_core_distances(dist: np.ndarray, m: int) -> np.ndarray:
    """Kernel density estimate per entity within one cluster.

    ((sum over same-cluster others of (1/d)^m) / (n_c - 1)) ** (-1/m),
    with m the feature count. Duplicate points (d = 0) push the sum to
    infinity and the core distance to 0.
    """
    nc = dist.shape[0]
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / dist
        np.fill_diagonal(inv, 0.0)
        powered = inv**m
        total = powered.sum(axis=1) / (nc - 1)
        return total ** (-1.0 / m)


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


def dbcv(data: np.ndarray, clustering, count_noise_in_weight: bool = True) -> DbcvReport:
    """Density-based clustering validation score of a clustering on `data`.

    Degenerate inputs (fewer than two clusters with >= 2 members) score 0.
    Noise entities take part only through the weighting denominator, so a
    clustering that declares most entities noise scores near 0 even when
    its few clusters are clean.
    """
    labels = _labels_of(clustering)
    x = np.asarray(data, dtype=np.float64)
    if labels.shape[0] != x.shape[0]:
        raise ValueError("clustering and data disagree on the number of entities")
    n_total = labels.shape[0] if count_noise_in_weight else int((labels != NOISE).sum())
    ids, counts = np.unique(labels[labels >= 0], return_counts=True)
    scored = ids[counts >= 2]
    empty = np.array([], dtype=np.float64)
    if scored.size < 2:
        return DbcvReport(scored, empty, empty, empty, overall=0.0)

    m = x.shape[1]
    members: list[np.ndarray] = []
    apts: list[np.ndarray] = []
    sparseness = np.empty(scored.size)
    pools: list[np.ndarray] = []  # internal MST nodes (local positions)
    for c, cid in enumerate(scored):
        idx = np.flatnonzero(labels == cid)
        dist = pairwise_squared_distances(x[idx])
        np.sqrt(dist, out=dist)
        core = _all_points_core_distances(dist, m)
        reach = np.maximum(dist, np.maximum(core[:, None], core[None, :]))
        edges, edge_w, degrees = _prim_mst(reach)
        internal_edge = (degrees[edges[:, 0]] > 1) & (degrees[edges[:, 1]] > 1)
        sparseness[c] = edge_w[internal_edge].max() if internal_edge.any() else edge_w.max()
        internal_nodes = np.flatnonzero(degrees > 1)
        pools.append(internal_nodes if internal_nodes.size else np.arange(idx.size))
        members.append(idx)
        apts.append(core)

    separation = np.full(scored.size, np.inf)
    for a in range(scored.size):
        for b in range(a + 1, scored.size):
            pa, pb = pools[a], pools[b]
            core_a, core_b = apts[a][pa], apts[b][pb]
            blocks = squared_distance_blocks(x[members[a][pa]], x[members[b][pb]])
            dspc = float(np.min([
                np.maximum(np.sqrt(d2), np.maximum(core_a[s : s + len(d2), None], core_b)).min()
                for s, d2 in blocks
            ]))
            separation[a] = min(separation[a], dspc)
            separation[b] = min(separation[b], dspc)

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
    overall = float(np.sum(sizes / n_total * validity))
    return DbcvReport(scored, sparseness, separation, validity, overall)


def _param_key(params):
    if dataclasses.is_dataclass(params):
        return dataclasses.astuple(params)
    if isinstance(params, (tuple, list)):
        return tuple(params)
    return (params,)


def select_best(results):
    """Pick the (params, clustering) with the highest DBCV score.

    `results` is a nonempty sequence of (params, clustering, score)
    triples. Score ties resolve to the smaller parameter values (epsilon
    then min_pts, or smaller k), then to the earlier entry.
    """
    results = list(results)
    if not results:
        raise ValueError("select_best needs at least one result")
    best = min(
        enumerate(results),
        key=lambda item: (-item[1][2], _param_key(item[1][0]), item[0]),
    )
    params, clustering, _ = best[1]
    return params, clustering
