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
the pool of internal MST nodes) depend only on its own members. They are
built many clusters at a time (`_build_terms`): the clusters, sorted by
size, are packed into stacks of padded n_c x n_c slots under a fixed byte
budget, one buffer holds each stack in turn, and one Prim loop grows every
tree of a stack in lockstep (`_spanning_trees`). A slot's distances are
computed once per pair and mirrored into its lower triangle tile by tile
(`_mutual_reachability`). A cluster larger than the budget forms a stack
of one, whose Prim loop reads its rows in place. The separations then
take one blocked distance pass per cluster, from its pool to the pools of
every later cluster. A caller that scores many labelings of one dataset,
as a sweep does, can pass a `cluster_terms` dict to `dbcv` so that a
cluster recurring in another labeling is not rebuilt, and can fill that
dict for all of its labelings at once with `fill_cluster_terms`, so that
their new clusters share stacks; the report is bit-identical either way.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from . import data as _data
from .clustering import NOISE
from .data import as_feature_matrix, as_labels, row_squared_distances, squared_distance_blocks

__all__ = [
    "DbcvReport",
    "adjusted_rand_index",
    "dbcv",
    "fill_cluster_terms",
    "select_best",
]


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


# bytes of one stack in `_build_terms`: its padded n_c x n_c slots and the
# lockstep loop's state; a cluster larger than this forms a stack of one
_STACK_BYTES = 2 * 2**20
_LARGEST = np.finfo(np.float64).max


def _mutual_reachability(points: np.ndarray, m: int, reach: np.ndarray) -> np.ndarray:
    """Core distances of one cluster of >= 2 `points`; its reachability goes into `reach`.

    `reach` is the cluster's n_c x n_c slot, its only matrix. The
    within-cluster distances come from the package kernel,
    `data._BLOCK_ROWS` rows at a time, each block against itself and the
    later members only: fl(a - b)**2 equals fl(b - a)**2, so d(j, i) is the
    float d(i, j). A block's distances to the later members are copied,
    transposed, into the later rows' columns of the block, one square tile
    at a time, so a block's rows are whole once it is reached, and each
    chunk also gives its rows' core distances, ((sum over the other members of (1/d)^m) / (n_c - 1))
    ** (-1/m) with m the feature count (0 for a duplicate point; a mean
    outside float64's normal range is taken again relative to the nearest
    member s, as s * (mean of (s/d)^m) ** (-1/m)). Each sum runs over one
    row's n_c entries. The mutual reachability max(d, core_i, core_j) then
    overwrites the distances in place. A core distance is finite wherever
    every distance is, so a reach is infinite only where a distance is.
    """
    nc = points.shape[0]
    core = np.empty(nc)
    columns = np.asfortranarray(points)  # the kernel reads one contiguous column per feature
    step = _data._BLOCK_ROWS
    with np.errstate(divide="ignore", over="ignore"):
        for lo in range(0, nc, step):
            rows = slice(lo, lo + step)
            # this block against itself and the later members; the earlier
            # columns were mirrored in by the earlier blocks
            np.sqrt(row_squared_distances(columns[lo:], points[rows, None, :]), out=reach[rows, lo:])
            for tile in range(lo + step, nc, step):
                reach[tile : tile + step, rows] = reach[rows, tile : tile + step].T
            inv = np.divide(1.0, reach[rows])
            np.fill_diagonal(inv[:, lo:], 0.0)
            inv **= m
            inv.sum(axis=1, out=core[rows])
        core /= nc - 1
        redo = np.flatnonzero((core < np.finfo(float).tiny) | (core == np.inf))
        core **= -1.0 / m
    if redo.size:
        d = reach[redo]
        d[np.arange(redo.size), redo] = np.inf
        s = d.min(axis=1)
        keep = (0 < s) & (s < np.inf)  # a duplicate's core stays 0
        redo, d, s = redo[keep], d[keep], s[keep]  # each sum is in [1, n_c - 1]
        core[redo] = s * (((s[:, None] / d) ** m).sum(axis=1) / (nc - 1)) ** (-1.0 / m)
    np.maximum(reach, core[:, None], out=reach)
    np.maximum(reach, core[None, :], out=reach)
    return core


def _spanning_trees(slab: np.ndarray, sizes) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Prim's minimum spanning tree of every cluster in a stack, grown in lockstep.

    slab[s, :n, :n], n = sizes[s] >= 2, holds cluster s's weights (+0.0 or
    more), an infinite one stored as the largest float, and every other
    cell is +inf. Each tree grows from node 0: a step adds the node nearest
    the tree, the lowest index on ties, and a node's parent changes only on
    a strictly smaller distance. One loop steps every cluster at once; a
    finished cluster's steps change nothing. A stack of one cluster reads
    each added node's row in place, with no gather. The diagonals are first
    overwritten with NaN, and a node in the tree holds NaN in `best`: no
    weight compares below it, a minimum keeps it, and the step's argmin,
    over `best`'s bits, ranks it above every weight and the padding. So
    when every node left is at infinite distance, the lowest-index one
    joins, from the root. A node's parent is final once it joins, so each
    node keeps only the step that last lowered its distance, and the edges
    are read after the loop. Returns each cluster's (edges (n - 1, 2) in
    join order, edge weights with inf for an infinite one, node degrees).
    """
    count, width = slab.shape[0], slab.shape[1]
    rows = slab.reshape(count * width, width)
    rows.reshape(count, width * width)[:, :: width + 1] = np.nan  # the diagonals
    best = slab[:, 0].copy()
    joined = np.zeros((width, count), dtype=np.int64)  # the node added at each step; root at 0
    lowered = np.zeros((count, width), dtype=np.int64)  # the step whose node last lowered best
    closer = np.empty((count, width), dtype=bool)
    # read as unsigned integers, floats from +0.0 to +inf keep their order and NaN ranks above
    rank = best.view(np.uint64)
    if count == 1:  # a stack of one reads each row in place
        weights, best, rank, closer = slab[0], best[0], rank[0], closer[0]
        order, last = joined[:, 0], lowered[0]
        for t in range(1, width):
            order[t] = j = rank.argmin()
            row = weights[j]
            np.less(row, best, out=closer)
            np.minimum(best, row, out=best)  # NaN from row j's diagonal puts j in the tree
            last[closer] = t
    else:
        row = np.empty((count, width))
        at = np.empty(count, dtype=np.int64)  # the flat row of the added node in `rows`
        base = np.arange(0, count * width, width)
        for t in range(1, width):
            j = joined[t]
            rank.argmin(axis=1, out=j)
            np.add(base, j, out=at)
            rows.take(at, axis=0, out=row, mode="clip")  # "clip" writes `row` unbuffered
            np.less(row, best, out=closer)
            np.minimum(best, row, out=best)  # NaN from row j's diagonal puts j in the tree
            lowered[closer] = t
    trees = []
    for s, n in enumerate(sizes):
        edges = np.empty((n - 1, 2), dtype=np.int64)
        edges[:, 1] = joined[1:n, s]
        edges[:, 0] = joined[lowered[s, edges[:, 1]], s]
        edge_w = slab[s, edges[:, 0], edges[:, 1]]
        edge_w[edge_w == _LARGEST] = np.inf
        trees.append((edges, edge_w, np.bincount(edges.ravel(), minlength=n)))
    return trees


def _build_terms(x: np.ndarray, missing: dict, cluster_terms: dict) -> np.ndarray:
    """Put each cluster of `missing` (key -> ascending member ids) into `cluster_terms`.

    A cluster's terms are (core distances, sparseness, pool). Its Prim MST
    over the mutual reachability gives the sparseness (the largest
    internal edge, or the largest edge when no edge is internal) and the
    pool: the local positions of the internal MST nodes, or of every
    member when no node is internal. Separations are measured between
    pools.

    The clusters are sorted by size and packed into stacks of padded
    slots, as many as fit `_STACK_BYTES` together with the loop's state.
    One buffer, as large as the largest stack, holds every stack in turn,
    and `_spanning_trees` grows a stack's trees in lockstep. Returns each
    cluster's share of the build seconds, in the order of `missing`: a
    stack's time split by n_c^2.
    """
    keys = list(missing)
    seconds = np.zeros(len(keys))
    if not keys:
        return seconds
    sizes = np.array([missing[key].size for key in keys])
    stacks, stack = [], []
    for c in np.argsort(sizes, kind="stable"):
        # a padded width-n slot, and its share of the loop's state: five arrays of n
        if stack and (len(stack) + 1) * 8 * int(sizes[c]) * (int(sizes[c]) + 5) > _STACK_BYTES:
            stacks.append(stack)
            stack = []
        stack.append(c)
    stacks.append(stack)
    buffer = np.empty(max(len(stack) * int(sizes[stack[-1]]) ** 2 for stack in stacks))
    m = x.shape[1]
    # every rounding in the kernel is monotone, so no distance overflows to
    # inf unless the distance across the data's extent does
    extent = np.ptp(x, axis=0)
    overflows = not np.isfinite(row_squared_distances(extent, np.zeros(m)))
    for stack in stacks:
        start = time.perf_counter()
        width = sizes[stack[-1]]
        slab = buffer[: len(stack) * width * width].reshape(len(stack), width, width)
        cores = []
        for slot, c in zip(slab, stack):
            n = sizes[c]
            slot[n:] = np.inf  # the padding
            slot[:n, n:] = np.inf
            cores.append(_mutual_reachability(x[missing[keys[c]]], m, slot[:n, :n]))
            if overflows:  # `_spanning_trees` stores an infinite reach as the largest float
                np.minimum(slot[:n, :n], _LARGEST, out=slot[:n, :n])
        for c, core, (edges, edge_w, degrees) in zip(
            stack, cores, _spanning_trees(slab, sizes[stack])
        ):
            internal_edge = (degrees[edges[:, 0]] > 1) & (degrees[edges[:, 1]] > 1)
            sparseness = float(edge_w[internal_edge].max() if internal_edge.any() else edge_w.max())
            internal_nodes = np.flatnonzero(degrees > 1)
            pool = internal_nodes if internal_nodes.size else np.arange(sizes[c])
            cluster_terms[keys[c]] = core, sparseness, pool
        squares = sizes[stack].astype(np.float64) ** 2
        seconds[stack] = (time.perf_counter() - start) * squares / squares.sum()
    return seconds


def _scored_clusters(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(ids, sizes, ascending member ids) of the clusters with >= 2 members."""
    order = np.argsort(labels, kind="stable")  # stable: each cluster's members stay ascending
    ids, starts, counts = np.unique(labels[order], return_index=True, return_counts=True)
    scored = (ids >= 0) & (counts >= 2)
    spans = zip(starts[scored].tolist(), counts[scored].tolist())
    return ids[scored], counts[scored], [order[start : start + size] for start, size in spans]


def fill_cluster_terms(data: np.ndarray, labelings, cluster_terms: dict) -> np.ndarray:
    """Build into `cluster_terms` the terms of every cluster `dbcv` would score.

    `labelings` is a sequence of labelings of `data`; `cluster_terms` is
    the memo of `dbcv`. Every cluster of >= 2 members that the memo lacks
    is built, in one lockstep pass over all of them, unless its labeling
    has fewer than two such clusters (`dbcv` scores that 0 and builds
    nothing). Later `dbcv` calls with the memo then build nothing, and
    their reports are the same. Returns the build seconds charged to each
    labeling: each cluster's share of its stack's time goes to the first
    labeling that contains it.
    """
    x = as_feature_matrix(data)
    missing, owner = {}, []
    for i, labeling in enumerate(labelings):
        labels = as_labels(labeling)
        if labels.shape[0] != x.shape[0]:
            raise ValueError("clustering and data disagree on the number of entities")
        _, _, members = _scored_clusters(labels)
        if len(members) < 2:
            continue
        for idx in members:
            key = idx.tobytes()
            if key not in cluster_terms and key not in missing:
                missing[key] = idx
                owner.append(i)
    seconds = np.zeros(len(labelings))
    np.add.at(seconds, np.array(owner, dtype=np.int64), _build_terms(x, missing, cluster_terms))
    return seconds


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
    to its terms (core distances, sparseness, pool). A cluster already in
    it is not rebuilt, and the clusters it lacks are built together, so a
    caller that scores many labelings of the same data pays for each
    distinct cluster once. The entries depend on `data`, so one dict must
    only ever see one dataset. The report is the same with or without it.
    """
    labels = as_labels(clustering)
    x = as_feature_matrix(data)
    if labels.shape[0] != x.shape[0]:
        raise ValueError("clustering and data disagree on the number of entities")
    scored, sizes, members = _scored_clusters(labels)
    empty = np.array([], dtype=np.float64)
    if scored.size < 2:
        return DbcvReport(scored, empty, empty, empty, overall=0.0)

    if cluster_terms is None:
        cluster_terms = {}
    keys = [idx.tobytes() for idx in members]
    missing = {key: idx for key, idx in zip(keys, members) if key not in cluster_terms}
    _build_terms(x, missing, cluster_terms)
    sparseness = np.empty(scored.size)
    pool_ids: list[np.ndarray] = []  # each cluster's pool, as entity ids
    pool_core: list[np.ndarray] = []
    for c, (key, idx) in enumerate(zip(keys, members)):
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

    overall = float(np.sum(sizes.astype(np.float64) / labels.shape[0] * validity))
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
