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
(`_distance_rows`). A cluster larger than the budget forms a stack of
one, whose Prim loop reads its rows in place. The separations then take
one triangular pass over the pools of all clusters at once, in row
blocks. `dbcv` and `fill_cluster_terms` reach a labeling's clusters by
one reader and one collector, which builds together the clusters that a
caller's `cluster_terms` memo lacks: a sweep fills the memo for all of
its labelings at once, so that their new clusters share stacks. The
clusters of many labelings overlap, so on data small enough for two
n x n tables within the kernel's block budget such a fill computes every
pair's distance and (1/d)^m once, in a pair table (`_pair_table`), and
gathers each slot from it. The report is bit-identical either way.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from . import data as _data
from .clustering import NOISE
from .data import as_feature_matrix, as_labels, row_squared_distances

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
    happens when both partitions are trivial in the same way. Ids that are
    already 0..K-1, as a `Clustering`'s and most class labels are, are
    counted as they are (`_dense_codes`).
    """
    pred, truth = as_labels(pred), as_labels(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"label arrays differ in length: {pred.shape} vs {truth.shape}")
    n = pred.size
    clustered = pred != NOISE
    class_of, class_sizes = _dense_codes(truth)
    cluster_of, cluster_sizes = _dense_codes(pred[clustered])
    # the contingency cells, empty ones included where the table is no
    # larger than the labels; each comb2 is an integer-valued float below
    # 2**53 and an empty cell adds a zero, so every sum is exact in any order
    if cluster_sizes.size * class_sizes.size <= n:
        cells = np.bincount(cluster_of * class_sizes.size + class_of[clustered])
    else:
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


def _dense_codes(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each id's rank among the distinct ids, and how many entities hold each.

    Ids that are already 0..K-1 are their own ranks, and one bincount
    counts them; any others go through `np.unique`. Both give the same
    integers.
    """
    if not ids.size or (ids.min() >= 0 and ids.max() < ids.size):
        sizes = np.bincount(ids)
        if sizes.all():
            return ids, sizes
    _, codes, sizes = np.unique(ids, return_inverse=True, return_counts=True)
    return codes, sizes


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


def _distance_rows(points: np.ndarray, out: np.ndarray):
    """Fill `out` with the distances among `points`; yield each row block's (1/d)^m.

    `points` is n x m and `out` is n x n. The distances come from the package kernel,
    `data._BLOCK_ROWS` rows at a time, each block against itself and the
    later rows only: fl(a - b)**2 equals fl(b - a)**2, so d(j, i) is the
    float d(i, j). A block's distances to the later rows are copied,
    transposed, into the later rows' columns of the block, one square tile
    at a time, so a block's rows are whole once it is reached. Yields
    (rows, powers): the block's slice and its (1/d)^m, 0 on the diagonal
    (inf for a distance of 0 off it).
    """
    n, m = points.shape
    columns = np.asfortranarray(points)  # the kernel reads one contiguous column per feature
    step = _data._BLOCK_ROWS
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        # this block against itself and the later rows; the earlier
        # columns were mirrored in by the earlier blocks
        np.sqrt(row_squared_distances(columns[lo:], points[rows, None, :]), out=out[rows, lo:])
        for tile in range(lo + step, n, step):
            out[tile : tile + step, rows] = out[rows, tile : tile + step].T
        with np.errstate(divide="ignore", over="ignore"):
            powers = np.divide(1.0, out[rows])
            np.fill_diagonal(powers[:, lo:], 0.0)
            powers **= m
        yield rows, powers


def _pair_table(x: np.ndarray, cells: float) -> tuple[np.ndarray, np.ndarray] | None:
    """(distances, (1/d)^m) over every pair of rows of x, or None where it does not pay.

    The two n x n tables take 16 n^2 bytes. They are built only when that
    fits `data._BLOCK_BYTES`, so they stay as small as one kernel block,
    and when the slots they fill hold more than their n^2 `cells`. The
    clusters of one labeling are disjoint, so their slots never do: only
    the clusters of several labelings, which share members, are gathered.
    """
    n = x.shape[0]
    if 16 * n * n > _data._BLOCK_BYTES or n * n >= cells:
        return None
    dist, power = np.empty((n, n)), np.empty((n, n))
    for rows, powers in _distance_rows(x, dist):
        power[rows] = powers
    return dist, power


def _distances_and_sums(x: np.ndarray, idx: np.ndarray, table, reach: np.ndarray, sums: np.ndarray):
    """Fill `reach` with the distances among the rows `idx`, `sums` with each row's sum of (1/d)^m.

    `reach` is the cluster's n_c x n_c slot, its only matrix. The
    distances are gathered from the `_pair_table` when there is one, else
    computed by `_distance_rows`. Each sum runs over one row's n_c entries
    in member order, so a row gathered from the table sums the same floats
    in the same order as a row computed here.
    """
    if table is None:
        for rows, powers in _distance_rows(x[idx], reach):
            powers.sum(axis=1, out=sums[rows])
        return
    dist, power = table
    step = _data._BLOCK_ROWS
    for lo in range(0, idx.size, step):
        rows = slice(lo, lo + step)
        at = idx[rows, None] * dist.shape[0] + idx  # flat cells of the rows' members
        dist.take(at, out=reach[rows], mode="clip")  # "clip" writes the rows unbuffered
        power.take(at).sum(axis=1, out=sums[rows])


def _mutual_reachability(slab: np.ndarray, sizes: np.ndarray, core: np.ndarray, m: int) -> None:
    """Turn a stack's distances into mutual reachability, and its sums into core distances.

    slab[s, :n, :n], n = sizes[s] >= 2, holds cluster s's distances and
    core[s, :n] its sums from `_distances_and_sums`; the rest of `core`
    holds 1, which no step below flags. The core distances of the whole
    stack are taken at once: (sum / (n_c - 1)) ** (-1/m) with m the
    feature count (0 for a duplicate point; a mean outside float64's
    normal range is taken again relative to the nearest member s, as
    s * (mean of (s/d)^m) ** (-1/m)). The mutual reachability
    max(d, core_i, core_j) then overwrites each slot's distances in place.
    A core distance is finite wherever every distance is, so a reach is
    infinite only where a distance is.
    """
    with np.errstate(divide="ignore", over="ignore"):
        core /= (sizes - 1)[:, None]
        redo = (core < np.finfo(float).tiny) | (core == np.inf)
        core **= -1.0 / m
    for s in np.flatnonzero(redo.any(axis=1)):
        nc, rows = sizes[s], np.flatnonzero(redo[s])
        d = slab[s, rows, :nc]
        d[np.arange(rows.size), rows] = np.inf
        near = d.min(axis=1)
        keep = (0 < near) & (near < np.inf)  # a duplicate's core stays 0
        rows, d, near = rows[keep], d[keep], near[keep]  # each sum is in [1, n_c - 1]
        core[s, rows] = near * (((near[:, None] / d) ** m).sum(axis=1) / (nc - 1)) ** (-1.0 / m)
    for slot, row, n in zip(slab, core, sizes):  # a slot's corner only: the padding stays +inf
        reach = slot[:n, :n]
        np.maximum(reach, row[:n, None], out=reach)
        np.maximum(reach, row[None, :n], out=reach)


def _spanning_trees(slab: np.ndarray, sizes) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Prim's minimum spanning tree of every cluster in a stack, grown in lockstep.

    slab[s, :n, :n], n = sizes[s] >= 2, holds cluster s's weights (+0.0 to
    +inf), and every other cell, its padding, is +inf. Each tree grows from
    node 0: a step adds the node nearest the tree, the lowest index on ties,
    and a node's parent changes only on a strictly smaller distance. One
    loop steps every cluster at once; a finished cluster's steps change
    nothing. A stack of one cluster reads each added node's row in place,
    with no gather. The diagonals are first overwritten with NaN, and a node
    in the tree holds NaN in `best`: no weight compares below it, a minimum
    keeps it, and the step's argmin, over `best`'s bits, ranks it above
    every weight and the padding. The argmin takes the first of equal keys,
    and a cluster's nodes come before its padding, so when every node left
    is at infinite distance, the lowest-index one joins, from the root,
    before any padding. A node's parent is final once it joins, so each node
    keeps only the step that last lowered its distance, and the edges are
    read after the loop. Returns each cluster's (edges (n - 1, 2) in join
    order, edge weights, node degrees).
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
        trees.append((edges, edge_w, np.bincount(edges.ravel(), minlength=n)))
    return trees


def _build_terms(x: np.ndarray, missing: dict, cluster_terms: dict) -> np.ndarray:
    """Put each cluster of `missing` (key -> ascending member ids, nonempty) into `cluster_terms`.

    A cluster's terms are (core distances, sparseness, pool). Its Prim MST
    over the mutual reachability gives the sparseness (the largest
    internal edge, or the largest edge when no edge is internal) and the
    pool: the local positions of the internal MST nodes, or of every
    member when no node is internal. Separations are measured between
    pools.

    The clusters are sorted by size and packed into stacks of padded slots,
    as many as fit `_STACK_BYTES` together with the loop's state. One
    buffer, as large as the largest stack, holds every stack in turn, and
    `_spanning_trees` grows a stack's trees in lockstep. A slot holds its
    cluster's mutual reachability at 0..n_c - 1, before the +inf padding, so
    a reach that overflows to +inf is kept as it is: the lowest index wins a
    tie, and a node at +inf joins before the padding does. When a
    `_pair_table` pays, every slot is gathered from it, so each pair's
    distance and power are computed once for all the clusters.
    Returns each cluster's share of the build seconds, in the order of
    `missing`: a stack's time, and the table's, split by n_c^2.
    """
    keys = list(missing)
    seconds = np.zeros(len(keys))
    sizes = np.array([missing[key].size for key in keys])
    squares = sizes.astype(np.float64) ** 2
    start = time.perf_counter()
    table = _pair_table(x, squares.sum())  # before the buffer, so their peaks do not add
    seconds += (time.perf_counter() - start) * squares / squares.sum()
    stacks, stack = [], []
    for c in np.argsort(sizes, kind="stable"):
        # a padded width-n slot, and its share of the loop's state: five arrays of n
        if stack and (len(stack) + 1) * 8 * int(sizes[c]) * (int(sizes[c]) + 5) > _STACK_BYTES:
            stacks.append(stack)
            stack = []
        stack.append(c)
    stacks.append(stack)
    buffer = np.empty(max(len(stack) * int(sizes[stack[-1]]) ** 2 for stack in stacks))
    for stack in stacks:
        start = time.perf_counter()
        width = sizes[stack[-1]]
        slab = buffer[: len(stack) * width * width].reshape(len(stack), width, width)
        cores = np.ones((len(stack), width))
        for slot, sums, c in zip(slab, cores, stack):
            n = sizes[c]
            slot[n:] = np.inf  # the padding
            slot[:n, n:] = np.inf
            _distances_and_sums(x, missing[keys[c]], table, slot[:n, :n], sums[:n])
        _mutual_reachability(slab, sizes[stack], cores, x.shape[1])
        for c, core, (edges, edge_w, degrees) in zip(
            stack, cores, _spanning_trees(slab, sizes[stack])
        ):
            internal_edge = (degrees[edges[:, 0]] > 1) & (degrees[edges[:, 1]] > 1)
            sparseness = float(edge_w[internal_edge].max() if internal_edge.any() else edge_w.max())
            internal_nodes = np.flatnonzero(degrees > 1)
            pool = internal_nodes if internal_nodes.size else np.arange(sizes[c])
            cluster_terms[keys[c]] = core[: sizes[c]].copy(), sparseness, pool
        seconds[stack] += (time.perf_counter() - start) * squares[stack] / squares[stack].sum()
    return seconds


def _scored_clusters(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(ids, sizes, ascending member ids) of the clusters with >= 2 members."""
    order = np.argsort(labels, kind="stable")  # stable: each cluster's members stay ascending
    ids, starts, counts = np.unique(labels[order], return_index=True, return_counts=True)
    scored = (ids >= 0) & (counts >= 2)
    spans = zip(starts[scored].tolist(), counts[scored].tolist())
    return ids[scored], counts[scored], [order[start : start + size] for start, size in spans]


def _read_labeling(x: np.ndarray, labeling) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The one labeling reader: `_scored_clusters` of a labeling of x's rows, else ValueError."""
    labels = as_labels(labeling)
    if labels.shape[0] != x.shape[0]:
        raise ValueError("clustering and data disagree on the number of entities")
    return _scored_clusters(labels)


def _fill_missing(x: np.ndarray, clusters: list, cluster_terms: dict) -> np.ndarray:
    """The one collector: build in one pass the clusters `cluster_terms` lacks.

    `clusters` holds each labeling's member-id arrays, and a labeling of fewer than two is
    skipped. Returns each labeling's build seconds: a cluster's go to the first that holds it.
    """
    missing, owner = {}, []
    for i, members in enumerate(clusters):
        if len(members) < 2:
            continue
        for idx in members:
            key = idx.tobytes()
            if key not in cluster_terms and key not in missing:
                missing[key] = idx
                owner.append(i)
    seconds = np.zeros(len(clusters))
    if missing:  # a memoised `dbcv` call builds nothing
        np.add.at(seconds, owner, _build_terms(x, missing, cluster_terms))
    return seconds


def fill_cluster_terms(data: np.ndarray, labelings, cluster_terms: dict) -> np.ndarray:
    """Build into `cluster_terms` the terms of every cluster `dbcv` would score.

    `labelings` is a sequence of labelings of `data`; `cluster_terms` is
    the memo of `dbcv`. Every cluster of >= 2 members that the memo lacks
    is built, in one lockstep pass over all of them, unless its labeling
    has fewer than two such clusters (`dbcv` scores that 0 and builds
    nothing). Later `dbcv` calls with the memo then build nothing, and
    their reports are the same: one reader, one collector serve both.
    Returns the build seconds charged to each labeling: each cluster's
    share of its stack's time goes to the first labeling that contains it.
    """
    x = as_feature_matrix(data)
    return _fill_missing(x, [_read_labeling(x, labeling)[2] for labeling in labelings], cluster_terms)


def _separations(points: np.ndarray, core: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Minimum density separation of each pool to any other pool.

    The pools are concatenated in `points` and `core`; pool c spans
    cuts[c]:cuts[c + 1]. One triangular pass covers every pool at once: each
    block of `data._BLOCK_ROWS` rows, fewer where the kernel's byte budget
    (`data._BLOCK_BYTES`, m floats per pair) asks, runs against every row
    past the pool of its first row. max(d, core_j) over the block, reduced
    to its minimum per column pool (`np.minimum.reduceat`), then raised to
    core_i, gives each row's separation from each later pool: a max with
    core_i commutes with a minimum over j. A row's own pool is set to inf;
    the row minima go to the rows' pools and the column minima to the column
    pools. Every pair of points from two pools is evaluated in the block of
    the earlier one, and a minimum is exact in any order, so every pool gets
    the float a pass over each pair of pools alone would give.
    """
    pool = np.repeat(np.arange(cuts.size - 1), np.diff(cuts))
    separation = np.full(cuts.size - 1, np.inf)
    columns = np.asfortranarray(points)
    step = min(_data._BLOCK_ROWS, max(1, _data._BLOCK_BYTES // (8 * points.size)))
    for lo in range(0, cuts[-2], step):  # the last pool's rows have no later pool
        rows, first = slice(lo, min(lo + step, cuts[-2])), pool[lo] + 1  # the first column pool
        later = cuts[first]
        reach = row_squared_distances(columns[later:], points[rows, None, :])
        np.sqrt(reach, out=reach)
        np.maximum(reach, core[later:], out=reach)
        per_pool = np.minimum.reduceat(reach, cuts[first:-1] - later, axis=1)
        np.maximum(per_pool, core[rows, None], out=per_pool)
        own = pool[rows] - first  # -1 for the rows of the first row's pool
        inside = np.flatnonzero(own >= 0)
        per_pool[inside, own[inside]] = np.inf
        np.minimum.at(separation, pool[rows], per_pool.min(axis=1))
        np.minimum(separation[first:], per_pool.min(axis=0), out=separation[first:])
    return separation


def _validity(separation: np.ndarray, sparseness: np.ndarray) -> np.ndarray:
    """(sep - spa) / max(sep, spa): equal terms score 0, and an infinite one decides the sign."""
    with np.errstate(invalid="ignore"):  # inf - inf, inf / inf and 0 / 0, all replaced
        gap, top = separation - sparseness, np.maximum(separation, sparseness)
        return np.where(separation == sparseness, 0.0, np.where(np.isinf(gap), np.sign(gap), gap / top))


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
    to its terms (core distances, sparseness, pool). A call fills one
    labeling through the one reader and one collector of
    `fill_cluster_terms`, then reports, so a cluster in the memo is not
    rebuilt. The entries depend on `data`, so one dict must only ever see
    one dataset. The report is the same with or without it.
    """
    x = as_feature_matrix(data)
    scored, sizes, members = _read_labeling(x, clustering)
    empty = np.array([], dtype=np.float64)
    if scored.size < 2:
        return DbcvReport(scored, empty, empty, empty, overall=0.0)

    cluster_terms = {} if cluster_terms is None else cluster_terms
    _fill_missing(x, [members], cluster_terms)
    sparseness = np.empty(scored.size)
    pool_ids: list[np.ndarray] = []  # each cluster's pool, as entity ids
    pool_core: list[np.ndarray] = []
    for c, idx in enumerate(members):
        core, sparseness[c], pool = cluster_terms[idx.tobytes()]
        pool_ids.append(idx[pool])
        pool_core.append(core[pool])
    cuts = np.cumsum([0] + [p.size for p in pool_ids])
    separation = _separations(x[np.concatenate(pool_ids)], np.concatenate(pool_core), cuts)
    validity = _validity(separation, sparseness)
    overall = float(np.sum(sizes.astype(np.float64) / x.shape[0] * validity))
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
