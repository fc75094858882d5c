"""Independent brute-force oracles.

Everything here is deliberately written with plain Python loops, sets and
Kruskal-style algorithms so it shares no code path with the package
implementations it checks. The exceptions are the replaced implementations
at the end of the file: they are kept as references that a rewrite must
match bit for bit. The last three are helpers the package no longer exports,
because nothing but the tests called them.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque

import numpy as np

from rnncluster import data as _data
from rnncluster.clustering import NOISE, canonicalize_labels
from rnncluster.data import (
    as_feature_matrix,
    as_labels,
    compact_blocks,
    row_squared_distances,
    squared_distance_blocks,
)


def sq_dist(x, a, b):
    return sum((float(x[a][v]) - float(x[b][v])) ** 2 for v in range(x.shape[1]))


def knn_oracle(x, i, k):
    """k nearest entity ids to i, ordered by (squared distance, id)."""
    ranked = sorted((sq_dist(x, i, j), j) for j in range(x.shape[0]) if j != i)
    return [j for _, j in ranked[:k]]


def rnn_oracle(x, i, k):
    """Ascending ids of entities having i among their k nearest."""
    return sorted(j for j in range(x.shape[0]) if j != i and i in knn_oracle(x, j, k))


def influence_oracle(x, i, k):
    return sorted(set(knn_oracle(x, i, k)) & set(rnn_oracle(x, i, k)))


def isdbscan_closure_oracle(x, start, k, claimed):
    """Transitive influence-space expansion with the 2k/3 guard."""
    if len(influence_oracle(x, start, k)) <= 2.0 * k / 3.0:
        return set()
    collected = {start}
    work = [start]
    while work:
        entity = work.pop()
        if len(influence_oracle(x, entity, k)) <= 2.0 * k / 3.0:
            continue
        for member in influence_oracle(x, entity, k):
            if member not in collected and member not in claimed:
                collected.add(member)
                work.append(member)
    return collected


def dbscrn_expansion_oracle(x, start, k, assigned):
    """Reachability closure over RNN links among 2k/pi-qualifying entities."""
    threshold = 2.0 * k / math.pi
    reached = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for j in rnn_oracle(x, u, k):
                if j in reached or j in assigned:
                    continue
                if len(rnn_oracle(x, j, k)) > threshold:
                    reached.add(j)
                    nxt.append(j)
        frontier = nxt
    return reached


def dbscrn_oracle(x, k):
    """Full DBSCRN by plain loops: core split, expansions, nearest-core pass."""
    n = x.shape[0]
    core = [i for i in range(n) if len(rnn_oracle(x, i, k)) >= k]
    assigned = {}
    next_id = 0
    for i in range(n):
        if i in assigned or i not in core:
            continue
        for j in dbscrn_expansion_oracle(x, i, k, assigned):
            assigned[j] = next_id
        next_id += 1
    for j in range(n):
        if j in assigned:
            continue
        best = min((sq_dist(x, j, c), c) for c in core)
        assigned[j] = assigned[best[1]]
    return [assigned[i] for i in range(n)]


def ari_pairs_oracle(a, b):
    """ARI by explicit agreement counting over all entity pairs."""
    n = len(a)
    n11 = n10 = n01 = n00 = 0
    for i, j in itertools.combinations(range(n), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        if same_a and same_b:
            n11 += 1
        elif same_a:
            n10 += 1
        elif same_b:
            n01 += 1
        else:
            n00 += 1
    pairs = n11 + n10 + n01 + n00
    a_pairs = n11 + n10
    b_pairs = n11 + n01
    expected = a_pairs * b_pairs / pairs
    maximum = (a_pairs + b_pairs) / 2.0
    if maximum == expected:
        return 1.0
    return (n11 - expected) / (maximum - expected)


def dbcv_oracle(x, labels):
    """Direct transcription of the DBCV formulas with Kruskal MSTs."""
    n, m = x.shape
    clusters: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        if lab >= 0:
            clusters.setdefault(int(lab), []).append(i)
    valid = {c: idx for c, idx in clusters.items() if len(idx) >= 2}
    if len(valid) < 2:
        return 0.0

    def dist(p, q):
        return math.sqrt(sq_dist(x, p, q))

    apts = {}
    for idx in valid.values():
        for o in idx:
            total = sum((1.0 / dist(o, t)) ** m for t in idx if t != o)
            apts[o] = (total / (len(idx) - 1)) ** (-1.0 / m)

    def mreach(p, q):
        return max(apts[p], apts[q], dist(p, q))

    sparseness = {}
    pools = {}
    for c, idx in valid.items():
        # Prim from the first member, ties to the smallest position: the
        # mutual-reachability graph is full of exact ties (many pairs share
        # the dominating core distance), so the tie rule is part of the
        # definition and must match on both evaluation routes.
        in_tree = [idx[0]]
        best = {i: mreach(idx[0], i) for i in idx[1:]}
        parent = {i: idx[0] for i in idx[1:]}
        mst = []
        while best:
            nxt = min(best, key=lambda i: (best[i], idx.index(i)))
            mst.append((best[nxt], parent[nxt], nxt))
            in_tree.append(nxt)
            del best[nxt]
            del parent[nxt]
            for i in list(best):
                w = mreach(nxt, i)
                if w < best[i]:
                    best[i] = w
                    parent[i] = nxt
        degree = {i: 0 for i in idx}
        for _, p, q in mst:
            degree[p] += 1
            degree[q] += 1
        internal_edges = [w for w, p, q in mst if degree[p] > 1 and degree[q] > 1]
        sparseness[c] = max(internal_edges) if internal_edges else max(w for w, _, _ in mst)
        internal_nodes = [i for i in idx if degree[i] > 1]
        pools[c] = internal_nodes if internal_nodes else list(idx)

    separation = {c: math.inf for c in valid}
    for c1, c2 in itertools.combinations(valid, 2):
        low = min(mreach(p, q) for p in pools[c1] for q in pools[c2])
        separation[c1] = min(separation[c1], low)
        separation[c2] = min(separation[c2], low)

    overall = 0.0
    for c, idx in valid.items():
        denominator = max(separation[c], sparseness[c])
        validity = (separation[c] - sparseness[c]) / denominator if denominator > 0 else 0.0
        overall += len(idx) / len(labels) * validity
    return overall


def canonicalize_oracle(labels):
    """Relabel by first appearance with a per-entity loop; negatives become -1."""
    out = []
    seen = {}
    for lab in labels:
        if lab < 0:
            out.append(-1)
            continue
        if lab not in seen:
            seen[lab] = len(seen)
        out.append(seen[lab])
    return out


def full_sort_knn_oracle(x, k_max):
    """The full-row brute kNN build: an (n, n) distance matrix, then a stable argsort.

    Returns (knn_idx, knn_d2), each row ordered by (squared distance, id),
    with distances from the package's own row kernel so the floats can be
    compared bit for bit.
    """
    n = x.shape[0]
    d2 = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        d2[i] = row_squared_distances(x, x[i])
    ranked = np.argsort(d2, axis=1, kind="stable")
    # self is never a neighbour: dropped by id, so it cannot win a tie at inf
    others = ranked[ranked != np.arange(n)[:, None]].reshape(n, n - 1)
    knn_idx = others[:, :k_max]
    return knn_idx, np.take_along_axis(d2, knn_idx, axis=1)


def make_cluster(index, start, k, visited):
    """The set-based ISDBSCAN expansion seeded at `start`.

    Returns the empty set when the start entity fails the 2k/3 density
    guard. Otherwise the start and every transitively pulled-in entity not
    already in `visited` are collected; collected entities are added to
    `visited` so no entity is ever expanded twice within a run.
    """
    threshold = 2.0 * k / 3.0
    if len(index.influence_space(start, k)) <= threshold:
        return set()
    collected = {start}
    visited.add(start)
    worklist = [start]
    while worklist:
        entity = worklist.pop()
        influence = index.influence_space(entity, k)
        if influence.size <= threshold:
            continue
        for member in influence.tolist():
            if member not in visited:
                visited.add(member)
                collected.add(member)
                worklist.append(member)
    return collected


def isdbscan_worklist_oracle(index, k, seed):
    """Full ISDBSCAN by a worklist per seeded draw; canonical labels as a list."""
    n = index.n
    labels = [-1] * n
    if k >= n:
        return labels
    visited = set()
    next_id = 0
    # a seeded permutation, skipping removed entities, is random selection
    # without replacement from the working set
    for start in np.random.default_rng(seed).permutation(n).tolist():
        if start in visited:
            continue
        cluster = make_cluster(index, start, k, visited)
        if len(cluster) > k:
            for member in cluster:
                labels[member] = next_id
            next_id += 1
        else:
            # too small: every collected entity (and the failed start) is
            # noise and leaves the working set for good
            visited.add(start)
    return canonicalize_oracle(labels)


def draw_order_claim_oracle(adjacency, dense, order):
    """`claim_in_draw_order`'s group by plain loops: flood each group from its first draw.

    `adjacency` is a symmetric boolean matrix with a true diagonal.
    """
    n = dense.size
    drawn_at = {int(i): pos for pos, i in enumerate(order)}
    group_of = {}
    for i in map(int, order):
        if dense[i] and i not in group_of:
            stack, group_of[i] = [i], drawn_at[i]
            while stack:
                u = stack.pop()
                for v in np.flatnonzero(adjacency[u]).tolist():
                    if dense[v] and v not in group_of:
                        group_of[v] = drawn_at[i]
                        stack.append(v)
    linked = [np.flatnonzero(adjacency[i]).tolist() for i in range(n)]
    return [min((group_of[j] for j in row if j in group_of), default=n) for row in linked]


def dbscan_bfs_oracle(neigh, min_pts, seed):
    """Full DBSCAN by a breadth-first expansion per seeded draw; canonical labels.

    `neigh` is the CSR pair (offsets, members) of `neighborhood_lists`.
    """
    unvisited, noise = -2, -1
    offsets, members = neigh
    n = offsets.size - 1
    neigh = [members[offsets[i] : offsets[i + 1]] for i in range(n)]
    labels = [unvisited] * n
    next_id = 0
    for p in np.random.default_rng(seed).permutation(n).tolist():
        if labels[p] != unvisited:
            continue
        if neigh[p].size < min_pts:
            labels[p] = noise
            continue
        cid = next_id
        next_id += 1
        labels[p] = cid
        queue = deque(int(j) for j in neigh[p] if j != p)
        while queue:
            q = queue.popleft()
            if labels[q] == noise:
                labels[q] = cid  # border entity reached from a core
            if labels[q] != unvisited:
                continue
            labels[q] = cid
            if neigh[q].size >= min_pts:
                queue.extend(int(j) for j in neigh[q])
    return canonicalize_oracle(labels)


def prim_mst_oracle(weights):
    """The replaced dense Prim loop: (edges (n-1, 2), edge weights, node degrees).

    It differs from the lockstep loop, `validation._spanning_trees`, only
    when weights are infinite: once every node outside the tree is at
    infinite distance, `argmin` picks a node already in the tree, so those
    nodes never join and a tree node gets a self-edge instead.
    """
    nc = weights.shape[0]
    in_tree = np.zeros(nc, dtype=bool)
    in_tree[0] = True
    best = weights[0].copy()
    best[0] = np.inf
    parent = np.zeros(nc, dtype=np.int64)
    edges = np.empty((nc - 1, 2), dtype=np.int64)
    edge_w = np.empty(nc - 1, dtype=np.float64)
    for t in range(nc - 1):
        j = int(np.argmin(best))
        edges[t] = (parent[j], j)
        edge_w[t] = best[j]
        in_tree[j] = True
        best[j] = np.inf
        closer = weights[j] < best
        closer &= ~in_tree
        best[closer] = weights[j][closer]
        parent[closer] = j
    degrees = np.bincount(edges.ravel(), minlength=nc)
    return edges, edge_w, degrees


_UNASSIGNED = -1


def classify_core(index, i, k):
    """True iff entity i is core: |RNN_k(i)| >= k."""
    return bool(index.rnn_sizes(k)[i] >= k)


def expand_cluster(index, start, k, assignment, cluster_id):
    """Grow one DBSCRN cluster from a core entity; returns the member ids.

    Breadth-first traversal over reverse-neighbour links. A traversed
    entity joins the cluster (and contributes its own reverse neighbours
    to the frontier) only when it passes the 2k/pi density guard itself;
    sparse entities reachable from the cluster, such as a far outlier
    sitting in the reverse lists of its nearest dense points, stay
    unassigned and are handled by the nearest-core pass instead.

    `assignment` doubles as the visited set: an entity enters the frontier
    at most once, and entities claimed by earlier clusters are neither
    re-claimed nor traversed again. Mutates `assignment` in place.
    """
    offsets, members = index.rnn_csr(k)
    sizes = index.rnn_sizes(k)
    threshold = 2.0 * k / math.pi
    assignment[start] = cluster_id
    frontier = np.array([start], dtype=np.int64)
    collected = [frontier]
    while frontier.size:
        reached = np.unique(
            np.concatenate([members[offsets[c] : offsets[c + 1]] for c in frontier])
        )
        fresh = reached[(assignment[reached] == _UNASSIGNED) & (sizes[reached] > threshold)]
        assignment[fresh] = cluster_id
        collected.append(fresh)
        frontier = fresh
    return np.concatenate(collected)


def dbscrn_wave_oracle(data, index, k):
    """Full DBSCRN by an id-sorted wave expansion per unclaimed core seed,
    then a blocked nearest-core scan; canonical labels as an array."""
    n = index.n
    sizes = index.rnn_sizes(k)
    core = sizes >= k
    if not core.any():
        raise ValueError(f"no core entities at k={k}; choose a smaller k for this data")
    assignment = np.full(n, _UNASSIGNED, dtype=np.int64)
    next_id = 0
    core_ids = np.flatnonzero(core)
    for seed in core_ids.tolist():
        if assignment[seed] != _UNASSIGNED:
            continue
        expand_cluster(index, seed, k, assignment, next_id)
        next_id += 1
    x = np.asarray(data, dtype=np.float64)
    left = np.flatnonzero(assignment == _UNASSIGNED)
    nearest = np.empty(left.size, dtype=np.int64)
    for start, block in squared_distance_blocks(x[left], x[core_ids]):
        # argmin returns the first minimum; core_ids ascend, so distance
        # ties resolve to the smaller core id
        nearest[start : start + block.shape[0]] = np.argmin(block, axis=1)
    assignment[left] = assignment[core_ids[nearest]]
    return canonicalize_labels(assignment).labels


def pairwise_squared_distances(x):
    """The full (n, n) matrix of squared distances, from the package's blocked kernel."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((x.shape[0], x.shape[0]), dtype=np.float64)
    for start, block in squared_distance_blocks(x, x):
        out[start : start + block.shape[0]] = block
    return out


def neighborhood_lists_oracle(x, epsilon):
    """The replaced epsilon-lists: one ascending id array per entity, read by 2-D nonzero.

    Row i of `neighborhood_lists`' CSR pair must equal entry i bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    lists = [None] * x.shape[0]
    for ids, bound in compact_blocks(x):
        candidates = np.flatnonzero(bound <= epsilon)
        for start, block in squared_distance_blocks(x[ids], x[candidates]):
            row, col = np.nonzero(block <= epsilon)  # row-major: ids ascend per row
            parts = np.split(candidates[col], np.searchsorted(row, np.arange(1, block.shape[0])))
            for i, part in zip(ids[start : start + len(parts)].tolist(), parts):
                lists[i] = part
    return lists


def einsum_squared_distances_oracle(rows, point):
    """The replaced distance kernel: one einsum inner product per pair.

    `row_squared_distances` must return its floats bit for bit.
    """
    diff = rows - point
    with np.errstate(over="ignore"):
        return np.einsum("...j,...j->...", diff, diff)


def compact_blocks_oracle(data):
    """The replaced `compact_blocks`: each leaf's bound taken over the row-major data.

    It reduces over the axes with `.max(axis=1)` of an (n, m) array;
    `compact_blocks` must yield the same ids and bounds bit for bit.
    """
    x = np.asarray(data, dtype=np.float64)
    parts = [np.arange(x.shape[0])]
    while parts:
        ids = parts.pop()
        box = x[ids]
        lo, hi = box.min(axis=0), box.max(axis=0)
        with np.errstate(over="ignore"):
            if ids.size > _data._BLOCK_ROWS:
                half = ids.size // 2
                split = ids[np.argpartition(box[:, np.argmax(hi - lo)], half)]
                parts += [split[half:], split[:half]]
                continue
            bound = np.square(np.maximum(np.maximum(lo - x, x - hi), 0.0)).max(axis=1)
        yield ids, bound


def dbcv_report_oracle(x, labels, count_noise_in_weight=True):
    """The replaced `dbcv`: every cluster's terms per call, one blocked pass per pair.

    Returns (cluster_ids, sparseness, separation, validity, overall), which
    `dbcv`'s report must match bit for bit. `labels` is an int64 array.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_total = labels.shape[0] if count_noise_in_weight else int((labels != -1).sum())
    ids, counts = np.unique(labels[labels >= 0], return_counts=True)
    scored = ids[counts >= 2]
    empty = np.array([], dtype=np.float64)
    if scored.size < 2:
        return scored, empty, empty, empty, 0.0

    m = x.shape[1]
    members, apts, pools = [], [], []
    sparseness = np.empty(scored.size)
    for c, cid in enumerate(scored):
        idx = np.flatnonzero(labels == cid)
        dist = np.empty((idx.size, idx.size))
        for start, block in squared_distance_blocks(x[idx], x[idx]):
            dist[start : start + block.shape[0]] = block
        np.sqrt(dist, out=dist)
        with np.errstate(divide="ignore", over="ignore"):
            inv = 1.0 / dist
            np.fill_diagonal(inv, 0.0)
            core = ((inv**m).sum(axis=1) / (idx.size - 1)) ** (-1.0 / m)
        reach = np.maximum(dist, np.maximum(core[:, None], core[None, :]))
        edges, edge_w, degrees = prim_mst_oracle(reach)
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

    validity = validity_loop_oracle(separation, sparseness)
    sizes = counts[counts >= 2].astype(np.float64)
    overall = float(np.sum(sizes / n_total * validity))
    return scored, sparseness, separation, validity, overall


def validity_loop_oracle(separation, sparseness):
    """The replaced per-cluster validity loop of `dbcv`, one branch per infinite case.

    Returns (sep - spa) / max(sep, spa) per cluster: 0 where both terms are
    infinite or both 0, 1 where only the separation is infinite and -1 where
    only the sparseness is.
    """
    validity = np.zeros(len(separation))
    for c in range(len(separation)):
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
    return validity


class _KDTree:
    """The replaced `backend="spatial"`: an exact kd-tree over the rows of x.

    Axis-aligned, median-count splits (both children nonempty even with
    heavy duplicate coordinates). A query ranks candidates by (distance,
    entity index) and prunes a subtree only when its single-axis lower
    bound strictly exceeds the worst kept distance, so equal-distance
    candidates are never lost.
    """

    def __init__(self, data, leaf_size=32):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.leaf_size = leaf_size
        self._axis, self._split, self._left, self._right, self._points = [], [], [], [], []
        self._root = self._build(np.arange(self.data.shape[0], dtype=np.int64))

    def _new_node(self):
        self._axis.append(-1)
        self._split.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._points.append(None)
        return len(self._axis) - 1

    def _build(self, indices):
        node = self._new_node()
        if indices.size <= self.leaf_size:
            self._points[node] = indices
            return node
        coords = self.data[indices]
        # a spread of far-apart finite rows overflows to inf, which still
        # names the widest axis, so the warning is noise
        with np.errstate(over="ignore"):
            spread = coords.max(axis=0) - coords.min(axis=0)
        axis = int(np.argmax(spread))
        if spread[axis] == 0.0:
            # all points identical: nothing to split on
            self._points[node] = indices
            return node
        order = np.argsort(coords[:, axis], kind="stable")
        mid = indices.size // 2
        self._axis[node] = axis
        # smallest coordinate on the right side; left <= split <= right
        self._split[node] = float(coords[order[mid], axis])
        self._left[node] = self._build(indices[order[:mid]])
        self._right[node] = self._build(indices[order[mid:]])
        return node

    def query(self, point, k, exclude):
        """The k nearest rows to `point` but row `exclude`, by (distance, index)."""
        # Python floats overflow to inf without a warning, like the kernel
        coords = point.tolist()
        # max-heap on (d2, index) via negation; heap[0] is the worst kept
        heap = []
        stack = [(self._root, 0.0)]
        while stack:
            node, bound = stack.pop()
            if len(heap) == k and bound > -heap[0][0]:
                continue
            points = self._points[node]
            if points is not None:
                candidates = points[points != exclude]
                if candidates.size == 0:
                    continue
                dists = row_squared_distances(self.data[candidates], point)
                for d2, idx in zip(dists.tolist(), candidates.tolist()):
                    if len(heap) < k:
                        heapq.heappush(heap, (-d2, -idx))
                    elif (d2, idx) < (-heap[0][0], -heap[0][1]):
                        heapq.heapreplace(heap, (-d2, -idx))
                continue
            axis = self._axis[node]
            delta = coords[axis] - self._split[node]
            if delta <= 0.0:
                near, far = self._left[node], self._right[node]
            else:
                near, far = self._right[node], self._left[node]
            stack.append((far, delta * delta))
            stack.append((near, bound))
        ranked = sorted((-neg_d2, -neg_idx) for neg_d2, neg_idx in heap)
        return [i for _, i in ranked], [d for d, _ in ranked]


def kdtree_knn_oracle(x, k_max):
    """The replaced kd-tree backend, queried row by row: (knn_idx, knn_d2).

    `build_index(..., backend="spatial")` must match it bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    tree = _KDTree(x)
    rows = [tree.query(x[i], k_max, exclude=i) for i in range(x.shape[0])]
    knn_idx = np.array([idx for idx, _ in rows], dtype=np.int64).reshape(-1, k_max)
    knn_d2 = np.array([d2 for _, d2 in rows], dtype=np.float64).reshape(-1, k_max)
    return knn_idx, knn_d2


def leaf_tau_knn_oracle(x, k_max):
    """The replaced default build: one tau per leaf, a second partition, a lexsort.

    Each compact block's candidates are the entities whose bound is at or
    below tau, the largest k-th distance of the block's rows to their rows
    + k_max lowest-bound entities (all entities when those are all of
    them). Each block row keeps the candidates at or below its own k-th
    distance, read by a second partition, minus itself by id, and the hits
    are ranked by a 3-key lexsort of (row, d2, id). Returns (knn_idx,
    knn_d2); `build_index` must match it bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    knn_idx = np.empty((n, k_max), dtype=np.int64)
    knn_d2 = np.empty((n, k_max), dtype=np.float64)
    for ids, bound in compact_blocks(x):
        candidates = np.arange(n)
        near = ids.size + k_max
        if near < n:
            nearest = np.argpartition(bound, near - 1)[:near]
            tau = max(
                np.partition(block, k_max, axis=1)[:, k_max].max()
                for _, block in squared_distance_blocks(x[ids], x[nearest])
            )
            candidates = np.flatnonzero(bound <= tau)
        for start, block in squared_distance_blocks(x[ids], x[candidates]):
            rows = np.arange(block.shape[0])
            own = ids[start : start + rows.size]
            kth = np.partition(block, k_max, axis=1)[:, k_max]
            keep = block <= kth[:, None]
            keep[rows, np.searchsorted(candidates, own)] = False
            row, col = np.nonzero(keep)  # row-major: row ascends
            d2 = block[row, col]
            order = np.lexsort((col, d2, row))
            take = order[np.searchsorted(row, rows)[:, None] + np.arange(k_max)]
            knn_idx[own] = candidates[col[take]]
            knn_d2[own] = d2[take]
    return knn_idx, knn_d2


def contiguous_ids_oracle(labels):
    """The replaced contiguity rule of `Clustering`: the distinct ids are 0..K-1."""
    labels = np.asarray(labels, dtype=np.int64)
    ids = np.unique(labels[labels >= 0])
    return ids.size == 0 or (ids[0] == 0 and ids[-1] == ids.size - 1)


def lloyd_oracle(x, k, rng, max_iters=300, trace=None):
    """The replaced one-run Lloyd loop: (labels, within-cluster sum of squares).

    `kmeans.lloyd`, and every restart of `kmeans`, must match it bit for bit.
    """

    def assign(x, centroids):
        labels = np.empty(x.shape[0], dtype=np.int64)
        for start, block in squared_distance_blocks(x, centroids):
            labels[start : start + block.shape[0]] = np.argmin(block, axis=1)
        return labels

    def objective(x, centroids, labels):
        diff = x - centroids[labels]
        return float(np.einsum("ij,ij->", diff, diff))

    n = x.shape[0]
    if k > n:
        raise ValueError(f"k_clusters={k} exceeds the number of entities {n}")
    centroids = x[rng.choice(n, size=k, replace=False)].copy()
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        new_labels = assign(x, centroids)
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
            trace.append(objective(x, centroids, labels))
    return labels, objective(x, centroids, labels)


def spread_noise_ari_oracle(pred, truth):
    """The replaced ARI: NOISE spread into singleton clusters, then the dense table.

    `validation.adjusted_rand_index` must match it bit for bit.
    """

    def comb2(x):
        x = x.astype(np.float64)
        return x * (x - 1.0) / 2.0

    labels = as_labels(pred)
    noise = labels == NOISE
    if noise.any():
        labels = labels.copy()
        labels[noise] = labels.max() + 1 + np.arange(int(noise.sum()))
    table = contingency_table(labels, truth)
    n = table.sum()
    index = comb2(table).sum()
    a = comb2(table.sum(axis=1)).sum()
    b = comb2(table.sum(axis=0)).sum()
    pairs = n * (n - 1.0) / 2.0
    expected = a * b / pairs if pairs > 0 else 0.0
    denominator = 0.5 * (a + b) - expected
    if denominator == 0.0:
        return 1.0
    return float((index - expected) / denominator)


def full_scan_claim_oracle(offsets, members, root, order):
    """The replaced claim, which scans all P links: (group, drawn).

    `root` is the first item of `group_roots`; every row's minimum is taken
    over the first draws of its links' groups. `claim_in_draw_order` must
    match it bit for bit.
    """
    n = root.size
    drawn = np.empty(n, dtype=np.int64)
    drawn[order] = np.arange(n)
    first = np.full(n + 1, n, dtype=np.int64)
    np.minimum.at(first, root, drawn)
    first[n] = n  # the sparse entities' root names no group
    return np.minimum.reduceat(first[root][members], offsets[:-1]), drawn


def stable_argsort_rnn_oracle(knn_idx, k):
    """The replaced reverse lists of `NeighborIndex.rnn_csr`: (offsets, members).

    A stable argsort of the flattened kNN targets keeps each target's
    positions ascending, so its members come out id-sorted.
    """
    flat = np.asarray(knn_idx)[:, :k].ravel()
    offsets = np.zeros(knn_idx.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=knn_idx.shape[0]), out=offsets[1:])
    return offsets, np.argsort(flat, kind="stable") // k


def sorted_keys_influence_oracle(knn_idx, k):
    """The replaced per-k build of `NeighborIndex.influence_csr`: (offsets, members).

    Row i is i, then NN_k(i); a pair (i, j) is kept when its reverse key
    j * n + i is among the sorted reverse keys of all n(k+1) pairs.
    """
    knn_idx = np.asarray(knn_idx)
    n = knn_idx.shape[0]
    nbrs = np.column_stack([np.arange(n), knn_idx[:, :k]]).ravel()
    ids = np.repeat(np.arange(n), k + 1)
    keys, reverse = ids * n + nbrs, np.sort(nbrs * n + ids)
    mutual = reverse[np.minimum(np.searchsorted(reverse, keys), keys.size - 1)] == keys
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(mutual.reshape(n, k + 1).sum(axis=1), out=offsets[1:])
    return offsets, nbrs[mutual]


def unique_scan_clusters_oracle(labels):
    """The replaced `validation._scored_clusters`, one full scan per cluster.

    Returns (ids, sizes, ascending member ids) of the clusters with >= 2
    members.
    """
    ids, counts = np.unique(labels[labels >= 0], return_counts=True)
    scored = counts >= 2
    return ids[scored], counts[scored], [np.flatnonzero(labels == cid) for cid in ids[scored]]


def squared_euclidean(a, b):
    """The package's removed two-row helper: the kernel's distance between rows a and b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(row_squared_distances(a, b))


def epsilon_neighborhood(data, i, epsilon):
    """The package's removed single-query helper: ids within squared distance epsilon of i.

    Raises ValueError on non-finite data, a negative or NaN epsilon, or an i outside 0..n-1.
    """
    x = as_feature_matrix(data)
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if not 0 <= i < x.shape[0]:
        raise ValueError(f"entity i={i} outside the range 0..n-1 (n={x.shape[0]})")
    return np.flatnonzero(row_squared_distances(x, x[i]) <= epsilon)


def contingency_table(pred, truth) -> np.ndarray:
    """The package's removed cross-tabulation of two labelings (rows: pred, columns: truth).

    It holds a dense (distinct pred ids x distinct truth ids) int64 table.
    """
    pred, truth = as_labels(pred), as_labels(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"label arrays differ in length: {pred.shape} vs {truth.shape}")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table
