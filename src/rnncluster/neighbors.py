"""The exact kNN index, and what the algorithms derive from it per k.

The index stores, for every entity, its k_max nearest other entities sorted
by (squared distance ascending, entity index ascending). In bulk, NN_k is
`knn_idx[:, :k]` for any k <= k_max. DBSCRN reads only |RNN_k(i)|
(`rnn_sizes`), one count over those columns. ISDBSCAN reads the
k-influence spaces IS_k(i) = NN_k(i) ∩ RNN_k(i) (`influence_csr`), built in
O(n*k) and cached per k with their group roots (`per_k`), so a parameter
sweep over k reuses a single build and the repeated seeded runs at one k
reuse one influence graph.

Two backends share the leaves of `data.compact_blocks` and the distance
kernel, and produce bit-identical lists. The default, "brute", scans block
by block in O(block * n) memory; the first rows + k_max entities by lower
bound cap every row's k-th distance, and only the entities whose lower
bound is at or below that cap are ranked. "spatial" is the best-first
search of Friedman, Bentley & Finkel (1977): each entity visits the leaves
by ascending box bound until one exceeds the k_max-th distance found.
"""

from __future__ import annotations

import numpy as np

from .clustering import check_count
from .data import as_feature_matrix, compact_blocks, row_squared_distances, squared_distance_blocks

__all__ = ["NeighborIndex", "build_index"]


class NeighborIndex:
    """Immutable nearest-neighbour structure; safe for concurrent readers.

    Attributes
    ----------
    data : the (n, m) matrix the index was built on.
    k_max : largest k any query may use.
    knn_idx : (n, k_max) entity ids, each row sorted by (distance, id).
    knn_d2 : (n, k_max) squared distances matching knn_idx.
    """

    def __init__(self, data, k_max, knn_idx, knn_d2):
        self.data = data
        self.k_max = int(k_max)
        self.knn_idx = knn_idx
        self.knn_d2 = knn_d2
        self._per_k: dict[tuple[str, int], object] = {}  # see `per_k`

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def _check_k(self, k: int) -> None:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k={k} outside the index's range 1..k_max={self.k_max}")

    def check_data(self, data) -> None:
        """Raise unless `data` has the shape of the matrix the index was built on."""
        if np.shape(data) != self.data.shape:
            raise ValueError(
                f"data of shape {np.shape(data)} does not match the index, "
                f"built on shape {self.data.shape}"
            )

    def per_k(self, kind: str, k: int, build):
        """`build()`, made once per (kind, k): "rnn", "influence" or "isdbscan" (`group_roots`)."""
        self._check_k(k)
        if (kind, k) not in self._per_k:
            self._per_k[kind, k] = build()
        return self._per_k[kind, k]

    def rnn_sizes(self, k: int) -> np.ndarray:
        """|RNN_k(i)| for every entity i: how many kNN rows hold i among their first k."""
        self._check_k(k)
        return np.bincount(self.knn_idx[:, :k].ravel(), minlength=self.n)

    def rnn_csr(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Inverted lists for one k, in CSR form (offsets, members), as `influence_csr`.

        members[offsets[i]:offsets[i+1]] is RNN_k(i): the entities that count
        i among their k nearest, in ascending id order (never i; may be
        none). Built once per k and cached. No fit reads it: perfbench's
        blob protocol calls it and its tracer wraps it, so it and
        `_rnn_lists` stay until perfbench may change (ROADMAP item 8).
        """
        return self.per_k("rnn", k, lambda: _rnn_lists(self, k))

    def influence_csr(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The influence graph for one k, in CSR form: (offsets, members).

        Row i, members[offsets[i]:offsets[i+1]], is i itself, then IS_k(i)
        = NN_k(i) ∩ RNN_k(i) in kNN order. The relation is mutual kNN, so
        the graph is symmetric. Built once per k and cached; ISDBSCAN and
        `influence_space` read it.
        """
        return self.per_k("influence", k, lambda: _influence_graph(self, k))

    def influence_space(self, i: int, k: int) -> np.ndarray:
        """NN_k(i) intersected with RNN_k(i); ascending ids, size <= k."""
        if not 0 <= i < self.n:
            raise ValueError(f"entity i={i} outside the index's range 0..n-1 (n={self.n})")
        offsets, members = self.influence_csr(k)
        return np.sort(members[offsets[i] + 1 : offsets[i + 1]])


def _rnn_lists(index: NeighborIndex, k: int) -> tuple[np.ndarray, np.ndarray]:
    flat = index.knn_idx[:, :k].ravel()
    offsets = np.zeros(index.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=index.n), out=offsets[1:])
    # stable sort keeps positions ascending, so members stay id-sorted
    return offsets, np.argsort(flat, kind="stable") // k


def _influence_graph(index: NeighborIndex, k: int) -> tuple[np.ndarray, np.ndarray]:
    n = index.n
    # row i is i itself, then NN_k(i); the pairs found both ways are i and IS_k(i)
    nbrs = np.column_stack([np.arange(n), index.knn_idx[:, :k]]).ravel()
    ids = np.repeat(np.arange(n), k + 1)
    keys, reverse = ids * n + nbrs, np.sort(nbrs * n + ids)
    mutual = reverse[np.minimum(np.searchsorted(reverse, keys), keys.size - 1)] == keys
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(mutual.reshape(n, k + 1).sum(axis=1), out=offsets[1:])
    return offsets, nbrs[mutual]


def build_index(data: np.ndarray, k_max: int, backend: str = "brute") -> NeighborIndex:
    """Build the neighbour index for all k <= k_max.

    backend "brute" ranks the entities of each compact block's candidate
    set; "spatial" searches the compact blocks' leaves best-first for each
    entity, nearest box first. Both produce bit-identical lists. An entity
    is never its own neighbour, even when distances overflow to inf.
    Raises ValueError on a non-finite value in `data`, and unless k_max is
    an integer in 1..n-1.
    """
    x = as_feature_matrix(data)
    n = x.shape[0]
    check_count("k_max", k_max)
    if k_max >= n:
        raise ValueError(f"k_max={k_max} must be at most n-1={n - 1}")
    knn_idx = np.empty((n, k_max), dtype=np.int64)
    knn_d2 = np.empty((n, k_max), dtype=np.float64)
    if backend == "brute":
        for ids, bound in compact_blocks(x):
            candidates = np.arange(n)
            near = ids.size + k_max
            if near < n:
                # a row's own distance is 0, so column k_max of a partition
                # is its k-th distance to the others, or more when the row
                # is not among `nearest`: tau bounds every row's k-th distance
                nearest = np.argpartition(bound, near - 1)[:near]
                tau = max(
                    np.partition(block, k_max, axis=1)[:, k_max].max()
                    for _, block in squared_distance_blocks(x[ids], x[nearest])
                )
                candidates = np.flatnonzero(bound <= tau)
            for start, block in squared_distance_blocks(x[ids], x[candidates]):
                rows = np.arange(block.shape[0])
                own = ids[start : start + rows.size]
                # the candidates hold the row itself and all within its k-th
                # distance, so column k_max is that distance; rank only the
                # candidates at or below it, by (d2, id), so ties straddling
                # the k-th resolve to smaller ids; self is excluded by id, not
                # by distance, which may overflow to inf like any other
                kth = np.partition(block, k_max, axis=1)[:, k_max]
                keep = block <= kth[:, None]
                keep[rows, np.searchsorted(candidates, own)] = False
                row, col = np.nonzero(keep)  # row-major: row ascends
                d2 = block[row, col]
                order = np.lexsort((col, d2, row))
                take = order[np.searchsorted(row, rows)[:, None] + np.arange(k_max)]
                knn_idx[own] = candidates[col[take]]
                knn_d2[own] = d2[take]
    elif backend == "spatial":
        leaves = [ids for ids, _ in compact_blocks(x)]
        lo = np.array([x[ids].min(axis=0) for ids in leaves])
        hi = np.array([x[ids].max(axis=0) for ids in leaves])
        for own in leaves:
            q = x[own][:, None, :]
            # fl(gap)**2 on the worst axis never exceeds the kernel's distance
            # to a leaf's row (see `compact_blocks`); a gap may overflow to inf
            with np.errstate(over="ignore"):
                bounds = np.square(np.maximum(np.maximum(lo - q, q - hi), 0.0)).max(axis=2)
            for i, gap2 in zip(own.tolist(), bounds):
                found, d2, kth = np.empty(0, dtype=np.int64), np.empty(0), np.inf
                for leaf in np.argsort(gap2, kind="stable"):
                    # strictly greater: a row tied at the k-th distance is still found
                    if gap2[leaf] > kth:
                        break
                    ids = leaves[leaf][leaves[leaf] != i]  # self is left out by id
                    found = np.concatenate([found, ids])
                    d2 = np.concatenate([d2, row_squared_distances(x[ids], x[i])])
                    if d2.size >= k_max:
                        kth = np.partition(d2, k_max - 1)[k_max - 1]
                take = np.lexsort((found, d2))[:k_max]
                knn_idx[i], knn_d2[i] = found[take], d2[take]
    else:
        raise ValueError(f"unknown backend {backend!r} (expected 'brute' or 'spatial')")
    return NeighborIndex(x, k_max, knn_idx, knn_d2)
