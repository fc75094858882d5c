"""kNN, reverse-kNN and k-influence-space queries over a prebuilt index.

The index stores, for every entity, its k_max nearest other entities sorted
by (squared distance ascending, entity index ascending). For any k <= k_max
it derives, in O(n*k) and cached per k, the reverse lists (`rnn_csr`) and
the k-influence spaces IS_k(i) = NN_k(i) ∩ RNN_k(i) (`influence_csr`), so a
parameter sweep over k reuses a single build and ISDBSCAN's repeated seeded
runs at one k reuse one influence graph.

Two construction backends exist and must produce bit-identical lists: an
exact scan over the compact blocks of `data.compact_blocks` in
O(block * n) memory (the default, named "brute"), and an exact kd-tree.
For each block, the first rows + k_max entities by lower bound give an
upper bound on every row's k-th distance; only the entities whose lower
bound is at or below it reach the distance kernel, and they are ranked
exactly as a scan of all n rows would rank them.
"""

from __future__ import annotations

import numpy as np

from .data import as_feature_matrix, compact_blocks, squared_distance_blocks
from .kdtree import KDTree

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

    def __init__(self, data, k_max, knn_idx, knn_d2, backend):
        self.data = data
        self.k_max = int(k_max)
        self.knn_idx = knn_idx
        self.knn_d2 = knn_d2
        self.backend = backend
        # ("rnn" or "influence", k) -> that k's CSR arrays
        self._per_k: dict[tuple[str, int], tuple[np.ndarray, ...]] = {}

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

    def knn(self, i: int, k: int) -> np.ndarray:
        """The k nearest entities to entity i, nearest first."""
        self._check_k(k)
        return self.knn_idx[i, :k]

    def rnn_csr(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Inverted lists for one k, in CSR form: (offsets, members, sizes).

        members[offsets[i]:offsets[i+1]] are the entities that count i
        among their k nearest, in ascending id order. Built once per k and
        cached; `rnn` and `rnn_sizes` (DBSCRN's density counts) read it.
        """
        self._check_k(k)
        if ("rnn", k) not in self._per_k:
            flat = self.knn_idx[:, :k].ravel()
            sizes = np.bincount(flat, minlength=self.n)
            offsets = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            # stable sort keeps positions ascending, so members stay id-sorted
            members = np.argsort(flat, kind="stable") // k
            self._per_k["rnn", k] = (offsets, members.astype(np.int64), sizes)
        return self._per_k["rnn", k]

    def rnn(self, i: int, k: int) -> np.ndarray:
        """Entities having i among their k nearest; ascending ids, may be empty."""
        offsets, members, _ = self.rnn_csr(k)
        return members[offsets[i] : offsets[i + 1]]

    def rnn_sizes(self, k: int) -> np.ndarray:
        """|RNN_k(i)| for every entity i."""
        return self.rnn_csr(k)[2]

    def influence_csr(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The influence graph for one k, in CSR form: (offsets, members).

        Row i, members[offsets[i]:offsets[i+1]], is i itself, then IS_k(i)
        = NN_k(i) ∩ RNN_k(i) in kNN order. The relation is mutual kNN, so
        the graph is symmetric. Built once per k and cached; ISDBSCAN and
        `influence_space` read it.
        """
        self._check_k(k)
        if ("influence", k) not in self._per_k:
            n = self.n
            # row i is i itself, then NN_k(i); the pairs found both ways are i and IS_k(i)
            nbrs = np.column_stack([np.arange(n), self.knn_idx[:, :k]]).ravel()
            ids = np.repeat(np.arange(n), k + 1)
            keys, reverse = ids * n + nbrs, np.sort(nbrs * n + ids)
            mutual = reverse[np.minimum(np.searchsorted(reverse, keys), keys.size - 1)] == keys
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(mutual.reshape(n, k + 1).sum(axis=1), out=offsets[1:])
            self._per_k["influence", k] = (offsets, nbrs[mutual])
        return self._per_k["influence", k]

    def influence_space(self, i: int, k: int) -> np.ndarray:
        """NN_k(i) intersected with RNN_k(i); ascending ids, size <= k."""
        offsets, members = self.influence_csr(k)
        return np.sort(members[offsets[i] + 1 : offsets[i + 1]])


def build_index(data: np.ndarray, k_max: int, backend: str = "brute") -> NeighborIndex:
    """Build the neighbour index for all k <= k_max.

    backend "brute" ranks the entities of each compact block's candidate
    set; "spatial" queries an exact kd-tree. Both produce bit-identical
    lists. An entity is never its own neighbour, even when distances
    overflow to inf. Raises ValueError on a non-finite value in `data`.
    """
    x = as_feature_matrix(data)
    n = x.shape[0]
    if k_max >= n:
        raise ValueError(f"k_max={k_max} must be at most n-1={n - 1}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
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
        tree = KDTree(x)
        for i in range(n):
            knn_idx[i], knn_d2[i] = tree.query(x[i], k_max, exclude=i)
    else:
        raise ValueError(f"unknown backend {backend!r} (expected 'brute' or 'spatial')")
    return NeighborIndex(x, k_max, knn_idx, knn_d2, backend)
