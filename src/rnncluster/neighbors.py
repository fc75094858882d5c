"""The exact kNN index, and what the algorithms derive from it per k.

The index stores, for every entity, its k_max nearest other entities sorted
by (squared distance ascending, entity index ascending). In bulk, NN_k is
`knn_idx[:, :k]` for any k <= k_max. DBSCRN reads only |RNN_k(i)|
(`rnn_sizes`), one count over those columns. ISDBSCAN reads the
k-influence spaces IS_k(i) = NN_k(i) ∩ RNN_k(i) (`influence_csr`). Each
is a filter of one mutual-rank table: rank[i, p] is the smallest k at which
i and its (p+1)-th neighbour are each in the other's NN_k. The table is
built as wide as the first k asked, and once more at k_max if a larger k
follows; each k's graph and its group roots are cached (`per_k`), so a
parameter sweep over k reuses a single build and the repeated seeded runs
at one k reuse one influence graph.

Two backends share the leaves of `data.compact_blocks` and the distance
kernel, and produce bit-identical lists. The default, "brute", scans block
by block in O(block * n) memory. The block's rows + k_max entities of
lowest bound give each row a cap on its k-th distance; only the entities
whose bound is at or below the largest cap are scanned, each row keeps the
ones at or below its own cap, and one stable sort per row ranks those
hits by (distance, id). "spatial" is the best-first
search of Friedman, Bentley & Finkel (1977): each entity visits the leaves
by ascending box bound until one exceeds the k_max-th distance found.
"""

from __future__ import annotations

import numpy as np

from . import data as _data
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
        check_count("k", k, minimum=None)
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
        """`build()`, made once per (kind, k).

        Kinds: "rnn", "influence", "isdbscan" (`group_roots`) and "mutual",
        the mutual-rank table, keyed by its width (`_mutual_ranks`).
        """
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
        `_rnn_lists` stay until perfbench may change (ROADMAP item 9).
        """
        return self.per_k("rnn", k, lambda: _rnn_lists(self, k))

    def influence_csr(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The influence graph for one k, in CSR form: (offsets, members).

        Row i, members[offsets[i]:offsets[i+1]], is i itself, then IS_k(i)
        = NN_k(i) ∩ RNN_k(i) in kNN order. The relation is mutual kNN, so
        the graph is symmetric. Filtered from the mutual-rank table once
        per k and cached; ISDBSCAN and `influence_space` read it.
        """
        return self.per_k("influence", k, lambda: _influence_graph(self.knn_idx, self._mutual_ranks(k), k))

    def _mutual_ranks(self, k: int) -> np.ndarray:
        """The mutual-rank table, at least k wide: as wide as the first k asked, else k_max.

        The index keeps one table; a k wider than it replaces it with the
        table at k_max, so a sweep builds at most two.
        """
        width = max((w for kind, w in list(self._per_k) if kind == "mutual"), default=int(k))
        if width < k:
            self._per_k.pop(("mutual", width), None)
            width = self.k_max
        return self.per_k("mutual", width, lambda: _mutual_ranks(self.knn_idx, width))

    def influence_space(self, i: int, k: int) -> np.ndarray:
        """NN_k(i) intersected with RNN_k(i); ascending ids, size <= k."""
        check_count("i", i, minimum=None)
        if not 0 <= i < self.n:
            raise ValueError(f"entity i={i} outside the index's range 0..n-1 (n={self.n})")
        offsets, members = self.influence_csr(k)
        return np.sort(members[offsets[i] + 1 : offsets[i + 1]])


def _rnn_lists(index: NeighborIndex, k: int) -> tuple[np.ndarray, np.ndarray]:
    flat = index.knn_idx[:, :k].ravel()
    offsets = np.zeros(index.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=index.n), out=offsets[1:])
    # one sort of unique keys (target, position) keeps positions ascending
    # within each target, so members stay id-sorted; n * nk < 2**63 holds for
    # any index that fits in memory (n = 5e8 at k = 30 is a 120 GB `knn_idx`)
    nk = flat.size
    return offsets, np.sort(flat * nk + np.arange(nk)) % nk // k


def _mutual_ranks(knn_idx: np.ndarray, width: int) -> np.ndarray:
    """rank[i, p] over the first `width` columns: max(p, q) + 1, or width + 1.

    q is i's column in the first `width` of its (p+1)-th neighbour's row, so
    i and that neighbour are each in the other's NN_k exactly when
    rank[i, p] <= k, for every k <= width. Each block of rows gathers its
    neighbours' rows, ids narrowed to the smallest type that holds them,
    within `data._BLOCK_BYTES`. A row holds i at most once, so the product
    of the matches with 1..width is q + 1, or 0 when i is absent.
    """
    n = knn_idx.shape[0]
    nbrs = knn_idx[:, :width].astype(np.min_scalar_type(n - 1))
    ids = np.arange(n, dtype=nbrs.dtype)
    column = np.arange(1, width + 1, dtype=np.min_scalar_type(width + 1))
    rank = np.empty((n, width), dtype=column.dtype)
    rows = max(1, _data._BLOCK_BYTES // (8 * width * width))
    for start in range(0, n, rows):
        block = nbrs[start : start + rows]
        back = np.take(nbrs, block, axis=0) == ids[start : start + block.shape[0], None, None]
        found = back.view(np.uint8) @ column
        found[found == 0] = width + 1
        np.maximum(found, column, out=rank[start : start + block.shape[0]])
    return rank


def _influence_graph(knn_idx: np.ndarray, rank: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    n = knn_idx.shape[0]
    # row i is i itself, then NN_k(i); the mutual ones at k are i and IS_k(i)
    nbrs = np.column_stack([np.arange(n), knn_idx[:, :k]])
    mutual = np.column_stack([np.ones(n, dtype=bool), rank[:, :k] <= k])
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(mutual.sum(axis=1), out=offsets[1:])
    return offsets, nbrs[mutual]


def _rank_hits(knn_idx, knn_d2, pieces, candidates) -> None:
    """Write each row's first k_max hits by (d2, id) into the lists.

    `pieces` holds (own, counts, hit, d2) per block of distances to
    `candidates`: the rows' ids, their hit counts, and the hits' flat
    positions in the block and distances, row by row, ids ascending in each
    row. Each row is left-aligned in a +inf-padded array and sorted stably,
    so ties keep id order and a real +inf (overflow) stays ahead of the
    padding; every row has at least k_max hits.
    """
    own, counts, hit, d2 = (np.concatenate(part) for part in zip(*pieces))
    padded = np.full((own.size, counts.max()), np.inf)
    padded[np.arange(padded.shape[1]) < counts[:, None]] = d2
    first = np.cumsum(counts) - counts
    take = first[:, None] + np.argsort(padded, axis=1, kind="stable")[:, : knn_idx.shape[1]]
    knn_idx[own] = candidates[hit[take] % candidates.size]  # a block row spans all candidates
    knn_d2[own] = d2[take]


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
            # a row's own distance is 0, so column k_max of a partition over
            # the rows + k_max entities of lowest bound is the row's k-th
            # distance to the others among them, or more when the row is not
            # among them: cap[r] bounds row r's k-th distance to all others
            near = min(ids.size + k_max, n)
            nearest = np.argpartition(bound, near - 1)[:near]
            cap = np.concatenate([
                np.partition(block, k_max, axis=1)[:, k_max]
                for _, block in squared_distance_blocks(x[ids], x[nearest])
            ])
            candidates = np.flatnonzero(bound <= cap.max())
            own_col = np.searchsorted(candidates, ids)
            pieces, rows, widest = [], 0, 0
            for start, block in squared_distance_blocks(x[ids], x[candidates]):
                # a row keeps the candidates at or below its cap, which hold
                # all within its k-th distance; self is excluded by id, not by
                # distance, which may overflow to inf like any other. Hits
                # read flat in row-major order, so a row's ascend by id
                span = slice(start, start + block.shape[0])
                keep = block <= cap[span, None]
                keep[np.arange(block.shape[0]), own_col[span]] = False
                hit = np.flatnonzero(keep)
                counts = np.bincount(hit // block.shape[1], minlength=block.shape[0])
                # rank the hits of several blocks at once, in pieces whose
                # padded rows fit one block
                if pieces and (rows + counts.size) * max(widest, counts.max()) > block.size:
                    _rank_hits(knn_idx, knn_d2, pieces, candidates)
                    pieces, rows, widest = [], 0, 0
                pieces.append((ids[span], counts, hit, block.take(hit)))
                rows, widest = rows + counts.size, max(widest, counts.max())
            _rank_hits(knn_idx, knn_d2, pieces, candidates)
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
