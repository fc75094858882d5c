"""Exact kd-tree for squared-Euclidean k-nearest-neighbour queries.

Axis-aligned, median-count splits (both children nonempty even with heavy
duplicate coordinates). Queries are exact and use the same
(distance, entity index) tie-break as the brute-force scan: candidates are
ranked lexicographically, and a subtree is pruned only when its single-axis
lower bound strictly exceeds the current worst kept distance, so
equal-distance candidates are never lost.
"""

from __future__ import annotations

import heapq

import numpy as np

from .data import row_squared_distances

__all__ = ["KDTree"]

_NO_CHILD = -1


class KDTree:
    """Static spatial index over the rows of a float64 (n, m) matrix."""

    def __init__(self, data: np.ndarray, leaf_size: int = 32):
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError("data must be a 2-D array")
        self.leaf_size = leaf_size
        self._axis: list[int] = []
        self._split: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._points: list[np.ndarray | None] = []
        self._root = self._build(np.arange(self.data.shape[0], dtype=np.int64))

    def _new_node(self) -> int:
        self._axis.append(-1)
        self._split.append(0.0)
        self._left.append(_NO_CHILD)
        self._right.append(_NO_CHILD)
        self._points.append(None)
        return len(self._axis) - 1

    def _build(self, indices: np.ndarray) -> int:
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

    def query(
        self, point: np.ndarray, k: int, exclude: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest rows to `point`, optionally excluding one row index.

        Returns (indices, squared_distances) sorted ascending by
        (distance, index).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        point = np.asarray(point, dtype=np.float64)
        # Python floats overflow to inf without a warning, like the kernel
        coords = point.tolist()
        # max-heap on (d2, index) via negation; heap[0] is the worst kept
        heap: list[tuple[float, int]] = []
        stack: list[tuple[int, float]] = [(self._root, 0.0)]
        while stack:
            node, bound = stack.pop()
            if len(heap) == k and bound > -heap[0][0]:
                continue
            points = self._points[node]
            if points is not None:
                candidates = points if exclude is None else points[points != exclude]
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
            split = self._split[node]
            delta = coords[axis] - split
            if delta <= 0.0:
                near, far = self._left[node], self._right[node]
            else:
                near, far = self._right[node], self._left[node]
            far_bound = delta * delta
            stack.append((far, far_bound))
            stack.append((near, bound))
        ranked = sorted((-neg_d2, -neg_idx) for neg_d2, neg_idx in heap)
        idx = np.array([i for _, i in ranked], dtype=np.int64)
        d2 = np.array([d for d, _ in ranked], dtype=np.float64)
        return idx, d2
