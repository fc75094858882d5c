"""DBSCRN: density-based clustering from reverse-nearest-neighbour counts.

An entity is core iff at least k entities count it among their own k
nearest (|RNN_k| >= k). Links run from c to every j in RNN_k(c), among
entities whose |RNN_k| exceeds 2k/pi. Seeds are taken in ascending core
order and each claims what it reaches that no earlier seed reached, so an
entity belongs to the smallest core id that reaches it. Two numpy passes
compute that: every guard-passing entity pulls the smallest label of its k
nearest, and labels jump to their own label, until nothing changes. Each
remaining entity then joins the cluster of its nearest core entity: the
first core in its kNN row, or a blocked scan over the core rows when the
row holds none.

The single parameter is k; the cluster count emerges. There is no RNG
anywhere, and distance ties resolve to the smaller entity id, so two runs
on the same input are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering, canonicalize_labels, check_count
from .data import squared_distance_blocks
from .neighbors import NeighborIndex

__all__ = ["DbscrnParams", "dbscrn"]


@dataclass(frozen=True)
class DbscrnParams:
    """k: the number of nearest neighbours (the algorithm's only parameter)."""

    k: int

    def __post_init__(self):
        check_count("k", self.k)


def dbscrn(data: np.ndarray, index: NeighborIndex, params: DbscrnParams) -> Clustering:
    """Cluster `data` with DBSCRN using the neighbour index built on it.

    Every entity receives a cluster id (no noise output). Raises when
    `data` does not have the index's shape, and when no core entity
    exists, which signals that k is too large for the data.
    """
    index.check_data(data)
    k = params.k
    n = index.n
    sizes = index.rnn_sizes(k)
    core = sizes >= k
    if not core.any():
        raise ValueError(f"no core entities at k={k}; choose a smaller k for this data")
    # label[j]: the smallest core id known to reach j; n (the sentinel
    # last slot) when none does. Entities failing the guard never pull,
    # so they keep n and pass nothing on.
    guard = np.flatnonzero(sizes > 2.0 * k / math.pi)
    # (k, guard): a pull's minimum over the k nearest runs along whole rows
    nearest_k = index.knn_idx[guard, :k].T.copy()
    label = np.append(np.where(core, np.arange(n), n), n)
    while True:
        pulled = np.minimum(label[guard], label[nearest_k].min(axis=0))
        if np.array_equal(pulled, label[guard]):
            break
        label[guard] = pulled
        # a label is a core reaching j, and its own label reaches it in turn
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    # rows are sorted by (d2, id), so a row's first core is the nearest
    # core, ties to the smaller id
    left = np.flatnonzero(label[:n] == n)
    rows = index.knn_idx[left]
    first = core[rows].argmax(axis=1)
    nearest = rows[np.arange(left.size), first]
    blind = np.flatnonzero(~core[nearest])  # no core among the k_max nearest
    core_ids = np.flatnonzero(core)
    x = index.data
    for start, block in squared_distance_blocks(x[left[blind]], x[core_ids]):
        # argmin returns the first minimum; core_ids ascend, so distance
        # ties resolve to the smaller core id
        nearest[blind[start : start + block.shape[0]]] = core_ids[np.argmin(block, axis=1)]
    label[left] = label[nearest]
    return canonicalize_labels(label[:n])
