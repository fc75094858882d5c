"""DBSCRN: density-based clustering from reverse-nearest-neighbour counts.

An entity is core iff at least k entities count it among their own k
nearest (|RNN_k| >= k). Clusters grow by breadth-first traversal over
reverse-neighbour links among entities whose |RNN_k| exceeds 2k/pi; the
traversal therefore sweeps out one dense connected region per seed.
Afterwards each remaining non-core entity joins the cluster of its
nearest core entity, found by a blocked scan over the core rows.

The single parameter is k; the cluster count emerges. There is no RNG
anywhere: seeds are taken in ascending entity order, frontier waves are
id-sorted, and distance ties resolve to the smaller entity id, so two runs
on the same input are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering, canonicalize_labels
from .data import squared_distance_blocks
from .neighbors import NeighborIndex

__all__ = ["DbscrnParams", "classify_core", "dbscrn", "expand_cluster"]

_UNASSIGNED = -1


@dataclass(frozen=True)
class DbscrnParams:
    """k: the number of nearest neighbours (the algorithm's only parameter)."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


def classify_core(index: NeighborIndex, i: int, k: int) -> bool:
    """True iff entity i is core: |RNN_k(i)| >= k."""
    return bool(index.rnn_sizes(k)[i] >= k)


def expand_cluster(
    index: NeighborIndex,
    start: int,
    k: int,
    assignment: np.ndarray,
    cluster_id: int,
) -> np.ndarray:
    """Grow one cluster from a core entity; returns the member ids.

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
    offsets, members, sizes = index.rnn_csr(k)
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


def dbscrn(data: np.ndarray, index: NeighborIndex, params: DbscrnParams) -> Clustering:
    """Cluster `data` with DBSCRN using the prebuilt neighbour index.

    Every entity receives a cluster id (no noise output). Raises when no
    core entity exists, which signals that k is too large for the data.
    """
    k = params.k
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
    return canonicalize_labels(assignment)
