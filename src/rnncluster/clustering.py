"""Shared clustering result type, the draw-order claim of dense groups and
the checks of the algorithms' count, seed and radius parameters.

Every algorithm returns a `Clustering`: one label per entity, read by
`data.as_labels`, a cluster id in 0..K-1 or the NOISE sentinel (-1). The
ids are canonical (`canonicalize_labels`): contiguous from 0, ordered by
each cluster's smallest member, so equal partitions compare equal.

ISDBSCAN and DBSCAN both draw entities in a seeded order from a symmetric
graph whose linked dense entities form seed-free groups (`group_roots`): a
group is claimed at its first member's draw, and an entity goes to the first
claimed group linked to it (`claim_in_draw_order`, a pass per draw over sparse rows).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .data import as_labels

NOISE = -1

__all__ = ["NOISE", "Clustering", "canonicalize_labels", "claim_in_draw_order", "group_roots"]


@dataclass(frozen=True)
class Clustering:
    """Hard assignment of n entities to K clusters, with optional noise."""

    labels: np.ndarray

    def __post_init__(self):
        labels = as_labels(self.labels)
        if labels.min() < NOISE:
            raise ValueError("labels must be cluster ids >= 0 or NOISE (-1)")
        ids = labels[labels >= 0]
        # the max test comes first, so a huge id cannot size the bincount
        if ids.size and (ids.max() >= ids.size or not np.bincount(ids).all()):
            raise ValueError("cluster ids must be contiguous integers starting at 0")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def n_clusters(self) -> int:
        """K: the number of distinct non-noise cluster ids."""
        mask = self.labels >= 0
        return int(self.labels[mask].max()) + 1 if mask.any() else 0

    @property
    def n_noise(self) -> int:
        return int(np.count_nonzero(self.labels == NOISE))


def check_count(name: str, value, minimum: int | None = 1) -> None:
    """ValueError naming `name` unless `value` is a Python or numpy integer >= `minimum`.

    Counts take the default minimum 1; seeds take 0. With `minimum` None
    any integer passes, for a caller that states its own range.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def check_radius(name: str, value) -> None:
    """ValueError naming `name` unless `value` is a real number >= 0: no bool, no NaN."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and value >= 0):
        raise ValueError(f"{name} must be a real number >= 0, got {value!r}")


def canonicalize_labels(labels: np.ndarray) -> Clustering:
    """Relabel cluster ids by ascending smallest-member index; noise stays -1.

    Accepts any labelling `data.as_labels` accepts whose values are >= -1
    (ids need not be contiguous) and produces the canonical `Clustering`.
    When every id is below n, as every algorithm's are (draw positions,
    core ids or centroid indices), each id's first position comes from one
    O(n) pass, and an id's rank is the count of first positions up to its
    own; larger ids go through a sort.
    """
    labels = as_labels(labels)
    n = labels.size
    out = labels.copy()  # an id below NOISE stays, and `Clustering` refuses it
    clustered = labels >= 0
    ids = labels[clustered]
    if not ids.size or ids.max() < n:
        first = np.full(n, n)
        np.minimum.at(first, ids, np.flatnonzero(clustered))
        at = first[ids]
        starts = np.zeros(n, dtype=bool)
        starts[at] = True
        out[clustered] = np.cumsum(starts)[at] - 1
    else:
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(first.size)
        out[clustered] = rank[inverse]
    return Clustering(labels=out)


def group_roots(offsets, members, dense):
    """(root, rows, starts, links): the seed-free half of every draw's claim.

    The graph is symmetric and in CSR form (offsets, members), the
    package's one graph format (`rnn_csr` shares it, without symmetry):
    row i, members[offsets[i]:offsets[i+1]], holds i itself and every j
    whose row holds i. Dense entities joined by an edge form a group;
    root[i] is the smallest id in i's group, or n for a sparse i. Segment
    s of `links`, from starts[s], holds the roots of sparse row rows[s]'s dense links.
    """
    n = dense.size
    dense_ids = np.flatnonzero(dense)
    # union-find over dense-dense edges: sparse entities have root n,
    # which never hooks, so a sparse link joins no groups
    root = np.append(np.where(dense, np.arange(n), n), n)
    while True:
        low = np.minimum.reduceat(root[members], offsets[:-1])[dense_ids]
        if np.array_equal(low, root[dense_ids]):
            break
        np.minimum.at(root, root[dense_ids], low)  # hook each root to its lowest linked root
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    # sparse rows' dense links; a row with none gets no segment, never an empty one
    at = np.flatnonzero(np.repeat(~dense, np.diff(offsets)) & dense[members])
    row = np.searchsorted(offsets, at, side="right") - 1
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    return root[:n], row[starts], starts, root[members[at]]


def claim_in_draw_order(groups, order):
    """Claim each entity for the earliest-drawn dense group linked to it.

    `groups` is the graph's `group_roots`. A group is drawn at the first
    position in `order` (a permutation of the n entities) that any member takes.

    Returns (group, drawn): group[i] is the draw position of the earliest
    group in row i, which names that group, or n when the row has none;
    drawn[i] is i's own position in `order`.
    """
    root, rows, starts, links = groups
    n = root.size
    drawn = np.empty(n, dtype=np.int64)
    drawn[order] = np.arange(n)
    first = np.full(n + 1, n, dtype=np.int64)
    np.minimum.at(first, root, drawn)
    first[n] = n  # the sparse entities' root names no group
    group = first[root]  # a dense row links only its own group and sparse entities
    group[rows] = np.minimum.reduceat(first[links], starts)
    return group, drawn
