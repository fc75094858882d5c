"""ISDBSCAN: influence-space clustering with seeded random start selection.

The k-influence space IS_k(i) = NN_k(i) ∩ RNN_k(i) is the mutual-kNN
relation, so it is symmetric; the index filters it from one mutual-rank
table, once per k (`NeighborIndex.influence_csr`), so a sweep over k sorts
nothing. Entities with more than 2k/3 members in it are dense, and linked
dense entities form groups: the first fit at a k finds them
(`group_roots`), and the index caches them for every seed.
Entities are drawn in a seeded order; the first draw of a group collects
all of it plus its sparse neighbours not yet drawn or collected, and a
sparse entity drawn before any linked group is noise
(`claim_in_draw_order`). Collected sets with more than k members become
clusters; smaller ones are noise. Influence spaces are those of the full
dataset, never of what is left.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import NOISE, Clustering, canonicalize_labels, check_count
from .clustering import claim_in_draw_order, group_roots
from .neighbors import NeighborIndex

__all__ = ["IsdbscanParams", "isdbscan"]


@dataclass(frozen=True)
class IsdbscanParams:
    """k: neighbour count for the influence space; seed: start-selection RNG."""

    k: int
    seed: int = 0

    def __post_init__(self):
        check_count("k", self.k)
        check_count("seed", self.seed, minimum=0)


def isdbscan(data: np.ndarray, index: NeighborIndex, params: IsdbscanParams) -> Clustering:
    """Cluster `data` using the neighbour index built on it.

    Collected sets larger than k become clusters; everything else is
    NOISE. When k >= n no collected set can exceed k, so every entity is
    noise; that case short-circuits since the index cannot serve k >= n
    queries. Any other k above the index's k_max raises ValueError.
    Reproducible bit-for-bit for a fixed seed.
    """
    index.check_data(data)
    n = index.n
    k = params.k
    if k >= n:
        return Clustering(labels=np.full(n, NOISE, dtype=np.int64))
    offsets, members = index.influence_csr(k)  # row i: i, then IS_k(i)
    groups = index.per_k("isdbscan", k, lambda: group_roots(
        offsets, members, np.diff(offsets) - 1 > 2.0 * k / 3.0))  # dense: |IS_k(i)| > 2k/3
    order = np.random.default_rng(params.seed).permutation(n)
    group, drawn = claim_in_draw_order(groups, order)
    collected = drawn >= group  # a sparse entity drawn before its group stays noise
    sizes = np.bincount(group[collected], minlength=n + 1)
    return canonicalize_labels(np.where(collected & (sizes[group] > k), group, NOISE))
