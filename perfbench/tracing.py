"""Spans around calls into the rnncluster layers, recorded from outside.

Nothing under src/ is instrumented. The benchmark calls the layers through
a namespace of plain or wrapped functions (`layer_api`), and while a traced
pass runs, `Tracer.installed` also swaps the layer functions that
`rnncluster.sweep` imported, plus `NeighborIndex.rnn_csr`, so the spans show
what `run_sweep` really calls, caching included.

Only boundary calls are recorded: calls made by the benchmark itself or by
a sweep function. A layer's internal calls into another layer (DBSCRN
reading `rnn_csr`, ISDBSCAN's per-entity influence spaces) belong to the
calling layer's self time; recording them would cost a span per entity.

A tracer runs in one of two modes. "spans" records (name, start, end,
parent) in memory. "instrument" records no timings; it tracks the tracemalloc
peak of the calls named in PEAKS and the per-layer counts, for a pass whose timings are
thrown away.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import time
import tracemalloc
import weakref
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

import rnncluster.sweep as sweep_module
from rnncluster import (
    adjusted_rand_index,
    best_ari_summary,
    build_index,
    dbcv,
    dbcv_selection_summary,
    dbscrn,
    isdbscan,
    kmeans,
    pairwise_distance_extrema,
    range_standardize,
    run_sweep,
)
from rnncluster.dbscan import dbscan_from_neighborhoods, neighborhood_lists
from rnncluster.neighbors import NeighborIndex

# module of a layer function -> layer name
LAYERS = {
    "rnncluster.data": "data",
    "rnncluster.neighbors": "neighbors",
    "rnncluster.dbscrn": "dbscrn",
    "rnncluster.isdbscan": "isdbscan",
    "rnncluster.dbscan": "dbscan",
    "rnncluster.validation": "validation",
    "rnncluster.kmeans": "kmeans",
}

# function name -> span name; other layer functions get "<layer>.<function>"
SPAN_NAMES = {
    "range_standardize": "data.range_standardize",
    "pairwise_squared_distances": "data.pairwise",
    "pairwise_distance_extrema": "data.extrema",
    "rnn_csr": "neighbors.rnn_csr",
    "dbscrn": "dbscrn.fit",
    "isdbscan": "isdbscan.fit",
    "neighborhood_lists": "dbscan.eps_lists",
    "dbscan_from_neighborhoods": "dbscan.fit",
    "dbcv": "validation.dbcv",
    "adjusted_rand_index": "validation.ari",
    "kmeans": "kmeans.fit",
    "run_sweep": "sweep.run",
    "dbcv_selection_summary": "sweep.summary",
    "best_ari_summary": "sweep.summary",
}

# spans of the benchmark's own structure; a layer call directly under one
# of these (or under a sweep function) is a boundary call
STRUCTURE = ("setup", "pass")
UNIT = "unit:"
# spans whose tracemalloc peak is reported
PEAKS = ("neighbors.build_brute", "neighbors.build_spatial", "validation.dbcv")


def span_name(fn, args, kwargs) -> str:
    if fn.__name__ == "build_index":
        backend = kwargs.get("backend", args[2] if len(args) > 2 else "brute")
        return f"neighbors.build_{backend}"
    layer = LAYERS.get(fn.__module__, fn.__module__)
    return SPAN_NAMES.get(fn.__name__, f"{layer}.{fn.__name__}")


class Tracer:
    """Open spans, recorded spans ("spans" mode) or peaks and counts ("instrument")."""

    def __init__(self, mode: str = "spans"):
        self.mode = mode
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []
        self._names: list[str] = []  # open span names, also in instrument mode
        self.peaks_mb: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._dense_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._labelings: set[bytes] = set()

    # -- structure -------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        if self.mode == "instrument":
            self._names.append(name)
            try:
                yield
            finally:
                self._names.pop()
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        self._names.append(name)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()
            self._names.pop()

    def at_boundary(self) -> bool:
        if not self._names:
            return True
        top = self._names[-1]
        return top in STRUCTURE or top.startswith((UNIT, "sweep."))

    # -- wrapping --------------------------------------------------------
    def wrap(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.at_boundary():
                return fn(*args, **kwargs)
            name = span_name(fn, args, kwargs)
            if self.mode == "spans":
                with self.span(name):
                    return fn(*args, **kwargs)
            if name not in PEAKS:
                with self.span(name):
                    result = fn(*args, **kwargs)
            else:
                # traces only allocations made during the call, so the peak
                # is measured above the level at entry
                tracemalloc.start()
                try:
                    with self.span(name):
                        result = fn(*args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()
                self.peaks_mb[name] = max(self.peaks_mb.get(name, 0.0), peak)
            self._count(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap the sweep module's layer functions and `rnn_csr` for traced ones."""
        saved = {attr: value for attr, value in vars(sweep_module).items()
                 if inspect.isfunction(value) and value.__module__ in LAYERS}
        original_rnn_csr = NeighborIndex.rnn_csr
        try:
            for attr, value in saved.items():
                setattr(sweep_module, attr, self.wrap(value))
            NeighborIndex.rnn_csr = self.wrap(original_rnn_csr)
            yield
        finally:
            for attr, value in saved.items():
                setattr(sweep_module, attr, value)
            NeighborIndex.rnn_csr = original_rnn_csr

    # -- counts (instrument mode) ---------------------------------------
    def _add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _count(self, name: str, args, result) -> None:
        if name == "dbscrn.fit":
            index, k = args[1], args[2].k
            sizes = index.rnn_sizes(k)
            self._add("dbscrn.core", int(np.count_nonzero(sizes >= k)))
            self._add("dbscrn.guard_pass", int(np.count_nonzero(sizes > 2.0 * k / math.pi)))
        elif name == "isdbscan.fit":
            index, k = args[1], args[2].k
            self._add("isdbscan.dense", self._dense(index, k))
            self._add("isdbscan.noise", result.n_noise)
        elif name == "dbscan.eps_lists":
            self._add("dbscan.eps_pairs", sum(len(members) for members in result))
        elif name == "validation.dbcv":
            x = np.ascontiguousarray(args[0], dtype=np.float64)
            labels = np.asarray(getattr(args[1], "labels", args[1]), dtype=np.int64)
            key = hashlib.blake2b(x.tobytes() + labels.tobytes(), digest_size=16).digest()
            self._labelings.add(key)
            self._add("validation.dbcv_calls", 1)
            _, sizes = np.unique(labels[labels >= 0], return_counts=True)
            scored = sizes[sizes >= 2].astype(np.int64)
            self._add("validation.dbcv_pair_evals", int(np.sum(scored * scored)))
            self.counts["validation.dbcv_distinct"] = len(self._labelings)

    def _dense(self, index, k: int) -> int:
        """Entities whose influence space has more than 2k/3 members."""
        per_index = self._dense_cache.setdefault(index, {})
        if k not in per_index:
            sizes = [index.influence_space(i, k).size for i in range(index.n)]
            per_index[k] = int(np.count_nonzero(np.array(sizes) > 2.0 * k / 3.0))
        return per_index[k]


def layer_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The layer functions the benchmark calls, wrapped when `tracer` is set."""
    functions = {
        "range_standardize": range_standardize,
        "pairwise_distance_extrema": pairwise_distance_extrema,
        "build_index": build_index,
        "dbscrn": dbscrn,
        "isdbscan": isdbscan,
        "neighborhood_lists": neighborhood_lists,
        "dbscan_from_neighborhoods": dbscan_from_neighborhoods,
        "dbcv": dbcv,
        "adjusted_rand_index": adjusted_rand_index,
        "kmeans": kmeans,
        "run_sweep": run_sweep,
        "dbcv_selection_summary": dbcv_selection_summary,
        "best_ari_summary": best_ari_summary,
    }
    if tracer is not None:
        functions = {name: tracer.wrap(fn) for name, fn in functions.items()}
    return SimpleNamespace(**functions)
