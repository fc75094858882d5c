"""
Wall-clock benchmarking
=======================

Sequential timing runs, each covering the run's own index build, the
clustering itself and one DBCV evaluation. Dataset loading and
standardization sit outside the timed region. `bench` takes the
parameters object, whose type names the algorithm, and returns the
seconds of every run; `timing_summary` condenses them.

Run:  python demos/04_benchmark_timing.py
"""

import numpy as np

from rnncluster import (
    DbscanParams,
    DbscrnParams,
    IsdbscanParams,
    bench,
    build_index,
    make_blobs,
    range_standardize,
    timing_summary,
)

dataset = make_blobs(n_centers=7, points_per_center=113, spread=0.08, seed=5)
x, _ = range_standardize(dataset.matrix)
print(f"{dataset.n} entities, 7 Gaussian blobs\n")

# comparable parameters: k = 10 for the reverse-neighbour methods, and for
# DBSCAN an epsilon sized like a typical 10-NN radius with MinPts = 10
probe = build_index(x, 10)
eps = float(np.median(probe.knn_d2[:, 9]))

params = [DbscanParams(epsilon=eps, min_pts=10), DbscrnParams(k=10), IsdbscanParams(k=10)]

print("params type     mean s    std s    max s    min s   (15 runs each)")
for p in params:
    stats = timing_summary(bench(dataset, p, runs=15))
    print(
        f"{type(p).__name__:14s}  {stats['mean']:.4f}   {stats['std']:.4f}   "
        f"{stats['max']:.4f}   {stats['min']:.4f}"
    )

print(
    "\nnote: all three pipelines share the same vectorized index build and\n"
    "DBCV evaluation, which dominate at this scale, so their wall-clocks\n"
    "sit much closer together than naive per-query implementations would"
)
