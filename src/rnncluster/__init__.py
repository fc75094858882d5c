"""Density-based clustering with reverse-nearest-neighbour queries.

Three density-based algorithms on one exact kNN/RNN query engine:

- DBSCRN: single-parameter clustering from reverse-neighbour counts,
  fully deterministic, no noise output.
- ISDBSCAN: influence-space clustering with seeded random expansion.
- DBSCAN: the classic epsilon/MinPts baseline.

Plus a vanilla k-means baseline, external validation via the adjusted
Rand index, internal validation via DBCV (used for unsupervised parameter
selection), range standardization, parameter sweeps, wall-clock
benchmarking and deterministic SVG plots. See the demos/ directory for
narrative walkthroughs of each capability.
"""

from .clustering import NOISE, Clustering, canonicalize_labels
from .data import (
    DataSet,
    StandardizationReport,
    as_feature_matrix,
    load_dataset,
    pairwise_distance_extrema,
    range_standardize,
)
from .dbscan import DbscanParams, dbscan
from .dbscrn import DbscrnParams, dbscrn
from .isdbscan import IsdbscanParams, isdbscan
from .kmeans import KmeansParams, kmeans, lloyd
from .neighbors import NeighborIndex, build_index
from .plotting import plot_clustering, render_svg
from .sweep import (
    SweepRecord,
    SweepResult,
    SweepSpec,
    bench,
    best_ari_summary,
    dbcv_selection_summary,
    run_sweep,
    timing_summary,
    write_labels_csv,
    write_reports,
)
from .synthetic import (
    generate_synthetic,
    make_blobs,
    make_nested_rings,
    make_spirals,
    make_two_moons,
)
from .validation import (
    DbcvReport,
    adjusted_rand_index,
    dbcv,
    select_best,
)

__version__ = "0.1.0"

__all__ = [
    "NOISE",
    "Clustering",
    "DataSet",
    "DbcvReport",
    "DbscanParams",
    "DbscrnParams",
    "IsdbscanParams",
    "KmeansParams",
    "NeighborIndex",
    "StandardizationReport",
    "SweepRecord",
    "SweepResult",
    "SweepSpec",
    "adjusted_rand_index",
    "as_feature_matrix",
    "bench",
    "best_ari_summary",
    "build_index",
    "canonicalize_labels",
    "dbcv",
    "dbcv_selection_summary",
    "dbscan",
    "dbscrn",
    "generate_synthetic",
    "isdbscan",
    "kmeans",
    "lloyd",
    "load_dataset",
    "make_blobs",
    "make_nested_rings",
    "make_spirals",
    "make_two_moons",
    "pairwise_distance_extrema",
    "plot_clustering",
    "range_standardize",
    "render_svg",
    "run_sweep",
    "select_best",
    "timing_summary",
    "write_labels_csv",
    "write_reports",
]
