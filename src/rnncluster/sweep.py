"""Parameter sweeps, DBCV-driven selection, reports and wall-clock benchmarks.

A sweep range-standardizes the dataset exactly once, builds one neighbour
index that every k reuses, evaluates the full parameter grid, and records
cluster counts, DBCV score, ARI (when ground truth exists) and per-run
wall-clock for every grid point. Seeded algorithms get `runs_per_setting`
runs with seeds derived deterministically from the base seed; DBSCRN is
deterministic and gets exactly one run per setting.

Each record times its fit (`cluster_seconds`) apart from its DBCV
(`dbcv_seconds`). An evaluated chunk of the grid runs in two phases.
First every grid point is fitted. Then DBCV's per-cluster terms (the
`cluster_terms` memo of `dbcv`, keyed by member ids) are built once for
all of the chunk's distinct labelings by `validation.fill_cluster_terms`,
one timed span, and DBCV and ARI run once per distinct labeling, reading
the memo. Labels are canonical, so equal partitions have equal bytes. A
distinct labeling's `dbcv_seconds` is its own `dbcv` call plus the fill's
time split by built cells (n_c^2 over the clusters it is the first to
contain); a repeat reads 0.0, so a chunk's records sum to its DBCV time
whenever the fill builds a cluster. The shared index and each
epsilon's neighbourhood graph, both streamed from the blocked distance
kernel in O(block * n) memory, are amortized across the grid by design
and timed in neither field. DBSCRN reads only the index's kNN lists, counting |RNN_k| from
them in each fit. ISDBSCAN's influence graph (`influence_csr`, a filter
of the index's mutual-rank table) and its dense groups are built by the
index on first use and cached per k, and
DBSCAN's groups sit in a memo that comes with each epsilon's lists, shared
by every min_pts with the same core set: the first run at each k or core
set pays for them inside its `cluster_seconds`, and the other runs reuse
them. `bench` is the rigorous protocol: sequential runs, each timed
end-to-end including that run's own index build or epsilon-lists (and so
its own per-k graph and groups) and DBCV evaluation.

Sweeps, `bench` and the CLI's `cluster` share one fit path: `_prepare`
builds the one structure a fit reads (a kNN index with k_max = min(k,
n - 1), or the epsilon-lists with their memo) and `_fit` runs one fit
from it. The summaries read only the algorithm and each record's params,
run, DBCV score and ARI, so the CLI's `report` feeds them the records of
a sweep JSON (`_sweep_from_json`, which refuses a malformed one with
ValueError). The JSON records, in `SweepResult.to_json_dict`, are the one
record schema: the CLI writes the sweep CSV from them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .clustering import Clustering, check_count, check_radius
from .data import (
    DataSet,
    StandardizationReport,
    pairwise_distance_extrema,
    range_standardize,
)
from .dbscan import DbscanParams, dbscan_from_neighborhoods, neighborhood_lists
from .dbscrn import DbscrnParams, dbscrn
from .isdbscan import IsdbscanParams, isdbscan
from . import validation
from .neighbors import build_index
from .validation import adjusted_rand_index, dbcv, select_best

__all__ = [
    "SweepRecord",
    "SweepResult",
    "SweepSpec",
    "bench",
    "best_ari_summary",
    "dbcv_selection_summary",
    "run_sweep",
    "timing_summary",
    "write_labels_csv",
    "write_reports",
]

_PARAMS = {"dbscan": DbscanParams, "isdbscan": IsdbscanParams, "dbscrn": DbscrnParams}
ALGORITHMS = tuple(_PARAMS)
# the evaluation protocol's fixed k grids, inclusive, clamped to n - 1
K_RANGES = {"isdbscan": (5, 25), "dbscrn": (3, 30)}


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for one algorithm.

    Defaults follow the evaluation protocol: DBSCAN sweeps MinPts 3..20
    crossed with epsilon from the minimum to the maximum pairwise squared
    distance in steps of `eps_step`; ISDBSCAN and DBSCRN sweep the fixed
    k grids of `K_RANGES` (5..25 and 3..30), clamped to n-1.
    """

    algorithm: str
    runs_per_setting: int = 100
    base_seed: int = 0
    eps_step: float = 0.1
    eps_range: tuple[float, float] | None = None  # default: pairwise extrema
    min_pts_range: tuple[int, int] = (3, 20)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        check_count("runs_per_setting", self.runs_per_setting)
        check_count("base_seed", self.base_seed, minimum=0)
        lo_pts, hi_pts = self.min_pts_range
        check_count("min_pts_range[0]", lo_pts)
        check_count("min_pts_range[1]", hi_pts)
        if lo_pts > hi_pts:
            raise ValueError(f"min_pts_range must have lo <= hi, got {self.min_pts_range}")
        check_radius("eps_step", self.eps_step)
        if not 0 < self.eps_step < np.inf:
            raise ValueError(f"eps_step must be finite and > 0, got {self.eps_step}")
        if self.eps_range is not None:
            lo, hi = self.eps_range
            check_radius("eps_range[0]", lo)
            check_radius("eps_range[1]", hi)
            if not lo <= hi < np.inf:
                raise ValueError(f"eps_range must be finite with lo <= hi, got {self.eps_range}")


@dataclass
class SweepRecord:
    """One clustering run at one grid point.

    Equal labelings share one read-only array: the records of a sweep
    chunk (the whole grid when `n_jobs` is 1) whose labels are equal hold
    the same `labels` object.
    """

    params: object
    run: int
    seed: int | None
    labels: np.ndarray
    n_clusters: int
    n_noise: int
    dbcv_score: float
    ari: float | None
    cluster_seconds: float
    dbcv_seconds: float  # its `dbcv` call and cells' share of the chunk's fill; 0.0 for a repeat


@dataclass
class SweepResult:
    dataset_name: str
    algorithm: str
    spec: SweepSpec
    n_entities: int
    n_features: int
    standardization: StandardizationReport
    records: list[SweepRecord] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        records = [
            {
                "params": _params_dict(r.params),
                "run": r.run,
                "seed": r.seed,
                "n_clusters": r.n_clusters,
                "n_noise": r.n_noise,
                "dbcv": r.dbcv_score,
                "ari": r.ari,
                "cluster_seconds": r.cluster_seconds,
                "dbcv_seconds": r.dbcv_seconds,
            }
            for r in self.records
        ]
        return {
            "schema_version": 2,
            "kind": "sweep",
            "dataset": self.dataset_name,
            "algorithm": self.algorithm,
            "base_seed": self.spec.base_seed,
            "runs_per_setting": self.spec.runs_per_setting,
            "n_entities": self.n_entities,
            "n_features": self.n_features,
            "records": records,
        }


def _params_dict(params) -> dict:
    if isinstance(params, DbscanParams):
        return {"epsilon": params.epsilon, "min_pts": params.min_pts}
    return {"k": params.k}


def _sweep_from_json(payload) -> SimpleNamespace:
    """What `report` reads of a sweep JSON, or ValueError naming what is malformed.

    That is the dataset and algorithm, and each record's params, run, DBCV,
    ARI, cluster count and `cluster_seconds`, as `to_json_dict` writes them.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"a sweep JSON holds an object, got a {type(payload).__name__}")
    if payload.get("schema_version") != 2:
        raise ValueError(
            f"sweep JSON schema_version {payload.get('schema_version')!r} is not supported; "
            "re-run `rnncluster sweep` (schema 2)"
        )
    algorithm, dataset, records = (payload.get(k) for k in ("algorithm", "dataset", "records"))
    if algorithm not in ALGORITHMS:  # a tuple: an unhashable value compares unequal
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if not isinstance(records, list) or not records:
        raise ValueError("a sweep JSON holds a nonempty list of records")
    if not isinstance(dataset, str):
        raise ValueError(f"dataset must be a name, got {dataset!r}")
    integer, real = (int, "an integer"), ((int, float), "a real number")
    numbers = {"run": integer, "n_clusters": integer, "dbcv": real, "cluster_seconds": real,
               "ari": ((int, float, type(None)), "a real number or null")}
    read = []
    for i, r in enumerate(records):
        try:
            read.append(SimpleNamespace(
                params=_PARAMS[algorithm](**r["params"]),  # inverts _params_dict
                run=r["run"], dbcv_score=r["dbcv"], ari=r["ari"],
                n_clusters=r["n_clusters"], cluster_seconds=r["cluster_seconds"],
            ))
        except KeyError as error:
            raise ValueError(f"record {i} has no {error} key") from None
        except TypeError as error:
            raise ValueError(f"record {i} is malformed: {error}") from None
        for key, (kinds, what) in numbers.items():
            if isinstance(r[key], bool) or not isinstance(r[key], kinds):
                raise ValueError(f"record {i}: {key} must be {what}, got {r[key]!r}")
    return SimpleNamespace(dataset_name=dataset, algorithm=algorithm, records=read)


def _derived_seed(base_seed: int, point_index: int, run: int) -> int:
    """Machine-independent seed for (grid point, run)."""
    return int(np.random.SeedSequence((base_seed, point_index, run)).generate_state(1)[0])


def build_grid(spec: SweepSpec, x: np.ndarray) -> list:
    """Materialize the parameter grid for `spec` on standardized data `x`."""
    n = x.shape[0]
    if spec.algorithm == "dbscan":
        lo, hi = spec.eps_range if spec.eps_range is not None else pairwise_distance_extrema(x)
        eps_values = np.arange(lo, hi + 1e-12, spec.eps_step)
        lo_pts, hi_pts = spec.min_pts_range
        grid = [
            DbscanParams(epsilon=float(eps), min_pts=min_pts)
            for eps in eps_values
            for min_pts in range(lo_pts, hi_pts + 1)
        ]
    else:
        lo_k, hi_k = K_RANGES[spec.algorithm]
        grid = [_PARAMS[spec.algorithm](k=k) for k in range(lo_k, min(hi_k, n - 1) + 1)]
    if not grid:
        raise ValueError(
            f"empty parameter grid for {spec.algorithm} on n={n} entities after clamping"
        )
    return grid


def _prepare(x, params):
    """What a fit at `params` reads: a kNN index, or the epsilon-lists and a memo.

    The index serves k_max = min(k, n - 1): ISDBSCAN answers k >= n with
    all noise, and DBSCRN raises ValueError for a k the index cannot serve.
    It caches what its fits derive per k. The epsilon-lists come with an
    empty `roots` memo that their fits fill, one grouping per core set, as
    `dbscan_from_neighborhoods` describes.
    """
    if isinstance(params, DbscanParams):
        return neighborhood_lists(x, params.epsilon), {}
    return build_index(x, k_max=min(params.k, x.shape[0] - 1))


def _fit(x, prepared, params, seed) -> Clustering:
    """One fit from `_prepare`'s output; `seed` drives DBSCAN and ISDBSCAN."""
    if isinstance(params, DbscanParams):
        neigh, roots = prepared
        return dbscan_from_neighborhoods(neigh, params.min_pts, seed, roots=roots)
    if isinstance(params, IsdbscanParams):
        return isdbscan(x, prepared, replace(params, seed=seed))
    return dbscrn(x, prepared, params)


def _evaluate_chunk(x, truth, spec, grid, first_point_index):
    """Evaluate a slice of the grid; deterministic given its arguments.

    First every grid point is fitted, and each fit's labels are keyed by
    their bytes as it ends; then DBCV's memo is filled once, in one timed
    span, and DBCV and ARI run once per distinct labeling.
    """
    runs = 1 if spec.algorithm == "dbscrn" else spec.runs_per_setting
    # one index per chunk (for its largest k) and one set of lists per
    # epsilon, built outside the timed regions: sweep timings cover the fit
    # and DBCV only (bench times full runs)
    knn = spec.algorithm != "dbscan"
    prepared = _prepare(x, max(grid, key=lambda p: p.k)) if knn else None
    prepared_eps = None
    fits = []  # (params, run, seed, clustering, cluster_seconds)
    # labels bytes -> the first clustering with them; labels are canonical,
    # so equal partitions have equal bytes. Every fit with those labels reads
    # that clustering's read-only array, and a repeat's own array is freed at once
    distinct: dict[bytes, Clustering] = {}
    for offset, params in enumerate(grid):
        point_index = first_point_index + offset
        if not knn and prepared_eps != params.epsilon:
            prepared, prepared_eps = _prepare(x, params), params.epsilon
        for run in range(runs):
            seed = None if spec.algorithm == "dbscrn" else _derived_seed(
                spec.base_seed, point_index, run
            )
            start = time.perf_counter()
            clustering = _fit(x, prepared, params, seed)
            seconds = time.perf_counter() - start
            clustering = distinct.setdefault(clustering.labels.tobytes(), clustering)
            clustering.labels.flags.writeable = False
            fits.append((params, run, seed, clustering, seconds))

    # x is fixed within the chunk, so DBCV's per-cluster memo (member ids ->
    # terms) is valid for all of it
    cluster_terms: dict = {}
    start = time.perf_counter()
    cells = validation.fill_cluster_terms(x, list(distinct.values()), cluster_terms)
    per_cell = (time.perf_counter() - start) / max(cells.sum(), 1)
    scores: dict[bytes, tuple[float, float | None, float]] = {}  # DBCV, ARI, seconds
    for (key, clustering), built in zip(distinct.items(), cells):
        start = time.perf_counter()
        score = dbcv(x, clustering, cluster_terms=cluster_terms).overall
        seconds = time.perf_counter() - start + per_cell * built
        ari = None if truth is None else adjusted_rand_index(clustering, truth)
        scores[key] = score, ari, seconds

    records: list[SweepRecord] = []
    for params, run, seed, clustering, cluster_seconds in fits:
        key = clustering.labels.tobytes()
        score, ari, seconds = scores[key]
        scores[key] = score, ari, 0.0  # a repeat of this labeling was already scored
        records.append(
            SweepRecord(
                params=params,
                run=run,
                seed=seed,
                labels=clustering.labels,
                n_clusters=clustering.n_clusters,
                n_noise=clustering.n_noise,
                dbcv_score=score,
                ari=ari,
                cluster_seconds=cluster_seconds,
                dbcv_seconds=seconds,
            )
        )
    return records


def run_sweep(dataset: DataSet, spec: SweepSpec, n_jobs: int = 1) -> SweepResult:
    """Evaluate every grid point on the range-standardized dataset.

    `n_jobs` is an integer >= 1. With n_jobs > 1 the grid is split across
    a process pool; records are merged in grid order, so results equal the
    sequential run except for wall-clock fields. Each worker keeps its own
    memos: DBCV/ARI per distinct labeling, and DBCV's terms per distinct
    cluster, and times its own fill, so a cluster's cells count for the
    first labeling of its chunk that contains it. No memo outlives the call.
    """
    check_count("n_jobs", n_jobs)
    x, report = range_standardize(dataset.matrix)
    grid = build_grid(spec, x)
    truth = dataset.true_labels
    result = SweepResult(
        dataset_name=dataset.name,
        algorithm=spec.algorithm,
        spec=spec,
        n_entities=x.shape[0],
        n_features=x.shape[1],
        standardization=report,
    )
    if n_jobs == 1 or len(grid) < 2:
        result.records = _evaluate_chunk(x, truth, spec, grid, 0)
        return result
    from concurrent.futures import ProcessPoolExecutor  # imported here: only this branch pays for it

    n_jobs = min(n_jobs, len(grid))
    bounds = np.linspace(0, len(grid), n_jobs + 1).astype(int)
    jobs = [
        (x, truth, spec, grid[bounds[w] : bounds[w + 1]], int(bounds[w]))
        for w in range(n_jobs)
        if bounds[w] < bounds[w + 1]
    ]
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        for chunk_records in pool.map(_evaluate_chunk, *zip(*jobs)):
            for record in chunk_records:  # a chunk's arrays come back shared but writeable
                record.labels.flags.writeable = False
            result.records.extend(chunk_records)
    return result


def best_ari_summary(result: SweepResult) -> dict:
    """Stats at the grid point achieving the highest ARI seen in the sweep.

    Mirrors the best-possible-recovery protocol: parameters are fixed at
    the ARI-maximizing grid point, statistics are over that point's runs.
    Points tied on the best ARI resolve to the smaller parameters, as in
    `select_best`, so record order does not matter. Reads only
    `result.algorithm` and each record's params and ARI.
    """
    if not result.records or result.records[0].ari is None:
        raise ValueError("best_ari_summary needs ground-truth labels")
    by_point: dict[tuple, list[SweepRecord]] = {}
    for r in result.records:
        by_point.setdefault(tuple(sorted(_params_dict(r.params).items())), []).append(r)
    scored = [(rs[0].params, rs, max(r.ari for r in rs)) for rs in by_point.values()]
    _, best_point = select_best(scored)
    aris = np.array([r.ari for r in best_point])
    deterministic = result.algorithm == "dbscrn"
    return {
        "params": _params_dict(best_point[0].params),
        "mean": None if deterministic else float(aris.mean()),
        "std": None if deterministic else float(aris.std()),
        "max": float(aris.max()),
        "deterministic": deterministic,
    }


def dbcv_selection_summary(result: SweepResult) -> dict:
    """ARI of the DBCV-selected clustering, per repetition.

    Repetition r selects, among all grid points' run-r records, the one
    with the highest DBCV score (`select_best`: ties go to the smaller
    parameters); its ARI is that repetition's outcome. Reads only
    `result.algorithm` and each record's params, run, DBCV score and ARI.
    """
    runs = sorted({r.run for r in result.records})
    selected = []
    for run in runs:
        entries = [
            (r.params, r, r.dbcv_score) for r in result.records if r.run == run
        ]
        params, record = select_best(entries)
        selected.append((run, params, record))
    aris = np.array(
        [r.ari if r.ari is not None else np.nan for _, _, r in selected], dtype=float
    )
    deterministic = result.algorithm == "dbscrn"
    has_truth = not np.isnan(aris).any()
    return {
        "selected_params": [_params_dict(p) for _, p, _ in selected],
        "dbcv": [s.dbcv_score for _, _, s in selected],
        "mean": float(aris.mean()) if has_truth and not deterministic else None,
        "std": float(aris.std()) if has_truth and not deterministic else None,
        "max": float(np.nanmax(aris)) if has_truth else None,
        "deterministic": deterministic,
    }


def timing_summary(seconds) -> dict:
    s = np.asarray(seconds, dtype=float)
    return {
        "mean": float(s.mean()),
        "std": float(s.std()),
        "max": float(s.max()),
        "min": float(s.min()),
        "runs": int(s.size),
    }


def bench(dataset: DataSet, params, runs: int = 100, base_seed: int = 0) -> np.ndarray:
    """Seconds of each of `runs` sequential runs at `params`, shape (runs,).

    The type of `params` (DbscanParams, IsdbscanParams or DbscrnParams)
    names the algorithm. A run builds its own index or epsilon-lists, fits
    and scores one DBCV; standardization happens once, outside the timed
    region, and no worker pool runs, so timings are free of contention.
    """
    if not isinstance(params, tuple(_PARAMS.values())):
        names = ", ".join(cls.__name__ for cls in _PARAMS.values())
        raise ValueError(f"bench needs one of {names}, got {type(params).__name__}")
    check_count("runs", runs)
    check_count("base_seed", base_seed, minimum=0)
    x, _ = range_standardize(dataset.matrix)
    seconds = np.empty(runs)
    for run in range(runs):
        seed = _derived_seed(base_seed, 0, run)
        start = time.perf_counter()
        clustering = _fit(x, _prepare(x, params), params, seed)
        dbcv(x, clustering)
        seconds[run] = time.perf_counter() - start
    return seconds


def write_labels_csv(path, clustering: Clustering) -> None:
    """Entity index and cluster id per row; noise is -1."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index,cluster\n")
        for i, label in enumerate(clustering.labels.tolist()):
            handle.write(f"{i},{label}\n")


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.4f}"


def _shown_name(row) -> str:
    return row["dataset"] + ("*" if row.get("approximate") else "")


# file name, the row key holding its statistics, and their columns
_TABLES = (
    ("best_ari", "best_ari", ("mean", "std", "max")),
    ("dbcv_selected_ari", "dbcv_selected", ("mean", "std", "max")),
    ("timing", "timing", ("mean", "std", "max", "min")),
)


def write_reports(reports: list[dict], out_dir) -> dict:
    """Emit machine-readable tables and a text summary from report rows.

    Each row is a dict with keys: dataset, algorithm, approximate (bool),
    best_ari (dict or None), dbcv_selected (dict or None), timing (dict or
    None); every value must be JSON-native (Python scalars, lists, dicts,
    None), as the summaries and `timing_summary` return them. Produces
    best_ari.{csv,json}, dbcv_selected_ari.{csv,json}, timing.{csv,json}
    and summary.txt in `out_dir`; a table's CSV skips the rows whose
    statistics are None, its JSON holds every row. The summary ends with
    the footnote on starred (approximate) datasets only when a row is one.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, key, columns in _TABLES:
        csv_path = os.path.join(out_dir, f"{name}.csv")
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write(",".join(("dataset", "algorithm") + columns) + "\n")
            for row in reports:
                stats = row.get(key)
                if stats is not None:
                    cells = [_shown_name(row), row["algorithm"]]
                    handle.write(",".join(cells + [_fmt(stats[c]) for c in columns]) + "\n")
        json_path = os.path.join(out_dir, f"{name}.json")
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump({"schema_version": 1, "kind": name, "rows": reports}, handle,
                      indent=2)
        paths[name] = csv_path

    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as handle:
        handle.write("dataset  algorithm  best-ARI(max)  DBCV-selected-ARI(max)  time mean s\n")
        for row in reports:
            best = row.get("best_ari")
            sel = row.get("dbcv_selected")
            tim = row.get("timing")
            handle.write(
                f"{_shown_name(row)}  {row['algorithm']}  "
                f"{_fmt(best['max']) if best else '-'}  "
                f"{_fmt(sel['max']) if sel else '-'}  "
                f"{_fmt(tim['mean']) if tim else '-'}\n"
            )
        if any(row.get("approximate") for row in reports):
            handle.write("* generated approximation of a dataset with no public source\n")
    paths["summary"] = summary_path
    return paths

