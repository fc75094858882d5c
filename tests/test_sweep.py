import importlib
import itertools
import json
import os
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import dbscan_bfs_oracle, isdbscan_worklist_oracle
from rnncluster import (
    DataSet,
    DbscanParams,
    DbscrnParams,
    IsdbscanParams,
    KmeansParams,
    SweepSpec,
    bench,
    best_ari_summary,
    build_index,
    dbcv_selection_summary,
    make_blobs,
    make_two_moons,
    run_sweep,
    timing_summary,
    write_labels_csv,
    write_reports,
)
import rnncluster.sweep as sweep_module
import rnncluster.validation as validation_module
from rnncluster import adjusted_rand_index, dbcv, dbscan, range_standardize
from rnncluster.clustering import Clustering
from rnncluster.dbscan import neighborhood_lists
from rnncluster.sweep import build_grid
from rnncluster.validation import fill_cluster_terms


@pytest.fixture
def small_blobs() -> DataSet:
    return make_blobs(n_centers=2, points_per_center=20, spread=0.03, seed=1)


def test_dbscrn_grid_has_28_points_on_40_entities(small_blobs):
    spec = SweepSpec(algorithm="dbscrn")
    result = run_sweep(small_blobs, spec)
    assert len(result.records) == 28  # k = 3..30, one run each (deterministic)
    assert all(r.seed is None and r.run == 0 for r in result.records)


def test_k_grid_clamps_to_n_minus_one():
    tiny = make_blobs(n_centers=2, points_per_center=5, spread=0.02, seed=0)  # n=10
    grid = build_grid(SweepSpec(algorithm="dbscrn"), tiny.matrix)
    assert [p.k for p in grid] == list(range(3, 10))
    with pytest.raises(ValueError, match="empty"):
        x = np.array([[0.0], [1.0], [2.0]])
        build_grid(SweepSpec(algorithm="dbscrn"), x)  # 3..30 clamped below 3


def test_dbscan_grid_composition():
    x = np.array([[0.0], [0.5], [1.0]])
    spec = SweepSpec(algorithm="dbscan", eps_step=0.25, min_pts_range=(3, 4))
    grid = build_grid(spec, x)
    eps_values = sorted({p.epsilon for p in grid})
    assert eps_values == pytest.approx([0.25, 0.5, 0.75, 1.0])  # extrema 0.25..1.0
    assert {p.min_pts for p in grid} == {3, 4}
    assert len(grid) == 8


def test_sweep_records_are_reproducible(small_blobs):
    spec = SweepSpec(algorithm="isdbscan", runs_per_setting=2, base_seed=9)
    a = run_sweep(small_blobs, spec)
    b = run_sweep(small_blobs, spec)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.params == rb.params and ra.seed == rb.seed
        np.testing.assert_array_equal(ra.labels, rb.labels)
        assert ra.dbcv_score == rb.dbcv_score and ra.ari == rb.ari


def test_runs_get_distinct_derived_seeds(small_blobs):
    spec = SweepSpec(algorithm="isdbscan", runs_per_setting=3, base_seed=0)
    result = run_sweep(small_blobs, spec)
    by_point: dict = {}
    for r in result.records:
        by_point.setdefault(r.params.k, []).append(r.seed)
    for seeds in by_point.values():
        assert len(set(seeds)) == len(seeds)


MEMO_SPECS = [
    SweepSpec(algorithm="dbscrn"),
    SweepSpec(algorithm="isdbscan", runs_per_setting=5),
    SweepSpec(algorithm="dbscan", runs_per_setting=3, eps_step=0.15, min_pts_range=(3, 8)),
]


@pytest.mark.parametrize("spec", MEMO_SPECS, ids=lambda s: s.algorithm)
def test_memoized_scores_equal_fresh_scores(small_blobs, spec):
    # both memos at once: repeated labelings, and clusters shared by distinct ones
    result = run_sweep(small_blobs, spec)
    x, _ = range_standardize(small_blobs.matrix)
    for r in result.records:
        assert r.dbcv_score == dbcv(x, r.labels).overall
        assert r.ari == adjusted_rand_index(r.labels, small_blobs.true_labels)


@pytest.mark.parametrize("spec", MEMO_SPECS, ids=lambda s: s.algorithm)
def test_each_distinct_labeling_is_scored_once(small_blobs, spec, monkeypatch):
    calls = []

    def counting_dbcv(*args, **kwargs):
        calls.append(args)
        return dbcv(*args, **kwargs)

    monkeypatch.setattr(sweep_module, "dbcv", counting_dbcv)
    result = run_sweep(small_blobs, spec)
    seen = set()
    for r in result.records:
        key = r.labels.tobytes()
        assert (r.dbcv_seconds == 0.0) == (key in seen)
        seen.add(key)
    assert len(calls) == len(seen) < len(result.records)


@pytest.mark.parametrize("spec", MEMO_SPECS, ids=lambda s: s.algorithm)
def test_the_fill_is_timed_once_and_split_by_built_cells(small_blobs, spec, monkeypatch):
    # a clock that advances 1.0 per reading: each timed span reads exactly 1.0
    ticks = itertools.count()
    monkeypatch.setattr(sweep_module, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))
    result = run_sweep(small_blobs, spec)
    x, _ = range_standardize(small_blobs.matrix)
    distinct: dict = {}
    for r in result.records:
        distinct.setdefault(r.labels.tobytes(), r.labels)
    cells = fill_cluster_terms(x, list(distinct.values()), {})
    assert cells.sum() > 0  # the fill builds something
    charged, seen = dict(zip(distinct, cells / cells.sum())), set()
    for r in result.records:
        key = r.labels.tobytes()
        assert r.cluster_seconds == 1.0
        # a distinct labeling's own `dbcv` call, and its cells' share of the fill
        assert r.dbcv_seconds == (0.0 if key in seen else pytest.approx(1.0 + charged[key], abs=1e-15))
        seen.add(key)
    # one span per distinct labeling, and one for the fill
    assert sum(r.dbcv_seconds for r in result.records) == pytest.approx(len(distinct) + 1.0, abs=1e-12)


@pytest.mark.parametrize("spec", MEMO_SPECS, ids=lambda s: s.algorithm)
def test_equal_labelings_share_one_read_only_array(small_blobs, spec):
    result = run_sweep(small_blobs, spec)
    x, _ = range_standardize(small_blobs.matrix)
    first: dict = {}
    for r in result.records:
        assert r.labels is first.setdefault(r.labels.tobytes(), r.labels)
        with pytest.raises(ValueError, match="read-only"):
            r.labels[0] = 0
        # the shared array still holds this record's own fit
        refit = sweep_module._fit(x, sweep_module._prepare(x, r.params), r.params, r.seed)
        np.testing.assert_array_equal(r.labels, refit.labels)
    assert len(first) < len(result.records)


def test_a_parallel_sweep_keeps_its_labels_read_only(small_blobs):
    result = run_sweep(small_blobs, MEMO_SPECS[1], n_jobs=2)
    assert not any(r.labels.flags.writeable for r in result.records)


@pytest.mark.parametrize("spec", MEMO_SPECS[:2], ids=lambda s: s.algorithm)
def test_each_distinct_cluster_is_built_once_per_sweep(small_blobs, spec, monkeypatch):
    built = []  # the member-id key of every cluster whose terms are built

    def counting_build(x, missing, cluster_terms, _original=validation_module._build_terms):
        built.extend(missing)
        return _original(x, missing, cluster_terms)

    monkeypatch.setattr(validation_module, "_build_terms", counting_build)
    result = run_sweep(small_blobs, spec)
    distinct, scored = set(), 0
    for labels in {r.labels.tobytes(): r.labels for r in result.records}.values():
        ids, counts = np.unique(labels[labels >= 0], return_counts=True)
        if np.count_nonzero(counts >= 2) >= 2:  # else DBCV returns before any terms
            for cid in ids[counts >= 2]:
                distinct.add(np.flatnonzero(labels == cid).tobytes())
                scored += 1
    assert len(built) == len(distinct) < scored
    assert set(built) == distinct


# ISDBSCAN's default grid, and DBSCAN settings on two moons where the cluster of a
# shared border entity follows the seed
SEEDED_SPECS = [
    SweepSpec(algorithm="isdbscan", runs_per_setting=5),
    SweepSpec(algorithm="dbscan", runs_per_setting=5, eps_range=(0.002, 0.004), eps_step=0.001,
              min_pts_range=(4, 8)),
]


@pytest.mark.parametrize("spec", SEEDED_SPECS, ids=lambda s: s.algorithm)
def test_seeded_runs_group_once_per_setting_and_match_the_oracles(spec, monkeypatch):
    # the package exports each algorithm under its module's name
    module = importlib.import_module(f"rnncluster.{spec.algorithm}")
    grouped = []

    def counting_roots(offsets, members, dense, _original=module.group_roots):
        grouped.append(dense)
        return _original(offsets, members, dense)

    monkeypatch.setattr(module, "group_roots", counting_roots)
    moons = make_two_moons(n=200, seed=0)
    result = run_sweep(moons, spec)
    x, _ = range_standardize(moons.matrix)
    index, lists = build_index(x, k_max=25), {}
    by_setting, grouping = defaultdict(set), set()  # per k, or per (epsilon, core set)
    for r in result.records:
        if spec.algorithm == "isdbscan":
            expected = isdbscan_worklist_oracle(index, r.params.k, r.seed)
            grouping.add(r.params.k)
        else:
            if r.params.epsilon not in lists:
                lists[r.params.epsilon] = neighborhood_lists(x, r.params.epsilon)
            expected = dbscan_bfs_oracle(lists[r.params.epsilon], r.params.min_pts, r.seed)
            core = np.diff(lists[r.params.epsilon][0]) >= r.params.min_pts
            grouping.add((r.params.epsilon, core.tobytes()))
        assert r.labels.tolist() == expected
        by_setting[r.params].add(r.labels.tobytes())
    assert len(grouped) == len(grouping)
    assert max(len(labelings) for labelings in by_setting.values()) > 1  # the seed matters


def test_a_dbscan_sweep_groups_each_epsilon_graph_once_per_core_set(monkeypatch):
    # the package exports dbscan under the module's name
    module = importlib.import_module("rnncluster.dbscan")
    grouped = []

    def counting_roots(offsets, members, dense, _original=module.group_roots):
        grouped.append(int(np.count_nonzero(dense)))
        return _original(offsets, members, dense)

    monkeypatch.setattr(module, "group_roots", counting_roots)
    moons = make_two_moons()
    x, _ = range_standardize(moons.matrix)
    top = build_grid(SweepSpec(algorithm="dbscan"), x)[-1].epsilon
    # the top of the default grid links every pair; 0.008 is in the band that recovers the moons
    groupings = {}
    for eps in (top, 0.008):
        grouped.clear()
        spec = SweepSpec(algorithm="dbscan", runs_per_setting=3, eps_range=(eps, eps))
        result = run_sweep(moons, spec)
        degrees = np.diff(neighborhood_lists(x, eps)[0])
        cores = {int(np.count_nonzero(degrees >= min_pts)) for min_pts in range(3, 21)}
        assert len(result.records) == 18 * 3
        assert sorted(grouped) == sorted(cores)
        groupings[eps] = len(grouped)
        for r in result.records:
            assert r.labels.tolist() == dbscan(x, r.params, seed=r.seed).labels.tolist()
    assert groupings[top] == 1 and 1 < groupings[0.008] < 18


def test_parallel_equals_sequential(small_blobs):
    # each worker keeps its own DBCV/ARI memo; scores may not depend on the split
    for spec in MEMO_SPECS:
        seq = run_sweep(small_blobs, spec, n_jobs=1)
        for n_jobs in (2, 3):
            par = run_sweep(small_blobs, spec, n_jobs=n_jobs)
            assert len(seq.records) == len(par.records)
            for rs, rp in zip(seq.records, par.records):
                assert rs.params == rp.params and rs.seed == rp.seed
                np.testing.assert_array_equal(rs.labels, rp.labels)
                assert rs.dbcv_score == rp.dbcv_score
                assert rs.ari == rp.ari  # seconds may differ, results may not


def test_standardization_happens_inside_the_sweep(small_blobs):
    result = run_sweep(small_blobs, SweepSpec(algorithm="dbscrn"))
    # the report reflects original units, proving raw data went in once
    np.testing.assert_allclose(
        result.standardization.mean, small_blobs.matrix.mean(axis=0)
    )
    assert result.n_entities == small_blobs.n


def test_summaries_on_clean_blobs(small_blobs):
    result = run_sweep(small_blobs, SweepSpec(algorithm="isdbscan", runs_per_setting=2))
    best = best_ari_summary(result)
    assert 0.0 <= best["max"] <= 1.0
    assert best["params"]["k"] >= 5
    selection = dbcv_selection_summary(result)
    assert len(selection["selected_params"]) == 2  # one per repetition
    assert selection["max"] is not None


def test_dbcv_selection_recovers_two_moons_exactly():
    moons = __import__("rnncluster").make_two_moons(n=372, density_ratio=3.0, seed=0)
    result = run_sweep(moons, SweepSpec(algorithm="dbscrn"))
    selection = dbcv_selection_summary(result)
    assert selection["max"] == 1.0  # the chosen k reproduces the ground truth


def test_best_ari_requires_truth():
    unlabeled = DataSet(np.random.default_rng(0).normal(size=(30, 2)), name="anon")
    result = run_sweep(unlabeled, SweepSpec(algorithm="dbscrn"))
    with pytest.raises(ValueError, match="ground-truth"):
        best_ari_summary(result)


def test_sweep_json_schema(small_blobs):
    result = run_sweep(small_blobs, SweepSpec(algorithm="dbscrn"))
    payload = result.to_json_dict()
    assert payload["schema_version"] == 2
    assert payload["algorithm"] == "dbscrn"
    assert len(payload["records"]) == 28
    record = payload["records"][0]
    assert set(record) >= {"params", "run", "seed", "n_clusters", "dbcv", "ari",
                           "cluster_seconds", "dbcv_seconds"}
    assert "seconds" not in record
    json.dumps(payload)  # serializable


def test_bench_collects_one_sample_per_run(small_blobs):
    seconds = bench(small_blobs, DbscrnParams(k=5), runs=7)
    assert seconds.shape == (7,)
    stats = timing_summary(seconds)
    assert set(stats) == {"mean", "std", "max", "min", "runs"}
    assert stats["runs"] == 7
    assert stats["min"] <= stats["mean"] <= stats["max"]


def test_timing_summary_fields():
    stats = timing_summary([1.0, 2.0, 3.0])
    assert stats["mean"] == 2.0 and stats["max"] == 3.0 and stats["min"] == 1.0


def test_labels_csv_uses_minus_one_for_noise(tmp_path):
    clustering = Clustering(labels=np.array([0, 0, 1, -1]))
    path = tmp_path / "labels.csv"
    write_labels_csv(path, clustering)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,cluster"
    assert lines[1:] == ["0,0", "1,0", "2,1", "3,-1"]


def test_write_reports_renders_dash_for_deterministic_rows(tmp_path):
    rows = [
        {
            "dataset": "two_moons",
            "algorithm": "dbscrn",
            "approximate": True,
            "best_ari": {"params": {"k": 8}, "mean": None, "std": None, "max": 1.0,
                         "deterministic": True},
            "dbcv_selected": {"mean": None, "std": None, "max": 1.0, "deterministic": True},
            "timing": {"mean": 0.01, "std": 0.001, "max": 0.012, "min": 0.009, "runs": 5},
        },
        {
            "dataset": "iris",
            "algorithm": "dbscan",
            "approximate": False,
            "best_ari": {"params": {"epsilon": 0.1, "min_pts": 3}, "mean": 0.55,
                         "std": 0.01, "max": 0.57, "deterministic": False},
            "dbcv_selected": None,
            "timing": None,
        },
    ]
    paths = write_reports(rows, tmp_path)
    best = (tmp_path / "best_ari.csv").read_text().splitlines()
    assert best[0] == "dataset,algorithm,mean,std,max"
    assert best[1].startswith("two_moons*,dbscrn,-,-,1.0000")  # Std dev shown as "-"
    assert best[2].startswith("iris,dbscan,0.5500,0.0100,0.5700")
    timing = (tmp_path / "timing.csv").read_text().splitlines()
    assert timing[0] == "dataset,algorithm,mean,std,max,min"
    assert len(timing) == 2  # only rows with timing data
    payload = json.loads((tmp_path / "best_ari.json").read_text())
    assert payload["schema_version"] == 1
    summary = (tmp_path / "summary.txt").read_text()
    assert "two_moons*" in summary and "generated approximation" in summary
    assert os.path.exists(paths["summary"])


def test_write_reports_leaves_out_the_footnote_without_a_flagged_row(tmp_path):
    # the CLI's `report` flags no row, and once every summary carried the footnote
    row = {"dataset": "iris", "algorithm": "dbscrn", "approximate": False, "best_ari": None,
           "dbcv_selected": None, "timing": None}
    write_reports([row, {**row, "algorithm": "dbscan"}], tmp_path)
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert summary[1:] == ["iris  dbscrn  -  -  -", "iris  dbscan  -  -  -"]
    assert not any("generated approximation" in line for line in summary)


def test_spec_validation(small_blobs):
    with pytest.raises(ValueError):
        SweepSpec(algorithm="optics")
    with pytest.raises(ValueError):
        SweepSpec(algorithm="dbscan", runs_per_setting=0)
    with pytest.raises(ValueError):
        SweepSpec(algorithm="dbscan", eps_step=0.0)
    for step in (np.nan, -0.1):  # NaN once failed in the grid's np.arange
        with pytest.raises(ValueError, match=f"^eps_step must be a real number >= 0, got {step}$"):
            SweepSpec("dbscan", eps_step=step)
    with pytest.raises(ValueError, match="eps_step must be finite and > 0"):
        SweepSpec("dbscan", eps_step=np.inf)
    for bounds in ((0.5, 0.1), (0.0, np.inf)):
        with pytest.raises(ValueError, match="eps_range must be finite with lo <= hi"):
            SweepSpec("dbscan", eps_range=bounds)
    for lo in (np.nan, -np.inf):
        message = rf"^eps_range\[0\] must be a real number >= 0, got {lo}$"
        with pytest.raises(ValueError, match=message):
            SweepSpec("dbscan", eps_range=(lo, 1.0))
    SweepSpec("dbscan", eps_range=(0.2, 0.2))  # a one-point grid is fine
    # a reversed MinPts range once failed only as an empty parameter grid
    with pytest.raises(ValueError, match=r"min_pts_range must have lo <= hi, got \(5, 3\)"):
        SweepSpec("dbscan", min_pts_range=(5, 3))
    SweepSpec("dbscan", min_pts_range=(4, 4))
    accepted = "DbscanParams, IsdbscanParams, DbscrnParams"
    with pytest.raises(ValueError, match=f"bench needs one of {accepted}, got NoneType"):
        bench(small_blobs, None)
    with pytest.raises(ValueError, match=f"bench needs one of {accepted}, got KmeansParams"):
        bench(small_blobs, KmeansParams(k_clusters=2))


def test_bench_clamps_k_to_n_minus_one():
    twenty = make_blobs(n_centers=2, points_per_center=10, spread=0.03, seed=1)
    assert bench(twenty, IsdbscanParams(k=25), runs=1).shape == (1,)


# An outside tracer times a sweep's stages by swapping exactly these names in
# rnncluster.sweep, so sweeps and bench must call the layers through them.
LAYER_NAMES = ("build_index", "neighborhood_lists", "dbscan_from_neighborhoods", "isdbscan",
               "dbscrn", "dbcv", "adjusted_rand_index", "select_best")
FIT_LAYERS = {
    "dbscan": ("neighborhood_lists", "dbscan_from_neighborhoods"),
    "isdbscan": ("build_index", "isdbscan"),
    "dbscrn": ("build_index", "dbscrn"),
}


@pytest.fixture
def layer_calls(monkeypatch):
    """name -> list of the kwargs of each call made through that module name."""
    calls = defaultdict(list)
    for name in LAYER_NAMES:
        original = getattr(sweep_module, name)
        assert original.__module__ != sweep_module.__name__  # the layer's own function

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(kwargs)
            return _original(*args, **kwargs)

        monkeypatch.setattr(sweep_module, name, counting)
    return calls


@pytest.mark.parametrize("spec", MEMO_SPECS, ids=lambda s: s.algorithm)
def test_sweeps_call_the_layers_through_module_names(small_blobs, spec, layer_calls):
    result = run_sweep(small_blobs, spec)
    dbcv_selection_summary(result)
    prepare, fit = FIT_LAYERS[spec.algorithm]
    structures = len({r.params.epsilon for r in result.records}) if prepare != "build_index" else 1
    distinct = len({r.labels.tobytes() for r in result.records})
    assert len(layer_calls[prepare]) == structures
    assert len(layer_calls[fit]) == len(result.records)
    assert len(layer_calls["dbcv"]) == len(layer_calls["adjusted_rand_index"]) == distinct
    assert len(layer_calls["select_best"]) == len({r.run for r in result.records})
    unused = {name for pair in FIT_LAYERS.values() for name in pair} - {prepare, fit}
    assert not any(layer_calls[name] for name in unused)


@pytest.mark.parametrize("algorithm, params", [
    pytest.param("dbscan", DbscanParams(epsilon=0.01, min_pts=4), id="dbscan"),
    pytest.param("isdbscan", IsdbscanParams(k=7), id="isdbscan"),
    pytest.param("dbscrn", DbscrnParams(k=7), id="dbscrn"),
])
def test_bench_calls_the_layers_through_module_names(small_blobs, algorithm, params, layer_calls):
    bench(small_blobs, params, runs=3)
    prepare, fit = FIT_LAYERS[algorithm]
    assert len(layer_calls[prepare]) == len(layer_calls[fit]) == len(layer_calls["dbcv"]) == 3
    if prepare == "build_index":
        # each run builds its own index for exactly k (k < n): the timed protocol
        assert all(kwargs["k_max"] == 7 for kwargs in layer_calls["build_index"])
