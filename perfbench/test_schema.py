"""Pins the benchmark's output schema: workloads, metric names and units.

    python -m pytest perfbench/test_schema.py -q

The live tests run the cheapest workload (sweep-rnn) for one pass, once
untraced and once traced, and take about half a minute.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ["fit-blobs3500", "sweep-rnn", "sweep-dbscan"]

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "fits_per_s": "1/s"}

PER_LAYER = {
    "data.range_standardize_s": "s", "data.pairwise_s": "s", "data.extrema_s": "s",
    "neighbors.build_brute_s": "s", "neighbors.build_brute_peak_mb": "MB",
    "neighbors.build_spatial_s": "s", "neighbors.build_spatial_peak_mb": "MB",
    "neighbors.rnn_csr_s": "s", "neighbors.builds": "count",
    "dbscrn.fit_s": "s", "dbscrn.fit_p50_ms": "ms", "dbscrn.fit_tail_ms": "ms",
    "dbscrn.fit_tail_pct": "%", "dbscrn.fit_n": "count",
    "dbscrn.core": "count", "dbscrn.guard_pass": "count",
    "isdbscan.fit_s": "s", "isdbscan.fit_p50_ms": "ms", "isdbscan.fit_tail_ms": "ms",
    "isdbscan.fit_tail_pct": "%", "isdbscan.fit_n": "count",
    "isdbscan.dense": "count", "isdbscan.noise": "count",
    "dbscan.eps_lists_s": "s", "dbscan.fit_s": "s", "dbscan.fit_p50_ms": "ms",
    "dbscan.fit_tail_ms": "ms", "dbscan.fit_tail_pct": "%", "dbscan.fit_n": "count",
    "dbscan.eps_pairs": "count",
    "validation.dbcv_s": "s", "validation.dbcv_p50_ms": "ms", "validation.dbcv_tail_ms": "ms",
    "validation.dbcv_tail_pct": "%", "validation.dbcv_n": "count",
    "validation.dbcv_peak_mb": "MB", "validation.dbcv_calls": "count",
    "validation.dbcv_useful_frac": "frac", "validation.dbcv_pair_evals": "count",
    "validation.ari_s": "s",
    "kmeans.fit_s": "s",
    "sweep.self_s": "s", "sweep.fits": "count",
    "trace.overhead_frac": "frac", "trace.accounted_frac": "frac",
}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_pinned_schema():
    bench = _benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_benchmark_code_matches_the_pinned_schema():
    assert list(run.WORKLOADS) == WORKLOADS == list(worker.WORKLOADS)
    assert run.END_TO_END == END_TO_END
    assert run.PER_LAYER == PER_LAYER


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, expected", [(0, END_TO_END), (1, PER_LAYER)])
def test_run_prints_every_metric_with_its_unit(trace, expected):
    lines = _run("sweep-rnn", trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for name, unit in expected.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                   for line in lines)
    assert any("digests compared against reference" in line for line in lines)
    if trace:
        assert 0.95 < result["metrics"]["trace.accounted_frac"]["value"] <= 1.0
