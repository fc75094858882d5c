"""The scaling ladder: time the kNN build, RNN lists, epsilon-lists, fits, DBCV and ARI on fixed rungs.

    python ladder/run.py --label <label>

writes BENCH_<label>.json at the repository root. Each rung runs in its own
process (`--rung NAME` prints that rung's record), so each `ru_maxrss_mb`
is that rung's alone. The library comes from this checkout's `src/`; to
measure another revision, run this file from a checkout of it.

Rungs: blobs `make_blobs(7, n/7, 0.08, seed=5)` at n = 791, 2,800, 7,000,
21,000 and 70,000, two moons at 372 and Iris at 150, each range-standardized.
Stages:
  - build: the default `build_index` at k_max = 30;
  - rnn_csr: the reverse lists at k = 10, on a fresh index over that build's
    lists, so no call reads the per-k cache;
  - eps_lists: `neighborhood_lists` at criterion 4's epsilon, the median
    10th-neighbour squared distance, read from that build;
  - dbscrn: DBSCRN at k = 10 on the build's index;
  - isdbscan: ISDBSCAN at k = 10, seed 0, on a fresh index over the build's
    lists, so every call pays for the k = 10 influence graph and its groups;
  - influence: `influence_csr(k)` for k = 5..25 on a fresh index over the
    build's first 25 columns, the influence graphs of an ISDBSCAN sweep;
  - dbscan: `dbscan_from_neighborhoods` on the eps_lists stage's lists at
    criterion 4's MinPts of 10, seed 0, with no `roots` memo;
  - dbcv: DBCV on the labels of the dbscrn stage;
  - ari: the adjusted Rand index of those labels against the rung's classes.
Every stage makes one warm-up call and reports the median of a fixed number
of timed calls, set per rung in CALLS (`calls`), so a stage is measured the
same way at every revision. A second pass runs each stage once more under
tracemalloc for its peak, so tracing never touches the timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from rnncluster import (  # noqa: E402
    DbscrnParams,
    IsdbscanParams,
    adjusted_rand_index,
    build_index,
    dbcv,
    dbscrn,
    isdbscan,
    load_dataset,
    make_blobs,
    range_standardize,
)
from rnncluster.dbscan import dbscan_from_neighborhoods, neighborhood_lists  # noqa: E402
from rnncluster.neighbors import NeighborIndex  # noqa: E402
from rnncluster.synthetic import make_two_moons  # noqa: E402

K_MAX = 30
K = 10  # the k of the rnn_csr and fit stages, and so of the dbcv and ari stages
SWEEP_KS = range(5, 26)  # the k of the influence stage: ISDBSCAN's default sweep grid
MIN_PTS = 10  # criterion 4's MinPts, for the dbscan stage
BLOBS = (791, 2800, 7000, 21000, 70000)
RUNGS = tuple(f"blobs-{n}" for n in BLOBS) + ("moons-372", "iris-150")
# timed calls behind each stage's median, after one warm-up: enough to
# read the small rungs warm and steady, one where a call takes seconds
CALLS = {"blobs-791": 5, "blobs-2800": 5, "blobs-7000": 3, "blobs-21000": 1, "blobs-70000": 1,
         "moons-372": 5, "iris-150": 5}
UNITS = {"seconds": "s", "calls": "count", "peak_mb": "MiB", "ru_maxrss_mb": "MiB"}


def rung_data(name: str) -> tuple[np.ndarray, np.ndarray]:
    """The range-standardized matrix of one rung, and its classes."""
    kind, n = name.split("-")
    if kind == "blobs":
        data = make_blobs(7, int(n) // 7, 0.08, seed=5)
    elif kind == "moons":
        data = make_two_moons(n=int(n), density_ratio=3.0, seed=0)
    elif kind == "iris":
        data = load_dataset(os.path.join(ROOT, "data", "iris.csv"), has_header=True, label_column=-1)
    else:
        raise ValueError(f"unknown rung {name!r} (expected one of {', '.join(RUNGS)})")
    return range_standardize(data.matrix)[0], data.true_labels


def _pass(x: np.ndarray, truth: np.ndarray, calls: int, traced: bool) -> dict:
    """One pass over the stages: each one's median seconds over `calls`, or its traced peak in MiB."""
    out = {}

    def measure(stage, run):
        if traced:
            tracemalloc.start()
            result = run()
            out[stage] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            return result
        result = run()  # the warm-up
        seconds = []
        for _ in range(calls):
            start = time.perf_counter()
            run()
            seconds.append(time.perf_counter() - start)
        out[stage] = float(np.median(seconds))
        return result

    index = measure("build", lambda: build_index(x, K_MAX))
    lists = index.data, index.k_max, index.knn_idx, index.knn_d2
    measure("rnn_csr", lambda: NeighborIndex(*lists).rnn_csr(K))
    epsilon = float(np.median(index.knn_d2[:, 9]))
    neighborhoods = measure("eps_lists", lambda: neighborhood_lists(x, epsilon))
    labels = measure("dbscrn", lambda: dbscrn(x, index, DbscrnParams(k=K))).labels
    measure("isdbscan", lambda: isdbscan(x, NeighborIndex(*lists), IsdbscanParams(k=K, seed=0)))
    k_swept = SWEEP_KS[-1]
    swept = x, k_swept, index.knn_idx[:, :k_swept], index.knn_d2[:, :k_swept]

    def influence():
        fresh = NeighborIndex(*swept)
        return [fresh.influence_csr(k) for k in SWEEP_KS]

    measure("influence", influence)
    measure("dbscan", lambda: dbscan_from_neighborhoods(neighborhoods, MIN_PTS, 0))
    measure("dbcv", lambda: dbcv(x, labels))
    measure("ari", lambda: adjusted_rand_index(labels, truth))
    return out


def run_rung(name: str) -> dict:
    """Time one rung's stages, then trace their peaks; the rung's record."""
    x, truth = rung_data(name)
    calls = CALLS[name]
    seconds = _pass(x, truth, calls, traced=False)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    peaks = _pass(x, truth, calls, traced=True)
    return {
        "rung": name,
        "n": int(x.shape[0]),
        "m": int(x.shape[1]),
        "ru_maxrss_mb": round(rss_mb, 1),
        "stages": [
            {"stage": stage, "seconds": round(seconds[stage], 6), "calls": calls,
             "peak_mb": round(peaks[stage], 3)}
            for stage in seconds
        ],
    }


def _revision() -> str | None:
    try:
        # "-dirty" marks a run on tracked files that differ from the revision
        done = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--abbrev=40"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def header(label: str) -> dict:
    """What the file records once: label, revision, numpy, cores and the setup."""
    return {
        "label": label,
        "git_revision": _revision(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "k_max": K_MAX,
        "k": K,
        "epsilon": "median 10th-neighbour squared distance (criterion 4)",
        "timing": "one warm-up call, then the median of a fixed number of calls per rung",
        "calls": CALLS,
        "units": UNITS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--label", help="write BENCH_<label>.json at the repository root")
    group.add_argument("--rung", choices=RUNGS, help="run one rung and print its record")
    args = parser.parse_args(argv)
    if args.rung:
        print(json.dumps(run_rung(args.rung)))
        return 0
    records = []
    for name in RUNGS:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--rung", name],
                              capture_output=True, text=True, check=True)
        records.append(json.loads(done.stdout))
        print(f"{name}: " + ", ".join(f"{s['stage']} {s['seconds']:.4f} s" for s in records[-1]["stages"]),
              file=sys.stderr)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**header(args.label), "rungs": records}, handle, indent=2)
        handle.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
