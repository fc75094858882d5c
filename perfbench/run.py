"""rnncluster benchmark: three workloads, end-to-end metrics, a traced layer run.

    python3 perfbench/run.py --workload fit-blobs3500 --seed 5 --seconds 35 --trace 0

Run from anywhere inside a source checkout; nothing needs installing, the
package is imported from src/. Prints a run record, the correctness-gate
digests and every metric by name and unit, then, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The full record (spans included when traced) goes to .bench_out/.

Each run starts fresh processes: a few that only set up (imports, data,
standardization) to time set-up, and one that runs the workload, whose
peak RSS is reported. End-to-end times are scaled to reference speed by
a kernel timed in the same processes (reference.py). Workload rationale
and the metrics' definitions: README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from reference import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("fit-blobs3500", "sweep-rnn", "sweep-dbscan")
SETUP_PROBES = 8  # set-up-only processes per run, besides the workload process
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "fits_per_s": "1/s",
}

_TIMED = {"p50_ms": "ms", "tail_ms": "ms", "tail_pct": "%", "n": "count"}
PER_LAYER = {
    "data.range_standardize_s": "s",
    "data.pairwise_s": "s",
    "data.extrema_s": "s",
    "neighbors.build_brute_s": "s",
    "neighbors.build_brute_peak_mb": "MB",
    "neighbors.build_spatial_s": "s",
    "neighbors.build_spatial_peak_mb": "MB",
    "neighbors.rnn_csr_s": "s",
    "neighbors.builds": "count",
    "dbscrn.fit_s": "s",
    **{f"dbscrn.fit_{k}": u for k, u in _TIMED.items()},
    "dbscrn.core": "count",
    "dbscrn.guard_pass": "count",
    "isdbscan.fit_s": "s",
    **{f"isdbscan.fit_{k}": u for k, u in _TIMED.items()},
    "isdbscan.dense": "count",
    "isdbscan.noise": "count",
    "dbscan.eps_lists_s": "s",
    "dbscan.fit_s": "s",
    **{f"dbscan.fit_{k}": u for k, u in _TIMED.items()},
    "dbscan.eps_pairs": "count",
    "validation.dbcv_s": "s",
    **{f"validation.dbcv_{k}": u for k, u in _TIMED.items()},
    "validation.dbcv_peak_mb": "MB",
    "validation.dbcv_calls": "count",
    "validation.dbcv_useful_frac": "frac",
    "validation.dbcv_pair_evals": "count",
    "validation.ari_s": "s",
    "kmeans.fit_s": "s",
    "sweep.self_s": "s",
    "sweep.fits": "count",
    "trace.overhead_frac": "frac",
    "trace.accounted_frac": "frac",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def thread_caps(nproc: int) -> dict[str, str]:
    """Each BLAS/OpenMP thread count capped at nproc (a lower setting is kept)."""
    caps = {}
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        caps[var] = str(min(int(current), nproc)) if current.isdigit() and int(current) > 0 \
            else str(nproc)
    return caps


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of src/rnncluster/*.py, which names the code even without git."""
    h = hashlib.blake2b(digest_size=8)
    package = os.path.join(ROOT, "src", "rnncluster")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, dict, list[str]]:
    """Run the worker; returns (monotonic start, its JSON result, its other output lines)."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return started, json.loads(lines[-1]), lines[:-1]


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()
    caps = thread_caps(nproc)
    env = {**os.environ, **caps}
    base = ["--workload", workload, "--seed", str(seed)]

    # each set-up sample comes with one reference-kernel time, taken in the
    # same process right after set-up
    setups, setup_refs = [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            started, probe, _ = spawn(base + ["--setup-only"], env, deadline)
            setups.append(probe["setup_done"] - started)
            setup_refs.append(probe["reference_s"][0])
    started, result, lines = spawn(base + ["--seconds", str(seconds), "--trace", str(int(trace))],
                                   env, deadline)
    setups.append(result["setup_done"] - started)
    setup_refs.extend(result["reference_s"][:1])

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": nproc, "load_before": load_before, "load_after": os.getloadavg(),
        "busy_start": load_before[0] > nproc,
        "python": platform.python_version(), "numpy": result["numpy"],
        "git_commit": git_commit(), "source": source_digest(), "thread_caps": caps,
        "setup_samples_s": setups, "setup_reference_s": setup_refs,
        "passes_s": result["passes"], "reference_samples_s": result["reference_s"],
    }
    if trace:
        # a layer the workload never calls reads 0
        metrics = {name: result["metrics"].get(name, 0.0) for name in PER_LAYER}
    else:
        # A shared host's speed swings by up to ~2x, over seconds and over
        # minutes. The reference kernel runs before every unit, so the
        # medians of both see the same mix of host speeds, and their ratio
        # follows the host far less than either does.
        setup = statistics.median(setups)
        wall = sum(statistics.median(samples) for samples in result["unit_samples"].values())
        setup_scale = REFERENCE_S / statistics.median(setup_refs)
        scale = REFERENCE_S / statistics.median(result["reference_s"])
        record.update(raw_setup_s=setup, raw_wall_s=wall, scale=scale, setup_scale=setup_scale)
        wall *= scale
        metrics = {
            "setup_s": setup * setup_scale,
            "wall_s": wall,
            "peak_rss_mb": result["peak_rss_mb"],
            "fits_per_s": result["scored_per_pass"] / wall,
        }
    for line in lines:
        print(line)
    return record, {"result": result, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure passes for about this many seconds (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/rnncluster/__init__.py", "data/iris.csv")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"run.py: not a source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        record, out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    result, metrics = out["result"], out["metrics"]
    units = END_TO_END if not args.trace else PER_LAYER
    if record["busy_start"]:
        print(f"run.py: load average {record['load_before'][0]:.2f} above nproc "
              f"{record['nproc']} at start; timings may be skewed", file=sys.stderr)
    print("record " + json.dumps({k: v for k, v in record.items() if k != "passes_s"}))
    checked = "reference and every pass" if result["reference_checked"] else "every pass"
    for group, (count, summary) in sorted(result["digests"].items()):
        print(f"digest {group} {count} {summary}")
    print(f"gate: digests compared against {checked}; "
          f"failed_frac {result['failed'] / result['attempted']:.6f} frac "
          f"({result['failed']} of {result['attempted']} fits)")
    if not args.trace:
        passes, reference = result["passes"], result["reference_s"]
        print(f"passes {len(passes)}, median {statistics.median(passes):.6f} s; "
              f"reference kernel median {statistics.median(reference):.6f} s, "
              f"so wall_s below is the raw {record['raw_wall_s']:.6f} s scaled by "
              f"{record['scale']:.4f}, and setup_s the raw {record['raw_setup_s']:.6f} s "
              f"scaled by {record['setup_scale']:.4f}")
        for unit, samples in result["unit_samples"].items():
            print(f"unit {unit}_s fastest {min(samples):.6f} s, "
                  f"median {statistics.median(samples):.6f} s")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"record": record, **out}, handle)

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
