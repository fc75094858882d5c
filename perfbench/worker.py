"""One benchmark run of one workload, in its own process.

Started by run.py; prints human-readable lines and, last, one JSON object
for run.py to read. The process that runs the workload is the one whose
peak RSS is reported, so it runs nothing else.

A pass is one execution of a workload's protocol, made of units (one bench
protocol, one sweep, one k-means). Untraced runs repeat passes while the
next one is likely to end within the time budget, and time the reference
kernel (reference.py) before each unit of an untraced pass. Traced runs
alternate untraced and traced passes, then make one instrumented pass
(tracemalloc peaks and counts) whose timings are not used.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from rnncluster import (  # noqa: E402
    DbscrnParams,
    IsdbscanParams,
    KmeansParams,
    SweepSpec,
    load_dataset,
    make_blobs,
    make_two_moons,
)

import digests  # noqa: E402
from reference import Reference  # noqa: E402
from tracing import STRUCTURE, UNIT, Tracer, layer_api  # noqa: E402

WORKLOADS = ("fit-blobs3500", "sweep-rnn", "sweep-dbscan")

BLOBS_K = 10
DBSCAN_EPS = 4e-4  # squared, on range-standardized blobs
DBSCAN_MIN_PTS = 10
DBSCAN_DATA_SEED = 0  # sweep-dbscan's two moons: 12 ε values on the default grid
DBSCAN_EPS_STRIDE = 3


@dataclass
class Unit:
    name: str
    run: object  # (api) -> (groups: {name: [arrays]}, fits, scored)


@dataclass
class State:
    workload: str
    seed: int
    units: list[Unit]
    spatial: object = None  # (api) -> NeighborIndex, fit-blobs3500 only


@dataclass
class Outcome:
    """One pass: its time, per-unit times, per-group digests and fit counts."""

    seconds: float = 0.0
    unit_seconds: dict = field(default_factory=dict)
    reference_seconds: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    fits: int = 0
    scored: int = 0
    failed: int = 0


def setup(workload: str, seed: int, api=None) -> State:
    """Generate or load the inputs; standardize where the workload needs it."""
    api = api or layer_api()
    if workload == "fit-blobs3500":
        blobs = make_blobs(n_centers=7, points_per_center=500, spread=0.08, seed=seed)
        x, _ = api.range_standardize(blobs.matrix)
        return State(workload, seed, _blob_units(x, blobs.true_labels, seed),
                     spatial=lambda a: a.build_index(x, BLOBS_K, backend="spatial"))
    if workload == "sweep-dbscan":
        # The default ε grid spans the data's pairwise extrema, so with seeded
        # data its length (198 to 234 fits) and its cost (up to ~25 %) would
        # follow the seed. The data stay fixed; the seed drives DBSCAN's
        # visit order, which decides border attribution.
        # Every third ε of the default grid, one sweep per ε over MinPts
        # 3..20: each unit lasts about a second, so a run times each unit
        # a dozen times.
        moons = make_two_moons(n=372, density_ratio=3.0, seed=DBSCAN_DATA_SEED)
        x, _ = api.range_standardize(moons.matrix)
        lo, hi = api.pairwise_distance_extrema(x)
        eps_grid = np.arange(lo, hi + 1e-12, SweepSpec.eps_step)[::DBSCAN_EPS_STRIDE]
        units = [
            _sweep_unit(moons, SweepSpec("dbscan", runs_per_setting=1, base_seed=seed,
                                         eps_range=(float(eps), float(eps))),
                        summaries=False, part=f"eps{i * DBSCAN_EPS_STRIDE}")
            for i, eps in enumerate(eps_grid)
        ]
        return State(workload, seed, units)
    moons = make_two_moons(n=372, density_ratio=3.0, seed=seed)
    if workload != "sweep-rnn":
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    iris = load_dataset(os.path.join(ROOT, "data", "iris.csv"), has_header=True, label_column=-1)
    units = []
    for dataset in (moons, iris):
        units.append(_sweep_unit(dataset, SweepSpec("dbscrn", base_seed=seed)))
        units.append(_sweep_unit(dataset, SweepSpec("isdbscan", runs_per_setting=10,
                                                     base_seed=seed)))
        x, _ = api.range_standardize(dataset.matrix)
        units.append(_kmeans_unit(dataset, x, seed))
    return State(workload, seed, units)


def _blob_units(x, truth, seed) -> list[Unit]:
    """The bench protocol per algorithm: own index or ε-lists, fit, DBCV, ARI."""

    def knn_protocol(algorithm, fit):
        def run(api):
            index = api.build_index(x, k_max=BLOBS_K)
            index.rnn_csr(BLOBS_K)
            clustering = fit(api, index)
            api.dbcv(x, clustering)
            api.adjusted_rand_index(clustering, truth)
            groups = {algorithm: [clustering.labels], "knn_idx": [index.knn_idx],
                      "knn_d2": [index.knn_d2]}
            return groups, 1, 1

        return Unit(algorithm, run)

    def dbscan_protocol(api):
        neighborhoods = api.neighborhood_lists(x, DBSCAN_EPS)
        clustering = api.dbscan_from_neighborhoods(neighborhoods, DBSCAN_MIN_PTS, seed)
        api.dbcv(x, clustering)
        api.adjusted_rand_index(clustering, truth)
        return {"dbscan": [clustering.labels]}, 1, 1

    return [
        knn_protocol("dbscrn", lambda api, index: api.dbscrn(x, index, DbscrnParams(k=BLOBS_K))),
        knn_protocol("isdbscan", lambda api, index: api.isdbscan(
            x, index, IsdbscanParams(k=BLOBS_K, seed=seed))),
        Unit("dbscan", dbscan_protocol),
    ]


def _sweep_unit(dataset, spec, summaries=True, part=None) -> Unit:
    """One run_sweep; units that split one grid share its digest group."""
    group = f"{dataset.name}/{spec.algorithm}"

    def run(api):
        result = api.run_sweep(dataset, spec, n_jobs=1)
        if summaries:
            api.dbcv_selection_summary(result)
            api.best_ari_summary(result)
        n = len(result.records)
        return {group: [r.labels for r in result.records]}, n, n

    return Unit(group if part is None else f"{group}/{part}", run)


def _kmeans_unit(dataset, x, seed) -> Unit:
    name = f"{dataset.name}/kmeans"
    k = int(np.unique(dataset.true_labels).size)

    def run(api):
        clustering = api.kmeans(x, KmeansParams(k_clusters=k, restarts=100, seed=seed))
        api.adjusted_rand_index(clustering, dataset.true_labels)
        return {name: [clustering.labels]}, 1, 0

    return Unit(name, run)


def run_pass(state: State, api, tracer: Tracer | None = None, expected=None,
             reference: Reference | None = None) -> Outcome:
    """One pass; an exception fails the unit's expected fits and the pass goes on.

    With `reference`, the reference kernel is timed before each unit, and
    its time is left out of the pass time.
    """
    out = Outcome()
    expected = {} if expected is None else expected
    start = time.perf_counter()
    with tracer.span("pass") if tracer else nullcontext():
        for unit in state.units:
            if reference is not None:
                out.reference_seconds.append(reference.time())
            t0 = time.perf_counter()
            try:
                with tracer.span(UNIT + unit.name) if tracer else nullcontext():
                    groups, fits, scored = unit.run(api)
            except Exception:  # noqa: BLE001 -- a failing fit is a result to count
                traceback.print_exc(file=sys.stderr)
                n = expected.get(unit.name, 1)
                out.fits += n
                out.failed += n
                continue
            out.unit_seconds[unit.name] = time.perf_counter() - t0
            out.fits += fits
            out.scored += scored
            expected[unit.name] = fits
            for group, arrays in groups.items():
                out.digests[group] = out.digests.get(group, "") + "".join(
                    digests.digest(a) for a in arrays
                )
            # kNN lists are views of the index's sort buffer; drop them before
            # the next unit builds its own index
            del groups
    out.seconds = time.perf_counter() - start - sum(out.reference_seconds)
    return out


# -- traced-run summaries ---------------------------------------------------

def _tail(values_s: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With 10 samples or fewer no such percentile exists: the maximum is
    reported at 100.
    """
    v = sorted(values_s)
    n = len(v)
    if n == 0:
        return 0.0, 0.0
    if n <= 10:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def span_metrics(spans: list[list]) -> tuple[dict, list[dict]]:
    """Per-layer seconds per pass, per-call stats and the pass accounting."""
    children: dict[int, list[int]] = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(i)

    def duration(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return duration(i) - sum(duration(c) for c in children.get(i, ()))

    def layer_of(name):
        return "sweep.self" if name.startswith("sweep.") else name

    def descendants(i):
        for c in children.get(i, ()):
            yield c
            yield from descendants(c)

    passes, setup_s, calls, loose = [], {}, {}, {}
    for i, (name, _, _, parent) in enumerate(spans):
        if name not in STRUCTURE and not name.startswith(UNIT):
            calls.setdefault(name, []).append(duration(i))
        if parent is None and name == "setup":
            for d in descendants(i):
                key = layer_of(spans[d][0])
                setup_s[key] = setup_s.get(key, 0.0) + self_time(d)
        elif parent is None and name != "pass":
            loose[name] = loose.get(name, 0.0) + duration(i)
        elif name == "pass":
            per_layer, n_calls, units = {}, {}, {}
            for d in descendants(i):
                dname = spans[d][0]
                if dname.startswith(UNIT):
                    units[dname[len(UNIT):]] = d
                    continue
                key = layer_of(dname)
                per_layer[key] = per_layer.get(key, 0.0) + self_time(d)
                n_calls[key] = n_calls.get(key, 0) + 1
            passes.append({"layers": per_layer, "calls": n_calls, "units": units,
                           "accounted": sum(per_layer.values()) / duration(i)})

    metrics = {}
    for key in {k for p in passes for k in p["layers"]} | set(setup_s):
        metrics[key + "_s"] = statistics.median(p["layers"].get(key, 0.0) for p in passes) + (
            setup_s.get(key, 0.0))
    for key, seconds in loose.items():
        metrics[key + "_s"] = seconds
    metrics["neighbors.builds"] = statistics.median(
        p["calls"].get("neighbors.build_brute", 0) for p in passes)
    for name in ("dbscrn.fit", "isdbscan.fit", "dbscan.fit", "validation.dbcv"):
        samples = calls.get(name, [])
        tail, pct = _tail(samples)
        metrics[name + "_p50_ms"] = 1e3 * statistics.median(samples) if samples else 0.0
        metrics[name + "_tail_ms"] = 1e3 * tail
        metrics[name + "_tail_pct"] = pct
        metrics[name + "_n"] = len(samples)
    metrics["trace.accounted_frac"] = statistics.median(p["accounted"] for p in passes)
    return metrics, [_decompose(spans, p, children) for p in passes]


STAGES = {
    "neighbors.build_brute": "index", "neighbors.rnn_csr": "rnn_csr",
    "dbscan.eps_lists": "eps_lists", "validation.dbcv": "dbcv", "validation.ari": "ari",
}


def _decompose(spans, pass_info, children) -> dict:
    """Per unit: seconds and the share of each stage (clustering = the fit call)."""
    out = {}
    for unit, i in pass_info["units"].items():
        total = spans[i][2] - spans[i][1]
        stages = {}
        for c in children.get(i, ()):
            name = spans[c][0]
            stage = STAGES.get(name, "clustering" if name.endswith(".fit") else name)
            stages[stage] = stages.get(stage, 0.0) + spans[c][2] - spans[c][1]
        out[unit] = {"seconds": total, "stages": stages}
    return out


def criterion4_lines(decompositions: list[dict]) -> list[str]:
    """ISDBSCAN/DBSCRN on bench-protocol and clustering-only time, with stage shares."""
    if not decompositions or "dbscrn" not in decompositions[0]:
        return []

    def med(unit, stage=None):
        vals = [d[unit]["seconds"] if stage is None else d[unit]["stages"].get(stage, 0.0)
                for d in decompositions if unit in d]
        return statistics.median(vals) if vals else float("nan")

    lines = [
        f"criterion-4 isdbscan/dbscrn ratio: bench protocol "
        f"{med('isdbscan') / med('dbscrn'):.3f} ({med('isdbscan'):.4f} s / {med('dbscrn'):.4f} s)"
        f", clustering only {med('isdbscan', 'clustering') / med('dbscrn', 'clustering'):.3f} "
        f"({med('isdbscan', 'clustering'):.4f} s / {med('dbscrn', 'clustering'):.4f} s)"
    ]
    for unit in decompositions[0]:
        total = med(unit)
        stages = sorted(decompositions[0][unit]["stages"])
        shares = ", ".join(f"{s} {100 * med(unit, s) / total:.1f}%" for s in stages)
        other = 100 * (total - sum(med(unit, s) for s in stages)) / total
        lines.append(f"criterion-4 {unit}: {total:.4f} s = {shares}, other {other:.1f}%")
    return lines


# -- runs -------------------------------------------------------------------

def _gate(state: State, outcomes: list[Outcome]) -> tuple[int, bool]:
    """Digest mismatches over every pass: against the reference when the seed has one,
    else against the first pass."""
    reference = digests.load_reference(state.workload, state.seed)
    want = reference if reference is not None else outcomes[0].digests
    bad = sum(digests.mismatches(o.digests, want) for o in outcomes)
    return bad, reference is not None


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer("spans") if trace else None
    with tracer.span("setup") if tracer else nullcontext():
        state = setup(workload, seed, layer_api(tracer) if tracer else None)
    setup_done = time.monotonic()

    plain = layer_api()
    reference = Reference()
    outcomes, untraced, traced, expected = [], [], [], {}
    start = time.perf_counter()
    while True:
        if trace and len(untraced) > len(traced):
            with tracer.installed():
                outcomes.append(run_pass(state, layer_api(tracer), tracer, expected))
            traced.append(outcomes[-1])
        else:
            outcomes.append(run_pass(state, plain, expected=expected, reference=reference))
            untraced.append(outcomes[-1])
        # stop before a pass that would likely end past the budget, so a run
        # lasts about `seconds` whatever the pass length
        typical = statistics.median(o.seconds for o in outcomes)
        if (traced or not trace) and time.perf_counter() - start + typical > seconds:
            break
    result = {"setup_done": setup_done, "peak_rss_mb": _peak_rss_mb(), "numpy": np.__version__,
              "passes": [o.seconds for o in untraced],
              "reference_s": [r for o in untraced for r in o.reference_seconds]}

    extra_attempted = extra_failed = 0
    lines = []
    if trace:
        if state.spatial is not None:
            same = False
            try:
                with tracer.installed():
                    index = state.spatial(layer_api(tracer))
                brute = outcomes[0].digests
                same = all(digests.digest(getattr(index, g)) == brute.get(g, "")[: digests.WIDTH]
                           for g in ("knn_idx", "knn_d2"))
                del index
            except Exception:  # noqa: BLE001 -- counted as a failed check
                traceback.print_exc(file=sys.stderr)
            extra_attempted, extra_failed = 1, int(not same)
            lines.append(f"gate brute vs spatial kNN lists bit-identical: {same}")
        instrument = Tracer("instrument")
        with instrument.installed():
            api = layer_api(instrument)
            outcomes.append(run_pass(state, api, instrument, expected))
            if state.spatial is not None:
                state.spatial(api)
        metrics, decompositions = span_metrics(tracer.spans)
        metrics.update(_layer_counts(instrument, outcomes[-1], state))
        metrics.update({name + "_peak_mb": mb for name, mb in instrument.peaks_mb.items()})
        u = statistics.median(o.seconds for o in untraced)
        t = statistics.median(o.seconds for o in traced)
        metrics["trace.overhead_frac"] = t / u - 1.0
        lines += criterion4_lines(decompositions)
        lines.append(f"trace: {len(traced)} traced / {len(untraced)} untraced passes, "
                     f"median {t:.4f} s vs {u:.4f} s; layers account for "
                     f"{100 * metrics['trace.accounted_frac']:.2f}% of traced pass time")
        result.update(metrics=metrics, spans=tracer.spans, decomposition=decompositions)

    bad, had_reference = _gate(state, outcomes)
    attempted = sum(o.fits for o in outcomes) + extra_attempted
    failed = min(attempted, sum(o.failed for o in outcomes) + bad + extra_failed)
    first = outcomes[0]
    result.update(
        attempted=attempted, failed=failed, reference_checked=had_reference,
        scored_per_pass=first.scored,
        unit_samples={u: [o.unit_seconds[u] for o in untraced if u in o.unit_seconds]
                      for u in first.unit_seconds},
        digests={g: [len(d) // digests.WIDTH, digests.summary(d)]
                 for g, d in first.digests.items()},
        lines=lines,
    )
    return result


def _layer_counts(instrument: Tracer, outcome: Outcome, state: State) -> dict:
    """Counts of the instrumented pass; a count the workload never touches is absent."""
    counts = dict(instrument.counts)
    calls = counts.get("validation.dbcv_calls", 0)
    counts["validation.dbcv_useful_frac"] = (
        counts.pop("validation.dbcv_distinct", 0) / calls if calls else 0.0)
    counts["sweep.fits"] = outcome.scored if state.workload.startswith("sweep-") else 0
    return counts


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed)
        result = {"setup_done": time.monotonic(), "reference_s": [Reference().time()]}
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("lines", []):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
