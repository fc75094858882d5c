"""Command-line interface.

Subcommands
-----------
cluster  run one algorithm at explicit parameters; emits a labels CSV and
         optionally an SVG plot
sweep    evaluate the full parameter grid; emits sweep results as JSON/CSV
report   aggregate sweep JSON files into result tables
bench    sequential wall-clock timing at pinned parameters
gen      write a labeled synthetic dataset as CSV

The commands hold no clustering or scoring logic of their own: `cluster`
and `bench` fit through the sweep module's fit path (so k >= n is clamped
the same way everywhere), the sweep CSV names parameters as the sweep JSON
does, and `report` computes best-ARI and the DBCV selection with the same
summaries as `sweep`, DBCV ties going to the smaller parameters.

A config file of KEY=VALUE lines (`--config`) can pin defaults for data
paths, parameters, seeds and the output directory; explicit flags override
config values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .data import load_dataset, range_standardize
from .dbscan import DbscanParams
from .dbscrn import DbscrnParams
from .isdbscan import IsdbscanParams
from .kmeans import KmeansParams, kmeans
from .plotting import plot_clustering
from .sweep import (
    ALGORITHMS,
    SweepSpec,
    _fit,
    _params_dict,
    _prepare,
    _sweep_from_json,
    bench,
    best_ari_summary,
    dbcv_selection_summary,
    run_sweep,
    timing_summary,
    write_labels_csv,
    write_reports,
)
from .synthetic import generate_synthetic
from .validation import adjusted_rand_index

__all__ = ["main"]


def _read_config(path) -> dict:
    """KEY=VALUE lines; '#' starts a comment; keys are lower-cased."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_number}: expected KEY=VALUE, got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip().lower().replace("-", "_")] = value.strip()
    return values


_SWITCH_VALUES = {"true": True, "yes": True, "on": True, "1": True,
                  "false": False, "no": False, "off": False, "0": False}


def _apply_config(parser: argparse.ArgumentParser, path) -> None:
    """Make the config file's values the subcommand's defaults.

    argparse converts a string default with its flag's `type` when the flag
    is absent, so a config value is read exactly as the flag's value would
    be, and an explicit flag still wins. Store-true flags take only the
    values in `_SWITCH_VALUES`. Keys that name no flag are ignored.
    """
    flag_defaults = {a.dest: a.default for a in parser._actions
                     if a.default is not argparse.SUPPRESS}
    values = {}
    for key, raw in _read_config(path).items():
        if key not in flag_defaults:
            continue
        if isinstance(flag_defaults[key], bool):  # a store-true switch
            if raw.lower() not in _SWITCH_VALUES:
                parser.error(f"{path}: {key} must be one of "
                             f"{'/'.join(_SWITCH_VALUES)}, got {raw!r}")
            raw = _SWITCH_VALUES[raw.lower()]
        values[key] = raw
    parser.set_defaults(**values)


def _load(args) -> "DataSet":
    if args.data is None:
        raise SystemExit("--data is required (or set data= in the config file)")
    return load_dataset(args.data, has_header=args.header, label_column=args.label_col)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="rnncluster", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    command_parsers: dict[str, argparse.ArgumentParser] = {}

    def common(p):
        p.add_argument("--config", help="KEY=VALUE config file; flags override")
        p.add_argument("--data", help="input CSV path")
        p.add_argument("--header", action="store_true", help="skip the first CSV row")
        p.add_argument("--label-col", type=int, default=None, dest="label_col",
                       help="column index of the ground-truth labels (-1 = last)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)

    cluster = sub.add_parser("cluster", help="one algorithm at explicit parameters")
    common(cluster)
    cluster.add_argument("--algo", required=True, choices=[*ALGORITHMS, "kmeans"])
    cluster.add_argument("--k", type=int, help="neighbour count (dbscrn/isdbscan)")
    cluster.add_argument("--eps", type=float, help="squared-distance radius (dbscan)")
    cluster.add_argument("--min-pts", type=int, dest="min_pts", help="density threshold (dbscan)")
    cluster.add_argument("--K", type=int, dest="k_clusters", help="cluster count (kmeans)")
    cluster.add_argument("--runs", type=int, default=100, help="kmeans restarts")
    cluster.add_argument("--plot", action="store_true", help="also write an SVG (2-D data only)")

    sweep = sub.add_parser("sweep", help="full parameter grid with DBCV scores")
    common(sweep)
    sweep.add_argument("--algo", required=True, choices=ALGORITHMS)
    sweep.add_argument("--runs", type=int, default=100, help="runs per setting (seeded algorithms)")
    sweep.add_argument("--eps-step", type=float, default=0.1, dest="eps_step",
                       help="epsilon grid step, squared-distance units")
    sweep.add_argument("--jobs", type=int, default=1, help="parallel workers over grid points")

    report = sub.add_parser("report", help="tables from sweep JSON files")
    report.add_argument("--results", nargs="+", required=True, help="sweep JSON paths")
    report.add_argument("--out", default="out")

    bench_p = sub.add_parser("bench", help="sequential wall-clock timing")
    common(bench_p)
    bench_p.add_argument("--algo", required=True, choices=ALGORITHMS)
    bench_p.add_argument("--k", type=int)
    bench_p.add_argument("--eps", type=float)
    bench_p.add_argument("--min-pts", type=int, dest="min_pts")
    bench_p.add_argument("--runs", type=int, default=100)

    gen = sub.add_parser("gen", help="write a labeled synthetic dataset CSV")
    gen.add_argument("--config", help="KEY=VALUE config file; flags override")
    gen.add_argument("--kind", required=True,
                     choices=["blobs", "two_moons", "nested_rings", "spirals"])
    gen.add_argument("--n", type=int, default=None, help="total points (two_moons, spirals)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="out")
    command_parsers.update(
        cluster=cluster, sweep=sweep, report=report, bench=bench_p, gen=gen
    )
    return parser, command_parsers


def _algo_params(args):
    if args.algo == "dbscan":
        if args.eps is None or args.min_pts is None:
            raise SystemExit("dbscan needs --eps and --min-pts")
        return DbscanParams(epsilon=args.eps, min_pts=args.min_pts)
    if args.algo == "isdbscan":
        if args.k is None:
            raise SystemExit("isdbscan needs --k")
        return IsdbscanParams(k=args.k, seed=args.seed)
    if args.algo == "dbscrn":
        if args.k is None:
            raise SystemExit("dbscrn needs --k")
        return DbscrnParams(k=args.k)
    if args.k_clusters is None:
        raise SystemExit("kmeans needs --K")
    return KmeansParams(k_clusters=args.k_clusters, restarts=args.runs, seed=args.seed)


def _cmd_cluster(args) -> int:
    dataset = _load(args)
    x, _ = range_standardize(dataset.matrix)
    params = _algo_params(args)
    if args.algo == "kmeans":
        clustering = kmeans(x, params)
    else:
        clustering = _fit(x, _prepare(x, params), params, args.seed)
    os.makedirs(args.out, exist_ok=True)
    labels_path = os.path.join(args.out, f"{dataset.name}_{args.algo}_labels.csv")
    write_labels_csv(labels_path, clustering)
    print(f"clusters: {clustering.n_clusters}  noise: {clustering.n_noise}")
    if dataset.true_labels is not None:
        print(f"ARI vs ground truth: {adjusted_rand_index(clustering, dataset.true_labels):.4f}")
    print(f"labels written to {labels_path}")
    if args.plot:
        svg_path = os.path.join(args.out, f"{dataset.name}_{args.algo}.svg")
        plot_clustering(x, clustering, svg_path)
        print(f"plot written to {svg_path}")
    return 0


def _warn_if_degenerate_eps_grid(algorithm: str, n_clusters: list[int], source) -> None:
    """Warn on stderr when no grid point of a DBSCAN sweep found two clusters.

    Then every labeling is all noise or one cluster, ARI and DBCV cannot
    tell the grid points apart, and the epsilon grid is most likely coarser
    than the band of useful radii.
    """
    if algorithm == "dbscan" and n_clusters and max(n_clusters) <= 1:
        print(
            f"warning: {source}: every DBSCAN grid point gives at most one cluster; "
            "the epsilon grid may step over the useful radii, try a smaller --eps-step",
            file=sys.stderr,
        )


def _cmd_sweep(args) -> int:
    dataset = _load(args)
    spec = SweepSpec(
        algorithm=args.algo,
        runs_per_setting=args.runs,
        base_seed=args.seed,
        eps_step=args.eps_step,
    )
    result = run_sweep(dataset, spec, n_jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    json_path = os.path.join(args.out, f"{dataset.name}_{args.algo}_sweep.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(result.to_json_dict(), handle, indent=2)
    csv_path = os.path.join(args.out, f"{dataset.name}_{args.algo}_sweep.csv")
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write("params,run,seed,n_clusters,n_noise,dbcv,ari,cluster_seconds,dbcv_seconds\n")
        for r in result.records:
            params = ";".join(f"{k}={v}" for k, v in sorted(_params_dict(r.params).items()))
            ari = "" if r.ari is None else f"{r.ari:.6f}"
            seed = "" if r.seed is None else r.seed
            handle.write(
                f"{params},{r.run},{seed},{r.n_clusters},{r.n_noise},"
                f"{r.dbcv_score:.6f},{ari},{r.cluster_seconds:.6f},{r.dbcv_seconds:.6f}\n"
            )
    _warn_if_degenerate_eps_grid(args.algo, [r.n_clusters for r in result.records], json_path)
    selection = dbcv_selection_summary(result)
    print(f"{len(result.records)} records -> {json_path}")
    print(f"DBCV-selected params: {selection['selected_params'][0]}")
    if dataset.true_labels is not None:
        best = best_ari_summary(result)
        print(f"best ARI over the grid: {best['max']:.4f} at {best['params']}")
    return 0


def _cmd_report(args) -> int:
    rows = []
    for path in args.results:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("schema_version") != 2:
            raise SystemExit(
                f"{path}: sweep JSON schema_version {payload.get('schema_version')!r} "
                "is not supported; re-run `rnncluster sweep` (schema 2)"
            )
        _warn_if_degenerate_eps_grid(
            payload["algorithm"], [r["n_clusters"] for r in payload["records"]], path
        )
        sweep = _sweep_from_json(payload)
        labeled = all(r.ari is not None for r in sweep.records)
        rows.append({
            "dataset": payload["dataset"],
            "algorithm": payload["algorithm"],
            "approximate": False,
            "best_ari": best_ari_summary(sweep) if labeled else None,
            "dbcv_selected": dbcv_selection_summary(sweep) if labeled else None,
            "timing": timing_summary([r["cluster_seconds"] for r in payload["records"]]),
        })
    paths = write_reports(rows, args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_bench(args) -> int:
    dataset = _load(args)
    seconds = bench(dataset, _algo_params(args), runs=args.runs, base_seed=args.seed)
    stats = timing_summary(seconds)
    print(
        f"{args.algo} on {dataset.name}: mean {stats['mean']:.4f}s  std {stats['std']:.4f}s  "
        f"max {stats['max']:.4f}s  min {stats['min']:.4f}s over {stats['runs']} runs"
    )
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"{dataset.name}_{args.algo}_bench.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"schema_version": 1, "kind": "bench", "dataset": dataset.name,
                   "algorithm": args.algo, "summary": stats,
                   "seconds": seconds.tolist()}, handle, indent=2)
    print(f"written to {out_path}")
    return 0


def _cmd_gen(args) -> int:
    params = {} if args.n is None else {"n": args.n}
    dataset = generate_synthetic(args.kind, params, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{args.kind}_{args.seed}.csv")
    with open(path, "w", encoding="utf-8") as handle:
        for row, label in zip(dataset.matrix, dataset.true_labels):
            cells = ",".join(f"{v:.8f}" for v in row)
            handle.write(f"{cells},{int(label)}\n")
    print(f"{dataset.n} points, {dataset.true_labels.max() + 1} classes -> {path}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, command_parsers = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        _apply_config(command_parsers[args.command], args.config)
        args = parser.parse_args(argv)
    commands = {
        "cluster": _cmd_cluster,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "bench": _cmd_bench,
        "gen": _cmd_gen,
    }
    return commands[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
