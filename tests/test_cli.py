import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rnncluster import (
    DataSet,
    SweepSpec,
    best_ari_summary,
    dbcv_selection_summary,
    make_blobs,
    make_two_moons,
    run_sweep,
)
from rnncluster.cli import main

_IRIS = os.path.join(os.path.dirname(__file__), os.pardir, "data", "iris.csv")


def _gen(tmp_path, kind="blobs", seed=0):
    out = tmp_path / "gen"
    assert main(["gen", "--kind", kind, "--seed", str(seed), "--out", str(out)]) == 0
    files = list(out.glob("*.csv"))
    assert len(files) == 1
    return files[0]


def test_gen_then_cluster_roundtrip(tmp_path, capsys):
    data = _gen(tmp_path)
    out = tmp_path / "run"
    code = main(
        ["cluster", "--data", str(data), "--label-col", "-1", "--algo", "dbscrn",
         "--k", "5", "--out", str(out), "--plot"]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "ARI vs ground truth" in printed
    labels = (out / f"{data.stem}_dbscrn_labels.csv").read_text().splitlines()
    assert labels[0] == "index,cluster"
    assert len(labels) == 41  # header + 40 entities
    assert (out / f"{data.stem}_dbscrn.svg").exists()


def test_cluster_requires_algorithm_parameters(tmp_path):
    data = _gen(tmp_path)
    with pytest.raises(SystemExit):
        main(["cluster", "--data", str(data), "--algo", "dbscan", "--out", str(tmp_path)])


def test_sweep_then_report(tmp_path, capsys):
    data = _gen(tmp_path, kind="blobs", seed=3)
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--data", str(data), "--label-col", "-1", "--algo", "dbscrn",
         "--out", str(out)]
    )
    assert code == 0
    sweep_json = next(out.glob("*_sweep.json"))
    payload = json.loads(sweep_json.read_text())
    assert payload["schema_version"] == 2 and payload["records"]
    assert {"cluster_seconds", "dbcv_seconds"} <= set(payload["records"][0])
    header = next(out.glob("*_sweep.csv")).read_text().splitlines()[0]
    assert header == "params,run,seed,n_clusters,n_noise,dbcv,ari,cluster_seconds,dbcv_seconds"

    report_out = tmp_path / "report"
    assert main(["report", "--results", str(sweep_json), "--out", str(report_out)]) == 0
    table = (report_out / "best_ari.csv").read_text().splitlines()
    assert table[0] == "dataset,algorithm,mean,std,max"
    assert ",dbscrn,-,-," in table[1]  # deterministic: mean/std rendered as "-"

    old = tmp_path / "old_sweep.json"
    old.write_text(json.dumps({**payload, "schema_version": 1}))
    with pytest.raises(SystemExit) as exit_info:
        main(["report", "--results", str(old), "--out", str(report_out)])
    assert exit_info.value.code == 2
    assert "schema_version 1" in capsys.readouterr().err


def test_sweep_and_report_warn_about_a_degenerate_eps_grid(tmp_path, capsys):
    moons = make_two_moons(n=120, density_ratio=3.0, seed=0)
    data = tmp_path / "moons.csv"
    np.savetxt(data, np.column_stack([moons.matrix, moons.true_labels]), delimiter=",")
    out = tmp_path / "sweep"
    args = ["--label-col", "-1", "--algo", "dbscan", "--runs", "1"]
    assert main(["sweep", "--data", str(data), *args, "--out", str(out)]) == 0
    sweep_json = next(out.glob("*_sweep.json"))
    # the default eps step on two moons: every grid point is all noise or one cluster
    assert max(r["n_clusters"] for r in json.loads(sweep_json.read_text())["records"]) <= 1
    assert "--eps-step" in capsys.readouterr().err
    assert main(["report", "--results", str(sweep_json), "--out", str(tmp_path / "report")]) == 0
    assert "--eps-step" in capsys.readouterr().err
    # separated blobs: the same grid finds both clusters, and nothing is printed
    blobs = _gen(tmp_path)
    assert main(["sweep", "--data", str(blobs), *args, "--out", str(tmp_path / "blobs")]) == 0
    assert capsys.readouterr().err == ""


def test_bench_writes_summary(tmp_path, capsys):
    data = _gen(tmp_path, kind="blobs", seed=1)
    out = tmp_path / "bench"
    code = main(
        ["bench", "--data", str(data), "--label-col", "-1", "--algo", "dbscrn",
         "--k", "5", "--runs", "3", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(next(out.glob("*_bench.json")).read_text())
    assert payload["summary"]["runs"] == 3
    assert len(payload["seconds"]) == 3


def test_sweep_refuses_fewer_than_one_job(tmp_path, capsys):
    data = _gen(tmp_path)
    capsys.readouterr()
    for jobs in ("0", "-1"):  # both once ran sequentially without a word
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--data", str(data), "--algo", "dbscrn", "--jobs", jobs,
                  "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == "rnncluster sweep: error: n_jobs must be >= 1\n"


def test_a_file_the_loader_refuses_ends_in_one_line_and_status_2(tmp_path, capsys):
    # the iris file has a header row; without --header it once ended in a traceback
    with pytest.raises(SystemExit) as exit_info:
        main(["cluster", "--data", _IRIS, "--algo", "dbscrn", "--k", "5", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        "rnncluster cluster: error: row 1: non-numeric feature value 'sepal_length' in column 0\n"
    )


_RECORD = {"params": {"k": 3}, "run": 0, "seed": None, "n_clusters": 1, "n_noise": 0,
           "dbcv": 0.0, "ari": None, "cluster_seconds": 0.0, "dbcv_seconds": 0.0}
_NO_ARI = {k: v for k, v in _RECORD.items() if k != "ari"}
_SWEEP = {"schema_version": 2, "kind": "sweep", "dataset": "d", "algorithm": "dbscrn",
          "records": [_RECORD]}
_K5 = ["--algo", "dbscrn", "--k", "5"]
_REPORT = ["report", "--results", "{sweep}"]
# name -> (argv, sweep JSON written to {sweep} or None, what the error line says);
# {data} is a generated 2-D CSV, {out} the output directory, {tmp} the test's directory
REFUSALS = {
    "missing --data": (["cluster", *_K5], None, "--data is required"),
    "missing --k": (["bench", "--data", "{data}", "--algo", "isdbscan"], None,
                    "isdbscan needs --k"),
    "missing --eps": (["cluster", "--data", "{data}", "--algo", "dbscan", "--min-pts", "3"],
                      None, "dbscan needs --eps and --min-pts"),
    "missing --K": (["cluster", "--data", "{data}", "--algo", "kmeans"], None,
                    "kmeans needs --K"),
    # once a FileNotFoundError traceback with status 1
    "nonexistent --data": (["cluster", "--data", "{tmp}/none.csv", *_K5], None,
                           "No such file or directory: '{tmp}/none.csv'"),
    "nonexistent --config": (["sweep", "--config", "{tmp}/none.cfg", "--algo", "dbscrn"], None,
                             "No such file or directory: '{tmp}/none.cfg'"),
    "nonexistent --results": (["report", "--results", "{tmp}/none.json"], None,
                              "No such file or directory: '{tmp}/none.json'"),
    "old schema": (_REPORT, {**_SWEEP, "schema_version": 1},
                   "{sweep}: sweep JSON schema_version 1 is not supported"),
    # the next three once ended in AttributeError, KeyError and a misleading
    # "best_ari_summary needs ground-truth labels"
    "top-level list": (_REPORT, [1], "{sweep}: a sweep JSON holds an object, got a list"),
    "no records": (_REPORT, {"schema_version": 2, "algorithm": "dbscrn"},
                   "{sweep}: a sweep JSON holds a nonempty list of records"),
    "empty records": (_REPORT, {**_SWEEP, "records": []},
                      "{sweep}: a sweep JSON holds a nonempty list of records"),
    "unknown algorithm": (_REPORT, {**_SWEEP, "algorithm": "optics"},
                          "{sweep}: unknown algorithm 'optics'"),
    "no dataset name": (_REPORT, {**_SWEEP, "dataset": None},
                        "{sweep}: dataset must be a name, got None"),
    "record without ari": (_REPORT, {**_SWEEP, "records": [_NO_ARI]},
                           "{sweep}: record 0 has no 'ari' key"),
    "record not an object": (_REPORT, {**_SWEEP, "records": [3]},
                             "{sweep}: record 0 is malformed"),
    "not JSON": (_REPORT, "{", "{sweep}: Expecting"),
    # a string dbcv once ended in a TypeError traceback from select_best
    "record with a string dbcv": (_REPORT, {**_SWEEP, "records": [{**_RECORD, "dbcv": "x"}]},
                                  "{sweep}: record 0: dbcv must be a real number, got 'x'"),
    "record with a list cluster_seconds": (
        _REPORT, {**_SWEEP, "records": [{**_RECORD, "cluster_seconds": [1]}]},
        "{sweep}: record 0: cluster_seconds must be a real number, got [1]"),
    "record with a string ari": (_REPORT, {**_SWEEP, "records": [{**_RECORD, "ari": "1"}]},
                                 "{sweep}: record 0: ari must be a real number or null, got '1'"),
    "record with a float run": (_REPORT, {**_SWEEP, "records": [{**_RECORD, "run": 0.5}]},
                                "{sweep}: record 0: run must be an integer, got 0.5"),
    "record with a bool n_clusters": (
        _REPORT, {**_SWEEP, "records": [{**_RECORD, "n_clusters": True}]},
        "{sweep}: record 0: n_clusters must be an integer, got True"),
    "record with a bool dbcv": (_REPORT, {**_SWEEP, "records": [{**_RECORD, "dbcv": False}]},
                                "{sweep}: record 0: dbcv must be a real number, got False"),
    # -1 once reached numpy's unnamed "expected non-negative integer"
    "cluster --seed -1": (["cluster", "--data", "{data}", "--algo", "isdbscan", "--k", "5",
                           "--seed", "-1"], None, "seed must be >= 0"),
    "gen --seed -1": (["gen", "--kind", "blobs", "--seed", "-1"], None, "seed must be >= 0"),
    "sweep --seed -1": (["sweep", "--data", "{data}", "--algo", "dbscrn", "--seed", "-1"], None,
                        "base_seed must be >= 0"),
    # once wrote the labels CSV first
    "--plot on 4-D data": (["cluster", "--data", _IRIS, "--header", "--label-col", "-1", *_K5,
                            "--plot"], None, "plotting needs 2-D data, got shape (150, 4)"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_every_refused_input_ends_in_one_error_line_and_status_2(tmp_path, capsys, name):
    template, sweep, message = REFUSALS[name]
    paths = {"data": "" if "{data}" not in template else str(_gen(tmp_path)),
             "out": str(tmp_path / "out"), "sweep": str(tmp_path / "sweep.json"),
             "tmp": str(tmp_path)}
    if sweep is not None:
        text = sweep if isinstance(sweep, str) else json.dumps(sweep)
        (tmp_path / "sweep.json").write_text(text)
    argv = [arg.format(**paths) for arg in template] + ["--out", paths["out"]]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rnncluster {argv[0]}: error: ") and err.count("\n") == 1, err
    assert message.format(**paths) in err
    assert not (tmp_path / "out").exists()


def test_the_report_refusals_start_from_a_sweep_json_it_reads(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(_SWEEP))
    assert main(["report", "--results", str(path), "--out", str(tmp_path / "out")]) == 0


def test_a_missing_data_file_ends_the_process_with_status_2_and_no_traceback(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "rnncluster.cli", "cluster", "--data", str(tmp_path / "none.csv"),
         *_K5, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("rnncluster cluster: error: ")


def test_bench_and_cluster_clamp_k_to_n_minus_one(tmp_path, capsys):
    data = tmp_path / "blobs20.csv"
    np.savetxt(data, make_blobs(n_centers=2, points_per_center=10, spread=0.03, seed=1).matrix,
               delimiter=",")
    args = ["--data", str(data), "--algo", "isdbscan", "--k", "25", "--out", str(tmp_path)]
    assert main(["cluster", *args]) == 0
    assert "clusters: 0  noise: 20" in capsys.readouterr().out
    assert main(["bench", *args, "--runs", "1"]) == 0
    payload = json.loads(next(tmp_path.glob("*_bench.json")).read_text())
    assert payload["summary"]["runs"] == 1


def _report(tmp_path, result, records=None):
    """Write `result` as sweep JSON (optionally with other records), report it."""
    payload = result.to_json_dict()
    if records is not None:
        payload["records"] = records
    sweep_json = tmp_path / f"{result.algorithm}_sweep.json"
    sweep_json.write_text(json.dumps(payload))
    out = tmp_path / "report"
    assert main(["report", "--results", str(sweep_json), "--out", str(out)]) == 0
    (row,) = json.loads((out / "best_ari.json").read_text())["rows"]
    return row, out


@pytest.mark.parametrize("spec", [
    SweepSpec("dbscrn"),
    SweepSpec("isdbscan", runs_per_setting=2),
    SweepSpec("dbscan", runs_per_setting=2, eps_step=0.1),
], ids=lambda s: s.algorithm)
def test_report_uses_the_library_summaries(tmp_path, spec):
    result = run_sweep(make_two_moons(n=120, density_ratio=3.0, seed=0), spec)
    row, out = _report(tmp_path, result)
    assert row["best_ari"] == best_ari_summary(result)
    assert row["dbcv_selected"] == dbcv_selection_summary(result)
    assert len((out / "dbcv_selected_ari.csv").read_text().splitlines()) == 2
    # ARI and DBCV ties go to the smaller parameters, not to the earlier record
    shuffled = result.to_json_dict()["records"][::-1]
    row, _ = _report(tmp_path, result, records=shuffled)
    assert row["best_ari"] == best_ari_summary(result)
    assert row["dbcv_selected"] == dbcv_selection_summary(result)


def test_report_on_an_unlabeled_sweep_writes_only_timing(tmp_path):
    anon = DataSet(np.random.default_rng(0).normal(size=(30, 2)), name="anon")
    row, out = _report(tmp_path, run_sweep(anon, SweepSpec("dbscrn")))
    assert row["best_ari"] is None and row["dbcv_selected"] is None
    assert (out / "best_ari.csv").read_text() == "dataset,algorithm,mean,std,max\n"
    assert (out / "dbcv_selected_ari.csv").read_text() == "dataset,algorithm,mean,std,max\n"
    timing = (out / "timing.csv").read_text().splitlines()
    assert len(timing) == 2 and timing[1].startswith("anon,dbscrn,")
    assert "anon  dbscrn  -  -  " in (out / "summary.txt").read_text()


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    data = _gen(tmp_path)
    config = tmp_path / "run.cfg"
    out = tmp_path / "cfgout"
    config.write_text(
        f"data = {data}\nlabel_col = -1\nk = 5\nout = {out}\n# comment line\n"
    )
    assert main(["cluster", "--config", str(config), "--algo", "dbscrn"]) == 0
    assert (out / f"{data.stem}_dbscrn_labels.csv").exists()
    # explicit flag beats config
    other = tmp_path / "override"
    assert main(
        ["cluster", "--config", str(config), "--algo", "dbscrn", "--out", str(other)]
    ) == 0
    assert (other / f"{data.stem}_dbscrn_labels.csv").exists()


@pytest.mark.parametrize("line, message", [
    ("k = 8.0", "argument --k: invalid int value: '8.0'"),  # a float k failed in the fit
    ("header = maybe", "header must be one of"),  # read as false
], ids=["float-k", "unknown-switch"])
def test_config_values_are_read_with_the_flag_types(tmp_path, capsys, line, message):
    data = _gen(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(f"data = {data}\nlabel_col = -1\nk = 5\n{line}\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["cluster", "--config", str(config), "--algo", "dbscrn", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_config_switches_take_yes_and_no(tmp_path, capsys):
    data = _gen(tmp_path)
    out = tmp_path / "cfgout"
    config = tmp_path / "run.cfg"
    config.write_text(f"data = {data}\nlabel_col = -1\nk = 5\nout = {out}\nplot = YES\n")
    assert main(["cluster", "--config", str(config), "--algo", "dbscrn"]) == 0
    assert (out / f"{data.stem}_dbscrn.svg").exists()
    config.write_text(f"data = {data}\nlabel_col = -1\nk = 5\nout = {out}\nheader = on\n")
    # the header switch drops the first of the 40 rows
    assert main(["cluster", "--config", str(config), "--algo", "dbscrn"]) == 0
    assert len((out / f"{data.stem}_dbscrn_labels.csv").read_text().splitlines()) == 40


def test_gen_is_deterministic(tmp_path):
    a = _gen(tmp_path / "a", seed=7)
    b = _gen(tmp_path / "b", seed=7)
    assert a.read_bytes() == b.read_bytes()


def test_gen_refuses_n_for_a_kind_that_does_not_read_it(tmp_path, capsys):
    # --kind blobs --n 100 once ended in a bare TypeError traceback
    out = tmp_path / "gen"
    with pytest.raises(SystemExit) as exit_info:
        main(["gen", "--kind", "blobs", "--n", "100", "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("rnncluster gen: error: blobs takes only the parameters")
    assert err.count("\n") == 1
    assert not out.exists()
    assert main(["gen", "--kind", "two_moons", "--n", "40", "--out", str(out)]) == 0
    assert "40 points" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["gen", "--help"])
    assert "total points (two_moons, spirals)" in capsys.readouterr().out
