import json

import pytest

from rnncluster.cli import main


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
    with pytest.raises(SystemExit, match="schema_version 1"):
        main(["report", "--results", str(old), "--out", str(report_out)])


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


def test_gen_is_deterministic(tmp_path):
    a = _gen(tmp_path / "a", seed=7)
    b = _gen(tmp_path / "b", seed=7)
    assert a.read_bytes() == b.read_bytes()
