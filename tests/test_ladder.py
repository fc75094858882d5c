"""The scaling ladder's record schema, on its two smallest rungs; nothing is timed."""

import importlib.util
import os

import pytest

LADDER = os.path.join(os.path.dirname(__file__), os.pardir, "ladder", "run.py")


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("ladder_run", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("rung, n, m", [("moons-372", 372, 2), ("iris-150", 150, 4)])
def test_rung_record_schema(ladder, rung, n, m):
    record = ladder.run_rung(rung)
    assert set(record) == {"rung", "n", "m", "reference_s", "ru_maxrss_mb", "stages"}
    assert (record["rung"], record["n"], record["m"]) == (rung, n, m)
    assert record["ru_maxrss_mb"] > 0 and record["reference_s"] > 0
    # a small rung runs the extrema stage and not the dbscrn_k5 stage
    assert [s["stage"] for s in record["stages"]] == [
        "build", "rnn_csr", "extrema", "eps_lists", "dbscrn", "isdbscan", "influence", "dbscan", "dbcv",
        "ari",
    ]
    for stage in record["stages"]:
        assert set(stage) == {"stage", "seconds", "calls", "peak_mb"}
        assert stage["seconds"] >= 0 and stage["peak_mb"] > 0
        # every stage of a rung reports the median of the rung's fixed count of calls
        assert stage["calls"] == ladder.CALLS[rung] == 5


def test_header_schema(ladder):
    head = ladder.header("schema")
    assert set(head) == {
        "label", "git_revision", "numpy", "python", "nproc", "k_max", "k", "epsilon", "timing", "calls",
        "units",
    }
    assert head["label"] == "schema" and head["k_max"] == 30 and head["k"] == 10 and head["nproc"] >= 1
    assert head["units"] == {
        "seconds": "s", "calls": "count", "peak_mb": "MiB", "reference_s": "s", "ru_maxrss_mb": "MiB",
    }
    assert set(ladder.RUNGS) == {
        "blobs-791", "blobs-2800", "blobs-7000", "blobs-21000", "blobs-70000", "moons-372", "iris-150",
    }
    # a fixed count per rung: 5 below 7,000 points, 3 at 7,000, 1 from 21,000 up
    assert head["calls"] == ladder.CALLS and set(ladder.CALLS) == set(ladder.RUNGS)
    # the extrema stage reads all n^2 pairs, so it stops at 21,000; DBSCRN at k = 5 runs on the two largest
    assert ladder.EXTREMA_MAX_N == 21000
    assert ladder.K5_RUNGS == ("blobs-21000", "blobs-70000")
    assert {name: ladder.CALLS[name] for name in ("blobs-2800", "blobs-7000", "blobs-21000", "blobs-70000")} \
        == {"blobs-2800": 5, "blobs-7000": 3, "blobs-21000": 1, "blobs-70000": 1}
