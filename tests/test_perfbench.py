"""The benchmark's runs pass their correctness gates.

The traced run is the only caller of `build_index(..., backend="spatial")`;
it compares the spatial kNN lists with the default build. Every run compares
its labelings with the reference digests.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(*args):
    """The benchmark's lines of stdout for one run, and its final verdict."""
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_traced_benchmark_run_passes_its_gates():
    lines, verdict = _run("--workload", "fit-blobs3500", "--seed", "5", "--seconds", "0",
                          "--trace", "1")
    assert "gate brute vs spatial kNN lists bit-identical: True" in lines
    assert verdict["correct"] is True and verdict["failed"] == 0


@pytest.mark.parametrize("workload", ["sweep-rnn", "sweep-dbscan"])
def test_untraced_sweep_labels_match_the_reference_digests(workload):
    # the digests cover every ISDBSCAN and DBSCAN labeling of the sweep
    _, verdict = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0")
    assert verdict["correct"] is True and verdict["failed"] == 0
