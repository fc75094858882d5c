"""The benchmark's traced run passes its correctness gates.

That run is the only caller of `build_index(..., backend="spatial")`; it
compares the spatial kNN lists with the default build and every labeling
with the reference digests.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_benchmark_run_passes_its_gates():
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         "fit-blobs3500", "--seed", "5", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "gate brute vs spatial kNN lists bit-identical: True" in lines
    verdict = json.loads(lines[-1])
    assert verdict["correct"] is True and verdict["failed"] == 0
