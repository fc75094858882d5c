"""Correctness gate: per-fit digests compared across passes and with a reference.

Every fit contributes one short digest of its labels, grouped by unit and
algorithm ("two_moons/isdbscan", "dbscrn", ...); fit-blobs3500 also digests
its kNN lists. `reference_digests.json` holds the digests of the code this
benchmark was written against, for a few seeds. Regenerate it only when a
change is meant to alter outputs:

    python3 perfbench/digests.py 0 1 2 3 4 5 6 7 8 9 10
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_digests.json")
WIDTH = 8  # hex digits per fit


def digest(array) -> str:
    a = np.ascontiguousarray(array)
    h = hashlib.blake2b(f"{a.dtype.str}{a.shape}".encode(), digest_size=WIDTH // 2)
    h.update(a.tobytes())
    return h.hexdigest()


def summary(entries: str) -> str:
    """One digest for a whole group, for printing."""
    return hashlib.blake2b(entries.encode(), digest_size=8).hexdigest()


def split(entries: str) -> list[str]:
    return [entries[i : i + WIDTH] for i in range(0, len(entries), WIDTH)]


def mismatches(got: dict[str, str], want: dict[str, str]) -> int:
    """Entries that differ, are missing or are extra, over every group."""
    bad = 0
    for group in set(got) | set(want):
        a, b = split(got.get(group, "")), split(want.get(group, ""))
        bad += sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return bad


def load_reference(workload: str, seed: int) -> dict[str, str] | None:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def _write_reference(seeds: list[int]) -> None:
    import worker  # noqa: E402  (same directory; imports rnncluster from src/)

    table = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as handle:
            table = json.load(handle)
    for name in worker.WORKLOADS:
        for seed in seeds:
            state = worker.setup(name, seed)
            outcome = worker.run_pass(state, worker.layer_api())
            if outcome.failed:
                raise SystemExit(f"{name} seed {seed}: a unit raised; no reference written")
            table.setdefault(name, {})[str(seed)] = outcome.digests
            print(f"{name} seed {seed}: {sum(map(len, outcome.digests.values())) // WIDTH} digests")
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    _write_reference([int(s) for s in sys.argv[1:]] or [5])
