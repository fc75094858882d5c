"""A fixed reference kernel that measures how fast the host runs right now.

The hosts this benchmark runs on are shared: over minutes their speed
drifts by up to about 2x, for every kind of code at once. A run times this
kernel before each unit and scales its times by REFERENCE_S / (the
kernel's median time in the run), so two runs made at different host
speeds report nearly the same numbers for the same code.

The kernel does the two kinds of work the workloads do: interpreted
Python over lists, dicts and a deque (DBSCAN's BFS, ISDBSCAN's entity
loops), and numpy array work (sort, gather, partition, as in the kNN
index build). It calls no BLAS routine: BLAS threads would make it
depend on the other cores' load, which the mostly single-threaded
workloads do not. It uses nothing from rnncluster, so a change to the
package cannot change it.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

# About the kernel's median time on the 2-vCPU Xeon VM the benchmark was
# written on, in its fastest stretches, so scaled times read as seconds
# on that host when it is unloaded.
REFERENCE_S = 0.1

_NODES = 4000


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.adjacency = rng.integers(0, _NODES, (_NODES, 8)).tolist()
        self.matrix = rng.random((400, 400))
        self.vector = rng.random(200_000)

    def _interpreted(self) -> None:
        for _ in range(10):
            seen = bytearray(_NODES)
            seen[0] = 1
            queue = deque([0])
            while queue:
                for v in self.adjacency[queue.popleft()]:
                    if not seen[v]:
                        seen[v] = 1
                        queue.append(v)
            counts: dict[int, int] = {}
            for i in range(20000):
                counts[i % 777] = counts.get(i % 777, 0) + i

    def _arrays(self) -> None:
        for _ in range(6):
            order = np.argsort(self.vector)
            np.cumsum(self.vector[order])
            np.argpartition(self.matrix, 10, axis=1)

    def time(self) -> float:
        """Seconds for one run of the kernel."""
        start = time.perf_counter()
        self._interpreted()
        self._arrays()
        return time.perf_counter() - start
