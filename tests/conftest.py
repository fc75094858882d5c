import os

import numpy as np
import pytest

import rnncluster.data
from rnncluster import DataSet, load_dataset

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")

# benchmark files the harness knows how to load; only iris ships with the
# repository, the rest are user-supplied (see data/README.md)
BENCHMARK_FILES = {
    "iris": {"file": "iris.csv", "header": True},
    "aggregation": {"file": "aggregation.csv", "header": False},
    "compound": {"file": "compound.csv", "header": False},
    "pathbased": {"file": "pathbased.csv", "header": False},
    "spiral": {"file": "spiral.csv", "header": False},
    "flame": {"file": "flame.csv", "header": False},
    "r15": {"file": "r15.csv", "header": False},
}


def load_benchmark(name: str) -> DataSet:
    meta = BENCHMARK_FILES[name]
    path = os.path.join(DATA_DIR, meta["file"])
    if not os.path.exists(path):
        pytest.skip(
            f"benchmark dataset {name!r} not present at data/{meta['file']} "
            "(see data/README.md for provisioning)"
        )
    return load_dataset(path, has_header=meta["header"], label_column=-1, name=name)


@pytest.fixture
def iris() -> DataSet:
    return load_benchmark("iris")


def jittered_ring(n: int, center, radius: float, seed: int) -> np.ndarray:
    """Ring of n points; its k=5 influence/reverse graphs stay connected."""
    rng = np.random.default_rng(seed)
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False) + rng.normal(0, 0.02, n)
    return np.asarray(center) + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


@pytest.fixture
def two_rings() -> DataSet:
    """Two well-separated 20-point rings; the closure oracles confirm that
    each ring is a single expansion component at k=5."""
    points = np.vstack(
        [jittered_ring(20, [0.0, 0.0], 0.5, 1), jittered_ring(20, [10.0, 0.0], 0.5, 2)]
    )
    labels = np.repeat([0, 1], 20)
    return DataSet(points, labels, name="two_rings")


@pytest.fixture
def kernel_pairs(monkeypatch) -> list[int]:
    """A one-item list counting the pairs the distance kernel evaluates."""
    counted = [0]
    kernel = rnncluster.data.row_squared_distances

    def counting(rows, point):
        out = kernel(rows, point)
        counted[0] += out.size
        return out

    monkeypatch.setattr(rnncluster.data, "row_squared_distances", counting)
    return counted
