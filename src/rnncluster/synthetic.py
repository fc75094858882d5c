"""Labeled synthetic datasets for experiments and tests.

The half-moon and ring generators stand in for benchmark sets that have no
canonical public download; reports flag results on them as approximations.
All generators are deterministic for a fixed seed, an integer >= 0, and
refuse a non-finite real parameter (and a zero `turns` or a `density_ratio`
not > 0) with a ValueError that names it.
"""

from __future__ import annotations

import inspect
import math
import numbers

import numpy as np

from .clustering import check_count
from .data import DataSet

__all__ = [
    "generate_synthetic",
    "make_blobs",
    "make_nested_rings",
    "make_spirals",
    "make_two_moons",
]


def _check_real(name: str, value, rule: str = "a finite real number", holds=math.isfinite) -> None:
    """ValueError naming `name` unless `value` is a real number, no bool, for which `holds` is true."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not holds(value):
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def make_blobs(
    n_centers: int = 2,
    points_per_center: int = 20,
    spread: float = 0.05,
    center_box: float = 1.0,
    seed: int = 0,
    name: str = "blobs",
) -> DataSet:
    """Isotropic Gaussian blobs on a circle of radius `center_box`."""
    check_count("n_centers", n_centers)
    check_count("points_per_center", points_per_center)
    check_count("seed", seed, minimum=0)
    _check_real("spread", spread)
    _check_real("center_box", center_box)
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(n_centers) / n_centers
    centers = center_box * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    points = []
    labels = []
    for c in range(n_centers):
        points.append(centers[c] + spread * rng.standard_normal((points_per_center, 2)))
        labels.append(np.full(points_per_center, c))
    return DataSet(np.vstack(points), np.concatenate(labels), name=name)


def make_two_moons(
    n: int = 372,
    density_ratio: float = 3.0,
    noise: float = 0.045,
    seed: int = 0,
    name: str = "two_moons",
) -> DataSet:
    """Two interleaved half-moons whose point densities differ.

    `density_ratio` r puts r/(1+r) of the points on the upper moon, so
    with the default 3.0 the upper arc is three times as dense as the
    lower one.
    """
    check_count("n", n)
    check_count("seed", seed, minimum=0)
    if n < 4:
        raise ValueError("need at least 4 points")
    _check_real("density_ratio", density_ratio, "a finite real number > 0", lambda v: 0 < v < math.inf)
    _check_real("noise", noise)
    rng = np.random.default_rng(seed)
    n_upper = int(round(n * density_ratio / (1.0 + density_ratio)))
    n_upper = min(max(n_upper, 2), n - 2)
    n_lower = n - n_upper
    t_upper = np.linspace(0.0, np.pi, n_upper)
    t_lower = np.linspace(0.0, np.pi, n_lower)
    upper = np.stack([np.cos(t_upper), np.sin(t_upper)], axis=1)
    lower = np.stack([1.0 - np.cos(t_lower), 0.5 - np.sin(t_lower)], axis=1)
    points = np.vstack([upper, lower])
    points += noise * rng.standard_normal(points.shape)
    labels = np.concatenate([np.zeros(n_upper, dtype=int), np.ones(n_lower, dtype=int)])
    return DataSet(points, labels, name=name)


def make_nested_rings(
    n_rings: int = 2,
    points_per_ring: int = 150,
    base_radius: float = 1.0,
    radius_step: float = 1.0,
    noise: float = 0.04,
    seed: int = 0,
    name: str = "nested_rings",
) -> DataSet:
    """Concentric circles; ring r has radius base_radius + r * radius_step."""
    check_count("n_rings", n_rings)
    check_count("points_per_ring", points_per_ring)
    check_count("seed", seed, minimum=0)
    if points_per_ring < 3:
        raise ValueError("need n_rings >= 1 and points_per_ring >= 3")
    _check_real("base_radius", base_radius)
    _check_real("radius_step", radius_step)
    _check_real("noise", noise)
    rng = np.random.default_rng(seed)
    points = []
    labels = []
    for r in range(n_rings):
        radius = base_radius + r * radius_step
        t = np.linspace(0.0, 2.0 * np.pi, points_per_ring, endpoint=False)
        ring = radius * np.stack([np.cos(t), np.sin(t)], axis=1)
        points.append(ring + noise * rng.standard_normal(ring.shape))
        labels.append(np.full(points_per_ring, r))
    return DataSet(np.vstack(points), np.concatenate(labels), name=name)


def make_spirals(
    n: int = 200,
    turns: float = 1.0,
    noise: float = 0.02,
    seed: int = 0,
    name: str = "spirals",
) -> DataSet:
    """Two interleaved Archimedean spiral arms (arm 2 is arm 1 rotated by pi)."""
    check_count("n", n)
    check_count("seed", seed, minimum=0)
    if n < 4:
        raise ValueError("need at least 4 points")
    _check_real("turns", turns, "a finite nonzero real number", lambda v: math.isfinite(v) and v != 0)
    _check_real("noise", noise)
    rng = np.random.default_rng(seed)
    sizes = (n // 2, n - n // 2)
    arms = []
    for arm, size in enumerate(sizes):
        t = np.linspace(0.25, 1.0, size) * turns * 2.0 * np.pi
        radius = 0.1 + 0.9 * (t - t.min()) / (t.max() - t.min())
        phase = t + arm * np.pi
        arms.append(np.stack([radius * np.cos(phase), radius * np.sin(phase)], axis=1))
    points = np.vstack(arms) + noise * rng.standard_normal((n, 2))
    labels = np.concatenate([np.full(size, arm, dtype=int) for arm, size in enumerate(sizes)])
    return DataSet(points, labels, name=name)


_KINDS = {
    "blobs": make_blobs,
    "two_moons": make_two_moons,
    "nested_rings": make_nested_rings,
    "spirals": make_spirals,
}


def generate_synthetic(kind: str, params: dict | None = None, seed: int = 0) -> DataSet:
    """Dispatch to a generator by kind; `params` are keyword arguments it takes, else ValueError."""
    if kind not in _KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}; choose from {sorted(_KINDS)}")
    takes = [p for p in inspect.signature(_KINDS[kind]).parameters if p != "seed"]
    if not set(takes).issuperset(params or {}):
        raise ValueError(f"{kind} takes only the parameters {takes}, got {sorted(params)}")
    return _KINDS[kind](seed=seed, **(params or {}))
