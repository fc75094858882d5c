import re

import numpy as np
import pytest

from rnncluster import (
    build_index,
    generate_synthetic,
    make_blobs,
    make_nested_rings,
    make_spirals,
    make_two_moons,
)


def test_blobs_counts_and_labels():
    ds = make_blobs(n_centers=3, points_per_center=20, spread=0.05, seed=0)
    assert ds.n == 60 and ds.m == 2
    assert np.bincount(ds.true_labels).tolist() == [20, 20, 20]


def test_two_moons_density_ratio_is_real():
    ds = make_two_moons(n=372, density_ratio=3.0, seed=0)
    assert ds.n == 372
    sizes = np.bincount(ds.true_labels)
    assert sizes[0] == pytest.approx(3 * sizes[1], rel=0.05)
    # both arcs span the same length, so the dense moon's points sit closer;
    # jitter compresses the realized spacing ratio below 3, but it stays clear
    index = build_index(ds.matrix, k_max=1)
    nn = np.sqrt(index.knn_d2[:, 0])
    dense = nn[ds.true_labels == 0].mean()
    sparse = nn[ds.true_labels == 1].mean()
    assert dense * 1.25 < sparse


def test_nested_rings_radii_order():
    ds = make_nested_rings(n_rings=2, points_per_ring=100, seed=0)
    radii = np.linalg.norm(ds.matrix, axis=1)
    assert radii[ds.true_labels == 0].mean() < radii[ds.true_labels == 1].mean()


def test_spirals_have_two_balanced_arms():
    ds = make_spirals(n=201, seed=0)
    assert ds.n == 201
    assert np.bincount(ds.true_labels).tolist() == [100, 101]


def test_same_seed_same_dataset():
    a = generate_synthetic("two_moons", {"n": 100}, seed=5)
    b = generate_synthetic("two_moons", {"n": 100}, seed=5)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    np.testing.assert_array_equal(a.true_labels, b.true_labels)
    c = generate_synthetic("two_moons", {"n": 100}, seed=6)
    assert not np.array_equal(a.matrix, c.matrix)


def test_unknown_kind_and_bad_params_rejected():
    with pytest.raises(ValueError, match="unknown synthetic kind"):
        generate_synthetic("grid", seed=0)
    with pytest.raises(ValueError):
        make_two_moons(n=2)
    with pytest.raises(ValueError):
        make_blobs(n_centers=0)
    with pytest.raises(ValueError):
        make_spirals(n=3)
    with pytest.raises(ValueError):
        make_two_moons(n=50, density_ratio=0.0)


def test_generate_synthetic_refuses_a_parameter_its_generator_does_not_take():
    # n once reached make_blobs and make_nested_rings as a bare TypeError
    takes = "['n_centers', 'points_per_center', 'spread', 'center_box', 'name']"
    message = rf"^blobs takes only the parameters {re.escape(takes)}, got \['n'\]$"
    with pytest.raises(ValueError, match=message):
        generate_synthetic("blobs", {"n": 100})
    with pytest.raises(ValueError, match=r"^nested_rings takes only the parameters \['n_rings'"):
        generate_synthetic("nested_rings", {"n": 100})
    assert generate_synthetic("blobs", {"n_centers": 3}).n == 60


# (generator, keyword, bad value, the rule the message states)
BAD_REALS = [
    (make_spirals, "turns", 0.0, "a finite nonzero real number"),  # once 0 / 0 in the radius
    (make_spirals, "turns", np.inf, "a finite nonzero real number"),
    (make_spirals, "noise", np.nan, "a finite real number"),
    (make_two_moons, "density_ratio", np.nan, "a finite real number > 0"),  # once numpy's
    (make_two_moons, "density_ratio", np.inf, "a finite real number > 0"),  # int() error
    (make_two_moons, "density_ratio", -1.0, "a finite real number > 0"),
    (make_two_moons, "noise", np.inf, "a finite real number"),
    (make_blobs, "spread", np.nan, "a finite real number"),
    (make_blobs, "center_box", -np.inf, "a finite real number"),
    (make_nested_rings, "base_radius", np.inf, "a finite real number"),
    (make_nested_rings, "radius_step", np.nan, "a finite real number"),
    (make_nested_rings, "noise", np.nan, "a finite real number"),
    (make_blobs, "spread", True, "a finite real number"),
]


@pytest.mark.parametrize("make, field, value, rule", BAD_REALS,
                         ids=[f"{m.__name__}-{f}-{v}" for m, f, v, _ in BAD_REALS])
def test_generators_name_a_bad_real_parameter(make, field, value, rule):
    message = f"^{field} must be {re.escape(rule)}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        make(**{field: value})


def test_valid_real_parameters_still_generate():
    # a negative spread or turns is a mirror image, not an error
    assert make_spirals(n=40, turns=-1.5).n == 40
    assert make_blobs(spread=np.float32(-0.1), center_box=0).n == 40
    assert make_nested_rings(base_radius=0.0, radius_step=-1.0).n == 300
