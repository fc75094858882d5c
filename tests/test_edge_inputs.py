"""Degenerate inputs: the clustering algorithms against the oracles, and the
validation indices' refusal of inputs they cannot score."""

import re
import warnings

import numpy as np
import pytest

from oracles import (
    contingency_table,
    dbscan_bfs_oracle,
    dbscrn_oracle,
    epsilon_neighborhood,
    full_sort_knn_oracle,
    isdbscan_worklist_oracle,
    kdtree_knn_oracle,
)
from rnncluster import (
    Clustering,
    DataSet,
    DbscanParams,
    DbscrnParams,
    IsdbscanParams,
    KmeansParams,
    SweepSpec,
    adjusted_rand_index,
    bench,
    build_index,
    canonicalize_labels,
    dbcv,
    dbscan,
    dbscrn,
    generate_synthetic,
    isdbscan,
    kmeans,
    make_blobs,
    make_nested_rings,
    make_spirals,
    make_two_moons,
    pairwise_distance_extrema,
    range_standardize,
    run_sweep,
)
from rnncluster.dbscan import dbscan_from_neighborhoods, neighborhood_lists

_rng = np.random.default_rng(17)
K = 5
CASES = {
    "all-identical-rows": np.full((12, 2), 3.5),
    "fewer-distinct-points-than-k": np.repeat(_rng.normal(size=(3, 2)), 4, axis=0),
    "n-is-k-max-plus-one": _rng.normal(size=(K + 1, 2)),
    "single-feature": _rng.normal(size=(30, 1)),
    "constant-feature": np.column_stack([_rng.normal(size=30), np.full(30, 7.0)]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_degenerate_inputs_match_the_oracles(name):
    x, _ = range_standardize(CASES[name])
    index = build_index(x, k_max=K)
    expected = canonicalize_labels(np.array(dbscrn_oracle(x, K))).labels
    np.testing.assert_array_equal(dbscrn(x, index, DbscrnParams(k=K)).labels, expected)
    for k in (2, K):
        for seed in range(3):
            got = isdbscan(x, index, IsdbscanParams(k=k, seed=seed)).labels
            assert got.tolist() == isdbscan_worklist_oracle(index, k, seed)
    hi = pairwise_distance_extrema(x)[1]
    for eps in (0.0, hi / 4, hi):
        neigh = neighborhood_lists(x, eps)
        for min_pts in (1, 3, K):
            for seed in range(3):
                got = dbscan_from_neighborhoods(neigh, min_pts, seed).labels
                assert got.tolist() == dbscan_bfs_oracle(neigh, min_pts, seed)


# finite rows whose distances, box gaps or box widths overflow float64
OVERFLOWING = {
    "powers-of-1.5": (1.5 ** np.arange(1500.0))[:, None],
    "plus-minus-1e308": np.array([[1e308], [-1e308], [0.0], [1.0], [2.0]]),
    "plus-minus-1e308-over-blocks": np.r_[1e308, -1e308, np.arange(298.0)][:, None],
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_overflowing_distances_raise_no_warning(name):
    # an overflowed distance is inf by design, so numpy's warning is noise
    x = OVERFLOWING[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = build_index(x, k_max=4)
        spatial = build_index(x, 4, backend="spatial")
        epsilon_neighborhood(x, 0, 1.0)
        neighborhood_lists(x, 1.0)
        dbscrn(x, index, DbscrnParams(k=4))
        pairwise_distance_extrema(x)
        kmeans(x, KmeansParams(k_clusters=2, restarts=2))  # objectives overflow to inf
    for idx, d2 in ((spatial.knn_idx, spatial.knn_d2), full_sort_knn_oracle(x, 4),
                    kdtree_knn_oracle(x, 4)):
        np.testing.assert_array_equal(index.knn_idx, idx)
        assert np.array_equal(index.knn_d2.view(np.int64), d2.view(np.int64))


_x = _rng.normal(size=(10, 2))
_labels = np.repeat([0, 1], 5)
_one_cell = np.zeros((10, 2), dtype=bool)
_one_cell[3, 1] = True
# each of these once scored, warned or failed deep inside DBCV
UNSCORABLE = {
    "nan-feature": (np.where(_one_cell, np.nan, _x), _labels, "NaN or infinite"),
    "inf-feature": (np.where(_one_cell, np.inf, _x), _labels, "NaN or infinite"),
    "1-d-data": (_x[:, 0], _labels, "2-D"),
    "fractional-labels": (_x, _labels + 0.5, "integers, got 0.5"),
    "2-d-labels": (_x, _labels[:, None], "1-D"),
    "text-labels": (_x, _labels.astype(str), "integers"),
}


@pytest.mark.parametrize("name", sorted(UNSCORABLE))
def test_dbcv_rejects_unscorable_input_with_a_message(name):
    data, labels, message = UNSCORABLE[name]
    with pytest.raises(ValueError, match=message):
        dbcv(data, labels)


@pytest.mark.parametrize("name", ["nan-feature", "inf-feature", "1-d-data"])
def test_kmeans_rejects_unusable_data_with_a_message(name):
    # NaN data once left every restart's objective at inf, with no labels
    data, _, message = UNSCORABLE[name]
    with pytest.raises(ValueError, match=message):
        kmeans(data, KmeansParams(k_clusters=2, restarts=2))


_line = np.array([[0.0], [1.0], [2.0], [5.0]])
# once: the last row's neighbourhood, an empty one, or a NaN row nobody reached
BAD_NEIGHBORHOOD_QUERIES = {
    "negative-i": (_line, -1, 1.0, "i=-1"),
    "i-is-n": (_line, 4, 1.0, "i=4"),
    "negative-epsilon": (_line, 0, -1.0, "got -1.0"),
    "nan-epsilon": (_line, 0, np.nan, "got nan"),
    "nan-row": (np.where(np.arange(4)[:, None] == 2, np.nan, _line), 0, 1.0, "nan at row 2"),
}


@pytest.mark.parametrize("name", sorted(BAD_NEIGHBORHOOD_QUERIES))
def test_epsilon_neighborhood_rejects_bad_queries_with_a_message(name):
    data, i, epsilon, message = BAD_NEIGHBORHOOD_QUERIES[name]
    with pytest.raises(ValueError, match=message):
        epsilon_neighborhood(data, i, epsilon)


_four = DataSet(np.arange(8.0).reshape(4, 2))  # a one-point DBSCRN grid (k = 3)


def _sweep_with_jobs(n_jobs):
    # n_jobs = 0 or -1 once ran sequentially, and 2.5 failed inside np.linspace
    run_sweep(_four, SweepSpec("dbscrn"), n_jobs=n_jobs)
    return n_jobs


def _dbscan_with_min_pts(min_pts):
    # 0, -3 and True once acted as 1, and 2.5 as 3
    dbscan_from_neighborhoods(neighborhood_lists(_x, 0.01), min_pts)
    return min_pts


# name -> (make, field): make(v) sets the count `field` to v and returns it as
# stored (bench: as many samples; run_sweep keeps no n_jobs and
# dbscan_from_neighborhoods no min_pts, so as passed)
COUNT_PARAMETERS = {
    "dbscrn-k": (lambda v: DbscrnParams(k=v).k, "k"),
    "isdbscan-k": (lambda v: IsdbscanParams(k=v).k, "k"),
    "dbscan-min_pts": (lambda v: DbscanParams(epsilon=0.1, min_pts=v).min_pts, "min_pts"),
    "dbscan_from_neighborhoods-min_pts": (_dbscan_with_min_pts, "min_pts"),
    "kmeans-k_clusters": (lambda v: KmeansParams(k_clusters=v).k_clusters, "k_clusters"),
    "kmeans-restarts": (lambda v: KmeansParams(k_clusters=2, restarts=v).restarts, "restarts"),
    "kmeans-max_iters": (lambda v: KmeansParams(k_clusters=2, max_iters=v).max_iters, "max_iters"),
    "sweep-runs_per_setting": (
        lambda v: SweepSpec("isdbscan", runs_per_setting=v).runs_per_setting,
        "runs_per_setting",
    ),
    "sweep-min_pts_range-lo": (
        lambda v: SweepSpec("dbscan", min_pts_range=(v, 20)).min_pts_range[0],
        "min_pts_range[0]",
    ),
    "sweep-min_pts_range-hi": (
        lambda v: SweepSpec("dbscan", min_pts_range=(3, v)).min_pts_range[1],
        "min_pts_range[1]",
    ),
    "bench-runs": (lambda v: bench(_four, DbscrnParams(k=3), runs=v).size, "runs"),
    "sweep-n_jobs": (_sweep_with_jobs, "n_jobs"),
    "build_index-k_max": (lambda v: build_index(_x, v).k_max, "k_max"),
    "blobs-n_centers": (lambda v: make_blobs(n_centers=v, points_per_center=1).n, "n_centers"),
    "blobs-points_per_center": (
        lambda v: make_blobs(n_centers=1, points_per_center=v).n,
        "points_per_center",
    ),
    "two_moons-n": (lambda v: make_two_moons(n=v).n, "n"),
    "spirals-n": (lambda v: make_spirals(n=v).n, "n"),
    "nested_rings-n_rings": (
        lambda v: make_nested_rings(n_rings=v, points_per_ring=3).n // 3,
        "n_rings",
    ),
    "nested_rings-points_per_ring": (
        lambda v: make_nested_rings(n_rings=1, points_per_ring=v).n,
        "points_per_ring",
    ),
}


@pytest.mark.parametrize("name", sorted(COUNT_PARAMETERS))
def test_count_parameters_must_be_integers(name):
    make, field = COUNT_PARAMETERS[name]
    # a float k was accepted and failed later inside numpy slicing
    for value in (2.5, 3.0, "3", True):
        message = f"^{re.escape(field)} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            make(value)
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be >= 1$"):
        make(0)
    assert make(np.int32(4)) == 4


def _passed(call):
    # make(v) for an entry point that keeps no seed: the seed as passed
    def make(seed):
        call(seed)
        return seed

    return make


# name -> (make, field): make(v) sets the seed `field` to v and returns it as stored
SEED_PARAMETERS = {
    "isdbscan-seed": (lambda v: IsdbscanParams(k=1, seed=v).seed, "seed"),
    "kmeans-seed": (lambda v: KmeansParams(k_clusters=2, seed=v).seed, "seed"),
    "sweep-base_seed": (lambda v: SweepSpec("dbscrn", base_seed=v).base_seed, "base_seed"),
    "bench-base_seed": (_passed(lambda v: bench(_four, DbscrnParams(k=3), 1, v)), "base_seed"),
    "dbscan-seed": (_passed(lambda v: dbscan(_x, DbscanParams(0.01, 3), v)), "seed"),
    "dbscan_from_neighborhoods-seed": (
        _passed(lambda v: dbscan_from_neighborhoods(neighborhood_lists(_x, 0.01), 3, v)),
        "seed",
    ),
    "blobs-seed": (_passed(lambda v: make_blobs(seed=v)), "seed"),
    "two_moons-seed": (_passed(lambda v: make_two_moons(seed=v)), "seed"),
    "nested_rings-seed": (_passed(lambda v: make_nested_rings(seed=v)), "seed"),
    "spirals-seed": (_passed(lambda v: make_spirals(seed=v)), "seed"),
    "generate_synthetic-seed": (_passed(lambda v: generate_synthetic("blobs", seed=v)), "seed"),
}


@pytest.mark.parametrize("name", sorted(SEED_PARAMETERS))
def test_seed_parameters_must_be_integers_from_zero(name):
    make, field = SEED_PARAMETERS[name]
    # -1 once reached numpy's unnamed "expected non-negative integer"
    for value in (2.5, "3", True):
        message = f"^{re.escape(field)} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            make(value)
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be >= 0$"):
        make(-1)
    assert make(0) == 0
    assert make(np.uint32(7)) == 7


def _neighborhood_lists_with_epsilon(epsilon):
    # True once acted as 1.0, and "0.1" or None failed in a bare comparison
    neighborhood_lists(_x, epsilon)
    return epsilon


# name -> (make, field): make(v) sets the radius `field` to v and returns it as
# stored (neighborhood_lists keeps no epsilon, so as passed)
RADIUS_PARAMETERS = {
    "dbscan-epsilon": (lambda v: DbscanParams(epsilon=v, min_pts=3).epsilon, "epsilon"),
    "neighborhood_lists-epsilon": (_neighborhood_lists_with_epsilon, "epsilon"),
    "sweep-eps_step": (lambda v: SweepSpec("dbscan", eps_step=v).eps_step, "eps_step"),
    "sweep-eps_range-lo": (
        lambda v: SweepSpec("dbscan", eps_range=(v, 2.0)).eps_range[0],
        "eps_range[0]",
    ),
    "sweep-eps_range-hi": (
        lambda v: SweepSpec("dbscan", eps_range=(0.0, v)).eps_range[1],
        "eps_range[1]",
    ),
}


@pytest.mark.parametrize("name", sorted(RADIUS_PARAMETERS))
def test_radius_parameters_must_be_real_numbers(name):
    make, field = RADIUS_PARAMETERS[name]
    for value in (True, np.True_, "0.1", None, 1j, np.nan, -0.5):
        message = f"^{re.escape(field)} must be a real number >= 0, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            make(value)
    for value in (0.25, np.float32(0.25), 1, np.int64(1)):
        assert make(value) == value


_other = np.arange(10) % 3
# name -> take: hands a labelling of _x's rows to one entry point and returns
# what that entry point made of it (contingency_table is the tests' oracle
# now, and still reads labels through `as_labels`)
LABEL_INPUTS = {
    "Clustering": lambda v: Clustering(v).labels,
    "canonicalize_labels": lambda v: canonicalize_labels(v).labels,
    "DataSet.true_labels": lambda v: DataSet(_x, true_labels=v).true_labels,
    "adjusted_rand_index-pred": lambda v: adjusted_rand_index(v, _other),
    "adjusted_rand_index-truth": lambda v: adjusted_rand_index(_other, v),
    "contingency_table-pred": lambda v: contingency_table(v, _other),
    "contingency_table-truth": lambda v: contingency_table(_other, v),
    "dbcv": lambda v: dbcv(_x, v).cluster_ids,
}


def _at_3(value, dtype=float):
    labels = _labels.astype(dtype)
    labels[3] = value
    return labels


# each once passed some entry point silently: rounded, wrapped or cast to noise
BAD_LABELS = [
    (_at_3(1.5), "labels must be integers, got 1.5 at position 3"),
    (_at_3(np.nan), "labels must be integers, got nan at position 3"),
    (_at_3(1e30), "labels must be within int64, got 1e+30 at position 3"),
    (_at_3(2**63, np.uint64), "labels must be within int64, got 9223372036854775808 at position 3"),
    (_labels[:, None], "labels must be a nonempty 1-D array, got shape (10, 1)"),
    (_labels[:0], "labels must be a nonempty 1-D array, got shape (0,)"),
    (_labels.astype(str), "labels must be integers, got dtype <U21"),
]


@pytest.mark.parametrize("name", sorted(LABEL_INPUTS))
def test_every_label_entry_point_refuses_the_same_bad_labels(name):
    for labels, message in BAD_LABELS:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LABEL_INPUTS[name](labels)


@pytest.mark.parametrize("name", sorted(LABEL_INPUTS))
def test_every_label_entry_point_reads_integral_dtypes_as_int64(name):
    expected = LABEL_INPUTS[name](_labels)
    for dtype in (np.int32, bool, float, np.float16, np.uint64):
        got = LABEL_INPUTS[name](_labels.astype(dtype))
        np.testing.assert_array_equal(got, expected)
        assert np.asarray(got).dtype == np.asarray(expected).dtype
    if name in ("Clustering", "canonicalize_labels", "DataSet.true_labels"):
        assert expected.dtype == np.int64


def test_ari_rejects_labels_that_are_not_1d_integers():
    with pytest.raises(ValueError, match="integers, got 1.5"):
        adjusted_rand_index([0, 1.5], [0, 1])
    with pytest.raises(ValueError, match="integers, got nan"):
        adjusted_rand_index([0, 1], [0.0, np.nan])
    with pytest.raises(ValueError, match="1-D"):
        adjusted_rand_index([[0], [1]], [0, 1])
    assert adjusted_rand_index([0.0, 1.0], [1, 0]) == 1.0  # integral floats are labels
    assert dbcv(_x, _labels.astype(float)).overall == dbcv(_x, _labels).overall


_index = build_index(np.random.default_rng(18).normal(size=(10, 2)), 3)
# each once answered as for k = 1 or i = 1 (a bool), or raised numpy's own
# TypeError or IndexError (a float)
BAD_QUERIES = {
    "rnn_sizes(True)": (lambda: _index.rnn_sizes(True), "k must be an integer, got True"),
    "rnn_sizes(2.5)": (lambda: _index.rnn_sizes(2.5), "k must be an integer, got 2.5"),
    "rnn_csr(True)": (lambda: _index.rnn_csr(True), "k must be an integer, got True"),
    "influence_csr(True)": (lambda: _index.influence_csr(True), "k must be an integer, got True"),
    "influence_csr(2.0)": (lambda: _index.influence_csr(2.0), "k must be an integer, got 2.0"),
    "influence_space(2.5, 3)": (lambda: _index.influence_space(2.5, 3), "i must be an integer, got 2.5"),
    "influence_space(True, 3)": (lambda: _index.influence_space(True, 3), "i must be an integer, got True"),
    "influence_space(1, 2.5)": (lambda: _index.influence_space(1, 2.5), "k must be an integer, got 2.5"),
}


@pytest.mark.parametrize("name", sorted(BAD_QUERIES))
def test_index_queries_name_a_k_or_i_that_is_not_an_integer(name):
    query, message = BAD_QUERIES[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        query()


def test_index_queries_take_numpy_integers():
    assert _index.rnn_sizes(np.int32(2)).tolist() == _index.rnn_sizes(2).tolist()
    assert _index.influence_space(np.int64(4), np.uint8(3)).tolist() == _index.influence_space(4, 3).tolist()
