import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    compact_blocks_oracle,
    einsum_squared_distances_oracle,
    pairwise_squared_distances,
    squared_euclidean,
)
from rnncluster import (
    DataSet,
    build_index,
    dbcv,
    load_dataset,
    pairwise_distance_extrema,
    range_standardize,
)
from rnncluster.data import compact_blocks, row_squared_distances, squared_distance_blocks
from rnncluster.dbscan import neighborhood_lists

finite_rows = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=6
)


def test_squared_euclidean_examples():
    assert squared_euclidean([0, 0], [0, 0]) == 0.0
    assert squared_euclidean([0, 0], [3, 4]) == 25.0
    assert squared_euclidean([1, 2, 4], [2, 2, 2]) == 5.0


def test_squared_euclidean_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        squared_euclidean([1, 2], [1, 2, 3])


@given(finite_rows, st.randoms())
@settings(max_examples=100, deadline=None)
def test_squared_euclidean_symmetry(row, rnd):
    other = [rnd.uniform(-1e6, 1e6) for _ in row]
    assert squared_euclidean(row, other) == squared_euclidean(other, row)
    assert squared_euclidean(row, row) == 0.0


def test_range_standardize_examples():
    out, report = range_standardize(np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(out.ravel(), [-0.5, 0.5])
    out, _ = range_standardize(np.array([[7.0], [7.0], [7.0]]))
    np.testing.assert_array_equal(out.ravel(), [0.0, 0.0, 0.0])
    out, report = range_standardize(np.array([[1.0], [2.0], [4.0]]))
    np.testing.assert_allclose(out.ravel(), [-4 / 9, -1 / 9, 5 / 9])
    assert report.feature_range[0] == 3.0
    assert report.mean[0] == pytest.approx(7 / 3)


def test_range_standardize_leaves_input_unmodified():
    x = np.array([[1.0, 5.0], [3.0, 5.0]])
    before = x.copy()
    range_standardize(x)
    np.testing.assert_array_equal(x, before)


def test_range_standardize_unit_range_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=(rng.integers(2, 40), rng.integers(1, 6))) * rng.uniform(0.1, 50)
        out, _ = range_standardize(x)
        spread = out.max(axis=0) - out.min(axis=0)
        np.testing.assert_allclose(spread, 1.0, atol=1e-12)
        # standardizing twice keeps per-feature range 1 for non-constant features
        again, _ = range_standardize(out)
        np.testing.assert_allclose(again.max(axis=0) - again.min(axis=0), 1.0, atol=1e-12)


def test_range_standardize_rejects_overflowing_features():
    # the range of +-1e308 overflows to inf, which used to zero the feature
    with pytest.raises(ValueError, match="feature column 1"):
        range_standardize(np.array([[0.0, 1e308], [1.0, -1e308], [2.0, 0.0]]))
    # a finite range whose mean overflows in the column sum
    with pytest.raises(ValueError, match="feature column 0"):
        range_standardize(np.array([[1e308], [1e308]]))
    out, report = range_standardize(np.array([[1e308], [0.0]]))
    np.testing.assert_array_equal(out.ravel(), [0.5, -0.5])
    assert report.feature_range[0] == 1e308


def test_distance_blocks_match_the_row_kernel_bitwise():
    rng = np.random.default_rng(8)
    for queries, refs in [
        (rng.normal(size=(700, 9)), None),  # spans several blocks
        (np.round(rng.normal(size=(40, 3)) * 3), None),  # tie-heavy
        (rng.normal(size=(5, 2)), rng.normal(size=(30, 2))),
        (np.empty((0, 4)), rng.normal(size=(3, 4))),
    ]:
        refs = queries if refs is None else refs
        blocks = list(squared_distance_blocks(queries, refs))
        assert len(blocks) > 1 or len(queries) < 700
        assert sum(len(block) for _, block in blocks) == len(queries)
        for start, block in blocks:
            want = [row_squared_distances(refs, q) for q in queries[start : start + len(block)]]
            assert np.array_equal(block.view(np.int64), np.array(want).view(np.int64))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@st.composite
def kernel_rows(draw, max_rows=12):
    """1..max_rows rows of 1..40 features: normal, or on an integer grid with
    duplicated rows, scaled by powers of ten from 1e-170 to 1e170 (one for
    all entries, one per row or one per entry), so squares overflow to inf
    and underflow to 0."""
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, m))
    if draw(st.booleans()):
        x = np.round(3 * x)
        x[n // 2 :] = x[: n - n // 2]
    shape = draw(st.sampled_from([(1, 1), (n, 1), (n, m)]))
    return x * 10.0 ** rng.integers(-170, 171, size=shape)


@given(kernel_rows())
@example(np.array([[1e160] * 9, [-1e160] * 9, [1.0] * 9]))  # every square overflows
@example(np.array([[1e-170] * 9, [0.0] * 9, [3e-160] * 9]))  # squares underflow to 0
@settings(max_examples=300, deadline=None)
def test_kernel_keeps_the_einsum_floats(x):
    # the lane order reproduces the replaced einsum kernel bit for bit, at
    # every feature count: the unrolled body (m >= 8) and odd tails
    scalar = row_squared_distances(x[0], x[-1])
    assert np.ndim(scalar) == 0
    assert _bits(scalar) == _bits(einsum_squared_distances_oracle(x[0], x[-1]))
    for rows, point in [(x, x[-1]), (x, x[:, None, :]), (x[:1], x[:, None, :])]:
        got = row_squared_distances(rows, point)
        want = einsum_squared_distances_oracle(rows, point)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))
    queries = x[::-1]
    blocks = np.concatenate([block for _, block in squared_distance_blocks(queries, x)])
    want = einsum_squared_distances_oracle(x, queries[:, None, :])
    assert np.array_equal(_bits(blocks), _bits(want))


@given(kernel_rows(max_rows=300))
@example(np.repeat(np.arange(150.0), 2)[:, None] * 1e170)  # one feature, cut in sorted order
@settings(max_examples=150, deadline=None)
def test_compact_blocks_keep_the_row_major_bounds(x):
    # the feature-major bound is an exact max over the same squared gaps,
    # so every leaf and every bound, inf included, is the oracle's
    got, want = list(compact_blocks(x)), list(compact_blocks_oracle(x))
    assert len(got) == len(want)
    for (ids, bound), (want_ids, want_bound) in zip(got, want):
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(_bits(bound), _bits(want_bound))


def test_memory_layout_changes_no_float():
    # the kernel reads refs feature-major whatever their layout, and the
    # kNN build reads each block row by row, so blocks stay C-ordered
    rng = np.random.default_rng(12)
    wide = rng.normal(size=(600, 10))
    wide[:300] += 4.0
    x = np.ascontiguousarray(wide[:, ::2])
    layouts = [x, np.asfortranarray(x), wide[:, ::2]]
    want = [block for _, block in squared_distance_blocks(x, x)]
    assert len(want) > 1
    for queries in layouts:
        for refs in layouts:
            got = [block for _, block in squared_distance_blocks(queries, refs)]
            assert len(got) == len(want)
            assert all(block.flags.c_contiguous for block in got)
            assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(got, want))
    fortran = np.asfortranarray(x)
    index, f_index = build_index(x, 12), build_index(fortran, 12)
    assert np.array_equal(f_index.knn_idx, index.knn_idx)
    assert np.array_equal(_bits(f_index.knn_d2), _bits(index.knn_d2))
    eps = float(np.median(index.knn_d2[:, 9]))
    for got, want in zip(neighborhood_lists(fortran, eps), neighborhood_lists(x, eps)):
        assert np.array_equal(got, want)
    labels = np.repeat([0, 1], 300)
    got, want = dbcv(fortran, labels), dbcv(x, labels)
    for field in ("sparseness", "separation", "validity"):
        assert np.array_equal(_bits(getattr(got, field)), _bits(getattr(want, field)))
    assert _bits(got.overall) == _bits(want.overall)


def test_kernel_pairs_fixture_counts_every_pair(kernel_pairs):
    # the prune tests rest on this count; it must see the blocks' kernel calls
    rng = np.random.default_rng(9)
    queries, refs = rng.normal(size=(700, 9)), rng.normal(size=(300, 9))
    assert len(list(squared_distance_blocks(queries, refs))) > 1
    assert kernel_pairs[0] == len(queries) * len(refs)


def test_pairwise_distance_extrema_examples():
    lo, hi = pairwise_distance_extrema(np.array([[0.0], [1.0], [3.0]]))
    assert (lo, hi) == (1.0, 9.0)
    assert pairwise_distance_extrema(np.array([[2.0], [2.0]])) == (0.0, 0.0)
    assert pairwise_distance_extrema(np.array([[0.0, 0.0], [3.0, 4.0]])) == (25.0, 25.0)


def test_pairwise_distance_extrema_needs_two_entities():
    with pytest.raises(ValueError):
        pairwise_distance_extrema(np.array([[1.0]]))


def test_pairwise_matrix_matches_scalar_distance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(15, 3))
    d = pairwise_squared_distances(x)
    for i in range(15):
        for j in range(15):
            assert d[i, j] == pytest.approx(squared_euclidean(x[i], x[j]), abs=1e-12)
    assert np.array_equal(d, d.T)


def test_feature_matrix_validation():
    with pytest.raises(ValueError, match="NaN"):
        DataSet(np.array([[1.0], [np.nan]]))
    with pytest.raises(ValueError, match="2-D"):
        DataSet(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="entries"):
        DataSet(np.array([[1.0], [2.0]]), true_labels=[1])


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_dataset_with_label_column(tmp_path):
    path = _write(tmp_path, "0,0,1\n1,0,1\n5,5,2\n")
    ds = load_dataset(path, label_column=-1)
    assert ds.n == 3 and ds.m == 2
    np.testing.assert_array_equal(ds.true_labels, [1, 1, 2])


def test_load_dataset_skips_header(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,4\n")
    ds = load_dataset(path, has_header=True)
    assert ds.n == 2 and ds.m == 2
    assert ds.true_labels is None


def test_load_dataset_errors_name_the_row(tmp_path):
    path = _write(tmp_path, "1,2\nabc,4\n")
    with pytest.raises(ValueError, match="row 2"):
        load_dataset(path)
    path = _write(tmp_path, "1,2\n3,4,5\n")
    with pytest.raises(ValueError, match="row 2"):
        load_dataset(path)
    path = _write(tmp_path, "1,2\n3,x\n")
    with pytest.raises(ValueError, match="row 2"):
        load_dataset(path, label_column=-1)


@pytest.mark.parametrize("label", ["2.5", "inf", "-inf", "1e400", "nan"])
def test_load_dataset_rejects_a_label_that_is_no_integer(tmp_path, label):
    path = _write(tmp_path, f"1,2,0\n3,4,{label}\n")
    with pytest.raises(ValueError, match=f"row 2: label '{label}' is not an integer"):
        load_dataset(path, label_column=-1)


@pytest.mark.parametrize("label", ["1e300", "-1e19", "9223372036854775808"])
def test_load_dataset_rejects_a_label_outside_int64(tmp_path, label):
    # an integral label past int64 once raised OverflowError, naming no row
    path = _write(tmp_path, f"1,2,0\n3,4,{label}\n")
    with pytest.raises(ValueError, match=f"row 2: label '{label}' is outside the int64 range"):
        load_dataset(path, label_column=-1)


def test_load_dataset_reads_integer_labels_exactly(tmp_path):
    # labels past 2**53 once went through float and merged
    path = _write(tmp_path, "1,2,9007199254740993\n3,4,9007199254740992\n")
    assert load_dataset(path, label_column=-1).true_labels.tolist() == [2**53 + 1, 2**53]
    path = _write(tmp_path, f"1,2,{2**63 - 1}\n3,4,{-(2**63)}\n")
    assert load_dataset(path, label_column=-1).true_labels.tolist() == [2**63 - 1, -(2**63)]


def test_load_dataset_label_column_out_of_range(tmp_path):
    path = _write(tmp_path, "1,2\n3,4\n")
    with pytest.raises(ValueError, match="out of range"):
        load_dataset(path, label_column=5)


def test_load_dataset_defaults_name_to_stem(tmp_path):
    path = _write(tmp_path, "1,2\n")
    assert load_dataset(path).name == "data"
