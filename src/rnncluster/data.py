"""Data model shared by every clustering algorithm in the package.

Entities are rows of an (n, m) float64 matrix (`as_feature_matrix`). A
labelling is one int64 id per entity, and every labelling that enters the
package goes through `as_labels`. All inter-entity dissimilarities used by
the clustering algorithms are *squared* Euclidean distances; squaring
preserves neighbour rankings, so only radius-type thresholds change scale,
and the sweep grids are expressed in the same squared units.

One blocked kernel, `squared_distance_blocks`, serves every scan over
many rows in O(block * n) memory. It evaluates the same expression as
`row_squared_distances`, so a pair's distance is bit-identical on every
path, which keeps index tie-breaking exact. That expression adds the
squared feature differences feature by feature over whole arrays, in the
fixed two-lane order of numpy's einsum, so every distance keeps the
einsum's floats, which the benchmark's reference digests pin, without a
per-pair inner-product call and independent of numpy's SIMD dispatch.

`compact_blocks` orders the rows into spatially compact blocks and gives
every row a lower bound on its distance to any row of a block (the
single-axis bound of kd-trees, applied to a block's bounding box). The
kNN build and the epsilon-lists evaluate the kernel only on the rows a
bound cannot rule out; the bound never exceeds the kernel's distance, so
the pruning is exact.

Both scans read the data feature-major, so each feature step of the
kernel and each bound's max over the axes runs along contiguous memory;
these are elementwise steps in the same order and exact maxima, so the
layout changes no float.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DataSet",
    "StandardizationReport",
    "as_feature_matrix",
    "as_labels",
    "compact_blocks",
    "load_dataset",
    "pairwise_distance_extrema",
    "range_standardize",
    "row_squared_distances",
    "squared_distance_blocks",
]

# bytes of one block of `squared_distance_blocks` and of DBCV's separation
# pass, counted as m floats per pair, and the cap on DBCV's pair table
# (`validation._pair_table`)
_BLOCK_BYTES = 4 * 2**20
# most rows in one block of `compact_blocks`, and in one chunk of DBCV's
# within-cluster rows and of its separation pass (`validation`)
_BLOCK_ROWS = 128


def as_feature_matrix(values) -> np.ndarray:
    """Validate and return a feature matrix as a float64 (n, m) array.

    Requires n >= 1, m >= 1 and every value finite. Always returns a copy,
    so callers may treat the result as immutable.
    """
    matrix = np.array(values, dtype=np.float64, copy=True)
    if matrix.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {matrix.shape}")
    n, m = matrix.shape
    if n < 1 or m < 1:
        raise ValueError(f"feature matrix must be at least 1x1, got {n}x{m}")
    if not np.all(np.isfinite(matrix)):
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        raise ValueError(
            f"feature matrix contains NaN or infinite values "
            f"({matrix[i, j]} at row {i}, column {j})"
        )
    return matrix


def as_labels(values) -> np.ndarray:
    """A `Clustering`'s labels as they are, or `values` as a nonempty 1-D int64 array."""
    if not isinstance(values, np.ndarray):
        from .clustering import Clustering  # imported here: clustering imports this module
        if isinstance(values, Clustering):
            return values.labels
    labels = np.asarray(values)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError(f"labels must be a nonempty 1-D array, got shape {labels.shape}")
    if labels.dtype.kind not in "biuf":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.dtype.kind in "uf":  # only these can hold a non-integer or exceed int64
        whole = np.isfinite(labels) & (labels == np.trunc(labels))
        with np.errstate(over="ignore"):  # 2**63 is inf in float16, and compares alike
            bad = ~whole | (labels < -(2**63)) | (labels >= 2**63)
        if bad.any():
            i = int(np.argmax(bad))
            rule = "within int64" if whole[i] else "integers"
            raise ValueError(f"labels must be {rule}, got {labels[i]} at position {i}")
    return labels.astype(np.int64, copy=False)  # int64 input is neither copied nor scanned


@dataclass
class DataSet:
    """A feature matrix with an optional ground-truth labelling.

    Attributes
    ----------
    matrix : (n, m) float64 array of entities.
    true_labels : optional labelling of the n entities by class id (`as_labels`).
    name : text identifier used in reports.
    """

    matrix: np.ndarray
    true_labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        self.matrix = as_feature_matrix(self.matrix)
        if self.true_labels is not None:
            labels = self.true_labels = as_labels(self.true_labels)
            if labels.size != self.n:
                raise ValueError(f"true_labels has {labels.size} entries, expected {self.n}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class StandardizationReport:
    """Per-feature statistics (in original units) of a range standardization."""

    mean: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    feature_range: np.ndarray = field(init=False)

    def __post_init__(self):
        rng = self.maximum - self.minimum
        if np.any(rng < 0):
            raise ValueError("feature range must be nonnegative")
        object.__setattr__(self, "feature_range", rng)


def row_squared_distances(rows: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from `point` to each row of `rows`.

    The package's one distance expression: `squared_distance_blocks`
    broadcasts it over a block of points, so equal pairs always produce
    bit-identical floats and index tie-breaking is exact.

    The squares of the m feature differences are added one feature at a
    time over whole arrays, in two lanes (even and odd features). While 8
    or more features remain, lane l adds features pos+6+l, pos+4+l,
    pos+2+l and pos+l, in that order; the remaining features go to their
    lane in pairs, and the result is lane 0 + lane 1. This is the order of
    numpy's two-lane einsum reduction, which the package used before, so
    the floats are the einsum's; written out, they no longer depend on
    which SIMD loop numpy dispatches to. A distance that overflows is inf,
    which every scan ranks like any other value, so the kernel raises no
    overflow warning.
    """
    rows, point = np.asarray(rows), np.asarray(point)
    with np.errstate(over="ignore"):
        lane0, lane1 = (_lane_sum(rows, point, features) for features in _lanes(rows.shape[-1]))
        lane0 += lane1  # lane 0 is a result of this call, never an input
        return lane0


@functools.lru_cache(maxsize=64)
def _lanes(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The features of each lane of `row_squared_distances`, in the order they are added."""
    body = m - m % 8
    return tuple(
        tuple(
            [pos + offset + lane for pos in range(0, body, 8) for offset in (6, 4, 2, 0)]
            + list(range(body + lane, m, 2))
        )
        for lane in (0, 1)
    )


def _lane_sum(rows: np.ndarray, point: np.ndarray, features: tuple[int, ...]):
    """Sum of the squared differences of `features`, added left to right."""
    total = None
    for j in features:
        square = rows[..., j] - point[..., j]
        square *= square
        if total is None:
            total = square
        else:
            total += square
    # an empty lane adds +0.0, which leaves every square unchanged
    return 0.0 if total is None else total


def squared_distance_blocks(queries: np.ndarray, refs: np.ndarray):
    """Yield (start, block): squared distances from query rows to every ref row.

    block[r, j] is `row_squared_distances(refs, queries[start + r])[j]`.
    Blocks cover the queries in order, each as many rows as fit in a fixed
    byte budget (at least one), so memory is O(block * len(refs)). The
    kernel reads one feature-major copy of `refs`; every block is C-ordered.
    """
    q = np.asarray(queries, dtype=np.float64)
    r = np.asfortranarray(refs, dtype=np.float64)
    rows = max(1, _BLOCK_BYTES // max(1, 8 * r.size))
    for start in range(0, q.shape[0], rows):
        yield start, row_squared_distances(r, q[start : start + rows, None, :])


def compact_blocks(data: np.ndarray):
    """Yield (ids, bound): the rows in spatially compact blocks, with a lower bound.

    The rows are halved at the median of their widest axis, and each half
    again, until a part holds at most `_BLOCK_ROWS` rows (the leaves of a
    kd-tree; a 1-D input is just cut in sorted order). Each leaf is a
    block: `ids` holds its row ids, and every row is in exactly one block.

    bound[j] is max over axes of fl(gap)**2, where gap = max(lo - x[j],
    x[j] - hi, 0) against the block's bounding box [lo, hi]. Subtraction
    and squaring round monotonically and the kernel's sum of squares is at
    least each of its terms, so bound[j] never exceeds the kernel's
    distance from row j to any row of the block: skipping the rows whose
    bound exceeds a threshold loses no row at or below it. Rows must be
    finite.
    """
    # feature-major: one row per axis, so a max over the axes runs along whole rows
    xt = np.asarray(data, dtype=np.float64).T.copy()
    parts = [np.arange(xt.shape[1])]
    while parts:
        ids = parts.pop()
        box = xt[:, ids]
        lo, hi = box.min(axis=1, keepdims=True), box.max(axis=1, keepdims=True)
        # a width, gap or bound may overflow to inf like the kernel's
        # distances; splits and bounds that read inf stay exact, so the
        # warning is noise
        with np.errstate(over="ignore"):
            if ids.size > _BLOCK_ROWS:
                half = ids.size // 2
                split = ids[np.argpartition(box[np.argmax(hi - lo)], half)]
                parts += [split[half:], split[:half]]
                continue
            # in place: a fresh n-long temporary per step would pay its own page faults
            gap = lo - xt
            np.maximum(gap, xt - hi, out=gap)
            np.maximum(gap, 0.0, out=gap)
            bound = np.square(gap, out=gap).max(axis=0)
        yield ids, bound


def range_standardize(matrix: np.ndarray) -> tuple[np.ndarray, StandardizationReport]:
    """Standardize each feature by its range: (y - mean) / (max - min).

    Constant features (range 0) map to all-zeros: they carry no cluster
    information, and erroring would make real datasets unloadable. A mean
    or range that overflows float64 raises. The input is left unmodified.
    """
    x = as_feature_matrix(matrix)
    minimum = x.min(axis=0)
    maximum = x.max(axis=0)
    with np.errstate(over="ignore"):
        mean = x.mean(axis=0)
        rng = maximum - minimum
    overflow = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(rng)))
    if overflow.size:
        raise ValueError(f"feature column {overflow[0]}: mean or range overflows float64")
    safe = np.where(rng > 0, rng, 1.0)
    standardized = (x - mean) / safe
    standardized[:, rng == 0] = 0.0
    return standardized, StandardizationReport(mean=mean, minimum=minimum, maximum=maximum)


def pairwise_distance_extrema(matrix: np.ndarray) -> tuple[float, float]:
    """(min, max) squared Euclidean distance over all pairs i != j.

    The minimum is 0 when the data contains duplicate rows. Requires
    n >= 2. Used to bound the epsilon sweep grid.
    """
    x = as_feature_matrix(matrix)
    if x.shape[0] < 2:
        raise ValueError("pairwise extrema need at least 2 entities")
    lo, hi = np.inf, -np.inf
    for start, block in squared_distance_blocks(x, x):
        hi = max(hi, float(block.max()))  # the zero self-distances cannot raise it
        np.fill_diagonal(block[:, start:], np.inf)
        lo = min(lo, float(block.min()))
    return lo, hi


def _parse_float(token: str, row_number: int, column: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(
            f"row {row_number}: non-numeric feature value {token!r} in column {column}"
        ) from None
    if not np.isfinite(value):
        raise ValueError(f"row {row_number}: non-finite feature value {token!r} in column {column}")
    return value


def _parse_label(token: str, row_number: int) -> int:
    try:
        value = int(token)  # exact, also past 2**53 where floats skip integers
    except ValueError:
        try:
            number = float(token)
        except ValueError:
            raise ValueError(f"row {row_number}: non-numeric label {token!r}") from None
        if not np.isfinite(number) or number != int(number):
            raise ValueError(f"row {row_number}: label {token!r} is not an integer")
        value = int(number)
    if not -(2**63) <= value < 2**63:  # labels are stored as int64
        raise ValueError(f"row {row_number}: label {token!r} is outside the int64 range")
    return value


def load_dataset(
    path,
    has_header: bool = False,
    label_column: int | None = None,
    name: str | None = None,
) -> DataSet:
    """Load a CSV of entities: one row per entity, comma-separated real features.

    Parameters
    ----------
    path : CSV file; UTF-8, '.' decimal point.
    has_header : skip the first row.
    label_column : optional column index holding integer class ids
        (negative indices count from the end, -1 = last column).
    name : dataset identifier; defaults to the file stem.

    Raises
    ------
    ValueError
        On malformed rows, non-numeric features, or inconsistent column
        counts, naming the offending row number.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    width: int | None = None
    label_idx: int | None = None
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        for row_number, record in enumerate(reader, start=1):
            if row_number == 1 and has_header:
                continue
            if not record or (len(record) == 1 and not record[0].strip()):
                continue  # blank line
            if width is None:
                width = len(record)
                if label_column is not None:
                    label_idx = label_column if label_column >= 0 else width + label_column
                    if not 0 <= label_idx < width:
                        raise ValueError(
                            f"label column {label_column} out of range for {width} columns"
                        )
                    if width < 2:
                        raise ValueError("need at least one feature column besides the label")
            elif len(record) != width:
                raise ValueError(
                    f"row {row_number}: expected {width} columns, found {len(record)}"
                )
            features = []
            for col, token in enumerate(record):
                if col == label_idx:
                    labels.append(_parse_label(token.strip(), row_number))
                else:
                    features.append(_parse_float(token.strip(), row_number, col))
            rows.append(features)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return DataSet(rows, labels if label_column is not None else None,
                   name if name is not None else _stem(path))


def _stem(path) -> str:
    import os

    return os.path.splitext(os.path.basename(str(path)))[0]
