import numpy as np
import pytest

from rnncluster import plot_clustering, render_svg
from rnncluster.clustering import Clustering


def _points(n=12, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 2))


def test_same_input_gives_byte_identical_svg(tmp_path):
    points = _points()
    clustering = Clustering(labels=np.array([0] * 6 + [1] * 5 + [-1]))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    plot_clustering(points, clustering, a)
    plot_clustering(points, clustering, b)
    assert a.read_bytes() == b.read_bytes()


def test_one_color_per_cluster():
    points = _points()
    svg = render_svg(points, Clustering(labels=np.array([0] * 6 + [1] * 6)))
    assert svg.count('fill="#1f77b4"') == 6 + 1  # points plus legend swatch
    assert svg.count('fill="#ff7f0e"') == 6 + 1
    assert ">1</text>" in svg and ">2</text>" in svg  # clusters labelled from 1


def test_noise_drawn_as_red_crosses_labelled_zero():
    points = _points()
    svg = render_svg(points, Clustering(labels=np.array([0] * 9 + [-1] * 3)))
    assert svg.count('stroke="#d62728"') == 3 + 1  # crosses plus legend mark
    assert "0 (noise)" in svg


def test_non_planar_data_rejected():
    with pytest.raises(ValueError, match="2-D"):
        render_svg(np.zeros((5, 3)), Clustering(labels=np.zeros(5, dtype=int)))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="entities"):
        render_svg(_points(8), Clustering(labels=np.zeros(5, dtype=int)))


def test_non_finite_points_rejected_by_row_and_column():
    # a NaN coordinate was once written into the SVG as "nan"
    with pytest.raises(ValueError, match=r"nan at row 1, column 1"):
        render_svg([[0, 0], [1, np.nan], [2, 1]], Clustering(labels=np.zeros(3, dtype=int)))
    with pytest.raises(ValueError, match=r"inf at row 0, column 0"):
        render_svg([[np.inf, 0], [1, 1]], Clustering(labels=np.zeros(2, dtype=int)))
