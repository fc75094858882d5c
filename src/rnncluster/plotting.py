"""Deterministic SVG scatter plots of 2-D clusterings.

The SVG is assembled as a plain string with fixed number formatting, so
identical inputs produce byte-identical files. Clusters get one colour
each (palette cycles past 20); noise entities are drawn as red crosses and
labelled 0 in the legend, with clusters numbered from 1.
"""

from __future__ import annotations

import numpy as np

from .clustering import Clustering
from .data import as_feature_matrix

__all__ = ["plot_clustering", "render_svg"]

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
    "#aec7e8", "#ffbb78", "#98df8a", "#ff9896", "#c5b0d5",
    "#c49c94", "#f7b6d2", "#c7c7c7", "#dbdb8d", "#9edae5",
]
_NOISE_COLOR = "#d62728"
_SIZE = 640  # width and height of the square canvas, in pixels


def _f(value: float) -> str:
    return f"{value:.3f}"


def render_svg(points: np.ndarray, clustering: Clustering) -> str:
    """Render a clustering of 2-D points as an SVG document string.

    The points are read by `data.as_feature_matrix`, so a NaN or infinite
    coordinate is refused with a ValueError that names its row and column.
    """
    x = as_feature_matrix(points)
    if x.shape[1] != 2:
        raise ValueError(f"plotting needs 2-D data, got shape {x.shape}")
    labels = clustering.labels
    if labels.shape[0] != x.shape[0]:
        raise ValueError("clustering and points disagree on the number of entities")

    margin = 40.0
    span = x.max(axis=0) - x.min(axis=0)
    span[span == 0] = 1.0
    scale = (_SIZE - 2 * margin) / span
    origin = x.min(axis=0)

    def to_px(p):
        px = margin + (p[0] - origin[0]) * scale[0]
        py = _SIZE - margin - (p[1] - origin[1]) * scale[1]  # flip y for SVG
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    for i in range(x.shape[0]):
        px, py = to_px(x[i])
        label = int(labels[i])
        if label < 0:
            parts.append(
                f'<path d="M {_f(px - 3)} {_f(py - 3)} L {_f(px + 3)} {_f(py + 3)} '
                f'M {_f(px - 3)} {_f(py + 3)} L {_f(px + 3)} {_f(py - 3)}" '
                f'stroke="{_NOISE_COLOR}" stroke-width="1.2"/>'
            )
        else:
            color = _PALETTE[label % len(_PALETTE)]
            parts.append(f'<circle cx="{_f(px)}" cy="{_f(py)}" r="2.5" fill="{color}"/>')

    # legend: noise is class 0, clusters are numbered from 1
    y = margin / 2
    if bool((labels < 0).any()):
        parts.append(
            f'<path d="M 10 {_f(y - 3)} L 16 {_f(y + 3)} M 10 {_f(y + 3)} L 16 {_f(y - 3)}" '
            f'stroke="{_NOISE_COLOR}" stroke-width="1.2"/>'
            f'<text x="22" y="{_f(y + 4)}" font-size="12" font-family="sans-serif">0 (noise)</text>'
        )
        y += 16
    for cluster_id in range(clustering.n_clusters):
        color = _PALETTE[cluster_id % len(_PALETTE)]
        parts.append(
            f'<circle cx="13" cy="{_f(y)}" r="4" fill="{color}"/>'
            f'<text x="22" y="{_f(y + 4)}" font-size="12" font-family="sans-serif">{cluster_id + 1}</text>'
        )
        y += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_clustering(points: np.ndarray, clustering: Clustering, path) -> None:
    """Write the scatter plot of a 2-D clustering to `path` as SVG."""
    svg = render_svg(points, clustering)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg)
