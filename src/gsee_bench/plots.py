"""Dependency-free SVG rendering of solvability latent maps.

Probabilities color a red-to-blue gradient (red = likely unsolved, blue =
likely solved).  Every map is one embedded PNG image over latent axes 1-2,
built with the standard library.  A 2-D grid gives one pixel per grid point;
a 3-D+ cloud is projected onto axes 1-2, about four samples to a pixel, and a
pixel shows the mean probability of its samples, or white if it has none.
Samples are binned, and pixels coloured, a block of `sample_blocks` at a
time, so neither the document nor the working memory grows with the cloud
beyond the raster.  Labeled training points draw as filled circles and
unlabeled ones as stars, as vector elements over the image.  The output is
deterministic text, so reruns are byte-identical.
"""

from __future__ import annotations

import binascii
import math
import re
import struct
import zlib

import numpy as np

from .ml.solvability import SolvabilityReport, sample_blocks

_RED = (178, 24, 43)
_WHITE = (247, 247, 247)
_BLUE = (33, 102, 172)

WIDTH = 640
HEIGHT = 560
MARGIN = 60


def _prob_rgb(probs: np.ndarray) -> np.ndarray:
    """The red-white-blue ramp as uint8 (..., 3): a channel blends linearly
    between its end colours and rounds half to even."""
    p = np.clip(probs, 0.0, 1.0)[..., None]
    low = p < 0.5
    t = np.where(low, p / 0.5, (p - 0.5) / 0.5)
    lo = np.where(low, _RED, _WHITE)
    hi = np.where(low, _WHITE, _BLUE)
    return np.rint(lo + (hi - lo) * t).astype(np.uint8)


def _png(rgb: np.ndarray) -> bytes:
    """An 8-bit truecolor PNG of an (h, w, 3) uint8 array, no filtering."""
    h, w, _ = rgb.shape
    raw = np.zeros((h, 1 + 3 * w), dtype=np.uint8)  # filter byte 0 opens each row
    raw[:, 1:] = rgb.reshape(h, 3 * w)

    def chunk(tag: bytes, data: bytes) -> bytes:
        return struct.pack(">I", len(data)) + tag + data + struct.pack(">I", zlib.crc32(tag + data))

    header = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header)
            + chunk(b"IDAT", zlib.compress(raw.tobytes())) + chunk(b"IEND", b""))


# The ten vertices of a five-pointed star from the top, clockwise in SVG's
# y-down frame: (radius factor, cos, sin) of each, outer and inner in turn.
_STAR = tuple(
    (1.0 if i % 2 == 0 else 0.45,
     math.cos(-math.pi / 2 + i * math.pi / 5), math.sin(-math.pi / 2 + i * math.pi / 5))
    for i in range(10)
)
_STAR_POINTS = " ".join(["{:.2f},{:.2f}"] * len(_STAR))


def _star_paths(centres: np.ndarray, r: float) -> list[str]:
    """The `points` text of a star of radius r about each (x, y) centre: each
    vertex is cx + r * f * cos, cy + r * f * sin."""
    offsets = np.array([(r * f * cos, r * f * sin) for f, cos, sin in _STAR])
    vertices = centres[:, None, :] + offsets  # (m, 10, 2)
    return [_STAR_POINTS.format(*row) for row in vertices.reshape(len(centres), 2 * len(_STAR)).tolist()]


def _to_px(points: np.ndarray, bounds: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Pixel (x, y) of each latent point (m, >= 2) over axes 1-2, axis 2 up."""
    t = (points[:, :2] - bounds[:2, 0]) / span[:2] * (WIDTH - 2 * MARGIN, HEIGHT - 2 * MARGIN)
    return np.column_stack([MARGIN + t[:, 0], (HEIGHT - MARGIN) - t[:, 1]])


def render_latent_map(report: SolvabilityReport, title: str, stamp: str) -> str:
    """Render the sampled latent map and training markers as an SVG document.

    The leading comment is "<!-- {stamp} | {title} -->", with each "--" in
    it split, since a comment may not contain one; the title is XML-escaped.
    """
    bounds = np.asarray(report.bounds, dtype=float)
    span = np.where(bounds[:, 1] > bounds[:, 0], bounds[:, 1] - bounds[:, 0], 1.0)

    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<!-- {re.sub('-(?=-)', '- ', f'{stamp} | {title}')} -->",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]

    # The raster is r x r pixels centred on the lattice of r points per axis:
    # the grid's own r, or about four samples a pixel for a random cloud.  An
    # axis of zero span is one pixel wide.  A pixel is the ramp colour of its
    # samples' mean probability, page white if it has none; a grid puts one
    # sample on each pixel, and p / 1 is p.  PNG rows run top down, so the rows
    # flip to put latent axis 2 up.
    probs, pts = report.probabilities, report.latent_points[:, :2]
    r = report.grid_resolution or max(2, math.ceil(math.sqrt(len(probs) / 4)))
    nx, ny = np.where(bounds[:2, 1] > bounds[:2, 0], r, 1)
    sums, counts = np.zeros((2, ny * nx))
    for block in sample_blocks(len(probs)):
        ix, iy = np.rint((pts[block] - bounds[:2, 0]) / span[:2] * (nx - 1, ny - 1)).T
        pixel = (iy * nx + ix).astype(np.intp)
        np.add.at(sums, pixel, probs[block])
        np.add.at(counts, pixel, 1.0)
    means = np.divide(sums, counts, out=sums, where=counts > 0)
    rgb = np.empty((ny * nx, 3), dtype=np.uint8)
    for block in sample_blocks(len(means)):
        rgb[block] = _prob_rgb(means[block])
    rgb[counts == 0] = 255
    del sums, counts, means  # so the r x r sums do not add to the PNG's peak
    rgb = rgb.reshape(ny, nx, 3)[::-1]
    cw, ch = (WIDTH - 2 * MARGIN) / (r - 1), (HEIGHT - 2 * MARGIN) / (r - 1)
    (x0, y1), (x1, y0) = _to_px(bounds.T, bounds, span).tolist()
    href = "data:image/png;base64," + binascii.b2a_base64(_png(rgb), newline=False).decode()
    parts.append(
        f'<image x="{x0 - cw / 2:.2f}" y="{y0 - ch / 2:.2f}" '
        f'width="{x1 - x0 + cw:.2f}" height="{y1 - y0 + ch:.2f}" '
        f'preserveAspectRatio="none" style="image-rendering:pixelated" href="{href}"/>'
    )

    # Unlabeled tasks draw as stars, labeled ones as circles, in table order.
    labels = report.training_labels
    centres = _to_px(np.asarray(report.training_embedding, dtype=float), bounds, span)
    stars = iter(_star_paths(centres[[label is None for label in labels]], 7.0))
    for (x, y), label in zip(centres.tolist(), labels):
        if label is None:
            parts.append(
                f'<polygon points="{next(stars)}" fill="gold" '
                f'stroke="black" stroke-width="0.8"/>'
            )
        else:
            fill = "rgb(5,48,97)" if label else "rgb(103,0,31)"
            parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4.5" fill="{fill}" '
                f'stroke="white" stroke-width="1"/>'
            )

    axis_y = HEIGHT - MARGIN
    parts.extend(
        [
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
            f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>',
            f'<text x="{WIDTH / 2:.0f}" y="{axis_y + 36}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">latent axis 1</text>',
            f'<text x="20" y="{HEIGHT / 2:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 20 {HEIGHT / 2:.0f})">latent axis 2</text>',
            f'<text x="{MARGIN}" y="{axis_y + 18}" font-family="sans-serif" '
            f'font-size="11">{bounds[0, 0]:.3g}</text>',
            f'<text x="{WIDTH - MARGIN}" y="{axis_y + 18}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{bounds[0, 1]:.3g}</text>',
            "</svg>",
        ]
    )
    return "\n".join(parts) + "\n"
