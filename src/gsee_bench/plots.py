"""Dependency-free SVG rendering of solvability latent maps.

Probabilities color a red-to-blue gradient (red = likely unsolved, blue =
likely solved).  Every map is one embedded PNG image over latent axes 1-2,
built with the standard library.  A 2-D grid gives one pixel per grid point;
a 3-D+ cloud is projected onto axes 1-2, about four samples to a pixel, and a
pixel shows the mean probability of its samples, or white if it has none.
Samples are binned, and pixels coloured, SAMPLE_BLOCK at a time, so neither
the document nor the working memory grows with the cloud beyond the raster.
Labeled training points draw as filled circles and unlabeled ones as stars,
as vector elements over the image.  The output is deterministic text, so
reruns are byte-identical.
"""

from __future__ import annotations

import binascii
import math
import re
import struct
import zlib

import numpy as np

from .ml.solvability import SAMPLE_BLOCK, SolvabilityReport

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


def _star_path(cx: float, cy: float, r: float) -> str:
    return " ".join(
        f"{cx + r * f * cos:.2f},{cy + r * f * sin:.2f}" for f, cos, sin in _STAR
    )


def render_latent_map(report: SolvabilityReport, title: str) -> str:
    """Render the sampled latent map and training markers as an SVG document.

    The title is XML-escaped, and in the leading comment each "--" is split,
    since a comment may not contain one.
    """
    bounds = np.asarray(report.bounds, dtype=float)
    span = np.where(bounds[:, 1] > bounds[:, 0], bounds[:, 1] - bounds[:, 0], 1.0)

    def to_px(pt) -> tuple[float, float]:
        x = MARGIN + (pt[0] - bounds[0, 0]) / span[0] * (WIDTH - 2 * MARGIN)
        y = HEIGHT - MARGIN - (pt[1] - bounds[1, 0]) / span[1] * (HEIGHT - 2 * MARGIN)
        return x, y

    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<!-- {re.sub('-(?=-)', '- ', title)} -->",
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
    for start in range(0, len(probs), SAMPLE_BLOCK):
        block = slice(start, start + SAMPLE_BLOCK)
        ix, iy = np.rint((pts[block] - bounds[:2, 0]) / span[:2] * (nx - 1, ny - 1)).T
        pixel = (iy * nx + ix).astype(np.intp)
        np.add.at(sums, pixel, probs[block])
        np.add.at(counts, pixel, 1.0)
    means = np.divide(sums, counts, out=sums, where=counts > 0).reshape(ny, nx)[::-1]
    rgb = np.empty((ny, nx, 3), dtype=np.uint8)
    rows = max(1, SAMPLE_BLOCK // nx)
    for top in range(0, ny, rows):
        rgb[top:top + rows] = _prob_rgb(means[top:top + rows])
    rgb[counts.reshape(ny, nx)[::-1] == 0] = 255
    del sums, counts, means  # so the r x r sums do not add to the PNG's peak
    cw, ch = (WIDTH - 2 * MARGIN) / (r - 1), (HEIGHT - 2 * MARGIN) / (r - 1)
    x0, y1 = to_px(bounds[:, 0])
    x1, y0 = to_px(bounds[:, 1])
    href = "data:image/png;base64," + binascii.b2a_base64(_png(rgb), newline=False).decode()
    parts.append(
        f'<image x="{x0 - cw / 2:.2f}" y="{y0 - ch / 2:.2f}" '
        f'width="{x1 - x0 + cw:.2f}" height="{y1 - y0 + ch:.2f}" '
        f'preserveAspectRatio="none" style="image-rendering:pixelated" href="{href}"/>'
    )

    for row, label in zip(report.training_embedding, report.training_labels):
        x, y = to_px(np.asarray(row, dtype=float)[:2])
        if label is None:
            parts.append(
                f'<polygon points="{_star_path(x, y, 7.0)}" fill="gold" '
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
