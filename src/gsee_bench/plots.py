"""Dependency-free SVG rendering of solvability latent maps.

Probabilities color a red-to-blue gradient (red = likely unsolved, blue =
likely solved).  A 2-D grid is one embedded PNG image, one pixel per grid
point, built with the standard library; a 3-D+ sample draws as circles.
The ramp colours SAMPLE_BLOCK points at a time: raster rows of the grid, or
samples of the scatter.
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
    span = bounds[:, 1] - bounds[:, 0]
    span = np.where(span == 0.0, 1.0, span)

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

    probs = np.asarray(report.probabilities, dtype=float)
    if report.grid_resolution:
        # Grid point (ix, iy) sits at index iy * r + ix; PNG rows run top down,
        # so the rows flip to put latent axis 2 up.  Each pixel spans one grid
        # cell centred on its point.
        r = report.grid_resolution
        cw = (WIDTH - 2 * MARGIN) / max(r - 1, 1)
        ch = (HEIGHT - 2 * MARGIN) / max(r - 1, 1)
        x0, y1 = to_px(bounds[:, 0])
        x1, y0 = to_px(bounds[:, 1])
        grid = probs.reshape(r, r)[::-1]
        rgb = np.empty((r, r, 3), dtype=np.uint8)
        rows = max(1, SAMPLE_BLOCK // r)
        for top in range(0, r, rows):
            rgb[top:top + rows] = _prob_rgb(grid[top:top + rows])
        png = _png(rgb)
        href = "data:image/png;base64," + binascii.b2a_base64(png, newline=False).decode("ascii")
        parts.append(
            f'<image x="{x0 - cw / 2:.2f}" y="{y0 - ch / 2:.2f}" '
            f'width="{x1 - x0 + cw:.2f}" height="{y1 - y0 + ch:.2f}" '
            f'preserveAspectRatio="none" style="image-rendering:pixelated" href="{href}"/>'
        )
    else:
        pts = np.asarray(report.latent_points, dtype=float)[:, :2]
        for start in range(0, len(pts), SAMPLE_BLOCK):
            block = slice(start, start + SAMPLE_BLOCK)
            for pt, (r, g, b) in zip(pts[block], _prob_rgb(probs[block]).tolist()):
                x, y = to_px(pt)
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="rgb({r},{g},{b})"/>')

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
