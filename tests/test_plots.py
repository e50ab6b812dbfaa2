"""The latent-map SVG: one embedded PNG for every map, vector task markers."""

import base64
import csv
import dataclasses
import json
import math
import re
import struct
import xml.etree.ElementTree as ET
import zlib
from pathlib import Path

import numpy as np
import pytest

from gsee_bench.cli import main
from gsee_bench.ml import SolvabilityConfig, estimate_solvability
from gsee_bench.ml.solvability import SAMPLE_BLOCK, grid_samples, random_samples
from gsee_bench.plots import (
    _BLUE, _RED, _WHITE, HEIGHT, MARGIN, WIDTH, _prob_rgb, _star_path, render_latent_map,
)

DEMO = Path(__file__).parent.parent / "demo"
SOLVER = "size-limited"
SVG = "{http://www.w3.org/2000/svg}"


def _prob_color(p: float) -> str:
    """Scalar oracle of the ramp: Python floats and round()."""
    p = min(max(p, 0.0), 1.0)
    if p < 0.5:
        lo, hi, t = _RED, _WHITE, p / 0.5
    else:
        lo, hi, t = _WHITE, _BLUE, (p - 0.5) / 0.5
    rgb = tuple(round(a + (b - a) * t) for a, b in zip(lo, hi))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def _star_oracle(cx: float, cy: float, r: float) -> str:
    """Per-vertex oracle of the star: each vertex's cos and sin computed anew."""
    points = []
    for i in range(10):
        radius = r if i % 2 == 0 else r * 0.45
        angle = -math.pi / 2 + i * math.pi / 5
        points.append(f"{cx + radius * math.cos(angle):.2f},{cy + radius * math.sin(angle):.2f}")
    return " ".join(points)


def run_solvability(out: Path, *flags: str, solutions: Path = DEMO / "solutions") -> dict:
    code = main(
        [
            "--catalog", str(DEMO / "catalog"), "--out", str(out), "--seed", "3", *flags,
            "solvability", "--solutions", str(solutions), "--solver", SOLVER,
        ]
    )
    assert code == 0
    return json.loads((out / f"solvability_{SOLVER}.json").read_text())


def read_table(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# gsee-bench")
    return list(csv.DictReader(lines[1:]))


def rgb(color: str) -> list[int]:
    return [int(v) for v in re.fullmatch(r"rgb\((\d+),(\d+),(\d+)\)", color).groups()]


def decode_png(data: bytes) -> np.ndarray:
    """(h, w, 3) pixels of an 8-bit truecolor PNG whose rows all use filter 0."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(tag + body)
        chunks.append((tag, body))
        pos += 12 + length
    assert [tag for tag, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    width, height, depth, color_type, compression, filtering, interlace = struct.unpack(
        ">IIBBBBB", chunks[0][1]
    )
    assert (depth, color_type, compression, filtering, interlace) == (8, 2, 0, 0, 0)
    raw = np.frombuffer(zlib.decompress(chunks[1][1]), dtype=np.uint8)
    raw = raw.reshape(height, 1 + 3 * width)
    assert not raw[:, 0].any()  # filter type 0 on every row
    return raw[:, 1:].reshape(height, width, 3)


def map_pixels(root: ET.Element) -> np.ndarray:
    """The pixels of a map's one embedded PNG."""
    (image,) = root.findall(f"{SVG}image")
    return decode_png(base64.b64decode(image.get("href").split(",", 1)[1]))


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    report = run_solvability(out, "--samples", "900")
    root = ET.parse(out / f"latent_map_{SOLVER}.svg").getroot()
    return out, report, root


def test_grid_is_one_image_and_no_rect_cells(grid_run):
    _, _, root = grid_run
    assert len(root.findall(f"{SVG}image")) == 1
    # Only the white background and the unfilled plot frame remain as rects.
    assert [r.get("fill") for r in root.findall(f"{SVG}rect")] == ["white", "none"]


def test_image_pixels_are_the_cloud_colors_with_axis_2_up(grid_run):
    out, report, root = grid_run
    r = report["grid_resolution"]
    assert r == 30
    image = root.find(f"{SVG}image")
    scheme, payload = image.get("href").split(",", 1)
    assert scheme == "data:image/png;base64"
    pixels = decode_png(base64.b64decode(payload))
    assert pixels.shape == (r, r, 3)

    cloud = read_table(out / report["latent_points_file"])
    assert len(cloud) == r * r
    latent = np.array([[float(row["latent_0"]), float(row["latent_1"])] for row in cloud])
    # Grid order: latent axis 1 varies fastest, axis 2 ascends row by row.
    assert np.all(np.diff(latent[:r, 0]) > 0) and np.all(np.diff(latent[::r, 1]) > 0)
    want = np.array([rgb(_prob_color(float(row["probability"]))) for row in cloud])
    assert np.array_equal(pixels, want.reshape(r, r, 3)[::-1])


def test_image_covers_the_cell_centred_extent(grid_run):
    _, report, root = grid_run
    r = report["grid_resolution"]
    cw = (WIDTH - 2 * MARGIN) / (r - 1)
    ch = (HEIGHT - 2 * MARGIN) / (r - 1)
    image = root.find(f"{SVG}image")
    box = [float(image.get(k)) for k in ("x", "y", "width", "height")]
    assert box == pytest.approx([MARGIN - cw / 2, MARGIN - ch / 2,
                                 WIDTH - 2 * MARGIN + cw, HEIGHT - 2 * MARGIN + ch], abs=0.01)
    assert image.get("preserveAspectRatio") == "none"
    assert "pixelated" in image.get("style")


def test_task_markers_stay_vector(grid_run):
    out, _, root = grid_run
    training = read_table(out / f"training_points_{SOLVER}.csv")
    unlabeled = sum(row["solved"] == "" for row in training)
    assert unlabeled == 1
    assert len(root.findall(f"{SVG}polygon")) == unlabeled  # guidestar stars
    assert len(root.findall(f"{SVG}circle")) == len(training) - unlabeled
    # The markers draw over the image.
    tags = [e.tag for e in root]
    first_marker = min(tags.index(f"{SVG}circle"), tags.index(f"{SVG}polygon"))
    assert tags.index(f"{SVG}image") < first_marker


def test_scatter_for_three_latent_axes(tmp_path):
    # A 3-D cloud is one image too, over latent axes 1-2 with about four
    # samples a pixel; only the labeled training points draw as circles.
    report = run_solvability(tmp_path, "--samples", "200", "--latent-dim", "3")
    assert report["grid_resolution"] is None
    root = ET.parse(tmp_path / f"latent_map_{SOLVER}.svg").getroot()
    assert map_pixels(root).shape == (8, 8, 3)  # ceil(sqrt(200 / 4)) pixels a side
    training = read_table(tmp_path / f"training_points_{SOLVER}.csv")
    labeled = [row for row in training if row["solved"] != ""]
    fills = {"true": "rgb(5,48,97)", "false": "rgb(103,0,31)"}
    assert [c.get("fill") for c in root.findall(f"{SVG}circle")] == [
        fills[row["solved"]] for row in labeled
    ]


def _cloud_oracle(report) -> np.ndarray:
    """Per-sample oracle of a cloud's raster: a dict from pixel to the
    probabilities of its samples, then each pixel's mean through the ramp, and
    white where a pixel has no sample."""
    r = max(2, math.ceil(math.sqrt(len(report.probabilities) / 4)))
    (x_lo, x_hi), (y_lo, y_hi) = report.bounds[:2].tolist()
    pixels: dict[tuple[int, int], list[float]] = {}
    for (x, y, *_), p in zip(report.latent_points.tolist(), report.probabilities.tolist()):
        ix = round((x - x_lo) / (x_hi - x_lo) * (r - 1))
        iy = round((y - y_lo) / (y_hi - y_lo) * (r - 1))
        pixels.setdefault((ix, iy), []).append(p)
    want = np.full((r, r, 3), 255, dtype=np.uint8)
    for (ix, iy), ps in pixels.items():
        want[r - 1 - iy, ix] = _prob_rgb(np.float64(sum(ps) / len(ps)))
    return want


@pytest.mark.parametrize(
    "dim, n_samples", [(2, 100 * 100), (3, 2 * SAMPLE_BLOCK + 7), (5, 2 * SAMPLE_BLOCK + 7)]
)
def test_colours_in_blocks_are_the_one_pass_ramp(rng, dim, n_samples):
    # The grid's 100 raster rows and the cloud's samples span several blocks.
    X = rng.uniform(size=(40, max(4, dim)))
    labels = (X[:, 0] + X[:, 1] > 1.0).tolist()
    report = estimate_solvability(X, labels, SolvabilityConfig(latent_dim=dim, n_samples=n_samples))
    pixels = map_pixels(ET.fromstring(render_latent_map(report, "blocks")))
    probs = report.probabilities
    if dim == 2:
        r = report.grid_resolution
        assert np.array_equal(pixels, _prob_rgb(probs.reshape(r, r)[::-1]))
    else:
        want = _cloud_oracle(report)
        assert np.array_equal(pixels, want)
        assert 0 < np.all(want == 255, axis=-1).sum() < 0.05 * want.shape[0] ** 2


@pytest.mark.parametrize("r", [2, 3, 317])
def test_grid_map_is_the_grid_ramp_bit_for_bit(rng, r):
    # One sample on each pixel: the raster is the grid's own colours, rows
    # flipped to put latent axis 2 up.
    X = rng.uniform(size=(40, 4))
    labels = (X[:, 0] + X[:, 1] > 1.0).tolist()
    report = estimate_solvability(X, labels, SolvabilityConfig(n_samples=r * r))
    assert report.grid_resolution == r
    pixels = map_pixels(ET.fromstring(render_latent_map(report, "grid")))
    assert np.array_equal(pixels, _prob_rgb(report.probabilities.reshape(r, r)[::-1]))


@pytest.mark.parametrize("dim, flat", [(2, 0), (3, 1)])
def test_zero_span_axis_gives_a_filled_strip(rng, dim, flat):
    X = rng.uniform(size=(40, 4))
    labels = (X[:, 0] + X[:, 1] > 1.0).tolist()
    report = estimate_solvability(X, labels, SolvabilityConfig(latent_dim=dim, n_samples=900))
    bounds = report.bounds.copy()
    bounds[flat] = bounds[flat, 0]
    if dim == 2:
        points = grid_samples(bounds, 900)[0]
    else:
        points = random_samples(bounds, 900, seed=0)
    assert np.all(points[:, flat] == bounds[flat, 0])
    report = dataclasses.replace(report, bounds=bounds, latent_points=points)
    root = ET.fromstring(render_latent_map(report, "flat"))
    r = report.grid_resolution or 15  # ceil(sqrt(900 / 4))
    pixels = map_pixels(root)
    assert pixels.shape == ((r, 1, 3) if flat == 0 else (1, r, 3))
    assert not np.any(np.all(pixels == 255, axis=-1))  # every pixel has samples
    # Across the flat axis the strip is one lattice cell wide, as a grid's
    # strip is; along the other it spans the plot and half a cell each side.
    image = root.find(f"{SVG}image")
    box = [float(image.get(k)) for k in ("x", "y", "width", "height")]
    assert all(math.isfinite(v) for v in box)
    extent = np.array([WIDTH, HEIGHT]) - 2.0 * MARGIN
    size = extent + extent / (r - 1)
    size[flat] = extent[flat] / (r - 1)
    assert box[2:] == pytest.approx(size.tolist(), abs=0.01)


def test_array_ramp_matches_scalar_ramp():
    # 0.25 and 0.75 put channels exactly on .5, where both ramps round half to even.
    probs = np.concatenate([np.linspace(-0.1, 1.1, 2401), [0.25, 0.75, 0.5, np.nextafter(0.5, 0)],
                            np.random.default_rng(7).uniform(size=5000)])
    got = _prob_rgb(probs)
    assert got.dtype == np.uint8
    assert got.tolist() == [rgb(_prob_color(float(p))) for p in probs]


def test_markup_in_solver_name_gives_well_formed_svg(tmp_path):
    solutions = tmp_path / "solutions"
    solutions.mkdir()
    solution = json.loads((DEMO / "solutions" / f"{SOLVER}.solution.json").read_text())
    solution["solver_short_name"] = name = "DMRG <bond 64> & -- x"
    (solutions / f"{SOLVER}.solution.json").write_text(json.dumps(solution))
    run_solvability(tmp_path / "out", "--samples", "100", solutions=solutions)
    root = ET.parse(tmp_path / "out" / f"latent_map_{SOLVER}.svg").getroot()
    titles = [t.text for t in root.findall(f"{SVG}text") if t.get("font-size") == "16"]
    assert titles == [f"{name} solvability"]


def test_star_vertices_match_the_per_vertex_formula(rng):
    centres = rng.uniform(-50.0, WIDTH + 50.0, size=(2000, 2)).tolist()
    for (cx, cy), r in zip(centres, [7.0, 0.5, 12.25, 1e-3] * 500):
        assert _star_path(cx, cy, r) == _star_oracle(cx, cy, r)
