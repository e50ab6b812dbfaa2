"""The latent-map SVG: one embedded PNG for the 2-D grid, vector task markers."""

import base64
import csv
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
from gsee_bench.ml.solvability import SAMPLE_BLOCK
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
    report = run_solvability(tmp_path, "--samples", "200", "--latent-dim", "3")
    assert report["grid_resolution"] is None
    root = ET.parse(tmp_path / f"latent_map_{SOLVER}.svg").getroot()
    assert root.find(f"{SVG}image") is None
    fills = [c.get("fill") for c in root.findall(f"{SVG}circle")]
    cloud = read_table(tmp_path / report["latent_points_file"])
    assert fills[:len(cloud)] == [_prob_color(float(row["probability"])) for row in cloud]


@pytest.mark.parametrize("dim, n_samples", [(2, 100 * 100), (3, 2 * SAMPLE_BLOCK + 7)])
def test_colours_in_blocks_are_the_one_pass_ramp(rng, dim, n_samples):
    # The grid's 100 raster rows and the scatter's samples span several blocks.
    X = rng.uniform(size=(40, 4))
    labels = (X[:, 0] + X[:, 1] > 1.0).tolist()
    report = estimate_solvability(X, labels, SolvabilityConfig(latent_dim=dim, n_samples=n_samples))
    root = ET.fromstring(render_latent_map(report, "blocks"))
    probs = report.probabilities
    if dim == 2:
        r = report.grid_resolution
        href = root.find(f"{SVG}image").get("href")
        pixels = decode_png(base64.b64decode(href.split(",", 1)[1]))
        assert np.array_equal(pixels, _prob_rgb(probs.reshape(r, r)[::-1]))
    else:
        fills = [rgb(c.get("fill")) for c in root.findall(f"{SVG}circle")[:n_samples]]
        assert fills == _prob_rgb(probs).tolist()


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
