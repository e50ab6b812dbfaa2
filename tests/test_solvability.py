import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gsee_bench import cli
from gsee_bench.catalog import Verdict, evaluate_solver
from gsee_bench.errors import InsufficientLabels, SingleClass
from gsee_bench.ml import SolvabilityConfig, estimate_solvability
from gsee_bench.ml.latent import pca_fit
from gsee_bench.ml.scaling import minmax_scale
from gsee_bench.ml.solvability import SAMPLE_BLOCK, grid_samples, random_samples, sample_blocks
from gsee_bench.ml.svm import predict_proba, svm_fit_cv
from gsee_bench.qubit_features import FEATURE_NAMES

DEMO = Path(__file__).resolve().parent.parent / "demo"
SRC = Path(__file__).resolve().parent.parent / "src"


def planted_dataset(rng, n, frac):
    """2-feature sample on the unit square labeled by a vertical boundary.

    Feature 1 dominates the variance, so the first latent axis tracks it and
    the solvable region occupies `frac` of the bounded latent rectangle.
    """
    x1 = rng.uniform(0.0, 1.0, n)
    x1[0], x1[1] = 0.0, 1.0
    x2 = np.clip(0.5 + 0.08 * rng.normal(size=n), 0.0, 1.0)
    x2[0], x2[1] = 0.0, 1.0
    X = np.column_stack([x1, x2])
    return X, x1 <= frac


def quick_config(**kwargs):
    base = dict(n_samples=900)
    base.update(kwargs)
    return SolvabilityConfig(**base)


def test_grid_sampler_counts_and_coverage():
    bounds = np.array([[0.0, 1.0], [-2.0, 2.0]])
    pts, r = grid_samples(bounds, 10_000)
    assert r == 100
    assert pts.shape == (10_000, 2)
    assert pts[:, 0].min() == 0.0 and pts[:, 0].max() == 1.0
    assert pts[:, 1].min() == -2.0 and pts[:, 1].max() == 2.0


def test_samplers_equal_their_one_expression_forms():
    bounds = np.array([[-0.3, 1.7], [2.0, 2.5]])
    pts, r = grid_samples(bounds, 1000)
    xx, yy = np.meshgrid(np.linspace(-0.3, 1.7, r), np.linspace(2.0, 2.5, r), indexing="xy")
    assert pts.tobytes() == np.column_stack([xx.ravel(), yy.ravel()]).tobytes()
    bounds = np.array([[0.0, 1.0], [5.0, 6.5], [-1.0, -0.5]])
    expected = (np.random.default_rng(4).uniform(0.0, 1.0, size=(999, 3))
                * (bounds[:, 1] - bounds[:, 0]) + bounds[:, 0])
    assert random_samples(bounds, 999, seed=4).tobytes() == expected.tobytes()


def test_random_sampler_respects_bounds():
    bounds = np.array([[0.0, 1.0], [5.0, 6.0], [-1.0, -0.5]])
    pts = random_samples(bounds, 500, seed=3)
    assert pts.shape == (500, 3)
    for axis, (lo, hi) in enumerate(bounds):
        assert pts[:, axis].min() >= lo
        assert pts[:, axis].max() <= hi


def test_all_positive_classifier_gives_ratio_one(rng):
    # one far outlier makes the rest of the rectangle confidently positive
    X, labels = planted_dataset(rng, 60, 2.0)  # every x1 <= 2 -> all True
    labels = labels.copy()
    labels[-1] = False
    X[-1] = [5.0, 5.0]  # scale squeezes the genuine data into a tiny corner
    report = estimate_solvability(X, labels.tolist(), quick_config())
    assert report.solvability_ratio >= 0.95


def test_threshold_extremes_and_monotonicity(rng):
    X, labels = planted_dataset(rng, 80, 0.5)
    ratios = []
    for threshold in (0.0, 0.3, 0.5, 0.7, 1.0):
        report = estimate_solvability(
            X, labels.tolist(), quick_config(threshold=threshold)
        )
        ratios.append(report.solvability_ratio)
    assert ratios[0] == 1.0
    assert ratios[-1] == 0.0
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_planted_fraction_recovered(rng):
    X, labels = planted_dataset(rng, 400, 0.3)
    report = estimate_solvability(
        X, labels.tolist(), SolvabilityConfig(n_samples=10_000)
    )
    assert report.n_samples == 10_000
    assert report.grid_resolution == 100
    assert abs(report.solvability_ratio - 0.3) <= 0.05


def test_ratio_is_exact_count(rng):
    X, labels = planted_dataset(rng, 60, 0.5)
    report = estimate_solvability(X, labels.tolist(), quick_config())
    count = int(np.sum(report.probabilities >= report.config.threshold))
    assert report.solvability_ratio == count / report.n_samples


def test_unlabeled_rows_embedded_but_not_trained(rng):
    X, labels = planted_dataset(rng, 50, 0.5)
    entries = list(labels)
    entries[7] = None
    entries[21] = None
    report = estimate_solvability(X, entries, quick_config())
    assert report.training_labels[7] is None
    assert len(report.training_embedding) == 50


def test_insufficient_labels(rng):
    X, labels = planted_dataset(rng, 30, 0.5)
    entries = [None] * 25 + list(labels[:5])
    with pytest.raises(InsufficientLabels):
        estimate_solvability(X, entries, quick_config())


def test_single_class_propagates(rng):
    X, _ = planted_dataset(rng, 30, 0.5)
    with pytest.raises(SingleClass):
        estimate_solvability(X, [True] * 30, quick_config())


def test_nnmf_latent_alternative(rng):
    X, labels = planted_dataset(rng, 120, 0.5)
    report = estimate_solvability(
        X, labels.tolist(), quick_config(latent="nnmf")
    )
    assert report.config.latent == "nnmf"
    assert 0.0 <= report.solvability_ratio <= 1.0
    # the NNMF inverse stays in the non-negative orthant before clipping
    assert np.all(report.bounds[:, 0] >= 0.0)


def test_attributions_present_for_small_d(rng):
    X, labels = planted_dataset(rng, 80, 0.5)
    report = estimate_solvability(
        X, labels.tolist(), quick_config(), feature_names=("a", "b")
    )
    assert set(report.attributions) == {"a", "b"}
    # the boundary feature dominates the attribution mass
    assert report.attributions["a"] > report.attributions["b"]


def test_attributions_at_twenty_features(rng):
    n, d = 40, 20
    X = rng.uniform(size=(n, d))
    labels = (X[:, 0] > 0.5).tolist()
    names = tuple(f"x{i}" for i in range(d))
    report = estimate_solvability(X, labels, quick_config(), feature_names=names)
    assert tuple(report.attributions) == names
    assert all(np.isfinite(v) for v in report.attributions.values())
    assert report.flags["attributions_computed"]
    assert report.flags["attribution_target"] == "log_odds"


def test_deterministic_given_seed(rng):
    X, labels = planted_dataset(rng, 80, 0.4)
    a = estimate_solvability(X, labels.tolist(), quick_config(seed=9))
    b = estimate_solvability(X, labels.tolist(), quick_config(seed=9))
    assert a.solvability_ratio == b.solvability_ratio
    assert np.array_equal(a.probabilities, b.probabilities)


def test_solvability_reports_import_no_numpy_ma():
    # numpy.ma costs a fresh process 13-15 ms; np.unique imports it on use.
    code = """
import sys
import numpy as np
from gsee_bench.ml import SolvabilityConfig, estimate_solvability
rng = np.random.default_rng(0)
X = rng.uniform(size=(40, 20))
labels = (X[:, 0] + X[:, 1] > 1.0).tolist()
for latent, dim in (("pca", 2), ("pca", 3), ("nnmf", 2)):
    estimate_solvability(X, labels, SolvabilityConfig(latent=latent, latent_dim=dim, n_samples=100))
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"threshold": -0.1}, "threshold must lie in [0, 1]"),
        ({"threshold": 2.0}, "threshold must lie in [0, 1]"),
        ({"threshold": float("nan")}, "threshold must lie in [0, 1]"),
        ({"latent": "umap"}, "latent must be 'pca' or 'nnmf'"),
        ({"latent_dim": 1}, "latent_dim must be >= 2"),
        ({"latent_dim": 3, "n_samples": 0}, "n_samples must be >= 1"),
        ({"seed": -1}, "seed must be >= 0"),
    ],
)
def test_out_of_range_setting_rejected_when_the_config_is_built(setting, message):
    with pytest.raises(ValueError) as info:
        SolvabilityConfig(**setting)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "n", [0, 1, 2, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2 * SAMPLE_BLOCK + 1],
)
def test_sample_blocks_cover_the_rows_in_order_without_a_one_row_tail(n):
    blocks = sample_blocks(n)
    assert [row for block in blocks for row in range(n)[block]] == list(range(n))
    sizes = [len(range(n)[block]) for block in blocks]
    assert 0 not in sizes
    assert n == 1 or 1 not in sizes
    # every block but the last holds SAMPLE_BLOCK rows
    assert set(sizes[:-1]) <= {SAMPLE_BLOCK}


# Oracle: the cloud scored in one pass.  Numpy sends a one-row product down
# its vector paths, and a multi-threaded BLAS rounds the rows where it splits
# a product between threads by other kernels, so the blocks equal one pass in
# a process with single-threaded BLAS.
BLOCKED_SCORING = """
import sys
import numpy as np
from gsee_bench.ml.scaling import minmax_scale
from gsee_bench.ml.solvability import (
    SAMPLE_BLOCK, SolvabilityConfig, _fit_latent, estimate_solvability,
)
from gsee_bench.ml.svm import predict_proba, svm_fit_cv

rng = np.random.default_rng(5)
X = rng.uniform(size=(60, 20))
labels = (X[:, 0] + X[:, 1] > 1.0).tolist()
B = SAMPLE_BLOCK
# A grid of r * r points over several blocks, then random draws of k blocks
# and a tail of 7 rows, or of one row, which joins the block before it.
cases = [(2, 100 * 100), (3, 2 * B + 7), (3, 3 * B + 1), (3, B + 1)]
assert all(n > 2 * B and n % B for _, n in cases[:3])
for dim, n in cases:
    config = SolvabilityConfig(latent_dim=dim, n_samples=n, seed=2)
    report = estimate_solvability(X, labels, config)
    assert report.n_samples == n
    scaled = minmax_scale(X)
    model = svm_fit_cv(scaled, np.array(labels), seed=config.seed)
    latent = _fit_latent(scaled, config)
    one_pass = predict_proba(model, np.clip(latent.inverse(report.latent_points), 0.0, 1.0))
    assert report.probabilities.tobytes() == one_pass.tobytes(), (dim, n)
print("ok")
"""


def test_blocked_scoring_is_bit_identical_to_one_pass():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", BLOCKED_SCORING], capture_output=True, text=True,
                         timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


@pytest.fixture(scope="module")
def demo_table(tmp_path_factory):
    """The demo catalog's feature table and the size-limited solver's labels."""
    config = cli.RunConfig(DEMO / "catalog", tmp_path_factory.mktemp("demo"))
    with cli._inputs(config, DEMO / "solutions", "size-limited") as (tasks, solutions, pmap):
        task_uuids, table = cli.run_features(config, tasks, pmap)
    verdicts = {o.task_uuid: o.verdict for o in evaluate_solver(tasks, solutions[0])[0]}
    labels = [None if verdicts[uuid] is Verdict.UNLABELED else verdicts[uuid] is Verdict.SOLVED
              for uuid in task_uuids]
    return table, labels


@pytest.mark.parametrize("dim", [2, 3])
def test_scoring_memory_is_the_cloud_plus_one_block(demo_table, dim):
    table, labels = demo_table
    config = SolvabilityConfig(latent_dim=dim, n_samples=200_000)
    tracemalloc.start()
    try:
        report = estimate_solvability(table, labels, config, feature_names=FEATURE_NAMES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = report.latent_points.nbytes + report.probabilities.nbytes
    assert report.n_samples >= 200_000
    assert peak < 2 * held, (peak, held)


def test_one_scoring_step_holds_the_block_the_kernel_and_its_product():
    rng = np.random.default_rng(5)
    X = minmax_scale(rng.uniform(size=(60, 20)))
    model = svm_fit_cv(X, X[:, 0] + X[:, 1] > 1.0)
    latent = pca_fit(X, 3)
    block = random_samples(latent.bounds, SAMPLE_BLOCK, 0)

    def step():
        X_novel = latent.inverse(block)
        np.clip(X_novel, 0.0, 1.0, out=X_novel)
        return predict_proba(model, X_novel)

    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_sv, d = model.support_x.shape
    # The clipped block, the kernel and the product 2 a bᵀ beside it; the
    # slack is length-SAMPLE_BLOCK vectors (row sums, decisions,
    # probabilities).  Apart from the block, the step holds two of numpy's
    # ufunc buffers, np.getbufsize() doubles each, whatever the block size.
    # With a fresh array at each step, the copy 2a beside the sums and the
    # product, this step peaked at 2 d + 2 n_sv rows (104 here).
    buffers = 2 * np.getbufsize() * 8
    assert peak < (d + 2 * n_sv + 8) * SAMPLE_BLOCK * 8 + buffers, (peak, n_sv)
