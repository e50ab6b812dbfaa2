"""End-to-end solvability-region estimation for one solver.

Pipeline order: min-max scale the feature table, fit the SVM on the
full-dimensional scaled features of the labeled rows, fit a latent space on
all rows, bound the latent axes by the training embedding, sample latent
points (a uniform grid in 2-D, seeded uniform draws otherwise), inverse
transform the samples back to feature space, clip into the scaled unit box,
and score them with the calibrated SVM, SAMPLE_BLOCK rows at a time.  The
solvability ratio is the exact fraction of samples whose probability meets
the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import InsufficientLabels
from .latent import LatentModel, nnmf_fit, pca_fit
from .scaling import minmax_scale
from .shapley import exact_shapley
from .svm import SvmModel, predict_proba, svm_fit_cv

MIN_LABELED_ROWS = 10
# Labeled rows whose mean absolute attributions the report gives.
ATTRIBUTION_POINTS = 3
# Rows of the latent cloud that are scored, written or coloured at a time.
# Each step works row by row, so the results are those of one pass over the
# cloud, while the working memory stays that of one block.
SAMPLE_BLOCK = 4096


@dataclass(frozen=True)
class SolvabilityConfig:
    latent: str = "pca"
    latent_dim: int = 2
    n_samples: int = 10_000
    threshold: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.latent not in ("pca", "nnmf"):
            raise ValueError("latent must be 'pca' or 'nnmf'")
        # latent_dim: the latent map and the CLI's training CSV read two axes
        for name, least in (("latent_dim", 2), ("n_samples", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class SolvabilityReport:
    """Trained-classifier summary plus the sampled latent map."""

    solvability_ratio: float
    n_samples: int
    threshold: float
    metrics: dict
    latent_points: np.ndarray  # (n, dim) latent coordinates
    probabilities: np.ndarray  # (n,) calibrated probabilities
    latent_kind: str
    latent_dim: int
    bounds: np.ndarray
    seed: int
    grid_resolution: int | None
    best_params: dict
    training_embedding: np.ndarray
    training_labels: tuple  # True / False / None per row
    attributions: dict
    feature_names: tuple[str, ...]
    flags: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready summary (deterministic float repr via json).

        The sampled cloud (latent_points, probabilities) is left out: it is
        large, and the CLI writes it once, to its own CSV.
        """
        return {
            "solvability_ratio": self.solvability_ratio,
            "n_samples": self.n_samples,
            "threshold": self.threshold,
            "metrics": self.metrics,
            "latent_kind": self.latent_kind,
            "latent_dim": self.latent_dim,
            "bounds": self.bounds.tolist(),
            "seed": self.seed,
            "grid_resolution": self.grid_resolution,
            "best_params": self.best_params,
            "attributions": self.attributions,
            "feature_names": list(self.feature_names),
            "flags": self.flags,
            "training_points": [
                {
                    "latent": row.tolist(),
                    "label": None if lab is None else bool(lab),
                }
                for row, lab in zip(self.training_embedding, self.training_labels)
            ],
        }


def grid_samples(bounds: np.ndarray, n_samples: int) -> tuple[np.ndarray, int]:
    """Uniform 2-D grid of about n_samples points over the latent rectangle."""
    r = max(2, math.ceil(math.sqrt(n_samples)))
    axes = [np.linspace(lo, hi, r) for lo, hi in bounds]
    # Point iy * r + ix is (axes[0][ix], axes[1][iy]).
    samples = np.empty((r, r, 2))
    samples[..., 0] = axes[0]
    samples[..., 1] = axes[1][:, None]
    return samples.reshape(r * r, 2), r


def random_samples(bounds: np.ndarray, n_samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo = bounds[:, 0]
    hi = bounds[:, 1]
    samples = rng.uniform(0.0, 1.0, size=(n_samples, len(bounds)))
    samples *= hi - lo
    samples += lo
    return samples


def _fit_latent(X: np.ndarray, config: SolvabilityConfig) -> LatentModel:
    if config.latent == "pca":
        return pca_fit(X, config.latent_dim)
    return nnmf_fit(X, config.latent_dim, seed=config.seed)


def _mean_abs_attributions(
    model: SvmModel, X_labeled: np.ndarray, feature_names: tuple[str, ...], seed: int
) -> dict:
    """Mean absolute log-odds Shapley values of ATTRIBUTION_POINTS labeled rows
    spread over the table, against at most 20 seeded background rows."""
    rng = np.random.default_rng(seed)
    background = X_labeled
    if len(background) > 20:
        background = background[rng.choice(len(background), 20, replace=False)]
    explain_idx = np.linspace(0, len(X_labeled) - 1, min(ATTRIBUTION_POINTS, len(X_labeled)))
    # Ascending, so dropping the repeats keeps the distinct indices in order.
    explain_idx = list(dict.fromkeys(explain_idx.astype(int).tolist()))
    totals = np.zeros(X_labeled.shape[1])
    for i in explain_idx:
        totals += np.abs(exact_shapley(model, X_labeled[i], background))
    means = totals / len(explain_idx)
    return {name: float(v) for name, v in zip(feature_names, means)}


def estimate_solvability(
    features,
    labels,
    config: SolvabilityConfig | None = None,
    feature_names: tuple[str, ...] | None = None,
) -> SolvabilityReport:
    """Run the full solvability pipeline over a feature table.

    labels is one entry per feature row: True (solved), False (unsolved), or
    None for rows that carry no verdict (they still inform scaling, the
    latent fit, and the plotted embedding, but not the classifier).
    """
    config = config or SolvabilityConfig()
    X_raw = np.asarray(features, dtype=float)
    labels = list(labels)
    if len(labels) != X_raw.shape[0]:
        raise ValueError("one label entry per feature row required")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X_raw.shape[1]))

    labeled_mask = np.array([lab is not None for lab in labels])
    n_labeled = int(labeled_mask.sum())
    if n_labeled < MIN_LABELED_ROWS:
        raise InsufficientLabels(f"{n_labeled} labeled rows < {MIN_LABELED_ROWS}")

    X = minmax_scale(X_raw)
    X_labeled = X[labeled_mask]
    y_labeled = np.array([bool(lab) for lab, m in zip(labels, labeled_mask) if m])

    model = svm_fit_cv(X_labeled, y_labeled, seed=config.seed)

    latent = _fit_latent(X, config)
    if config.latent_dim == 2:
        samples, resolution = grid_samples(latent.bounds, config.n_samples)
    else:
        samples = random_samples(latent.bounds, config.n_samples, config.seed)
        resolution = None

    n = len(samples)
    probabilities = np.empty(n)
    # A last block of one row would take numpy's vector paths, which round
    # differently from the matrix kernels, so it joins the block before it.
    ends = [*range(SAMPLE_BLOCK, n - 1, SAMPLE_BLOCK), n]
    for start, end in zip([0, *ends[:-1]], ends):
        X_novel = latent.inverse(samples[start:end])
        np.clip(X_novel, 0.0, 1.0, out=X_novel)
        probabilities[start:end] = predict_proba(model, X_novel)
    ratio = float(np.count_nonzero(probabilities >= config.threshold) / len(probabilities))

    cv = model.mean_cv_metrics()
    attributions = _mean_abs_attributions(model, X_labeled, feature_names, config.seed)

    flags = {
        "svm_degenerate": model.degenerate,
        "svm_converged": model.converged,
        "latent_converged": latent.converged,
        "metrics_zero_division": cv.zero_division,
        "attributions_computed": True,
        "attribution_target": "log_odds",
    }
    return SolvabilityReport(
        solvability_ratio=ratio,
        n_samples=len(probabilities),
        threshold=config.threshold,
        metrics={"precision": cv.precision, "recall": cv.recall, "f1": cv.f1},
        latent_points=samples,
        probabilities=probabilities,
        latent_kind=config.latent,
        latent_dim=config.latent_dim,
        bounds=latent.bounds,
        seed=config.seed,
        grid_resolution=resolution,
        best_params={"C": model.penalty, "gamma": model.gamma},
        training_embedding=latent.embedding,
        training_labels=tuple(labels),
        attributions=attributions,
        feature_names=feature_names,
        flags=flags,
    )
