"""Solvability-region estimation: scaling, latent spaces, SVM, attribution."""

from .latent import LatentModel, nnmf_fit, pca_fit
from .scaling import minmax_scale
from .shapley import exact_shapley
from .solvability import SolvabilityConfig, SolvabilityReport, estimate_solvability
from .svm import (
    ClassificationMetrics,
    SvmModel,
    classification_metrics,
    predict_proba,
    svm_fit_cv,
)

__all__ = [
    "ClassificationMetrics",
    "LatentModel",
    "SolvabilityConfig",
    "SolvabilityReport",
    "SvmModel",
    "classification_metrics",
    "estimate_solvability",
    "exact_shapley",
    "minmax_scale",
    "nnmf_fit",
    "pca_fit",
    "predict_proba",
    "svm_fit_cv",
]
