"""Per-column min-max scaling to [0, 1]."""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteInput


def minmax_scale(X_raw) -> np.ndarray:
    """Columns scaled as (x - min) / (max - min); a constant column maps to 0."""
    X = np.asarray(X_raw, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("feature matrix contains NaN or infinity")
    mins = X.min(axis=0)
    span = X.max(axis=0) - mins
    scaled = (X - mins) / np.where(span == 0.0, 1.0, span)
    scaled[:, span == 0.0] = 0.0
    return scaled
