"""Per-column min-max scaling to [0, 1]."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteInput


@dataclass(frozen=True)
class ScaledDataset:
    """Feature matrix scaled to [0, 1] per column, with the fit parameters.

    Columns that were constant map to 0.
    """

    X: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray


def minmax_scale(
    X_raw,
    params: tuple[np.ndarray, np.ndarray] | None = None,
) -> ScaledDataset:
    """Scale columns as (x - min) / (max - min), fitting or reusing params."""
    X = np.asarray(X_raw, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("feature matrix contains NaN or infinity")
    if params is None:
        mins = X.min(axis=0)
        maxs = X.max(axis=0)
    else:
        mins = np.asarray(params[0], dtype=float)
        maxs = np.asarray(params[1], dtype=float)
    span = maxs - mins
    safe = np.where(span == 0.0, 1.0, span)
    scaled = (X - mins) / safe
    scaled[:, span == 0.0] = 0.0
    return ScaledDataset(scaled, mins, maxs)
