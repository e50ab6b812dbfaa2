"""Per-column min-max scaling to [0, 1]."""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteInput


def minmax_scale(X_raw) -> np.ndarray:
    """Columns scaled as (x - min) / (max - min); a constant column maps to 0.

    Each column is first scaled by the power of two that brings its largest
    |x| below 1, as in correlation_matrix, so that a finite column whose
    range exceeds the float maximum cannot overflow max - min.  Such a
    scaling is exact unless it takes a value below the normal range, so the
    result is that of the column as given.
    """
    X = np.asarray(X_raw, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("feature matrix contains NaN or infinity")
    X = np.ldexp(X, -np.frexp(np.abs(X).max(axis=0))[1])
    mins = X.min(axis=0)
    span = X.max(axis=0) - mins
    return (X - mins) / np.where(span == 0.0, 1.0, span)
