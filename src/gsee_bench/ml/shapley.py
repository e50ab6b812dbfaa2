"""Exact Shapley attribution of a model's output over feature coalitions.

Absent features are marginalized by averaging the model over background rows;
with 2^D coalition values the attribution is exact, so the efficiency, dummy,
and symmetry properties hold up to floating point.  Feasible only for small D.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import TooManyFeatures

MAX_EXACT_FEATURES = 15


def exact_shapley(predict, point, background) -> np.ndarray:
    """Shapley values of predict(point) against a background distribution.

    predict maps an (m, D) matrix to m outputs.  The returned values sum to
    predict(point) minus the mean background prediction.
    """
    point = np.asarray(point, dtype=float).ravel()
    background = np.atleast_2d(np.asarray(background, dtype=float))
    d = point.size
    if d > MAX_EXACT_FEATURES:
        raise TooManyFeatures(
            f"{d} features need 2^{d} coalition evaluations; "
            f"cap is {MAX_EXACT_FEATURES} (a sampling approximation is not provided)"
        )
    if background.shape[1] != d:
        raise ValueError("background feature count differs from the point")

    n_coalitions = 1 << d
    values = np.empty(n_coalitions)
    for mask in range(n_coalitions):
        rows = background.copy()
        members = [i for i in range(d) if mask >> i & 1]
        if members:
            rows[:, members] = point[members]
        values[mask] = float(np.mean(predict(rows)))

    # weight(s) = s! (d-s-1)! / d! for a coalition of size s not containing i
    fact = [math.factorial(s) for s in range(d + 1)]
    weights = [fact[s] * fact[d - s - 1] / fact[d] for s in range(d)]

    phi = np.zeros(d)
    for mask in range(n_coalitions):
        size = mask.bit_count()
        for i in range(d):
            if mask >> i & 1:
                continue
            phi[i] += weights[size] * (values[mask | (1 << i)] - values[mask])
    return phi
