"""Reference Shapley enumerator: the oracle for the product-kernel closed form.

Absent features are marginalized by averaging the model over background rows;
with 2^D coalition values the attribution is exact for any model, so the
efficiency, dummy, and symmetry properties hold up to floating point.
Feasible only for small D.
"""

from __future__ import annotations

import math

import numpy as np


def exact_shapley(predict, point, background) -> np.ndarray:
    """Shapley values of predict(point) against a background distribution.

    predict maps an (m, D) matrix to m outputs.  The returned values sum to
    predict(point) minus the mean background prediction.
    """
    point = np.asarray(point, dtype=float).ravel()
    background = np.atleast_2d(np.asarray(background, dtype=float))
    d = point.size
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


def log_odds(model):
    """The calibrated log-odds −(a·f + b) of an SVM, as a predict function."""
    return lambda rows: -(model.platt_a * model.decision_function(rows) + model.platt_b)
