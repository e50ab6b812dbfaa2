"""Exact Shapley attribution of the RBF SVM's calibrated log-odds.

Absent features are marginalized by averaging the model over background rows.
The target is the log-odds −(a·f + b) of the Platt sigmoid, not the
probability: the RBF kernel is a product over features, so the margin f is a
sum of product games and its Shapley values have a closed form, while the
sigmoid of the margin does not factor over features.  The log-odds is affine
in f, so its values are −a times those of the margin and the bias cancels.

For one (support vector s, background row z) pair, write
a_j = exp(−γ(x_j − s_j)²) and b_j = exp(−γ(z_j − s_j)²).  The value of a
coalition S is Π_{j∈S} a_j Π_{j∉S} b_j, and the Shapley weight
|S|!(D−|S|−1)!/D! is the integral ∫₀¹ t^|S| (1−t)^(D−|S|−1) dt, so

    φ_i = (a_i − b_i) ∫₀¹ Π_{j≠i} (b_j + (a_j − b_j) t) dt

(Mohammadi, Chau and Muandet, 2025, "Computing exact Shapley values in
polynomial time for product-kernel methods"; Chau et al., NeurIPS 2022,
RKHS-SHAP).  The integrand is a polynomial of degree D − 1, which
Gauss-Legendre with ⌈D/2⌉ nodes integrates exactly.  Efficiency, dummy and
symmetry hold up to floating point.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch
from .svm import SvmModel


def exact_shapley(model: SvmModel, point, background) -> np.ndarray:
    """Shapley values of the model's log-odds at point against a background.

    The (D,) values sum to the log-odds of point minus the mean log-odds of
    the background rows.  Cost is O(n_sv · n_bg · D²).
    """
    point = np.asarray(point, dtype=float).ravel()
    background = np.atleast_2d(np.asarray(background, dtype=float))
    d = model.support_x.shape[1]
    if point.size != d or background.shape[1] != d:
        raise DimensionMismatch(
            f"point has {point.size} and background {background.shape[1]} features, "
            f"model {d}"
        )
    sv = model.support_x
    a = np.exp(-model.gamma * (point - sv) ** 2)  # (n_sv, D)
    b = np.exp(-model.gamma * (background[:, None, :] - sv) ** 2)  # (n_bg, n_sv, D)
    diff = a - b
    nodes, weights = np.polynomial.legendre.leggauss((d + 1) // 2)
    integral = np.zeros_like(b)
    for t, w in zip((nodes + 1.0) / 2.0, weights / 2.0):
        h = b + diff * t
        # Leave-one-out products from prefix and suffix products: no division,
        # so a factor that underflowed to 0.0 stays harmless.
        loo = np.ones_like(h)
        loo[..., 1:] = np.cumprod(h[..., :-1], axis=-1)
        loo[..., :-1] *= np.cumprod(h[..., :0:-1], axis=-1)[..., ::-1]
        integral += w * loo
    margin_phi = np.einsum("s,rsj->j", model.dual_coef, diff * integral) / len(background)
    return -model.platt_a * margin_phi
