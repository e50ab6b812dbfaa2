"""RBF-kernel support vector classifier trained by sequential minimal
optimization, with Platt-calibrated probabilities and stratified k-fold
hyper-parameter search.

The dual is solved as in LIBSVM's `Solver` (Fan, Chen and Lin, JMLR 6, 1889,
2005): each step takes the maximal violator i of the gradient on the set
where α may grow along y, picks j by the second-order gain, makes the clipped
two-variable step and updates the gradient with two kernel rows.  The grid
search builds one squared-distance matrix, one kernel per γ, and slices it
per fold; along the ascending C grid each fold starts from the previous α
scaled by C_new / C_old (alpha seeding, DeCoste and Wagstaff, KDD 2000).
Everything is deterministic given the data order.  Probability calibration
fits the sigmoid p = 1 / (1 + exp(a*f + b)) on out-of-fold decision values by
the robust Newton iteration of Lin, Weng, and Keerthi.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from ..errors import (
    DimensionMismatch,
    LengthMismatch,
    SingleClass,
    TooFewSamples,
)

log = logging.getLogger(__name__)

DEFAULT_C_GRID = (0.1, 1.0, 10.0, 100.0)
SMO_TOL = 1e-3
ALPHA_EPS = 1e-8
# Curvature floor for pairs of identical rows (LIBSVM's TAU).
TAU = 1e-12
# Step cap of one SMO fit.  The cap is reachable: on a 2-core x86 machine a
# fit with n = 500, D = 20 that hits it takes 2.2-2.9 s, and the slowest grid fit
# measured at that size (C = 100, gamma = 0.05) converged in 8.8k steps.
SMO_MAX_ITER = 100_000
# Stratified cross-validation folds of the grid search.
K_FOLDS = 5


def default_gamma_grid(n_features: int) -> tuple[float, ...]:
    grid = [0.01, 0.1, 1.0, 1.0 / n_features]
    out: list[float] = []
    for g in grid:
        if g not in out:
            out.append(g)
    return tuple(out)


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    return np.maximum(sq, 0.0)


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * _sq_distances(np.atleast_2d(a), np.atleast_2d(b)))


@dataclass(frozen=True)
class ClassificationMetrics:
    """Precision/recall/F1 on the positive class; zero denominators score 0."""

    precision: float
    recall: float
    f1: float
    zero_division: bool = False


def classification_metrics(predicted, true) -> ClassificationMetrics:
    predicted = np.asarray(predicted, dtype=bool)
    true = np.asarray(true, dtype=bool)
    if predicted.shape != true.shape:
        raise LengthMismatch(f"{predicted.shape} vs {true.shape}")
    tp = int(np.sum(predicted & true))
    fp = int(np.sum(predicted & ~true))
    fn = int(np.sum(~predicted & true))
    zero_division = False
    if tp + fp == 0:
        precision, zero_division = 0.0, True
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall, zero_division = 0.0, True
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0.0:
        f1, zero_division = 0.0, True
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return ClassificationMetrics(precision, recall, f1, zero_division)


def _smo(K: np.ndarray, y: np.ndarray, C: float,
         alpha: np.ndarray | None = None) -> tuple[np.ndarray, float, bool]:
    """Solve min ½ (αy)ᵀK(αy) − Σα over 0 ≤ α ≤ C, yᵀα = 0 (LIBSVM's Solver).

    alpha is a feasible start (zeros when None).  Returns α, the bias ρ of
    f(x) = K(x, ·)(αy) − ρ, and whether the max-violating-pair gap fell
    below SMO_TOL within SMO_MAX_ITER steps.
    """
    n = len(y)
    alpha = np.zeros(n) if alpha is None else alpha.copy()
    pos = y > 0
    # F = −y·G for the dual gradient G = Q·α − e, Q = yyᵀ∘K.
    F = y - K @ (alpha * y)
    # Curvature of every pair direction, a_ij = K_ii + K_jj − 2 K_ij.
    diag = K.diagonal()
    curvature = np.maximum(diag[:, None] + diag[None, :] - 2.0 * K, TAU)
    # α may move up along y (up) or down along y (low) without leaving the box.
    up = np.where(pos, alpha < C, alpha > 0)
    low = np.where(pos, alpha > 0, alpha < C)
    converged = False
    for _ in range(SMO_MAX_ITER):
        f_up = np.where(up, F, -np.inf)
        i = int(f_up.argmax())
        f_max = f_up[i]
        f_low = np.where(low, F, np.inf)
        if f_max - f_low.min() < SMO_TOL:
            converged = True
            break
        # Second-order choice of j: the largest gain b²/a along α_i += y_i t,
        # α_j −= y_j t, with b = F_i − F_j > 0 and curvature a.
        b = np.maximum(f_max - f_low, 0.0)
        a = curvature[i]
        j = int((b * b / a).argmax())
        cap_i = C - alpha[i] if pos[i] else alpha[i]
        cap_j = alpha[j] if pos[j] else C - alpha[j]
        t = min(b[j] / a[j], cap_i, cap_j)
        old_i, old_j = alpha[i], alpha[j]
        alpha[i] = old_i + y[i] * t
        alpha[j] = old_j - y[j] * t
        # A clipped step lands exactly on the bound.
        if t == cap_i:
            alpha[i] = C if pos[i] else 0.0
        if t == cap_j:
            alpha[j] = 0.0 if pos[j] else C
        F -= K[i] * (y[i] * (alpha[i] - old_i)) + K[j] * (y[j] * (alpha[j] - old_j))
        for s in (i, j):
            up[s] = alpha[s] < C if pos[s] else alpha[s] > 0
            low[s] = alpha[s] > 0 if pos[s] else alpha[s] < C
    else:
        log.warning("SMO stopped after %d iterations without full KKT", SMO_MAX_ITER)
    free = (alpha > 0) & (alpha < C)
    if free.any():
        rho = -float(F[free].mean())
    else:
        # LIBSVM calc_rho: midpoint of the bounds that the bounded α leave.
        rho = -0.5 * float(np.where(up, F, -np.inf).max() + np.where(low, F, np.inf).min())
    return alpha, rho, converged


@dataclass(frozen=True)
class SvmModel:
    """A trained RBF SVM with Platt probability calibration."""

    support_x: np.ndarray
    dual_coef: np.ndarray
    bias: float
    gamma: float
    penalty: float
    platt_a: float
    platt_b: float
    cv_metrics: tuple[ClassificationMetrics, ...] = ()
    degenerate: bool = False
    converged: bool = True

    def decision_function(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d = self.support_x.shape[1]
        if X.shape[1] != d:
            raise DimensionMismatch(f"query has {X.shape[1]} features, model {d}")
        return _decision(X, self.support_x, self.dual_coef, self.bias, self.gamma)

    def mean_cv_metrics(self) -> ClassificationMetrics:
        if not self.cv_metrics:
            return ClassificationMetrics(0.0, 0.0, 0.0, True)
        return ClassificationMetrics(
            float(np.mean([m.precision for m in self.cv_metrics])),
            float(np.mean([m.recall for m in self.cv_metrics])),
            float(np.mean([m.f1 for m in self.cv_metrics])),
            any(m.zero_division for m in self.cv_metrics),
        )


def _dual_coef(alphas: np.ndarray, y: np.ndarray) -> np.ndarray:
    """alpha * y on the support vectors (alpha above ALPHA_EPS), 0 elsewhere."""
    return np.where(alphas > ALPHA_EPS, alphas * y, 0.0)


def _decision(X, support, dual_coef, bias, gamma) -> np.ndarray:
    """f(x) = sum_s dual_coef[s] K(x, support[s]) - bias for each row of X."""
    if len(support) == 0:
        return np.full(X.shape[0], -bias)
    return rbf_kernel(X, support, gamma) @ dual_coef - bias


def fit_platt(decisions, labels) -> tuple[float, float]:
    """Sigmoid parameters (a, b) for p = 1/(1+exp(a*f + b)).

    Robust Newton iteration with the usual out-of-sample target correction;
    requires both classes among the labels.
    """
    f = np.asarray(decisions, dtype=float)
    y = np.asarray(labels, dtype=bool)
    prior1 = int(y.sum())
    prior0 = len(y) - prior1
    hi = (prior1 + 1.0) / (prior1 + 2.0)
    lo = 1.0 / (prior0 + 2.0)
    t = np.where(y, hi, lo)

    a = 0.0
    b = math.log((prior0 + 1.0) / (prior1 + 1.0))
    min_step = 1e-10
    sigma = 1e-12

    def objective(a_, b_):
        z = a_ * f + b_
        # log(1+exp(z)) piecewise for stability
        pos = z >= 0
        val = np.empty_like(z)
        val[pos] = t[pos] * z[pos] + np.log1p(np.exp(-z[pos]))
        val[~pos] = (t[~pos] - 1.0) * z[~pos] + np.log1p(np.exp(z[~pos]))
        return float(val.sum())

    fval = objective(a, b)
    for _ in range(100):
        z = a * f + b
        p = np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))
        q = 1.0 - p
        d1 = t - p
        d2 = p * q
        g1 = float(np.sum(f * d1))
        g2 = float(np.sum(d1))
        if abs(g1) < 1e-10 and abs(g2) < 1e-10:
            break
        h11 = float(np.sum(f * f * d2)) + sigma
        h22 = float(np.sum(d2)) + sigma
        h21 = float(np.sum(f * d2))
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db
        step = 1.0
        while step >= min_step:
            new_a, new_b = a + step * da, b + step * db
            new_f = objective(new_a, new_b)
            if new_f < fval + 1e-4 * step * gd:
                a, b, fval = new_a, new_b, new_f
                break
            step /= 2.0
        else:
            break
    return a, b


def _sigmoid(a: float, b: float, f: np.ndarray) -> np.ndarray:
    z = np.clip(a * f + b, -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(z))


def predict_proba(model: SvmModel, X_query) -> np.ndarray:
    """Calibrated success probabilities in (0, 1), monotone in the decision value."""
    return _sigmoid(model.platt_a, model.platt_b, model.decision_function(X_query))


def stratified_folds(labels, k: int, seed: int = 0) -> np.ndarray:
    """Deterministic stratified fold assignment (round-robin within class)."""
    labels = np.asarray(labels, dtype=bool)
    rng = np.random.default_rng(seed)
    folds = np.empty(len(labels), dtype=int)
    for cls in (False, True):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        folds[idx] = np.arange(len(idx)) % k
    return folds


def svm_fit_cv(X, labels, seed: int = 0) -> SvmModel:
    """Grid-searched, cross-validated SVM fit.

    Each (C, gamma) pair of DEFAULT_C_GRID x default_gamma_grid(D) is scored
    by mean F1 over K_FOLDS stratified splits; the best pair (first on ties) is
    refit on all data, and the Platt sigmoid is fit on that pair's
    out-of-fold decision values.  The model is converged only if every SMO
    fit, cross-validation and final, met SMO_TOL within SMO_MAX_ITER.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    n, d = X.shape
    if len(labels) != n:
        raise LengthMismatch(f"{n} rows vs {len(labels)} labels")
    if labels.all() or not labels.any():
        raise SingleClass("training labels contain a single class")
    k = K_FOLDS
    if n < k:
        raise TooFewSamples(f"{n} samples for {k} folds")

    y = np.where(labels, 1.0, -1.0)
    folds = stratified_folds(labels, k, seed)
    gammas = default_gamma_grid(d)
    sq = _sq_distances(X, X)

    # Out-of-fold decisions per (C, gamma), filled one kernel at a time.
    oof = np.zeros((len(DEFAULT_C_GRID), len(gammas), n))
    cv_converged = True
    for g_index, gamma in enumerate(gammas):
        K = np.exp(-gamma * sq)
        for f_id in range(k):
            test = folds == f_id
            train = ~test
            if not test.any():
                continue
            if labels[train].all() or not labels[train].any():
                # Degenerate fold: constant prediction from the only class seen.
                oof[:, g_index, test] = 1.0 if labels[train].all() else -1.0
                continue
            y_train = y[train]
            K_train = K[np.ix_(train, train)]
            K_test = K[np.ix_(test, train)]
            alphas, C_prev = None, None
            for c_index, C in enumerate(DEFAULT_C_GRID):
                if alphas is not None:
                    # α·C/C_prev keeps yᵀα = 0 and the box; bounded α land on C exactly.
                    alphas = alphas / C_prev * C
                alphas, rho, fold_converged = _smo(K_train, y_train, C, alphas)
                cv_converged = cv_converged and fold_converged
                oof[c_index, g_index, test] = K_test @ _dual_coef(alphas, y_train) - rho
                C_prev = C

    best = None  # (mean_f1, (C index, gamma index), fold_metrics)
    for c_index, g_index in product(range(len(DEFAULT_C_GRID)), range(len(gammas))):
        decisions = oof[c_index, g_index]
        fold_metrics = tuple(
            classification_metrics(decisions[folds == f_id] >= 0.0, labels[folds == f_id])
            for f_id in range(k)
            if (folds == f_id).any()
        )
        mean_f1 = float(np.mean([m.f1 for m in fold_metrics]))
        if best is None or mean_f1 > best[0]:
            best = (mean_f1, (c_index, g_index), fold_metrics)

    _, (c_index, g_index), fold_metrics = best
    C, gamma = DEFAULT_C_GRID[c_index], gammas[g_index]
    oof = oof[c_index, g_index]
    K = np.exp(-gamma * sq)
    alphas, rho, converged = _smo(K, y, C)
    platt_a, platt_b = fit_platt(oof, labels)
    coef = _dual_coef(alphas, y)
    degenerate = bool(np.unique(X, axis=0).shape[0] == 1)
    if degenerate:
        log.warning("all training rows identical; classifier is degenerate")
    return SvmModel(
        support_x=X[coef != 0.0],
        dual_coef=coef[coef != 0.0],
        bias=rho,
        gamma=gamma,
        penalty=C,
        platt_a=platt_a,
        platt_b=platt_b,
        cv_metrics=fold_metrics,
        degenerate=degenerate,
        converged=converged and cv_converged,
    )
