"""RBF-kernel support vector classifier trained by sequential minimal
optimization, with Platt-calibrated probabilities and stratified k-fold
hyper-parameter search.

The SMO working-set loop follows Platt's two-heuristic scheme but replaces
the random loop starts with a rolling deterministic offset, so training is
reproducible given the data order.  Probability calibration fits the sigmoid
p = 1 / (1 + exp(a*f + b)) on out-of-fold decision values by the robust
Newton iteration of Lin, Weng, and Keerthi.
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


def default_gamma_grid(n_features: int) -> tuple[float, ...]:
    grid = [0.01, 0.1, 1.0, 1.0 / n_features]
    out: list[float] = []
    for g in grid:
        if g not in out:
            out.append(g)
    return tuple(out)


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


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


class _Smo:
    """Platt-style SMO on a precomputed kernel matrix."""

    def __init__(self, K: np.ndarray, y: np.ndarray, C: float,
                 tol: float = SMO_TOL, max_sweeps: int = 2000):
        self.K = K
        self.y = y
        self.C = C
        self.tol = tol
        self.max_sweeps = max_sweeps
        self.n = len(y)
        self.alphas = np.zeros(self.n)
        self.b = 0.0
        # f(x_i) = 0 initially, so the error cache starts at -y.
        self.errors = -y.astype(float)
        self._offset = 0
        self.converged = True

    def _take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        a1_old, a2_old = self.alphas[i1], self.alphas[i2]
        y1, y2 = self.y[i1], self.y[i2]
        e1, e2 = self.errors[i1], self.errors[i2]
        s = y1 * y2
        if s > 0:
            lo = max(0.0, a1_old + a2_old - self.C)
            hi = min(self.C, a1_old + a2_old)
        else:
            lo = max(0.0, a2_old - a1_old)
            hi = min(self.C, self.C + a2_old - a1_old)
        if lo == hi:
            return False
        k11 = self.K[i1, i1]
        k12 = self.K[i1, i2]
        k22 = self.K[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2 = a2_old + y2 * (e1 - e2) / eta
            a2 = min(max(a2, lo), hi)
        else:
            # Flat direction: evaluate the objective at both clip ends.
            f1 = y1 * (e1 + self.b) - a1_old * k11 - s * a2_old * k12
            f2 = y2 * (e2 + self.b) - s * a1_old * k12 - a2_old * k22
            l1 = a1_old + s * (a2_old - lo)
            h1 = a1_old + s * (a2_old - hi)
            lo_obj = (l1 * f1 + lo * f2 + 0.5 * l1 * l1 * k11
                      + 0.5 * lo * lo * k22 + s * lo * l1 * k12)
            hi_obj = (h1 * f1 + hi * f2 + 0.5 * h1 * h1 * k11
                      + 0.5 * hi * hi * k22 + s * hi * h1 * k12)
            if lo_obj < hi_obj - 1e-12:
                a2 = lo
            elif hi_obj < lo_obj - 1e-12:
                a2 = hi
            else:
                a2 = a2_old
        if abs(a2 - a2_old) < 1e-12 * (a2 + a2_old + 1e-12):
            return False
        a1 = a1_old + s * (a2_old - a2)

        b1 = e1 + y1 * (a1 - a1_old) * k11 + y2 * (a2 - a2_old) * k12 + self.b
        b2 = e2 + y1 * (a1 - a1_old) * k12 + y2 * (a2 - a2_old) * k22 + self.b
        if 0.0 < a1 < self.C:
            b_new = b1
        elif 0.0 < a2 < self.C:
            b_new = b2
        else:
            b_new = (b1 + b2) / 2.0

        self.errors += (
            y1 * (a1 - a1_old) * self.K[:, i1]
            + y2 * (a2 - a2_old) * self.K[:, i2]
            - (b_new - self.b)
        )
        self.alphas[i1] = a1
        self.alphas[i2] = a2
        self.b = b_new
        return True

    def _examine(self, i2: int) -> int:
        y2 = self.y[i2]
        a2 = self.alphas[i2]
        e2 = self.errors[i2]
        r2 = e2 * y2
        if not ((r2 < -self.tol and a2 < self.C) or (r2 > self.tol and a2 > 0)):
            return 0
        non_bound = np.flatnonzero((self.alphas > 0) & (self.alphas < self.C))
        if len(non_bound) > 1:
            i1 = int(non_bound[np.argmax(np.abs(self.errors[non_bound] - e2))])
            if self._take_step(i1, i2):
                return 1
        self._offset += 1
        if len(non_bound):
            start = self._offset % len(non_bound)
            for i1 in np.roll(non_bound, -start):
                if self._take_step(int(i1), i2):
                    return 1
        start = self._offset % self.n
        for i1 in np.roll(np.arange(self.n), -start):
            if self._take_step(int(i1), i2):
                return 1
        return 0

    def run(self) -> None:
        num_changed = 0
        examine_all = True
        sweeps = 0
        while num_changed > 0 or examine_all:
            sweeps += 1
            if sweeps > self.max_sweeps:
                self.converged = False
                log.warning("SMO stopped after %d sweeps without full KKT", self.max_sweeps)
                break
            num_changed = 0
            if examine_all:
                targets = range(self.n)
            else:
                targets = np.flatnonzero((self.alphas > 0) & (self.alphas < self.C))
            for i in targets:
                num_changed += self._examine(int(i))
            if examine_all:
                examine_all = False
            elif num_changed == 0:
                examine_all = True


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
    n_features: int
    train_accuracy: float
    cv_metrics: tuple[ClassificationMetrics, ...] = ()
    degenerate: bool = False
    converged: bool = True

    def decision_function(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise DimensionMismatch(f"query has {X.shape[1]} features, model {self.n_features}")
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


def _fit_smo(X: np.ndarray, y: np.ndarray, C: float, gamma: float) -> tuple[np.ndarray, float, bool]:
    K = rbf_kernel(X, X, gamma)
    smo = _Smo(K, y, C)
    smo.run()
    return smo.alphas, smo.b, smo.converged


def _support(X: np.ndarray, y: np.ndarray, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support vectors (alpha above ALPHA_EPS) and their coefficients alpha * y."""
    mask = alphas > ALPHA_EPS
    return X[mask], alphas[mask] * y[mask]


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


def svm_fit_cv(X, labels, k: int = 5, seed: int = 0) -> SvmModel:
    """Grid-searched, cross-validated SVM fit.

    Each (C, gamma) pair of DEFAULT_C_GRID x default_gamma_grid(D) is scored
    by mean F1 over stratified k-fold splits; the best pair (first on ties) is
    refit on all data, and the Platt sigmoid is fit on that pair's
    out-of-fold decision values.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    n, d = X.shape
    if len(labels) != n:
        raise LengthMismatch(f"{n} rows vs {len(labels)} labels")
    if labels.all() or not labels.any():
        raise SingleClass("training labels contain a single class")
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise TooFewSamples(f"{n} samples for {k} folds")

    y = np.where(labels, 1.0, -1.0)
    folds = stratified_folds(labels, k, seed)

    grid = product(DEFAULT_C_GRID, default_gamma_grid(d))
    best = None  # (mean_f1, grid_index, params, oof_decisions, fold_metrics)
    for grid_index, (C, gamma) in enumerate(grid):
        oof = np.zeros(n)
        fold_metrics = []
        for f_id in range(k):
            test = folds == f_id
            train = ~test
            if not test.any():
                continue
            if labels[train].all() or not labels[train].any():
                # Degenerate fold: constant prediction from the only class seen.
                oof[test] = 1.0 if labels[train].all() else -1.0
            else:
                alphas, b, _ = _fit_smo(X[train], y[train], C, gamma)
                support, dual_coef = _support(X[train], y[train], alphas)
                oof[test] = _decision(X[test], support, dual_coef, b, gamma)
            fold_metrics.append(classification_metrics(oof[test] >= 0.0, labels[test]))
        mean_f1 = float(np.mean([m.f1 for m in fold_metrics]))
        if best is None or mean_f1 > best[0]:
            best = (mean_f1, grid_index, (C, gamma), oof, tuple(fold_metrics))

    _, _, (C, gamma), oof, fold_metrics = best
    alphas, b, converged = _fit_smo(X, y, C, gamma)
    platt_a, platt_b = fit_platt(oof, labels)
    support, dual_coef = _support(X, y, alphas)
    train_decision = _decision(X, support, dual_coef, b, gamma)
    train_accuracy = float(np.mean((train_decision >= 0.0) == labels))
    degenerate = bool(np.unique(X, axis=0).shape[0] == 1)
    if degenerate:
        log.warning("all training rows identical; classifier is degenerate")
    return SvmModel(
        support_x=support,
        dual_coef=dual_coef,
        bias=b,
        gamma=gamma,
        penalty=C,
        platt_a=platt_a,
        platt_b=platt_b,
        n_features=d,
        train_accuracy=train_accuracy,
        cv_metrics=fold_metrics,
        degenerate=degenerate,
        converged=converged,
    )
