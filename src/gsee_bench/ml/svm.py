"""RBF-kernel support vector classifier trained by sequential minimal
optimization, with Platt-calibrated probabilities and stratified k-fold
hyper-parameter search.

The dual is solved as in LIBSVM's `Solver` (Fan, Chen and Lin, JMLR 6, 1889,
2005): each step takes the maximal violator i of the gradient on the set
where α may grow along y, picks j by the second-order gain, makes the clipped
two-variable step and updates the gradient with two kernel rows.  The solver
steps a batch of zero-padded problems at once, each exactly as it would run
alone, and drops a problem from the batch once it converges.  The grid
search builds one squared-distance matrix, one kernel per γ, and slices it
per fold into one batch of (γ, fold) problems; the batch is solved once per C
of the ascending grid, each problem starting from its α at the previous C
scaled by C_new / C_old (alpha seeding, DeCoste and Wagstaff, KDD 2000).  The
final fit is a batch of one.  Everything is deterministic given the data
order.  Probability calibration fits the sigmoid p = 1 / (1 + exp(a*f + b))
on out-of-fold decision values by the robust Newton iteration of Lin, Weng,
and Keerthi.
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
    return tuple(dict.fromkeys((0.01, 0.1, 1.0, 1.0 / n_features)))


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i - b_j|² floored at 0, as (|a_i|² + |b_j|²) - 2 a_i·b_j, in the
    one (len(a), len(b)) array that is returned.  The product is formed
    first, so the copy 2a is freed before the sums' array is made."""
    # The product stays (2.0 * a) @ b.T: at a is b, a @ b.T is a @ a.T,
    # which numpy hands to SYRK, and SYRK rounds differently from GEMM.
    cross = (2.0 * a) @ b.T
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
    sq -= cross
    return np.maximum(sq, 0.0, out=sq)


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    K = _sq_distances(np.atleast_2d(a), np.atleast_2d(b))
    K *= -gamma
    return np.exp(K, out=K)


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


def _smo_batch(K: np.ndarray, y: np.ndarray, sizes: np.ndarray, C: float,
               alpha: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve P duals min ½ (αy)ᵀK(αy) − Σα over 0 ≤ α ≤ C, yᵀα = 0 in step.

    Problem p lives in the leading sizes[p] entries of its zero-padded kernel
    K[p] (P, m, m) and labels y[p] (P, m); alpha (P, m) holds feasible starts,
    zero-padded (zeros when None).  Each problem takes the steps LIBSVM's
    Solver would take on it alone, and leaves the batch once its
    max-violating-pair gap falls below SMO_TOL, so every result is bit for
    bit the single-problem one.  Returns α (P, m), the biases ρ (P,) of
    f(x) = K(x, ·)(αy) − ρ, and whether each problem converged within
    SMO_MAX_ITER steps (a capped problem logs one warning).
    """
    P, m = y.shape
    alpha = np.zeros((P, m)) if alpha is None else alpha.copy()
    pos = y > 0
    # F = −y·G for the dual gradient G = Q·α − e, Q = yyᵀ∘K, each from its
    # own unpadded block.
    F = np.zeros((P, m))
    for p, n in enumerate(sizes.tolist()):
        F[p, :n] = y[p, :n] - np.ascontiguousarray(K[p, :n, :n]) @ (alpha[p, :n] * y[p, :n])
    # α may move up along y (up) or down along y (low) without leaving the box.
    real = np.arange(m) < sizes[:, None]
    up = real & np.where(pos, alpha < C, alpha > 0)
    low = real & np.where(pos, alpha > 0, alpha < C)
    diag = np.diagonal(K, axis1=1, axis2=2).copy()
    K_rows = K.reshape(P * m, m)  # row i of problem p is K_rows[p * m + i]
    converged = np.zeros(P, dtype=bool)
    # The active problems in compact copies, row r holding problem idx[r]:
    # entry (r, i) is flat index base[r] + i of them and row that + shift[r]
    # of K_rows.
    idx = np.arange(P)
    a_, F_, up_, low_, y_, diag_ = alpha, F, up, low, y, diag
    base, shift = idx * m, np.zeros(P, dtype=int)
    # Along y, α_i moves up and α_j down: s = (y_i, −y_j) per row.
    sign = np.array([[1.0], [-1.0]])
    for _ in range(SMO_MAX_ITER):
        if not idx.size:
            break
        f_up = np.where(up_, F_, -np.inf)
        i = f_up.argmax(axis=1)
        fi = base + i
        f_max = f_up.take(fi)
        f_low = np.where(low_, F_, np.inf)
        gap = f_max - f_low.min(axis=1)
        if gap.min() < SMO_TOL:
            done = gap < SMO_TOL
            alpha[idx[done]], F[idx[done]] = a_[done], F_[done]
            up[idx[done]], low[idx[done]] = up_[done], low_[done]
            converged[idx[done]] = True
            keep = ~done
            idx, i, f_max, f_low = idx[keep], i[keep], f_max[keep], f_low[keep]
            a_, F_, up_, low_ = a_[keep], F_[keep], up_[keep], low_[keep]
            y_, diag_ = y_[keep], diag_[keep]
            if not idx.size:
                break
            base = np.arange(idx.size) * m
            shift = idx * m - base
            fi = base + i
        # Second-order choice of j: the largest gain b²/a along α_i += y_i t,
        # α_j −= y_j t, with b = F_i − F_j > 0 and the curvature row
        # a_ij = K_ii + K_jj − 2 K_ij, floored at TAU.
        b = np.maximum(f_max[:, None] - f_low, 0.0)
        K_i = K_rows.take(fi + shift, axis=0)
        a = np.maximum(diag_.take(fi)[:, None] + diag_ - 2.0 * K_i, TAU)
        fj = base + (b * b / a).argmax(axis=1)
        ij = np.concatenate((fi, fj)).reshape(2, -1)
        old = a_.take(ij)
        y_ij = y_.take(ij)
        s = y_ij * sign
        grows = s > 0
        cap = np.where(grows, C - old, old)
        # t = min(b_j / a_j, cap_i, cap_j).  No value is NaN or −0.0, so
        # np.minimum returns the very float Python's min would.
        t = np.minimum(b.take(fj) / a.take(fj), np.minimum(cap[0], cap[1]))
        # A clipped step lands exactly on the bound.
        new = np.where(t == cap, grows * C, old + s * t)
        a_.put(ij, new)
        delta = y_ij * (new - old)
        F_ -= (K_i * delta[0][:, None]
               + K_rows.take(fj + shift, axis=0) * delta[1][:, None])
        below, above, pos_ij = new < C, new > 0, y_ij > 0
        up_.put(ij, np.where(pos_ij, below, above))
        low_.put(ij, np.where(pos_ij, above, below))
    for _ in idx:
        log.warning("SMO stopped after %d iterations without full KKT", SMO_MAX_ITER)
    alpha[idx], F[idx], up[idx], low[idx] = a_, F_, up_, low_
    rho = np.empty(P)
    for p, n in enumerate(sizes.tolist()):
        alpha_p, F_p = alpha[p, :n], F[p, :n]
        free = (alpha_p > 0) & (alpha_p < C)
        if free.any():
            rho[p] = -float(F_p[free].mean())
        else:
            # LIBSVM calc_rho: midpoint of the bounds that the bounded α leave.
            rho[p] = -0.5 * float(np.where(up[p, :n], F_p, -np.inf).max()
                                  + np.where(low[p, :n], F_p, np.inf).min())
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

    # Out-of-fold decisions per (C, gamma).  The folds that train on both
    # classes, each under every gamma, are the ladders: problem
    # g_index * len(trains) + f of one batched SMO per C.
    oof = np.zeros((len(DEFAULT_C_GRID), len(gammas), n))
    tests, trains = [], []
    for f_id in range(k):
        test = folds == f_id
        train = ~test
        if not test.any():
            continue
        if labels[train].all() or not labels[train].any():
            # Degenerate fold: constant prediction from the only class seen.
            oof[:, :, test] = 1.0 if labels[train].all() else -1.0
            continue
        tests.append(test)
        trains.append(train)
    sizes = np.array([np.count_nonzero(train) for train in trains] * len(gammas), dtype=int)
    width = int(sizes.max(initial=0))
    K_train = np.zeros((len(sizes), width, width))
    y_train = np.zeros((len(sizes), width))
    K_test = []
    for g_index, gamma in enumerate(gammas):
        K = np.exp(-gamma * sq)
        for f, (test, train) in enumerate(zip(tests, trains)):
            p, n_p = g_index * len(trains) + f, sizes[f]
            K_train[p, :n_p, :n_p] = K[np.ix_(train, train)]
            y_train[p, :n_p] = y[train]
            K_test.append(K[np.ix_(test, train)])
    alphas, C_prev = None, None
    cv_converged = True
    for c_index, C in enumerate(DEFAULT_C_GRID):
        if alphas is not None:
            # α·C/C_prev keeps yᵀα = 0 and the box; bounded α land on C exactly.
            alphas = alphas / C_prev * C
        alphas, rho, converged = _smo_batch(K_train, y_train, sizes, C, alphas)
        cv_converged = cv_converged and bool(converged.all())
        for p, n_p in enumerate(sizes.tolist()):
            g_index, f = divmod(p, len(trains))
            coef = _dual_coef(alphas[p, :n_p], y_train[p, :n_p])
            oof[c_index, g_index, tests[f]] = K_test[p] @ coef - rho[p]
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
    alphas, rho, converged = _smo_batch(K[None], y[None], np.array([n]), C)
    platt_a, platt_b = fit_platt(oof, labels)
    coef = _dual_coef(alphas[0], y)
    # Every row equals row 0 (0.0 == -0.0, as np.unique(X, axis=0) counts rows).
    degenerate = bool(np.all(X == X[0]))
    if degenerate:
        log.warning("all training rows identical; classifier is degenerate")
    return SvmModel(
        support_x=X[coef != 0.0],
        dual_coef=coef[coef != 0.0],
        bias=float(rho[0]),
        gamma=gamma,
        penalty=C,
        platt_a=platt_a,
        platt_b=platt_b,
        cv_metrics=fold_metrics,
        degenerate=degenerate,
        converged=bool(converged[0]) and cv_converged,
    )
