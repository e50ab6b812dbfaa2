"""Reference SMO solvers, kept as oracles for `gsee_bench.ml.svm`.

`smo` is the single-problem second-order solver (LIBSVM's `Solver`) that
`svm._smo_batch` steps many of at once; the batch must give its α, ρ and
convergence flag bit for bit.  It reads `svm.SMO_MAX_ITER` at call time, so a
patched cap reaches both.

`PlattSmo` is the trainer the package used before the second-order solver:
Platt's two-heuristic loop with a rolling deterministic offset instead of
random loop starts.  It solves the same dual,
min ½ (αy)ᵀK(αy) − Σα over 0 ≤ α ≤ C, yᵀα = 0, to the same KKT tolerance,
and its bias b follows the same convention, f(x) = K(x, ·)(αy) − b.
"""

from __future__ import annotations

import logging

import numpy as np

from gsee_bench.ml import svm
from gsee_bench.ml.svm import SMO_TOL, TAU

log = logging.getLogger(__name__)


def smo(K: np.ndarray, y: np.ndarray, C: float,
        alpha: np.ndarray | None = None) -> tuple[np.ndarray, float, bool]:
    """Solve min ½ (αy)ᵀK(αy) − Σα over 0 ≤ α ≤ C, yᵀα = 0 (LIBSVM's Solver).

    alpha is a feasible start (zeros when None).  Returns α, the bias ρ of
    f(x) = K(x, ·)(αy) − ρ, and whether the max-violating-pair gap fell
    below SMO_TOL within svm.SMO_MAX_ITER steps.
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
    for _ in range(svm.SMO_MAX_ITER):
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
        log.warning("SMO stopped after %d iterations without full KKT", svm.SMO_MAX_ITER)
    free = (alpha > 0) & (alpha < C)
    if free.any():
        rho = -float(F[free].mean())
    else:
        # LIBSVM calc_rho: midpoint of the bounds that the bounded α leave.
        rho = -0.5 * float(np.where(up, F, -np.inf).max() + np.where(low, F, np.inf).min())
    return alpha, rho, converged


class PlattSmo:
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


def platt_smo(K: np.ndarray, y: np.ndarray, C: float) -> tuple[np.ndarray, float, bool]:
    """Platt's SMO from α = 0: the dual solution, the bias b and convergence."""
    smo = PlattSmo(K, y, C)
    smo.run()
    return smo.alphas, smo.b, smo.converged
