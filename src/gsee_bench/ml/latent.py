"""Invertible low-dimensional latent spaces: PCA and non-negative NNMF.

PCA is the default (deterministic spectral decomposition of the covariance
with a fixed sign convention); NNMF by hierarchical alternating least squares
(HALS) is the alternative that keeps the inverse transform entrywise
non-negative.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import RankDeficient

log = logging.getLogger(__name__)

NNMF_EPS = 1e-12
# HALS sweeps per fit.  The 2- and 3-axis fits of the demo and of the seed-1
# benchmark catalogs (12 x 20 and 400 x 20) converge in 22-363 sweeps, 4-axis
# fits in up to 6773.  On a 2-core x86 machine a capped 400-row fit takes
# 0.45 s at 2 axes and 1.0 s at 5.
NNMF_MAX_ITER = 10_000
NNMF_TOL = 1e-9


@dataclass(frozen=True)
class LatentModel:
    """A fitted affine latent space: X ~= embedding @ components + mean.

    PCA stores orthonormal `components` (dim x D) and the column `mean`; NNMF
    stores its factor H as `components` and a zero `mean`, so X ~= W @ H with
    `embedding` = W.  bounds[i] = (min, max) of latent axis i over the
    training embedding.
    """

    embedding: np.ndarray
    bounds: np.ndarray
    components: np.ndarray
    mean: np.ndarray
    converged: bool = True

    def inverse(self, W) -> np.ndarray:
        """Map latent coordinates back into (scaled) feature space, adding
        the mean into the product's own array."""
        X = np.asarray(W, dtype=float) @ self.components
        X += self.mean
        return X


def _bounds_of(embedding: np.ndarray) -> np.ndarray:
    return np.column_stack([embedding.min(axis=0), embedding.max(axis=0)])


def pca_fit(X, dim: int) -> LatentModel:
    """Top-`dim` principal components via eigendecomposition of the covariance.

    Sign convention: each component's largest-magnitude coordinate is positive,
    which makes the embedding reproducible across runs and row orders.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if dim > d:
        raise RankDeficient(f"latent dim {dim} exceeds feature dim {d}")
    # Distinct rows, 0.0 and -0.0 alike (as np.unique(X, axis=0) counts them):
    # adding 0.0 turns -0.0 into 0.0.
    if len({row.tobytes() for row in X + 0.0}) < dim:
        raise RankDeficient(f"fewer than {dim} distinct rows")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / max(n - 1, 1)
    # eigh orders the eigenvalues ascending, so the top dim are its last columns
    components = np.linalg.eigh(cov)[1][:, ::-1][:, :dim].T.copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    embedding = centered @ components.T
    return LatentModel(embedding, _bounds_of(embedding), components, mean)


def nnmf_fit(X, dim: int, seed: int = 0) -> LatentModel:
    """Factorization X ~= W H with W, H >= 0 by HALS (Cichocki and Phan,
    IEICE Trans. Fundamentals E92-A, 708, 2009).

    Starts from seeded uniform factors.  A sweep sets each row of H, then each
    column of W, to its exact non-negative least-squares update with the
    others held, floored at NNMF_EPS so that no factor dies.  Sweeps stop when
    the relative Frobenius-error improvement drops below NNMF_TOL or at
    NNMF_MAX_ITER; a stalled fit is returned with converged=False.
    """
    X = np.asarray(X, dtype=float)
    if np.any(X < 0):
        raise ValueError("NNMF input must be entrywise non-negative")
    n, d = X.shape
    if dim > d:
        raise RankDeficient(f"latent dim {dim} exceeds feature dim {d}")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(max(X.mean(), NNMF_EPS) / dim)
    W = rng.uniform(0.0, 1.0, size=(n, dim)) * scale + NNMF_EPS
    H = rng.uniform(0.0, 1.0, size=(dim, d)) * scale + NNMF_EPS

    prev_error = np.inf
    converged = False
    error = float(np.linalg.norm(X - W @ H))
    for _ in range(NNMF_MAX_ITER):
        WtX, WtW = W.T @ X, W.T @ W
        for k in range(dim):
            H[k] = np.maximum(H[k] + (WtX[k] - WtW[k] @ H) / WtW[k, k], NNMF_EPS)
        XHt, HHt = X @ H.T, H @ H.T
        for k in range(dim):
            W[:, k] = np.maximum(W[:, k] + (XHt[:, k] - W @ HHt[:, k]) / HHt[k, k], NNMF_EPS)
        error = float(np.linalg.norm(X - W @ H))
        if prev_error - error < NNMF_TOL * max(error, NNMF_EPS):
            converged = True
            break
        prev_error = error
    if not converged:
        log.warning("NNMF stopped at max_iter=%d with error %.3e", NNMF_MAX_ITER, error)
    # W, H >= 0 never give -0.0, so adding the zero mean changes no bit of W @ H.
    return LatentModel(W, _bounds_of(W), H, np.zeros(d), converged)
