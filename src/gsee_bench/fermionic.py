"""Fermionic-representation features: problem sizes and double factorization.

The two-electron tensor (ij|kl), reshaped into the symmetric norb^2 x norb^2
matrix V[(i,j),(k,l)], is eigendecomposed into scalar/matrix pairs
(lambda_l, g^(l)) with each g^(l) symmetric and unit Frobenius norm.  The
retained count L, the eigenvalue list, and the gap |lambda_0 - lambda_1|
between the two largest-magnitude eigenvalues are complexity features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigenFailure, InvalidOccupation
from .fcidump import FciDump

DEFAULT_DF_THRESHOLD = 1e-6


@dataclass(frozen=True)
class DfResult:
    """Double-factorization of a two-electron tensor.

    lambdas are sorted by descending absolute value; g_matrices[l] is the
    symmetric, unit-Frobenius-norm coefficient matrix paired with lambdas[l].
    """

    lambdas: np.ndarray
    g_matrices: np.ndarray
    rank: int
    gap: float


def _log10_binomial(n: int, k: int) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    ) / math.log(10.0)


def log_fci_size(norb: int, n_alpha: int, n_beta: int) -> float:
    """log10 of the determinant count C(norb, n_alpha) * C(norb, n_beta).

    Computed with log-gamma so it stays finite for thousands of orbitals.
    """
    for occ in (n_alpha, n_beta):
        if not 0 <= occ <= norb:
            raise InvalidOccupation(f"{occ} electrons in {norb} orbitals")
    return _log10_binomial(norb, n_alpha) + _log10_binomial(norb, n_beta)


def double_factorize(
    dump: FciDump,
    threshold: float = DEFAULT_DF_THRESHOLD,
    absolute: bool = False,
) -> DfResult:
    """Eigendecompose the reshaped two-electron tensor into (lambda, g) pairs.

    Eigenpairs are retained while |lambda| > threshold * |lambda_max| (or
    > threshold when absolute=True, e.g. a fixed Hartree cutoff).  An all-zero
    tensor yields rank 0 and gap 0; that is a degenerate input, not an error.
    """
    n = dump.norb
    v = dump.two_body_tensor().reshape(n * n, n * n)
    try:
        eigvals, eigvecs = np.linalg.eigh(v)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    order = np.argsort(-np.abs(eigvals), kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    lam_max = abs(eigvals[0]) if eigvals.size else 0.0
    cutoff = threshold if absolute else threshold * lam_max
    lambdas = []
    gs = []
    for lam, vec in zip(eigvals, eigvecs.T):
        if lam_max == 0.0 or abs(lam) <= cutoff:
            continue
        g = vec.reshape(n, n)
        # Nonzero eigenvalues live in the index-symmetric subspace; the
        # symmetrization only strips numerical noise (or near-null mixtures).
        g = (g + g.T) / 2.0
        fro = np.linalg.norm(g)
        if fro < 1e-12:
            continue
        lambdas.append(lam * fro * fro)
        gs.append(g / fro)

    rank = len(lambdas)
    gap = abs(lambdas[0] - lambdas[1]) if rank >= 2 else 0.0
    return DfResult(
        lambdas=np.array(lambdas),
        g_matrices=np.array(gs).reshape(rank, n, n),
        rank=rank,
        gap=gap,
    )


def df_reconstruct(df: DfResult) -> np.ndarray:
    """Rebuild the two-electron tensor sum_l lambda_l g^(l)_ij g^(l)_kl."""
    if df.rank == 0:
        n = df.g_matrices.shape[1] if df.g_matrices.ndim == 3 else 0
        return np.zeros((n,) * 4)
    return np.einsum("a,aij,akl->ijkl", df.lambdas, df.g_matrices, df.g_matrices)
