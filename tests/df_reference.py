"""Reference double factorization: the full eigendecomposition with factors.

The package reads only the DF rank and gap, from the eigenvalues of the packed
pair matrix.  This module keeps the textbook path the tests check it against
(Motta et al., npj QI 7, 83, 2021): the two-electron tensor (ij|kl), reshaped
into the symmetric norb^2 x norb^2 matrix V[(i,j),(k,l)], is eigendecomposed
into scalar/matrix pairs (lambda_l, g^(l)) with each g^(l) symmetric and of
unit Frobenius norm, so that (ij|kl) = sum_l lambda_l g^(l)_ij g^(l)_kl.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gsee_bench.errors import EigenFailure
from gsee_bench.fcidump import FciDump
from gsee_bench.fermionic import DEFAULT_DF_THRESHOLD


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


def double_factorize(
    dump: FciDump,
    threshold: float = DEFAULT_DF_THRESHOLD,
    absolute: bool = False,
) -> DfResult:
    """Eigendecompose the reshaped two-electron tensor into (lambda, g) pairs.

    Eigenpairs are retained while |lambda| > threshold * |lambda_max| (or
    > threshold when absolute=True).  An all-zero tensor yields rank 0 and
    gap 0.
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
