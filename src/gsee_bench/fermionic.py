"""Fermionic-representation features: the FCI space size and the double
factorization (DF) rank and gap.

Reshaped into the symmetric norb^2 x norb^2 matrix [(ij), (kl)], the
two-electron tensor (ij|kl) factorizes as sum_l lambda_l g^(l)_ij g^(l)_kl
with symmetric g^(l) (Motta et al., npj QI 7, 83, 2021).  The features are
the number L of eigenvalues lambda_l kept by a cutoff and the gap
|lambda_0 - lambda_1| between the two largest in magnitude.  That matrix
maps every index-antisymmetric vector to zero, so its nonzero eigenvalues
are those of M[pq, rs] = w_pq w_rs V[pq, rs], with V = (pq|rs) the pairs x
pairs matrix of `fcidump.pair_integrals` and w = sqrt(2) on p < q and 1 on
p = q; the factors themselves are not formed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigenFailure, InvalidOccupation
from .fcidump import FciDump, pair_integrals, pair_order

DEFAULT_DF_THRESHOLD = 1e-6


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
) -> tuple[int, float]:
    """DF rank and gap from the eigenvalues of the packed pair matrix.

    Eigenvalues are kept while |lambda| > threshold * |lambda_max| (or
    > threshold when absolute=True, e.g. a fixed Hartree cutoff); the rank
    is at most the norb(norb+1)/2 pairs.  An all-zero tensor yields rank 0
    and gap 0; that is a degenerate input, not an error.
    """
    p, q, _ = pair_order(dump.norb)
    weight = np.where(p == q, 1.0, math.sqrt(2.0))
    packed = pair_integrals(dump)[1] * np.outer(weight, weight)
    try:
        eigvals = np.linalg.eigvalsh(packed)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    eigvals = eigvals[np.argsort(-np.abs(eigvals), kind="stable")]
    lam_max = abs(eigvals[0])  # norb >= 1, so there is one
    if lam_max == 0.0:
        return 0, 0.0
    kept = eigvals[np.abs(eigvals) > (threshold if absolute else threshold * lam_max)]
    gap = abs(kept[0] - kept[1]) if len(kept) >= 2 else 0.0
    return len(kept), float(gap)
