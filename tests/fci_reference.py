"""Test oracles for the matrix-free sector Hamiltonian in `gsee_bench.fci`.

`build_csr` is the sparse element assembly that `build_fci_matrix` returned
before its product became sigma: the same `_Plan`/`_value_table` elements,
stored as a CSR array with exact zeros dropped.  `sector_dets` lists the
(alpha, beta) bitmask pairs of a sector in build_basis order.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from gsee_bench.fcidump import FciDump
from gsee_bench.fci import (
    _BLOCK_ELEMENTS,
    _CACHED_PLAN_ELEMENTS,
    DeterminantBasis,
    _cached_plan,
    _plan,
    _row_elements,
    _strings,
    _value_table,
)


def sector_dets(norb: int, n_alpha: int, n_beta: int) -> list[tuple[int, int]]:
    betas = _strings(norb, n_beta).masks.tolist()
    return [(a, b) for a in _strings(norb, n_alpha).masks.tolist() for b in betas]


def build_csr(dump: FciDump, basis: DeterminantBasis) -> scipy.sparse.csr_array:
    """Sparse symmetric sector Hamiltonian over a build_basis basis.

    The stored elements are those the Slater-Condon rules leave, less exact
    zeros.  Rows are assembled a block of alpha strings at a time into
    preallocated arrays, and the CSR array is made by one constructor call.
    """
    norb, n_alpha, n_beta = basis.norb, basis.n_alpha, basis.n_beta
    a, b = _strings(norb, n_alpha), _strings(norb, n_beta)
    table = _value_table(dump, a, b)
    n_a, n_b = len(a.masks), len(b.masks)
    dim = n_a * n_b
    row_len = _row_elements(norb, n_alpha, n_beta)
    plan_of = _cached_plan if dim * row_len <= _CACHED_PLAN_ELEMENTS else _plan
    step = max(1, _BLOCK_ELEMENTS // (n_b * row_len))

    data = np.empty(dim * row_len)
    indices = np.empty(dim * row_len, dtype=np.int32)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    filled = 0
    for start in range(0, n_a, step):
        stop = min(start + step, n_a)
        plan = plan_of(norb, n_alpha, n_beta, start, stop)
        vals = table[plan.first]
        vals += table[plan.second]
        vals *= plan.sign
        keep = vals != 0.0
        rows = slice(start * n_b + 1, stop * n_b + 1)
        indptr[rows] = filled + np.cumsum(keep.reshape(-1, row_len).sum(axis=1))
        end = int(indptr[rows.stop - 1])
        data[filled:end] = vals[keep]
        indices[filled:end] = plan.cols[keep]
        filled = end
    data.resize(filled)
    indices.resize(filled)
    return scipy.sparse.csr_array((data, indices, indptr), shape=(dim, dim))
