"""Test oracles for the matrix-free sector Hamiltonian in `gsee_bench.fci`.

`build_csr` is the Slater-Condon element assembly: every element the rules
leave (a diagonal, a one-spin single or double, or an alpha-beta double),
each class a few array operations over its own excitation tables and the
chemist-notation integrals, stored as a CSR array with exact zeros dropped.
Of the package it shares only the diagonal, the interleaving phase and two
bit helpers, so it checks both sigma and `toarray`.  `sector_dets` lists
the (alpha, beta) bitmask pairs of a sector in build_basis order.
`sigma_reference` is the direct-CI sigma with fresh arrays for every
intermediate, the oracle that the fixed-scratch product must equal bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse

from gsee_bench.fcidump import FciDump
from gsee_bench.fci import (
    DeterminantBasis,
    SectorHamiltonian,
    _bit,
    _diagonal,
    _interleave_phase,
    _parity,
    _strings,
)


def sigma_reference(h: SectorHamiltonian, x: np.ndarray) -> np.ndarray:
    """H @ x for one vector, computed as the package's sigma is but with
    every stack, gather and sum in a fresh array."""
    a, b, phase = h._alpha, h._beta, h._phase
    n_a, n_b, n_pairs = len(a.masks), len(b.masks), len(h._integrals)
    c = (x * phase).reshape(n_a, n_b)
    d = np.empty((n_a, n_pairs, n_b))
    d_beta = np.empty_like(d)
    g = np.empty_like(d)
    # D[I, r, J] = (E_r c)[I, J] is a gather of [c; -c; 0], per spin
    np.take(np.concatenate([c, -c, np.zeros((1, n_b))]), a.pair_source, axis=0,
            out=d, mode="clip")
    np.take(np.concatenate([c, -c, np.zeros((n_a, 1))], axis=1), b.pair_source.T, axis=1,
            out=d_beta, mode="clip")
    d += d_beta
    np.matmul(h._integrals, d, out=g)
    # sigma = sum_r E_r G_r, gathered with the same tables
    alpha = np.take(g.reshape(n_a * n_pairs, n_b), a.pair_to * n_pairs + a.pair, axis=0)
    beta = np.take(g.reshape(n_a, n_pairs * n_b), b.pair * n_b + b.pair_to, axis=1)
    sigma = (np.einsum("ie,iej->ij", a.pair_sign, alpha)
             + np.einsum("je,ije->ij", b.pair_sign, beta) + h.dump.e_core * c)
    return sigma.ravel() * phase


def sector_dets(norb: int, n_alpha: int, n_beta: int) -> list[tuple[int, int]]:
    betas = _strings(norb, n_beta).masks.tolist()
    return [(a, b) for a in _strings(norb, n_alpha).masks.tolist() for b in betas]


@dataclass(frozen=True)
class _Excitations:
    """Occupation strings of one spin in lexicographic order, with every
    single and double excitation of each string (one row per string).

    A single a+_p a_q (q occupied, p empty) leads to string `single_to` with
    phase `single_sign`; `single_pq` is p * norb + q.  A double
    a+_p a+_r a_s a_q (q < s occupied, p < r empty) leads to `double_to` with
    phase `double_sign`; `double_direct` and `double_exchange` are the flat
    indices of (qp|sr) and (qr|sp) in the norb^4 integral tensor.
    """

    occ: np.ndarray
    single_to: np.ndarray
    single_pq: np.ndarray
    single_sign: np.ndarray
    double_to: np.ndarray
    double_direct: np.ndarray
    double_exchange: np.ndarray
    double_sign: np.ndarray


def _excitations(norb: int, n_occ: int) -> _Excitations:
    n = math.comb(norb, n_occ)
    occupied = np.array(list(combinations(range(norb), n_occ)), dtype=np.int64).reshape(n, n_occ)
    occ = np.zeros((n, norb))
    occ[np.arange(n)[:, None], occupied] = 1.0
    masks = _bit(occupied).sum(axis=1)
    empty = np.nonzero(occ == 0.0)[1].reshape(n, norb - n_occ)
    index = np.zeros(1 << norb, dtype=np.int32)
    index[masks] = np.arange(n, dtype=np.int32)
    mask = masks[:, None]

    # singles a+_p a_q: the phase counts occupied orbitals strictly between
    q = np.repeat(occupied, norb - n_occ, axis=1)
    p = np.tile(empty, (1, n_occ))
    between = (_bit(np.maximum(p, q)) - 1) & ~(_bit(np.minimum(p, q) + 1) - 1)
    single_sign = _parity(mask & between)
    single_to = index[mask ^ _bit(p) ^ _bit(q)]
    single_pq = p * norb + q

    # doubles a+_p a+_r a_s a_q; the phase is taken one operator at a time
    oi, oj = np.triu_indices(n_occ, 1)
    ei, ej = np.triu_indices(norb - n_occ, 1)
    shape = (n, len(oi), len(ei))
    q, s = (np.broadcast_to(occupied[:, o, None], shape).reshape(n, -1) for o in (oi, oj))
    p, r = (np.broadcast_to(empty[:, None, e], shape).reshape(n, -1) for e in (ei, ej))
    after_q = mask ^ _bit(q)
    after_s = after_q ^ _bit(s)
    after_r = after_s | _bit(r)
    double_sign = (_parity(mask & (_bit(q) - 1)) * _parity(after_q & (_bit(s) - 1))
                   * _parity(after_s & (_bit(r) - 1)) * _parity(after_r & (_bit(p) - 1)))
    double_to = index[after_r | _bit(p)]

    def flat(i, j, k, l):
        return ((i * norb + j) * norb + k) * norb + l

    return _Excitations(occ, single_to, single_pq, single_sign, double_to,
                        flat(q, p, s, r), flat(q, r, s, p), double_sign)


def _value_table(dump: FciDump, a: _Excitations, b: _Excitations) -> np.ndarray:
    """Every stored element is sign * (t[first] + t[second]) for two entries
    of the table t returned here; `_plan` holds the signs and indices.

    The regions of t, in this order: the diagonal (e_core included) per
    determinant; per alpha string and pq, then per beta string and pq, the
    one-spin part of a single, h_pq + sum_{r in string} (pq|rr) - (pr|rq);
    per beta string and pq, then per alpha string and pq, the Coulomb term
    sum_{r in string} (pq|rr) that a single of the other spin gathers; the
    flat (pq|rs) for the alpha-beta doubles; per alpha string and double, then
    per beta string and double, (qp|sr) - (qr|sp); and a closing zero.
    """
    norb = dump.norb
    eri = dump.two_body_tensor()
    flat = eri.ravel()
    direct = np.einsum("pqrr->pqr", eri).reshape(norb * norb, norb)
    one_spin = direct - np.einsum("prrq->pqr", eri).reshape(norb * norb, norb)
    h_flat = dump.h1.ravel()

    def doubles(t: _Excitations) -> np.ndarray:
        return (flat[t.double_direct] - flat[t.double_exchange]).ravel()

    return np.concatenate([
        _diagonal(dump, a, b).ravel(),
        (a.occ @ one_spin.T + h_flat).ravel(), (b.occ @ one_spin.T + h_flat).ravel(),
        (b.occ @ direct.T).ravel(), (a.occ @ direct.T).ravel(), flat,
        doubles(a), doubles(b), [0.0],
    ])


def _plan(a: _Excitations, b: _Excitations, phase: np.ndarray) -> tuple[np.ndarray, ...]:
    """(first, second, sign, cols), one row of each per determinant: element
    e of a row is sign[e] * (t[first[e]] + t[second[e]]) of `_value_table` t,
    in column cols[e]; every row has the same length.  `phase` is the
    interleaving sign of each determinant."""
    n_a, n_b, npq = len(a.occ), len(b.occ), a.occ.shape[1] ** 2
    sa, da = a.single_to.shape[1], a.double_to.shape[1]
    sb, db = b.single_to.shape[1], b.double_to.shape[1]
    o_sa, o_sb, o_cb, o_ca, o_pair, o_da, o_db, zero = np.cumsum(
        [n_a * n_b, n_a * npq, n_b * npq, n_b * npq, n_a * npq, npq * npq, n_a * da, n_b * db])

    ia = np.arange(n_a)[:, None, None]
    ib = np.arange(n_b)[None, :, None]
    pq_a, pq_b = a.single_pq[:, None, :], b.single_pq[None]
    to_a, to_b = a.single_to[:, None, :] * n_b, b.single_to[None]
    sign_a, sign_b = a.single_sign[:, None, :], b.single_sign[None]
    row = ia * n_b + ib
    segments = [  # (shape per row, first, second, sign, cols), in row order, one per class
        ((1,), row, zero, 1.0, row),
        ((sa,), o_sa + ia * npq + pq_a, o_cb + ib * npq + pq_a, sign_a, to_a + ib),
        ((sb,), o_sb + ib * npq + pq_b, o_ca + ia * npq + pq_b, sign_b, ia * n_b + to_b),
        ((sa, sb), o_pair + pq_a[..., None] * npq + pq_b[:, :, None, :], zero,
         sign_a[..., None] * sign_b[:, :, None, :], to_a[..., None] + to_b[:, :, None, :]),
        ((da,), o_da + ia * da + np.arange(da), zero, a.double_sign[:, None, :],
         a.double_to[:, None, :] * n_b + ib),
        ((db,), o_db + ib * db + np.arange(db), zero, b.double_sign[None],
         ia * n_b + b.double_to[None]),
    ]
    shape = (n_a, n_b)

    def join(field: int, dtype: type) -> np.ndarray:
        parts = [np.broadcast_to(seg[field], shape + seg[0]).reshape(*shape, math.prod(seg[0]))
                 for seg in segments]
        return np.concatenate(parts, axis=2, dtype=dtype).reshape(n_a * n_b, -1)

    cols = join(4, np.int32)
    sign = join(3, np.float64) * phase[:, None] * phase[cols]
    return join(1, np.int32), join(2, np.int32), sign, cols


def build_csr(dump: FciDump, basis: DeterminantBasis) -> scipy.sparse.csr_array:
    """Sparse symmetric sector Hamiltonian over a build_basis basis.

    The stored elements are those the Slater-Condon rules leave, less exact
    zeros.
    """
    norb, n_alpha, n_beta = basis.norb, basis.n_alpha, basis.n_beta
    a, b = _excitations(norb, n_alpha), _excitations(norb, n_beta)
    table = _value_table(dump, a, b)
    first, second, sign, cols = _plan(a, b, _interleave_phase(norb, n_alpha, n_beta))
    vals = (table[first] + table[second]) * sign
    keep = vals != 0.0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))]).astype(np.int32)
    dim = len(basis)
    return scipy.sparse.csr_array((vals[keep], cols[keep], indptr), shape=(dim, dim))
