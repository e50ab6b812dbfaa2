"""Desk-scale exact ground-state solver over a Slater determinant basis.

Determinants are (alpha, beta) occupation bitmask pairs over spatial orbitals,
in alpha-major order.  `build_fci_matrix` returns the sector Hamiltonian
matrix-free.  Its product H @ c, which Davidson iterates on, is the
string-driven direct-CI sigma of Knowles and Handy (CPL 111, 315, 1984) and
Olsen et al. (JCP 89, 2185, 1988): with H = sum k_pq E_pq
+ 1/2 sum (pq|rs) E_pq E_rs and k = h - 1/2 sum_r (pr|rq), it forms
D_rs = E_rs c from the cached string tables, G = k c + 1/2 (pq|rs) D as one
matrix product, and sigma = sum E_pq G_pq as a gather over the same tables.
Dense sectors never apply sigma: `toarray` assembles the elements the
Slater-Condon rules leave (a diagonal, a one-spin single or double, or an
alpha-beta double), each class a few array operations over the tables and
the chemist-notation integrals.  Fermionic phases are those of the
interleaved spin-orbital ordering (alpha of orbital p on index 2p, beta on
2p+1), so the matrix is sign-consistent with the qubit encoding in `pauli`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .errors import InconsistentBasis, InvalidOccupation, TooLarge
from .fcidump import FciDump

MAX_ORBITALS = 16
# Cap on the Slater-Condon element count of a sector (`nnz`), checked on the
# closed form before anything is allocated.  Sigma stores no elements, and
# the count bounds its work per product.  Measured on a 2-core machine with
# one BLAS thread, one random dump (demo generator, seed 1) per sector, build
# plus two-root Davidson on sigma in a fresh process: the largest sector under
# the cap, norb 12 with 6+2 electrons (dim 60,984, 63.9M elements), took 9.5 s
# (75 iterations) at 247 MB peak RSS; norb 10 with 5+5 (dim 63,504, 55.6M)
# 6.9 s (57 iterations) at 235 MB.  So a sector under the cap fits about 10 s
# and 250 MB.
MAX_NONZEROS = 64_000_000
DENSE_CUTOFF = 2000
# Elements assembled per block of alpha strings; bounds toarray's scratch.
_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class DeterminantBasis:
    """The (alpha, beta) occupations of a fixed particle-number sector, alpha
    major and each spin's strings in lexicographic order; len() counts them."""

    norb: int
    n_alpha: int
    n_beta: int

    def __len__(self) -> int:
        return math.comb(self.norb, self.n_alpha) * math.comb(self.norb, self.n_beta)


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest eigenvalues (core energy included) with convergence info."""

    energies: tuple[float, ...]
    gap: float | None
    n_iterations: int
    converged: bool


@dataclass(frozen=True)
class _Strings:
    """Occupation strings of one spin in build_basis order, with every single
    and double excitation of each string (one row per string, read-only).

    A single a+_p a_q (q occupied, p empty) leads to string `single_to` with
    phase `single_sign`; `single_pq` is p * norb + q.  A double
    a+_p a+_r a_s a_q (q < s occupied, p < r empty) leads to `double_to` with
    phase `double_sign`; `double_direct` and `double_exchange` are the flat
    indices of (qp|sr) and (qr|sp) in the norb^4 integral tensor.

    For sigma, <I|E_pq + E_qp|J> (p < q, the singles of I) and <I|E_pp|I>
    (p occupied in I) are `pair_sign` for J = `pair_to`, with `pair` the
    `_pair_index` of (p, q); no pair repeats within a row.  With the same
    elements, `pair_source[I, pair]` is the row of the stack [c; -c; 0] (n
    strings of c) that holds that element times c_J: J, J + n for a -1, or 2n
    where the pair does not couple I to any string.
    """

    masks: np.ndarray
    occ: np.ndarray
    single_to: np.ndarray
    single_pq: np.ndarray
    single_sign: np.ndarray
    pair: np.ndarray
    pair_to: np.ndarray
    pair_sign: np.ndarray
    pair_source: np.ndarray
    double_to: np.ndarray
    double_direct: np.ndarray
    double_exchange: np.ndarray
    double_sign: np.ndarray


def _bit(orbital: np.ndarray) -> np.ndarray:
    return np.int64(1) << orbital


def _parity(bits: np.ndarray) -> np.ndarray:
    """+1.0 or -1.0 for an even or odd number of set bits."""
    return 1.0 - 2.0 * (np.bitwise_count(bits) & 1)


def _pair_index(norb: int) -> np.ndarray:
    """norb x norb table: the packed index of (min(p, q), max(p, q)), pairs
    packed in np.triu_indices order."""
    index = np.zeros((norb, norb), dtype=np.intp)
    p, q = np.triu_indices(norb)
    index[p, q] = index[q, p] = np.arange(len(p))
    return index


@lru_cache(maxsize=32)
def _strings(norb: int, n_occ: int) -> _Strings:
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
    # sigma's pairs: the singles, then E_pp on each occupied p
    pair_index = _pair_index(norb)
    pair = np.concatenate([pair_index[p, q], pair_index[occupied, occupied]], axis=1)
    pair_to = np.concatenate([single_to, np.repeat(index[mask], n_occ, axis=1)], axis=1)
    pair_sign = np.concatenate([single_sign, np.ones((n, n_occ))], axis=1)
    pair_source = np.full((n, norb * (norb + 1) // 2), 2 * n, dtype=np.intp)
    pair_source[np.arange(n)[:, None], pair] = pair_to + n * (pair_sign < 0.0)

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

    tables = _Strings(masks, occ, single_to, single_pq, single_sign, pair, pair_to, pair_sign,
                      pair_source, double_to, flat(q, p, s, r), flat(q, r, s, p), double_sign)
    for array in vars(tables).values():
        array.flags.writeable = False
    return tables


def _row_elements(norb: int, n_alpha: int, n_beta: int) -> int:
    """Elements stored per row before exact zeros are dropped: the diagonal,
    each spin's singles and doubles, and the alpha-beta doubles."""
    sa, sb = n_alpha * (norb - n_alpha), n_beta * (norb - n_beta)
    da = math.comb(n_alpha, 2) * math.comb(norb - n_alpha, 2)
    db = math.comb(n_beta, 2) * math.comb(norb - n_beta, 2)
    return 1 + sa + sb + sa * sb + da + db


def _check_size(norb: int, n_alpha: int, n_beta: int) -> None:
    dim = math.comb(norb, n_alpha) * math.comb(norb, n_beta)
    stored = dim * _row_elements(norb, n_alpha, n_beta)
    if stored > MAX_NONZEROS:
        raise TooLarge(f"FCI sector of dimension {dim} stores {stored} elements, "
                       f"over the cap of {MAX_NONZEROS}")


def build_basis(
    norb: int,
    n_alpha: int,
    n_beta: int,
    max_dim: int | None = None,
) -> DeterminantBasis:
    """The sector basis, in lexicographic (alpha-major) order.

    Raises TooLarge above MAX_ORBITALS, above MAX_NONZEROS matrix elements,
    or above max_dim determinants when that is given.
    """
    if norb > MAX_ORBITALS:
        raise TooLarge(f"norb={norb} exceeds oracle cap {MAX_ORBITALS}")
    for occ in (n_alpha, n_beta):
        if not 0 <= occ <= norb:
            raise InvalidOccupation(f"{occ} electrons in {norb} orbitals")
    dim = math.comb(norb, n_alpha) * math.comb(norb, n_beta)
    if max_dim is not None and dim > max_dim:
        raise TooLarge(f"FCI dimension {dim} exceeds cap {max_dim}")
    _check_size(norb, n_alpha, n_beta)
    return DeterminantBasis(norb, n_alpha, n_beta)


def _diagonal(dump: FciDump, a: _Strings, b: _Strings) -> np.ndarray:
    """(alpha strings, beta strings): the diagonal elements, e_core included."""
    eri = dump.two_body_tensor()
    coulomb = np.einsum("ppqq->pq", eri)
    same_spin_pair = coulomb - np.einsum("pqqp->pq", eri)
    h_diag = dump.h1.diagonal()

    def energies(t: _Strings) -> np.ndarray:
        return t.occ @ h_diag + 0.5 * np.einsum("ip,pq,iq->i", t.occ, same_spin_pair, t.occ)

    return dump.e_core + energies(a)[:, None] + energies(b)[None, :] + a.occ @ coulomb @ b.occ.T


def _value_table(dump: FciDump, a: _Strings, b: _Strings) -> np.ndarray:
    """Every stored element is sign * (t[first] + t[second]) for two entries
    of the table t returned here; a `_Plan` holds the signs and indices.

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

    def doubles(t: _Strings) -> np.ndarray:
        return (flat[t.double_direct] - flat[t.double_exchange]).ravel()

    return np.concatenate([
        _diagonal(dump, a, b).ravel(),
        (a.occ @ one_spin.T + h_flat).ravel(), (b.occ @ one_spin.T + h_flat).ravel(),
        (b.occ @ direct.T).ravel(), (a.occ @ direct.T).ravel(), flat,
        doubles(a), doubles(b), [0.0],
    ])


@dataclass(frozen=True)
class _Plan:
    """Integral-independent layout of the rows of a block of alpha strings
    (all beta strings each): element e is sign[e] * (t[first[e]] + t[second[e]])
    of `_value_table` t, in column cols[e]; every row has the same length."""

    first: np.ndarray
    second: np.ndarray
    sign: np.ndarray
    cols: np.ndarray


@lru_cache(maxsize=32)
def _interleave_phase(norb: int, n_alpha: int, n_beta: int) -> np.ndarray:
    """Per determinant, the sign taking the alpha-then-beta operator order to
    the interleaved one: -1 for an odd count of (alpha p, beta q < p) pairs."""
    a, b = _strings(norb, n_alpha), _strings(norb, n_beta)
    beta_below = np.cumsum(b.occ, axis=1) - b.occ
    phase = (1.0 - 2.0 * ((a.occ @ beta_below.T) % 2)).ravel()
    phase.flags.writeable = False
    return phase


def _plan(norb: int, n_alpha: int, n_beta: int, start: int, stop: int) -> _Plan:
    a, b = _strings(norb, n_alpha), _strings(norb, n_beta)
    n_a, n_b, npq = len(a.masks), len(b.masks), norb * norb
    sa, da = a.single_to.shape[1], a.double_to.shape[1]
    sb, db = b.single_to.shape[1], b.double_to.shape[1]
    o_sa, o_sb, o_cb, o_ca, o_pair, o_da, o_db, zero = np.cumsum(
        [n_a * n_b, n_a * npq, n_b * npq, n_b * npq, n_a * npq, npq * npq, n_a * da, n_b * db])

    ia = np.arange(start, stop)[:, None, None]
    ib = np.arange(n_b)[None, :, None]
    pq_a, pq_b = a.single_pq[start:stop, None, :], b.single_pq[None]
    to_a, to_b = a.single_to[start:stop, None, :] * n_b, b.single_to[None]
    sign_a, sign_b = a.single_sign[start:stop, None, :], b.single_sign[None]
    row = ia * n_b + ib
    segments = [  # (shape per row, first, second, sign, cols), in row order, one per class
        ((1,), row, zero, 1.0, row),
        ((sa,), o_sa + ia * npq + pq_a, o_cb + ib * npq + pq_a, sign_a, to_a + ib),
        ((sb,), o_sb + ib * npq + pq_b, o_ca + ia * npq + pq_b, sign_b, ia * n_b + to_b),
        ((sa, sb), o_pair + pq_a[..., None] * npq + pq_b[:, :, None, :], zero,
         sign_a[..., None] * sign_b[:, :, None, :], to_a[..., None] + to_b[:, :, None, :]),
        ((da,), o_da + ia * da + np.arange(da), zero, a.double_sign[start:stop, None, :],
         a.double_to[start:stop, None, :] * n_b + ib),
        ((db,), o_db + ib * db + np.arange(db), zero, b.double_sign[None],
         ia * n_b + b.double_to[None]),
    ]
    shape = (stop - start, n_b)

    def join(field: int, dtype: type) -> np.ndarray:
        parts = [np.broadcast_to(seg[field], shape + seg[0]).reshape(*shape, math.prod(seg[0]))
                 for seg in segments]
        return np.concatenate(parts, axis=2, dtype=dtype)

    cols = join(4, np.int32)
    phase = _interleave_phase(norb, n_alpha, n_beta)
    sign = join(3, np.float64) * phase[row] * phase[cols]
    plan = _Plan(join(1, np.int32).ravel(), join(2, np.int32).ravel(), sign.ravel(), cols.ravel())
    for array in vars(plan).values():
        array.flags.writeable = False
    return plan


# Sectors of at most this many elements keep their plan in a cache, so
# a catalog of many small tasks pays the integral-independent work once.
_CACHED_PLAN_ELEMENTS = 1 << 14
_cached_plan = lru_cache(maxsize=32)(_plan)


class SectorHamiltonian:
    """Matrix-free symmetric sector Hamiltonian over a build_basis basis.

    `H @ x` is sigma (the module docstring) for a vector or a (dim, m) block;
    `toarray()` assembles every element, a block of alpha strings at a time.
    `nnz` counts the elements the Slater-Condon rules leave, exact zeros
    included.
    """

    def __init__(self, dump: FciDump, basis: DeterminantBasis):
        self.dump = dump
        self.basis = basis
        dim = len(basis)
        self.shape = (dim, dim)
        self.nnz = dim * _row_elements(basis.norb, basis.n_alpha, basis.n_beta)

    def _sector(self) -> tuple[int, int, int]:
        return self.basis.norb, self.basis.n_alpha, self.basis.n_beta

    def diagonal(self) -> np.ndarray:
        norb, n_alpha, n_beta = self._sector()
        return _diagonal(self.dump, _strings(norb, n_alpha), _strings(norb, n_beta)).ravel()

    @cached_property
    def _integrals(self) -> np.ndarray:
        """(pairs, pairs): 1/2 (pq|rs) over packed pairs, with k_pq / N added
        to every diagonal pair rr.  On the sector sum_r E_rr is the electron
        count N, so sum_r (k / N) D_rr = k c and G is one product; with no
        electrons D is zero and k drops out."""
        p, q = np.triu_indices(self.basis.norb)
        eri = self.dump.two_body_tensor()
        k = self.dump.h1 - 0.5 * np.einsum("prrq->pq", eri)
        n_electrons = max(self.basis.n_alpha + self.basis.n_beta, 1)
        integrals = 0.5 * eri[p, q][:, p, q]
        integrals[:, p == q] += k[p, q][:, None] / n_electrons
        return integrals

    @cached_property
    def _scratch(self) -> np.ndarray:
        """D, its beta part and G of sigma, each (alpha strings, pairs, beta
        strings).  Every product reuses them, so that fresh pages are not
        faulted in per product; one SectorHamiltonian is not for concurrent
        use."""
        n_pairs = len(self._integrals)
        return np.empty((3, self.shape[0] * n_pairs))

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self._sigma(x)
        out = np.empty_like(x)
        for j in range(x.shape[1]):
            out[:, j] = self._sigma(x[:, j])
        return out

    def _sigma(self, x: np.ndarray) -> np.ndarray:
        norb, n_alpha, n_beta = self._sector()
        a, b = _strings(norb, n_alpha), _strings(norb, n_beta)
        n_a, n_b, n_pairs = len(a.masks), len(b.masks), len(self._integrals)
        phase = _interleave_phase(norb, n_alpha, n_beta)
        c = (x * phase).reshape(n_a, n_b)
        d, d_beta, g = (buffer.reshape(n_a, n_pairs, n_b) for buffer in self._scratch)
        # D[I, r, J] = (E_r c)[I, J] is a gather of [c; -c; 0], per spin
        np.take(np.concatenate([c, -c, np.zeros((1, n_b))]), a.pair_source, axis=0,
                out=d, mode="clip")
        np.take(np.concatenate([c, -c, np.zeros((n_a, 1))], axis=1), b.pair_source.T, axis=1,
                out=d_beta, mode="clip")
        d += d_beta
        np.matmul(self._integrals, d, out=g)
        # sigma = sum_r E_r G_r, gathered with the same tables
        alpha = np.take(g.reshape(n_a * n_pairs, n_b), a.pair_to * n_pairs + a.pair, axis=0)
        beta = np.take(g.reshape(n_a, n_pairs * n_b), b.pair * n_b + b.pair_to, axis=1)
        sigma = (np.einsum("ie,iej->ij", a.pair_sign, alpha)
                 + np.einsum("je,ije->ij", b.pair_sign, beta) + self.dump.e_core * c)
        return sigma.ravel() * phase

    def toarray(self) -> np.ndarray:
        norb, n_alpha, n_beta = self._sector()
        a, b = _strings(norb, n_alpha), _strings(norb, n_beta)
        table = _value_table(self.dump, a, b)
        n_a, n_b = len(a.masks), len(b.masks)
        row_len = _row_elements(norb, n_alpha, n_beta)
        plan_of = _cached_plan if self.nnz <= _CACHED_PLAN_ELEMENTS else _plan
        step = max(1, _BLOCK_ELEMENTS // (n_b * row_len))
        dense = np.zeros(self.shape)
        for start in range(0, n_a, step):
            stop = min(start + step, n_a)
            plan = plan_of(norb, n_alpha, n_beta, start, stop)
            vals = table[plan.first]
            vals += table[plan.second]
            vals *= plan.sign
            # no column repeats within a row
            np.put_along_axis(dense[start * n_b:stop * n_b], plan.cols.reshape(-1, row_len),
                              vals.reshape(-1, row_len), axis=1)
        return dense


def build_fci_matrix(dump: FciDump, basis: DeterminantBasis) -> SectorHamiltonian:
    """Matrix-free sector Hamiltonian over a build_basis basis.

    Raises InconsistentBasis when the basis sector is not the dump's and
    TooLarge above MAX_NONZEROS elements; nothing else is computed here.
    """
    norb, n_alpha, n_beta = basis.norb, basis.n_alpha, basis.n_beta
    if norb != dump.norb or n_alpha != dump.n_alpha or n_beta != dump.n_beta:
        raise InconsistentBasis(
            f"basis sector ({norb}, {n_alpha}, {n_beta}) does not "
            f"match Hamiltonian ({dump.norb}, {dump.n_alpha}, {dump.n_beta})"
        )
    _check_size(norb, n_alpha, n_beta)
    return SectorHamiltonian(dump, basis)


def lowest_eigenvalues(
    matrix,
    k: int = 1,
    tol: float = 1e-8,
    max_iterations: int = 300,
    max_subspace: int = 30,
    dense_cutoff: int = DENSE_CUTOFF,
) -> SpectrumResult:
    """Lowest k eigenvalues of a symmetric matrix: a NumPy array, or any
    object with `toarray()`, `diagonal()` and `@` (a `SectorHamiltonian`, a
    SciPy sparse matrix).

    Small problems are solved densely; larger ones by Davidson iteration with
    a diagonal preconditioner, restarting when the subspace exceeds
    max_subspace.  The products H @ v are kept between iterations, so H is
    applied once to each basis direction; a restart rotates them with the
    basis.  If the iteration stalls the best estimates are returned with
    converged=False rather than raising.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = matrix.shape[0]
    k_eff = min(k, n)

    if n <= max(dense_cutoff, 3 * max_subspace):
        dense = matrix.toarray() if hasattr(matrix, "toarray") else np.asarray(matrix)
        eigvals = np.linalg.eigvalsh(dense)
        return _spectrum(eigvals[:k_eff], k, 0, True)

    diag = matrix.diagonal()
    n_guess = min(n, max(2 * k_eff, k_eff + 2))
    guess_idx = np.argsort(diag, kind="stable")[:n_guess]
    basis = np.zeros((n, n_guess))
    basis[guess_idx, np.arange(n_guess)] = 1.0

    sigma = matrix @ basis
    theta = np.zeros(k_eff)
    converged = False
    iteration = 0

    for iteration in range(1, max_iterations + 1):
        projected = basis.T @ sigma
        projected = (projected + projected.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(projected)
        theta = eigvals[:k_eff]
        y = eigvecs[:, :k_eff]
        ritz = basis @ y
        residuals = sigma @ y - ritz * theta
        norms = np.linalg.norm(residuals, axis=0)
        if np.all(norms < tol):
            converged = True
            break

        if basis.shape[1] + k_eff > max_subspace:
            rotation = eigvecs[:, :min(2 * k_eff + 2, eigvecs.shape[1])]
            # basis @ rotation = Q R, so the products rotate by rotation @ R^-1
            basis, r = np.linalg.qr(basis @ rotation)
            sigma = sigma @ np.linalg.solve(r.T, rotation.T).T
            continue

        new_dirs = []
        for root in range(k_eff):
            if norms[root] < tol:
                continue
            denom = theta[root] - diag
            denom = np.where(np.abs(denom) < 1e-8, np.copysign(1e-8, denom + 1e-300), denom)
            new_dirs.append(residuals[:, root] / denom)
        grown = _extend_basis(basis, new_dirs)
        if grown is None:
            # No independent direction left; the subspace is exhausted.
            converged = bool(np.all(norms < max(tol, 1e-6)))
            break
        sigma = np.column_stack([sigma, matrix @ grown[:, basis.shape[1]:]])
        basis = grown

    order = np.argsort(theta)
    return _spectrum(theta[order], k, iteration, converged)


def _extend_basis(basis: np.ndarray, new_dirs: list[np.ndarray]) -> np.ndarray | None:
    added = []
    current = basis
    for direction in new_dirs:
        vec = direction.copy()
        for _ in range(2):
            vec -= current @ (current.T @ vec)
        norm = np.linalg.norm(vec)
        if norm > 1e-10:
            vec /= norm
            current = np.column_stack([current, vec])
            added.append(vec)
    if not added:
        return None
    return current


def _spectrum(energies: np.ndarray, k: int, iterations: int, converged: bool) -> SpectrumResult:
    energies = np.sort(np.asarray(energies, dtype=float))
    gap = float(energies[1] - energies[0]) if energies.size >= 2 else None
    return SpectrumResult(tuple(float(e) for e in energies), gap, iterations, converged)


def solve_ground_state(dump: FciDump, k: int = 2, tol: float = 1e-8) -> tuple[SpectrumResult, int]:
    """Convenience wrapper: basis + matrix + eigensolve; returns (result, dim)."""
    basis = build_basis(dump.norb, dump.n_alpha, dump.n_beta)
    matrix = build_fci_matrix(dump, basis)
    return lowest_eigenvalues(matrix, k=k, tol=tol), len(basis)
