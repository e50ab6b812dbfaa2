"""Desk-scale exact ground-state solver over a Slater determinant basis.

Determinants are (alpha, beta) occupation bitmask pairs over spatial orbitals,
in alpha-major order.  `build_fci_matrix` returns the sector Hamiltonian
matrix-free.  Its product H @ c, which Davidson iterates on, is the
string-driven direct-CI sigma of Knowles and Handy (CPL 111, 315, 1984) and
Olsen et al. (JCP 89, 2185, 1988): with H = sum k_pq E_pq
+ 1/2 sum (pq|rs) E_pq E_rs and k = h - 1/2 sum_r (pr|rq) (`pair_integrals`),
it forms D_rs = E_rs c from the string tables, G = k c + 1/2 (pq|rs) D
as one matrix product, and sigma = sum E_pq G_pq as a gather over them.
Dense sectors never apply sigma: `toarray` expands the same factorization,
H = sum_rs W_rs E_r E_s + e_core with E_r = A_r (x) 1 + 1 (x) B_r over each
spin's pair operators, into two one-spin parts and an alpha-beta part, each
a scatter of products of two table entries.  Davidson's preconditioner,
`diagonal`, reads the same W, so every matrix element has one source; the
Slater-Condon rules live only in the test oracle.
Fermionic phases are those of the interleaved spin-orbital ordering (alpha of
orbital p on index 2p, beta on 2p+1), so the matrix is sign-consistent with
the qubit encoding in `pauli`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import InconsistentBasis, InvalidOccupation, NonFiniteInput, TooLarge
from .fcidump import FciDump, norb_cache, pair_integrals, pair_order

MAX_ORBITALS = 16
# Cap on the Slater-Condon element count of a sector (`nnz`), checked on the
# closed form when a DeterminantBasis is built.  Sigma stores no elements,
# and the count bounds its work per product.  What the oracle holds is fixed
# per sector: sigma's two (dim x pairs) buffers plus Davidson's basis and
# product rows, 2 (DAVIDSON_MAX_SUBSPACE + ROOTS) x dim.  Measured on a 2-core
# machine with one BLAS thread, one random dump (demo generator, seed 1) per
# sector, build plus two-root Davidson on sigma in a fresh process, medians of
# 4-5 runs: the largest sector under the cap, norb 12 with 6+2 electrons
# (dim 60,984, 63.9M elements, 78 pairs), took 9.3 s (75 iterations) at
# 152 MB peak RSS; norb 10 with 5+5 (dim 63,504, 55.6M, 55 pairs) 5.0 s
# (57 iterations) at 132 MB.  So a sector under the cap fits about 10 s and
# 160 MB.  String tables above norb 12 are not kept between sectors.
MAX_NONZEROS = 64_000_000
# Sectors of at most this many determinants are solved densely (`toarray`
# and eigvalsh), larger ones by Davidson on sigma.  Medians on a 2-core
# machine with one BLAS thread, two demo-generator dumps per sector (seeds 0
# and 1), five fresh matrices each, two roots, over three passes:
#   (norb, n_alpha, n_beta)   dim   dense   Davidson
#   (6, 3, 3)                 400   15 ms     17 ms
#   (10, 2, 1)                450   20 ms     35 ms
#   (8, 4, 1)                 560   32 ms     18 ms
#   (16, 3, 0)                560   52 ms    224 ms
#   (11, 2, 1)                605   34 ms     60 ms
#   (13, 4, 0)                715   76 ms    174 ms
#   (7, 3, 2)                 735   54 ms     25 ms
#   (8, 2, 2)                 784   64 ms     21 ms
#   (14, 4, 0)               1001  176 ms    250 ms
#   (7, 3, 3)                1225  215 ms     29 ms
# Davidson's cost grows with the pair count norb(norb+1)/2 and the dense
# cost with dim^3, so the crossover moves from about 400-500 at norb 6-8 to
# above 1000 for one-spin sectors of norb 12-16.  On these sectors a cutoff
# of 700 keeps the path taken within 2.3x of the faster one, the worst being
# (13, 4, 0).  An earlier measurement over 25 sectors of dim 400-1300 put a
# cutoff of 2000 at up to 6.3x there, and 13x at (8, 3, 2), dim 1568.
DENSE_CUTOFF = 700
# Davidson stops when every residual norm is below DAVIDSON_TOL, gives up
# after DAVIDSON_MAX_ITERATIONS, and restarts above DAVIDSON_MAX_SUBSPACE
# basis vectors.
DAVIDSON_TOL = 1e-8
DAVIDSON_MAX_ITERATIONS = 300
DAVIDSON_MAX_SUBSPACE = 30
# The oracle reports e0, e1 and the gap, so every solve finds two roots.
ROOTS = 2


@dataclass(frozen=True)
class DeterminantBasis:
    """The (alpha, beta) occupations of a fixed particle-number sector, alpha
    major and each spin's strings in lexicographic order; len() counts them.
    A sector over a cap cannot be built: construction raises TooLarge above
    MAX_ORBITALS or MAX_NONZEROS elements (`nnz`), and InvalidOccupation for
    an occupation outside [0, norb]."""

    norb: int
    n_alpha: int
    n_beta: int

    def __post_init__(self):
        if self.norb > MAX_ORBITALS:
            raise TooLarge(f"norb={self.norb} exceeds oracle cap {MAX_ORBITALS}")
        for occ in (self.n_alpha, self.n_beta):
            if not 0 <= occ <= self.norb:
                raise InvalidOccupation(f"{occ} electrons in {self.norb} orbitals")
        if self.nnz > MAX_NONZEROS:
            raise TooLarge(f"FCI sector of dimension {len(self)} stores {self.nnz} elements, "
                           f"over the cap of {MAX_NONZEROS}")

    def __len__(self) -> int:
        return math.comb(self.norb, self.n_alpha) * math.comb(self.norb, self.n_beta)

    @property
    def nnz(self) -> int:
        """Slater-Condon elements of the sector Hamiltonian, exact zeros included."""
        return len(self) * _row_elements(self.norb, self.n_alpha, self.n_beta)


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest eigenvalues (core energy included) with convergence info."""

    energies: tuple[float, ...]
    n_iterations: int
    converged: bool

    @property
    def gap(self) -> float | None:
        """e1 - e0, or None for a one-determinant sector."""
        return self.energies[1] - self.energies[0] if len(self.energies) > 1 else None


@dataclass(frozen=True)
class _Strings:
    """Occupation strings of one spin in build_basis order, with the pair
    operators that couple each string to others (one row per string,
    read-only).

    <I|E_pq + E_qp|J> (p < q, the singles of I) and <I|E_pp|I> (p occupied
    in I) are `pair_sign` for J = `pair_to`, with `pair` the index of (p, q)
    in `fcidump.pair_order`; no pair repeats within a row.  With the same
    elements, `pair_source[I, pair]` is the row of the stack [c; -c; 0] (n
    strings of c) that holds that element times c_J: J, J + n for a -1, or
    2n where the pair does not couple I to any string.
    """

    masks: np.ndarray
    occ: np.ndarray
    pair: np.ndarray
    pair_to: np.ndarray
    pair_sign: np.ndarray
    pair_source: np.ndarray


@dataclass(frozen=True)
class _Scratch:
    """The fixed working set of sigma, bound once to a SectorHamiltonian and
    rewritten by every product, so that a product allocates only its result.

    `d` and `g` are (alpha strings, pairs, beta strings): D, with its beta
    half gathered into `g`'s buffer first, then G in `g`; once G is formed
    each spin's gather back is a view carved from `d`.  `stack_alpha` is
    [c; -c; 0] over alpha strings and `stack_beta` [c, -c, 0] over beta
    strings; their zero row and column are written once, here.
    `beta_source` is the beta `pair_source` transposed and contiguous, and
    `alpha_back` / `beta_back` are the flat indices into G of each spin's
    (string, pair) entries.  `terms` holds the alpha and beta parts of sigma.
    """

    d: np.ndarray
    g: np.ndarray
    stack_alpha: np.ndarray
    stack_beta: np.ndarray
    beta_source: np.ndarray
    alpha_back: np.ndarray
    beta_back: np.ndarray
    terms: np.ndarray


def _bit(orbital: np.ndarray) -> np.ndarray:
    return np.int64(1) << orbital


def _parity(bits: np.ndarray) -> np.ndarray:
    """+1.0 or -1.0 for an even or odd number of set bits."""
    return 1.0 - 2.0 * (np.bitwise_count(bits) & 1)


@norb_cache
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
    # the pairs: the singles, then E_pp on each occupied p
    pair_index = pair_order(norb)[2]
    pair = np.concatenate([pair_index[p, q], pair_index[occupied, occupied]], axis=1)
    pair_to = np.concatenate([single_to, np.repeat(index[mask], n_occ, axis=1)], axis=1)
    pair_sign = np.concatenate([single_sign, np.ones((n, n_occ))], axis=1)
    pair_source = np.full((n, norb * (norb + 1) // 2), 2 * n, dtype=np.intp)
    pair_source[np.arange(n)[:, None], pair] = pair_to + n * (pair_sign < 0.0)

    tables = _Strings(masks, occ, pair, pair_to, pair_sign, pair_source)
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


def build_basis(norb: int, n_alpha: int, n_beta: int) -> DeterminantBasis:
    """The sector basis, in lexicographic (alpha-major) order.  Raises what
    DeterminantBasis raises: a sector over a cap cannot be built."""
    return DeterminantBasis(norb, n_alpha, n_beta)


@norb_cache
def _interleave_phase(norb: int, n_alpha: int, n_beta: int) -> np.ndarray:
    """Per determinant, the sign taking the alpha-then-beta operator order to
    the interleaved one: -1 for an odd count of (alpha p, beta q < p) pairs."""
    a, b = _strings(norb, n_alpha), _strings(norb, n_beta)
    beta_below = np.cumsum(b.occ, axis=1) - b.occ
    phase = (1.0 - 2.0 * ((a.occ @ beta_below.T) % 2)).ravel()
    phase.flags.writeable = False
    return phase


class SectorHamiltonian:
    """Matrix-free symmetric sector Hamiltonian over a build_basis basis.

    It holds H = sum_rs W_rs E_r E_s + e_core and nothing else: both spins'
    string tables and the interleave phase, the (pairs, pairs) matrix W and
    e_core, all bound once, here; the dump is not kept.  `H @ x` is sigma
    (the module docstring) for a vector or a (dim, m) block, one column at a
    time in one `_Scratch` bound at the first product: two (dim x pairs)
    buffers, two [c; -c; 0] stacks and a few dim-sized arrays, so that a
    product allocates only its result.  One SectorHamiltonian is therefore
    not for concurrent use.  `toarray()` expands the same factorization into
    a dense matrix and `diagonal()` takes its diagonal from W alone.  `nnz`
    is `basis.nnz`.
    """

    def __init__(self, dump: FciDump, basis: DeterminantBasis):
        self.basis = basis
        self.shape = (len(basis), len(basis))
        self.nnz = basis.nnz
        self._alpha = _strings(basis.norb, basis.n_alpha)
        self._beta = _strings(basis.norb, basis.n_beta)
        self._phase = _interleave_phase(basis.norb, basis.n_alpha, basis.n_beta)
        # W: 1/2 V, with k_pq / N (k of `pair_integrals`) added to every
        # diagonal pair rr.  On the sector sum_r E_rr is the electron count
        # N, so sum_r (k / N) D_rr = k c and G is one product; with no
        # electrons D is zero and k drops out.
        p, q, _ = pair_order(basis.norb)
        self._integrals = 0.5 * dump.v
        self._integrals[:, p == q] += (pair_integrals(dump)[:, None]
                                       / max(basis.n_alpha + basis.n_beta, 1))
        self._integrals.flags.writeable = False
        self._e_core = dump.e_core

    def diagonal(self) -> np.ndarray:
        """<IJ|H|IJ> from W.  A one-spin A_r A_s returns a string to itself
        only for r = s one of its singles (W_rr once per single, the leading
        columns of `pair`) or r and s both diagonal pairs, which count
        occupations; of the alpha-beta part sum (W + W^T)_rs A_r (x) B_s
        only diagonal pairs remain."""
        a, b, w = self._alpha, self._beta, self._integrals
        pp = np.diagonal(pair_order(self.basis.norb)[2])
        numbers = w[np.ix_(pp, pp)]

        def one_spin(t: _Strings, n_occ: int) -> np.ndarray:
            singles = t.pair[:, :n_occ * (self.basis.norb - n_occ)]
            return (np.diagonal(w)[singles].sum(axis=1)
                    + np.einsum("ip,pq,iq->i", t.occ, numbers, t.occ))

        return (self._e_core + one_spin(a, self.basis.n_alpha)[:, None]
                + one_spin(b, self.basis.n_beta)[None, :]
                + a.occ @ (numbers + numbers.T) @ b.occ.T).ravel()

    @cached_property
    def _scratch(self) -> _Scratch:
        a, b = self._alpha, self._beta
        n_a, n_b, n_pairs = len(a.masks), len(b.masks), len(self._integrals)
        return _Scratch(
            d=np.empty((n_a, n_pairs, n_b)),
            g=np.empty((n_a, n_pairs, n_b)),
            stack_alpha=np.zeros((2 * n_a + 1, n_b)),
            stack_beta=np.zeros((n_a, 2 * n_b + 1)),
            beta_source=np.ascontiguousarray(b.pair_source.T),
            alpha_back=(a.pair_to * n_pairs + a.pair).astype(np.intp),
            beta_back=(b.pair * n_b + b.pair_to).astype(np.intp),
            terms=np.empty((2, n_a, n_b)),
        )

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        if x.ndim == 1:
            self._sigma(x, out)
        else:
            for j in range(x.shape[1]):
                self._sigma(x[:, j], out[:, j])
        return out

    def _sigma(self, x: np.ndarray, out: np.ndarray) -> None:
        """out = H @ x for one vector; every intermediate is in `_scratch`."""
        a, b, s = self._alpha, self._beta, self._scratch
        d, g = s.d, s.g
        n_a, n_b, n_pairs = len(a.masks), len(b.masks), len(self._integrals)
        phase = self._phase.reshape(n_a, n_b)
        c, minus_c = s.stack_alpha[:n_a], s.stack_alpha[n_a:2 * n_a]
        np.multiply(x.reshape(n_a, n_b), phase, out=c)
        np.negative(c, out=minus_c)
        s.stack_beta[:, :n_b] = c
        s.stack_beta[:, n_b:2 * n_b] = minus_c
        # D[I, r, J] = (E_r c)[I, J] is a gather of [c; -c; 0], per spin; the
        # beta half lands in G's buffer, which the product then overwrites
        np.take(s.stack_alpha, a.pair_source, axis=0, out=d, mode="clip")
        np.take(s.stack_beta, s.beta_source, axis=1, out=g, mode="clip")
        d += g
        np.matmul(self._integrals, d, out=g)
        # sigma = sum_r E_r G_r, gathered with the same tables into D, which
        # the product has consumed, one spin at a time
        alpha_term, beta_term = s.terms
        e_a, e_b = a.pair.shape[1], b.pair.shape[1]
        alpha = d.reshape(-1)[:n_a * e_a * n_b].reshape(n_a, e_a, n_b)
        np.take(g.reshape(n_a * n_pairs, n_b), s.alpha_back, axis=0, out=alpha, mode="clip")
        np.einsum("ie,iej->ij", a.pair_sign, alpha, out=alpha_term)
        beta = d.reshape(-1)[:n_a * n_b * e_b].reshape(n_a, n_b, e_b)
        np.take(g.reshape(n_a, n_pairs * n_b), s.beta_back, axis=1, out=beta, mode="clip")
        np.einsum("je,ije->ij", b.pair_sign, beta, out=beta_term)
        # (alpha + beta) + e_core c, in that order: sigma stays bit-identical
        # to the one-pass form that tests/fci_reference.py keeps
        alpha_term += beta_term
        np.multiply(c, self._e_core, out=beta_term)
        alpha_term += beta_term
        np.multiply(alpha_term.reshape(-1), self._phase, out=out)

    def toarray(self) -> np.ndarray:
        """Dense H = sum_rs W_rs E_r E_s + e_core, E_r = A_r (x) 1 + 1 (x) B_r,
        for W = `_integrals`: the one-spin parts sum W_rs A_r A_s (x) 1 and
        1 (x) sum W_rs B_r B_s, and the alpha-beta part
        sum (W + W^T)_rs A_r (x) B_s, which takes W + W^T because W is not
        symmetric.  No A_r is formed densely: each part is a scatter of
        products of two table entries, so that a sector with one string of
        a spin does not need (pairs, dim, dim) scratch.  Made exactly
        symmetric as 1/2 H + 1/2 H^T, halved first so that a finite H does
        not overflow the sum.  W + W^T is not halved: it is the alpha-beta
        coefficient itself, and overflows only when that coefficient does."""
        a, b, w = self._alpha, self._beta, self._integrals
        n_a, n_b = len(a.masks), len(b.masks)
        dim = n_a * n_b
        # <I J|A_r (x) B_s|I' J'>: a pair entry of I times one of J, per (I, J)
        both = w + w.T
        values = (a.pair_sign[:, None, :, None] * b.pair_sign[None, :, None, :]
                  * both[a.pair[:, None, :, None], b.pair[None, :, None, :]])
        cols = a.pair_to[:, None, :, None] * n_b + b.pair_to[None, :, None, :]
        h = _scatter(dim, np.arange(dim).reshape(n_a, n_b, 1, 1), cols, values)
        blocks = h.reshape(n_a, n_b, n_a, n_b)
        blocks[:, np.arange(n_b), :, np.arange(n_b)] += _one_spin(a, w)
        blocks[np.arange(n_a), :, np.arange(n_a), :] += _one_spin(b, w)
        h.flat[::dim + 1] += self._e_core
        h *= self._phase[:, None]
        h *= self._phase
        h *= 0.5
        return h + h.T


def _scatter(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """n x n matrix: at each (row, col), the sum of the values placed there."""
    out = np.zeros(n * n)
    np.add.at(out, (rows * n + cols).ravel(), values.ravel())
    return out.reshape(n, n)


def _one_spin(t: _Strings, w: np.ndarray) -> np.ndarray:
    """(strings, strings): sum_rs W_rs A_r A_s over one spin's pair
    operators; <I|A_r A_s|K> chains an entry of I's row (pair r, to string M)
    with an entry of M's row (pair s, to K)."""
    to = t.pair_to
    values = t.pair_sign[:, :, None] * t.pair_sign[to] * w[t.pair[:, :, None], t.pair[to]]
    return _scatter(len(to), np.arange(len(to))[:, None, None], t.pair_to[to], values)


def build_fci_matrix(dump: FciDump, basis: DeterminantBasis) -> SectorHamiltonian:
    """Matrix-free sector Hamiltonian over a build_basis basis.

    Raises InconsistentBasis when the basis sector is not the dump's; the
    caps were checked when the basis was built, and `H.nnz` is `basis.nnz`.
    """
    norb, n_alpha, n_beta = basis.norb, basis.n_alpha, basis.n_beta
    if norb != dump.norb or n_alpha != dump.n_alpha or n_beta != dump.n_beta:
        raise InconsistentBasis(
            f"basis sector ({norb}, {n_alpha}, {n_beta}) does not "
            f"match Hamiltonian ({dump.norb}, {dump.n_alpha}, {dump.n_beta})"
        )
    return SectorHamiltonian(dump, basis)


def lowest_eigenvalues(matrix) -> SpectrumResult:
    """Lowest ROOTS eigenvalues of a symmetric matrix: a NumPy array, or any
    object with `toarray()`, `diagonal()` and `@` (a `SectorHamiltonian`, a
    SciPy sparse matrix).

    Problems up to DENSE_CUTOFF are solved densely; larger ones by Davidson
    iteration with a diagonal preconditioner, in arrays allocated once: the
    basis vectors and their products H @ v are the rows of two
    (DAVIDSON_MAX_SUBSPACE + ROOTS) x n arrays, and the projected matrix
    V H V^T is one square array of that order.  Each iteration forms the
    ROOTS residuals in the rows after the basis, turns them into new
    directions in place, applies H to those alone and fills only their rows
    and columns of the projected matrix.  Above DAVIDSON_MAX_SUBSPACE vectors
    the subspace restarts: the leading 2 ROOTS + 2 Ritz vectors, at most
    DAVIDSON_MAX_SUBSPACE - 2 ROOTS but no fewer than ROOTS,
    orthonormalized, and their products are rotated into the leading rows.
    A one-determinant problem has one eigenvalue.
    If the iteration stalls the best estimates are returned with
    converged=False rather than raising.
    """
    tol, max_subspace = DAVIDSON_TOL, DAVIDSON_MAX_SUBSPACE
    n = matrix.shape[0]

    if n <= max(DENSE_CUTOFF, 3 * max_subspace):
        dense = matrix.toarray() if hasattr(matrix, "toarray") else np.asarray(matrix)
        eigvals = np.linalg.eigvalsh(dense)
        return SpectrumResult(tuple(eigvals[:ROOTS].tolist()), 0, True)

    diag = matrix.diagonal()
    m = 2 * ROOTS
    rows = max_subspace + ROOTS
    basis = np.zeros((rows, n))
    products = np.empty((rows, n))
    projected = np.empty((rows, rows))
    basis[np.arange(m), np.argsort(diag, kind="stable")[:m]] = 1.0

    def project(start: int, stop: int) -> None:
        """Rows and columns start:stop of the projected matrix, symmetric."""
        cross = basis[:stop] @ products[start:stop].T
        projected[:start, start:stop] = cross[:start]
        projected[start:stop, :start] = cross[:start].T
        block = cross[start:]
        block *= 0.5
        projected[start:stop, start:stop] = block + block.T

    def apply(start: int, stop: int) -> None:
        products[start:stop] = (matrix @ basis[start:stop].T).T
        project(start, stop)

    def restart(rotation: np.ndarray) -> int:
        """Rotate the basis and the products into their leading rows:
        rotation^T V = L Q with L L^T its Gram matrix, so the basis becomes
        Q and the products rotate by the same L^-1 rotation^T."""
        used, kept = rotation.shape
        rotated = rotation.T @ basis[:used]
        to_q = np.linalg.inv(np.linalg.cholesky(rotated @ rotated.T))
        np.matmul(to_q, rotated, out=basis[:kept])
        np.matmul(to_q @ rotation.T, products[:used], out=rotated)
        products[:kept] = rotated
        project(0, kept)
        return kept

    apply(0, m)
    theta = np.zeros(ROOTS)
    converged = False
    iteration = 0

    for iteration in range(1, DAVIDSON_MAX_ITERATIONS + 1):
        eigvals, eigvecs = np.linalg.eigh(projected[:m, :m])
        theta = eigvals[:ROOTS]
        y = eigvecs[:, :ROOTS]
        # residuals H x - theta x of the Ritz vectors x = V^T y, with the
        # scaled Ritz vectors parked in the free rows of the products
        residuals, ritz = basis[m:m + ROOTS], products[m:m + ROOTS]
        np.matmul(y.T, basis[:m], out=ritz)
        np.matmul(y.T, products[:m], out=residuals)
        ritz *= theta[:, None]
        residuals -= ritz
        norms = np.linalg.norm(residuals, axis=1)
        if np.all(norms < tol):
            converged = True
            break

        if m + ROOTS > max_subspace:
            keep = max(ROOTS, min(2 * ROOTS + 2, m, max_subspace - 2 * ROOTS))
            m = restart(eigvecs[:, :keep])
            continue

        added = 0
        for root in range(ROOTS):
            if norms[root] < tol:
                continue
            denom = theta[root] - diag
            denom = np.where(np.abs(denom) < 1e-8, np.copysign(1e-8, denom + 1e-300), denom)
            # root's residual is row m + root, at or after row m + added, so
            # its direction overwrites it or a row already consumed
            vec = basis[m + added]
            np.divide(residuals[root], denom, out=vec)
            for _ in range(2):
                vec -= basis[:m + added].T @ (basis[:m + added] @ vec)
            norm = np.linalg.norm(vec)
            if norm > 1e-10:
                vec /= norm
                added += 1
        if not added:
            # No independent direction left; the subspace is exhausted.
            converged = bool(np.all(norms < max(tol, 1e-6)))
            break
        apply(m, m + added)
        m += added

    return SpectrumResult(tuple(theta.tolist()), iteration, converged)


def solve_ground_state(dump: FciDump) -> tuple[SpectrumResult, int]:
    """Basis + matrix + eigensolve; returns (result, dim).  Finite integrals
    can still overflow to an infinite or NaN energy or gap: such a result
    raises NonFiniteInput, in place of numpy's overflow warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        basis = build_basis(dump.norb, dump.n_alpha, dump.n_beta)
        spectrum = lowest_eigenvalues(build_fci_matrix(dump, basis))
    if not np.isfinite([*spectrum.energies, spectrum.gap or 0.0]).all():
        raise NonFiniteInput(f"non-finite energies {spectrum.energies} or gap {spectrum.gap}")
    return spectrum, len(basis)
