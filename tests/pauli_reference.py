"""Reference Pauli algebra, per-edge hypergraph and ladder-operator encoder.

The package holds a qubit Hamiltonian only as a `PauliTable` of mask arrays.
This module keeps the slow object path the tests check it against: one
`PauliString` object per term, their product rule, a `PauliSum` with the
general algebra, conversions between sums and tables, the dense matrix of a
table (qubit 0 the least significant bit of the basis index), the
interaction hypergraph as per-edge objects, a Jordan-Wigner encoder that
multiplies ladder operators term by term (norb^4 products, but the textbook
definitions directly), and the block encoder that forms the pair-operator
products of every dump afresh (the package caches them per norb).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gsee_bench.errors import GseeBenchError, TooLarge
from gsee_bench.fcidump import FciDump
from gsee_bench.pauli import (
    COEFF_PRUNE_TOL,
    MAX_TABLE_QUBITS,
    PauliTable,
    _pair_operators,
    _popcount,
)

IMAG_PRUNE_TOL = 1e-10

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_CHAR_FOR_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_FOR_CHAR = {v: k for k, v in _CHAR_FOR_BITS.items()}


class SizeMismatch(GseeBenchError):
    """Operands act on different numbers of qubits."""


@dataclass(frozen=True)
class PauliString:
    """A single Pauli tensor product in symplectic form."""

    n_qubits: int
    x_mask: int = 0
    z_mask: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.x_mask >> self.n_qubits or self.z_mask >> self.n_qubits:
            raise ValueError("mask does not fit in n_qubits bits")

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a string like "XZIY"; character q acts on qubit q."""
        x_mask = 0
        z_mask = 0
        for q, ch in enumerate(label):
            try:
                x, z = _BITS_FOR_CHAR[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli character {ch!r}") from None
            x_mask |= x << q
            z_mask |= z << q
        return cls(len(label), x_mask, z_mask)

    @property
    def label(self) -> str:
        return "".join(
            _CHAR_FOR_BITS[(self.x_mask >> q & 1, self.z_mask >> q & 1)]
            for q in range(self.n_qubits)
        )

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    @property
    def weight(self) -> int:
        """Number of qubits acted on non-trivially (the edge order)."""
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        mask = self.x_mask | self.z_mask
        return tuple(q for q in range(self.n_qubits) if mask >> q & 1)

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix, qubit 0 least significant."""
        dim = 1 << self.n_qubits
        idx = np.arange(dim, dtype=np.uint64)
        rows = idx ^ np.uint64(self.x_mask)
        signs = 1.0 - 2.0 * (
            np.bitwise_count(idx & np.uint64(self.z_mask)).astype(np.int64) % 2
        )
        mat = np.zeros((dim, dim), dtype=complex)
        mat[rows, idx] = _PHASES[(self.x_mask & self.z_mask).bit_count() % 4] * signs
        return mat


def pauli_multiply(a: PauliString, b: PauliString) -> tuple[PauliString, complex]:
    """Product a * b as (string, phase) with phase in {1, i, -1, -i}."""
    if a.n_qubits != b.n_qubits:
        raise SizeMismatch(f"{a.n_qubits} qubits vs {b.n_qubits}")
    x3 = a.x_mask ^ b.x_mask
    z3 = a.z_mask ^ b.z_mask
    k = (
        (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
    ) % 4
    return PauliString(a.n_qubits, x3, z3), _PHASES[k]


class PauliSum:
    """Weighted sum of Pauli strings over a fixed qubit count.

    Terms live in a string -> complex coefficient map.  Arithmetic does not
    prune; call simplify() to drop cancellation noise and tiny imaginary
    parts, after which Hermitian operators carry real coefficients.
    """

    __slots__ = ("n_qubits", "terms")

    def __init__(self, n_qubits: int, terms: dict[PauliString, complex] | None = None):
        self.n_qubits = n_qubits
        self.terms: dict[PauliString, complex] = dict(terms) if terms else {}
        for ps in self.terms:
            if ps.n_qubits != n_qubits:
                raise SizeMismatch("term qubit count differs from sum")

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n_qubits, {PauliString.identity(n_qubits): coeff})

    @classmethod
    def from_terms(cls, n_qubits, pairs) -> "PauliSum":
        acc: dict[PauliString, complex] = {}
        for ps, coeff in pairs:
            acc[ps] = acc.get(ps, 0.0) + coeff
        return cls(n_qubits, acc)

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, ps: PauliString) -> complex:
        return self.terms.get(ps, 0.0)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise SizeMismatch("adding sums on different qubit counts")
        acc = dict(self.terms)
        for ps, coeff in other.terms.items():
            acc[ps] = acc.get(ps, 0.0) + coeff
        return PauliSum(self.n_qubits, acc)

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            if self.n_qubits != other.n_qubits:
                raise SizeMismatch("multiplying sums on different qubit counts")
            acc: dict[PauliString, complex] = {}
            for pa, ca in self.terms.items():
                for pb, cb in other.terms.items():
                    ps, phase = pauli_multiply(pa, pb)
                    acc[ps] = acc.get(ps, 0.0) + ca * cb * phase
            return PauliSum(self.n_qubits, acc)
        return PauliSum(
            self.n_qubits, {ps: c * other for ps, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def simplify(
        self,
        coeff_tol: float = COEFF_PRUNE_TOL,
        imag_tol: float = IMAG_PRUNE_TOL,
    ) -> "PauliSum":
        """Drop near-zero coefficients and sub-tolerance imaginary parts."""
        out: dict[PauliString, complex] = {}
        for ps, coeff in self.terms.items():
            c = complex(coeff)
            if abs(c.imag) < imag_tol:
                c = complex(c.real, 0.0)
            if abs(c) < coeff_tol:
                continue
            out[ps] = c
        return PauliSum(self.n_qubits, out)

    def to_matrix(self, max_qubits: int = 14) -> np.ndarray:
        if self.n_qubits > max_qubits:
            raise TooLarge(f"{self.n_qubits} qubits exceeds dense cap {max_qubits}")
        dim = 1 << self.n_qubits
        mat = np.zeros((dim, dim), dtype=complex)
        for ps, coeff in self.terms.items():
            mat += coeff * ps.to_matrix()
        return mat


def table_from_sum(h: PauliSum) -> PauliTable:
    """The sum's terms as mask arrays, in the sum's term order."""
    strings = list(h.terms)
    return PauliTable(
        h.n_qubits,
        np.array([ps.x_mask for ps in strings], dtype=np.uint64),
        np.array([ps.z_mask for ps in strings], dtype=np.uint64),
        np.array(list(h.terms.values())),
    )


def sum_from_table(table: PauliTable) -> PauliSum:
    """One `PauliString` object per row of the table."""
    strings = (
        PauliString(table.n_qubits, x, z)
        for x, z in zip(table.x.tolist(), table.z.tolist())
    )
    return PauliSum(table.n_qubits, dict(zip(strings, table.coeff.tolist())))


def table_matrix(table: PauliTable, max_qubits: int = 14) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a table, qubit 0 least significant.

    A string maps basis state |b> to (-1)^|b & z| i^k |b ^ x>, where k is
    its number of Y factors; one numpy pass per term.
    """
    if table.n_qubits > max_qubits:
        raise TooLarge(f"{table.n_qubits} qubits exceeds dense cap {max_qubits}")
    dim = 1 << table.n_qubits
    idx = np.arange(dim, dtype=np.uint64)
    mat = np.zeros((dim, dim), dtype=complex)
    for x, z, coeff in zip(table.x.tolist(), table.z.tolist(), table.coeff.tolist()):
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(z)) % 2)
        mat[idx ^ np.uint64(x), idx] += coeff * (_PHASES[(x & z).bit_count() % 4] * signs)
    return mat


@dataclass(frozen=True)
class HyperEdge:
    vertices: tuple[int, ...]
    order: int
    weight: float


@dataclass(frozen=True)
class Hypergraph:
    """Interaction hypergraph of a Pauli sum (identity term excluded)."""

    n_vertices: int
    edges: tuple[HyperEdge, ...]

    def vertex_degrees(self) -> np.ndarray:
        degrees = np.zeros(self.n_vertices)
        for edge in self.edges:
            degrees[list(edge.vertices)] += 1
        return degrees


def build_hypergraph(h: PauliSum) -> Hypergraph:
    edges = tuple(
        HyperEdge(ps.support, ps.weight, abs(coeff))
        for ps, coeff in h.terms.items()
        if not ps.is_identity
    )
    return Hypergraph(h.n_qubits, edges)


def _z_tail(p: int) -> int:
    return (1 << p) - 1


def jw_annihilation(n_spin_orbitals: int, p: int) -> PauliSum:
    """Jordan-Wigner image of a_p: (X_p + iY_p)/2 times Z on qubits below p."""
    x = 1 << p
    return PauliSum(
        n_spin_orbitals,
        {
            PauliString(n_spin_orbitals, x, _z_tail(p)): 0.5,
            PauliString(n_spin_orbitals, x, _z_tail(p + 1)): 0.5j,
        },
    )


def jw_creation(n_spin_orbitals: int, p: int) -> PauliSum:
    """Jordan-Wigner image of a_p^dagger: (X_p - iY_p)/2 times the Z tail."""
    x = 1 << p
    return PauliSum(
        n_spin_orbitals,
        {
            PauliString(n_spin_orbitals, x, _z_tail(p)): 0.5,
            PauliString(n_spin_orbitals, x, _z_tail(p + 1)): -0.5j,
        },
    )


def jordan_wigner_reference(dump: FciDump) -> PauliSum:
    """sum_ij h_ij a+_i a_j + (1/2) sum_ijkl (ij|kl) a+_is a+_kt a_lt a_js
    plus the core energy, over interleaved spin-orbitals, simplified."""
    n = 2 * dump.norb
    creation = [jw_creation(n, p) for p in range(n)]
    annihilation = [jw_annihilation(n, p) for p in range(n)]

    acc: dict[PauliString, complex] = {}

    def accumulate(op: PauliSum, scale: float) -> None:
        for ps, coeff in op.terms.items():
            acc[ps] = acc.get(ps, 0.0) + scale * coeff

    h1 = dump.h1
    for i in range(dump.norb):
        for j in range(dump.norb):
            if h1[i, j] == 0.0:
                continue
            for spin in (0, 1):
                accumulate(
                    creation[2 * i + spin] * annihilation[2 * j + spin], h1[i, j]
                )

    h2 = dump.two_body_tensor()
    for i in range(dump.norb):
        for j in range(dump.norb):
            for k in range(dump.norb):
                for l in range(dump.norb):
                    val = h2[i, j, k, l]
                    if val == 0.0:
                        continue
                    for sigma in (0, 1):
                        for tau in (0, 1):
                            op = (
                                creation[2 * i + sigma]
                                * creation[2 * k + tau]
                                * annihilation[2 * l + tau]
                                * annihilation[2 * j + sigma]
                            )
                            accumulate(op, 0.5 * val)

    ident = PauliString.identity(n)
    acc[ident] = acc.get(ident, 0.0) + dump.e_core
    return PauliSum(n, acc).simplify()


def _merge(x: np.ndarray, z: np.ndarray, coeff: np.ndarray):
    """Sum the coefficients of equal (x, z) strings: one sort, one reduceat."""
    if not len(coeff):
        return x, z, coeff
    order = np.lexsort((x, z))
    x, z, coeff = x[order], z[order], coeff[order]
    first = np.ones(len(coeff), dtype=bool)
    first[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
    starts = np.flatnonzero(first)
    return x[starts], z[starts], np.add.reduceat(coeff, starts)


def jordan_wigner_blocks(dump: FciDump) -> PauliTable:
    """The pair-operator encoding of `jordan_wigner_hamiltonian`, with every
    product formed from this dump's integrals: one block per first spatial
    index, the products of zero weights left out, equal strings summed in
    each block and then across blocks, terms below COEFF_PRUNE_TOL dropped."""
    n = 2 * dump.norb
    if n > MAX_TABLE_QUBITS:
        raise TooLarge(f"{n} qubits exceeds the {MAX_TABLE_QUBITS}-bit masks")
    g = dump.two_body_tensor()
    i, j, x_ops, z_ops, c_ops = _pair_operators(dump.norb)
    h_eff = dump.h1 - 0.5 * np.einsum("irrj->ij", g)

    xs = [np.zeros(1, dtype=np.uint64), x_ops.ravel()]
    zs = [np.zeros(1, dtype=np.uint64), z_ops.ravel()]
    cs = [np.array([dump.e_core]), (h_eff[i, j][:, None] * c_ops).ravel()]

    weight = g[i[:, None], j[:, None], i[None, :], j[None, :]]
    n_ops = len(i)
    for first in range(dump.norb):
        block = np.flatnonzero(i == first)
        a, b = np.nonzero(np.arange(n_ops)[None, :] >= block[:, None])
        a = block[a]
        w = weight[a, b] * np.where(a == b, 0.5, 1.0)
        live = w != 0.0
        a, b, w = a[live], b[live], w[live]
        xa, za = x_ops[a][:, :, None], z_ops[a][:, :, None]
        xb, zb = x_ops[b][:, None, :], z_ops[b][:, None, :]
        x, z = xa ^ xb, za ^ zb
        commute = (_popcount(xa & zb) + _popcount(za & xb)) % 2 == 0
        k = (_popcount(xa & za) + _popcount(xb & zb) - _popcount(x & z)
             + 2 * _popcount(za & xb)) % 4
        coeff = (w[:, None, None] * c_ops[a][:, :, None] * c_ops[b][:, None, :]
                 * (1 - k))
        x, z, coeff = _merge(x[commute], z[commute], coeff[commute])
        xs.append(x)
        zs.append(z)
        cs.append(coeff)

    x, z, coeff = _merge(np.concatenate(xs), np.concatenate(zs), np.concatenate(cs))
    keep = np.abs(coeff) >= COEFF_PRUNE_TOL
    return PauliTable(n, x[keep], z[keep], coeff[keep])
