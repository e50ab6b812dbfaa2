"""Pauli strings and sums in symplectic (bitmask) form, plus Jordan-Wigner.

`PauliString`/`PauliSum` hold terms as Python objects and carry the general
algebra; `PauliTable` holds a sum as uint64 mask arrays and is what the
vectorized `jordan_wigner_hamiltonian` returns.

A Pauli string on n qubits is a pair of n-bit masks (x_mask, z_mask); bit q of
x_mask means X acts on qubit q, bit q of z_mask means Z, both together mean Y.
The represented operator is the tensor product over qubits of I, X, Z, or Y
with no extra global phase (per qubit, (x=1, z=1) stands for Y itself).

Spin-orbital convention for encodings: interleaved, qubit 2p is the alpha
spin-orbital of spatial orbital p and qubit 2p+1 the beta one.  Matrices use
qubit 0 as the least significant bit of the computational-basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeMismatch, TooLarge
from .fcidump import FciDump

# Coefficients smaller than this are floating-point cancellation noise and are
# pruned so term counts and weight statistics stay meaningful.
COEFF_PRUNE_TOL = 1e-12
IMAG_PRUNE_TOL = 1e-10

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_CHAR_FOR_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_FOR_CHAR = {v: k for k, v in _CHAR_FOR_BITS.items()}

_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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

    def to_text(self) -> str:
        """One `<coeff> <label>` line per term, sorted by label; debug format."""
        lines = []
        for ps in sorted(self.terms, key=lambda p: p.label):
            coeff = self.terms[ps]
            rendered = repr(coeff.real) if coeff.imag == 0.0 else repr(coeff)
            lines.append(f"{rendered} {ps.label}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "PauliSum":
        pairs = []
        n_qubits = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            coeff_str, label = line.split()
            if n_qubits is None:
                n_qubits = len(label)
            pairs.append((PauliString.from_label(label), complex(coeff_str)))
        if n_qubits is None:
            raise ValueError("empty Pauli sum text")
        return cls.from_terms(n_qubits, pairs)


# uint64 masks hold one bit per qubit.
MAX_TABLE_QUBITS = 64


@dataclass(frozen=True, eq=False)
class PauliTable:
    """Array-backed Pauli sum with distinct terms.

    Term t is coeff[t] times the string with masks (x[t], z[t]); masks are
    uint64, so a table spans at most 64 qubits.  len() counts every term,
    the identity included.  `terms`, `coefficient` and `to_matrix` read it as
    a `PauliSum`, one Python object per term, for inspection and small
    registers.
    """

    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    coeff: np.ndarray

    def __len__(self) -> int:
        return len(self.coeff)

    @classmethod
    def from_sum(cls, h: PauliSum) -> "PauliTable":
        if h.n_qubits > MAX_TABLE_QUBITS:
            raise TooLarge(f"{h.n_qubits} qubits exceeds the {MAX_TABLE_QUBITS}-bit masks")
        strings = list(h.terms)
        return cls(
            h.n_qubits,
            np.array([ps.x_mask for ps in strings], dtype=np.uint64),
            np.array([ps.z_mask for ps in strings], dtype=np.uint64),
            np.array(list(h.terms.values())),
        )

    def to_sum(self) -> PauliSum:
        strings = (
            PauliString(self.n_qubits, x, z)
            for x, z in zip(self.x.tolist(), self.z.tolist())
        )
        return PauliSum(self.n_qubits, dict(zip(strings, self.coeff.tolist())))

    @property
    def terms(self) -> dict[PauliString, complex]:
        return self.to_sum().terms

    def coefficient(self, ps: PauliString) -> complex:
        return self.to_sum().coefficient(ps)

    def to_matrix(self, max_qubits: int = 14) -> np.ndarray:
        return self.to_sum().to_matrix(max_qubits)


def _popcount(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks).astype(np.int64)


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


def _pair_operators(norb: int):
    """Hermitian one-body operators over same-spin spin-orbital pairs.

    For spatial i <= j and spin s, with p = 2i + s and q = 2j + s, the
    operator is S = a+_p a_q + a+_q a_p when p < q and S = a+_p a_p when
    p = q.  Jordan-Wigner maps them to two real terms each:
    S = (X_p Z...Z X_q + Y_p Z...Z Y_q) / 2, Z on the qubits strictly between,
    and S = (I - Z_p) / 2.  Operators run in (i, j, s) order; returns their
    spatial indices and (n_ops, 2) arrays of x masks, z masks and coefficients.
    """
    i, j = np.triu_indices(norb)
    i, j = np.repeat(i, 2), np.repeat(j, 2)
    spin = np.tile([0, 1], len(i) // 2)
    one = np.uint64(1)
    bp = one << (2 * i + spin).astype(np.uint64)
    bq = one << (2 * j + spin).astype(np.uint64)
    between = (bq - one) & ~((bp - one) | bp)
    diag = i == j
    zero = np.zeros_like(bp)
    x = np.where(diag, zero, bp | bq)
    z = np.column_stack([between, np.where(diag, bp, between | bp | bq)])
    coeff = np.column_stack([np.full(len(i), 0.5), np.where(diag, -0.5, 0.5)])
    return i, j, np.column_stack([x, x]), z, coeff


def jordan_wigner_hamiltonian(dump: FciDump) -> PauliTable:
    """Encode the second-quantized Hamiltonian as a qubit operator.

    The Hamiltonian sum_ij h_ij a+_is a_js + (1/2) sum_ijkl (ij|kl)
    a+_is a+_kt a_lt a_js over 2*norb spin-orbitals (interleaved ordering,
    alpha on even qubits) is rewritten, by normal ordering and the 8-fold
    symmetry of (ij|kl), over the pair operators S_a of `_pair_operators`:

        H = e_core + sum_a h'_a S_a + sum_{a<=b} w_ab {S_a, S_b} / 2,

    with h'_ij = h_ij - (1/2) sum_r (ir|rj), w_ab = (ij|kl) for a < b and
    (ij|kl)/2 for a = b.  Each anticommutator of two Pauli strings is their
    product when they commute and zero otherwise, so every coefficient is
    real.  Products are formed in bulk with the symplectic rule, one block
    per first spatial index to bound memory; equal strings are summed, and
    terms below COEFF_PRUNE_TOL are dropped as in PauliSum.simplify.
    """
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
        # every term of S_a against every term of S_b: shape (pairs, 2, 2)
        xa, za = x_ops[a][:, :, None], z_ops[a][:, :, None]
        xb, zb = x_ops[b][:, None, :], z_ops[b][:, None, :]
        x, z = xa ^ xb, za ^ zb
        commute = (_popcount(xa & zb) + _popcount(za & xb)) % 2 == 0
        # symplectic phase i^k of P_a P_b; k is 0 or 2 when they commute
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
