"""Pauli sums as symplectic bitmask arrays, plus the Jordan-Wigner encoder.

A `PauliTable` holds a sum of Pauli strings as uint64 mask arrays; it is what
the vectorized `jordan_wigner_hamiltonian` returns and what the qubit
features read.

A Pauli string on n qubits is a pair of n-bit masks (x_mask, z_mask); bit q of
x_mask means X acts on qubit q, bit q of z_mask means Z, both together mean Y.
The represented operator is the tensor product over qubits of I, X, Z, or Y
with no extra global phase (per qubit, (x=1, z=1) stands for Y itself).

Spin-orbital convention for encodings: interleaved, qubit 2p is the alpha
spin-orbital of spatial orbital p and qubit 2p+1 the beta one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TooLarge
from .fcidump import FciDump, pair_integrals, pair_order

# Coefficients smaller than this are floating-point cancellation noise and are
# pruned so term counts and weight statistics stay meaningful.
COEFF_PRUNE_TOL = 1e-12

# uint64 masks hold one bit per qubit, so features stop at 32 spatial
# orbitals.  The cap is reachable: on a 2-core x86 machine a random norb-32
# dump (demo/generate.py, seed 1) takes 1.4 s through compute_feature_vector
# (1.5M Pauli terms, 235 MB peak RSS of the process, 69 MB of it the
# Jordan-Wigner plan, which is built per call).
MAX_TABLE_QUBITS = 64


@dataclass(frozen=True, eq=False)
class PauliTable:
    """Array-backed Pauli sum with distinct terms.

    Term t is coeff[t] times the string with masks (x[t], z[t]); masks are
    uint64, so a table spans at most 64 qubits.  len() counts every term,
    the identity included.
    """

    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    coeff: np.ndarray

    def __len__(self) -> int:
        return len(self.coeff)


def _popcount(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks).astype(np.int64)


def _pair_operators(norb: int):
    """Hermitian one-body operators over same-spin spin-orbital pairs.

    For spatial i <= j and spin s, with p = 2i + s and q = 2j + s, the
    operator is S = a+_p a_q + a+_q a_p when p < q and S = a+_p a_p when
    p = q.  Jordan-Wigner maps them to two real terms each:
    S = (X_p Z...Z X_q + Y_p Z...Z Y_q) / 2, Z on the qubits strictly between,
    and S = (I - Z_p) / 2.  Operator a is spin a % 2 on pair a // 2 of
    `pair_order`; returns their spatial indices and (n_ops, 2) arrays of x
    masks, z masks and coefficients.
    """
    i, j = np.repeat(pair_order(norb)[:2], 2, axis=1)
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


@dataclass(frozen=True, eq=False)
class _JwPlan:
    """What the Jordan-Wigner encoding of a norb-orbital Hamiltonian keeps
    from one dump to the next: everything but the integral values.

    For (k, V) of `pair_integrals`, the one-body terms are
    np.repeat(k, 2)[:, None] * c_ops and the two-body terms
    V.ravel()[source] * factor, sorted by string within each first-index
    block and summed over the runs that start at block_starts.  The final
    coefficients gather [e_core, one-body terms, block sums] through order
    and sum over the runs that start at starts; string t is (x[t], z[t]).
    The index arrays are int32, which holds every index up to norb 32.
    """

    c_ops: np.ndarray
    source: np.ndarray
    factor: np.ndarray
    block_starts: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    x: np.ndarray
    z: np.ndarray


def _merge_order(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort that brings equal (x, z) strings together, and the
    start of each run of equal strings in sorted order."""
    order = np.lexsort((x, z))
    x, z = x[order], z[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
    return order.astype(np.int32), np.flatnonzero(first).astype(np.int32)


def _jw_plan(norb: int) -> _JwPlan:
    """Build the plan with the symplectic product rule, in blocks of one
    first spatial index to bound memory; its arrays are read-only."""
    i, _, x_ops, z_ops, c_ops = _pair_operators(norb)
    xs = [np.zeros(1, dtype=np.uint64), x_ops.ravel()]
    zs = [np.zeros(1, dtype=np.uint64), z_ops.ravel()]
    sources, factors, block_starts = [], [], []
    offset = 0
    n_ops = len(i)
    for first in range(norb):
        block = np.flatnonzero(i == first)
        a, b = np.nonzero(np.arange(n_ops)[None, :] >= block[:, None])
        a = block[a]
        # every term of S_a against every term of S_b: shape (pairs, 2, 2)
        xa, za = x_ops[a][:, :, None], z_ops[a][:, :, None]
        xb, zb = x_ops[b][:, None, :], z_ops[b][:, None, :]
        x, z = xa ^ xb, za ^ zb
        commute = (_popcount(xa & zb) + _popcount(za & xb)) % 2 == 0
        # symplectic phase i^k of P_a P_b; k is 0 or 2 when they commute
        k = (_popcount(xa & za) + _popcount(xb & zb) - _popcount(x & z)
             + 2 * _popcount(za & xb)) % 4
        # every factor is a signed power of two, so weight * factor is exact
        factor = (np.where(a == b, 0.5, 1.0)[:, None, None] * c_ops[a][:, :, None]
                  * c_ops[b][:, None, :] * (1 - k))
        source = a // 2 * (n_ops // 2) + b // 2
        source = np.broadcast_to(source.astype(np.int32)[:, None, None], x.shape)
        x, z, source, factor = x[commute], z[commute], source[commute], factor[commute]
        order, starts = _merge_order(x, z)
        sources.append(source[order])
        factors.append(factor[order])
        block_starts.append(offset + starts)
        offset += len(order)
        xs.append(x[order][starts])
        zs.append(z[order][starts])

    x, z = np.concatenate(xs), np.concatenate(zs)
    order, starts = _merge_order(x, z)
    plan = _JwPlan(c_ops, np.concatenate(sources), np.concatenate(factors),
                   np.concatenate(block_starts), order, starts,
                   x[order][starts], z[order][starts])
    for array in vars(plan).values():
        array.setflags(write=False)
    return plan


# Plans up to this norb are kept; the norb-12 plan holds about 1.4 MB.
_CACHED_JW_NORB = 12
_cached_jw_plan = lru_cache(maxsize=_CACHED_JW_NORB)(_jw_plan)


def jordan_wigner_hamiltonian(dump: FciDump) -> PauliTable:
    """Encode the second-quantized Hamiltonian as a qubit operator.

    The Hamiltonian sum_ij h_ij a+_is a_js + (1/2) sum_ijkl (ij|kl)
    a+_is a+_kt a_lt a_js over 2*norb spin-orbitals (interleaved ordering,
    alpha on even qubits) is rewritten, by normal ordering and the 8-fold
    symmetry of (ij|kl), over the pair operators S_a of `_pair_operators`:

        H = e_core + sum_a h'_a S_a + sum_{a<=b} w_ab {S_a, S_b} / 2,

    with h'_ij = h_ij - (1/2) sum_r (ir|rj) (the k of `pair_integrals`),
    w_ab = (ij|kl) for a < b and (ij|kl)/2 for a = b.  Each anticommutator
    of two Pauli strings is their product when they commute and zero
    otherwise, so every coefficient is real.  The strings, the order in which equal ones are summed and the
    factor each integral is scaled by depend on norb alone; `_jw_plan` holds
    them, cached up to `_CACHED_JW_NORB`.  Per dump, the integrals are
    gathered and scaled, summed by string within each first-index block and
    then across blocks, and terms below COEFF_PRUNE_TOL are dropped.
    """
    n = 2 * dump.norb
    if n > MAX_TABLE_QUBITS:
        raise TooLarge(f"{n} qubits exceeds the {MAX_TABLE_QUBITS}-bit masks")
    plan = (_cached_jw_plan if dump.norb <= _CACHED_JW_NORB else _jw_plan)(dump.norb)
    k, v = pair_integrals(dump)
    block_sums = np.add.reduceat(v.ravel()[plan.source] * plan.factor, plan.block_starts)
    coeff = np.concatenate([[dump.e_core], (np.repeat(k, 2)[:, None] * plan.c_ops).ravel(),
                            block_sums])
    coeff = np.add.reduceat(coeff[plan.order], plan.starts)
    keep = np.abs(coeff) >= COEFF_PRUNE_TOL
    return PauliTable(n, plan.x[keep], plan.z[keep], coeff[keep])
