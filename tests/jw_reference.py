"""Reference Jordan-Wigner encoder built from ladder-operator algebra.

Every term of the Hamiltonian is formed as a product of four two-term
`PauliSum`s, one per creation or annihilation operator.  It is slow (norb^4
products) but follows the textbook definitions directly, so the tests use it
as the oracle for the vectorized encoder in `gsee_bench.pauli`.
"""

from __future__ import annotations

from gsee_bench.fcidump import FciDump
from gsee_bench.pauli import PauliString, PauliSum


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
