from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsee_bench import pauli
from gsee_bench.errors import TooLarge
from gsee_bench.fcidump import FciDump, parse_fcidump
from gsee_bench.fci import build_basis, build_fci_matrix
from gsee_bench.pauli import PauliTable, jordan_wigner_hamiltonian

from conftest import eri_orbit, random_eri, random_fcidump, random_symmetric, sector_indices
from pauli_reference import (
    PauliString,
    PauliSum,
    SizeMismatch,
    jordan_wigner_blocks,
    jordan_wigner_reference,
    jw_annihilation,
    jw_creation,
    pauli_multiply,
    sum_from_table,
    table_from_sum,
    table_matrix,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
SINGLE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_matrix(label: str) -> np.ndarray:
    """Reference tensor product with qubit 0 least significant."""
    mat = np.array([[1.0 + 0j]])
    for ch in label:  # qubit q is character q; LSB first means right-to-left kron
        mat = np.kron(SINGLE[ch], mat)
    return mat


def test_label_roundtrip():
    for label in ("I", "X", "XZIY", "YYZX"):
        assert PauliString.from_label(label).label == label


def test_single_qubit_multiplication_table():
    x = PauliString.from_label("X")
    z = PauliString.from_label("Z")
    y = PauliString.from_label("Y")
    prod, phase = pauli_multiply(x, z)
    assert prod == y and phase == -1j
    prod, phase = pauli_multiply(z, x)
    assert prod == y and phase == 1j
    prod, phase = pauli_multiply(x, y)
    assert prod == z and phase == 1j


@given(st.integers(0, 15), st.integers(0, 15))
def test_self_product_is_identity(x_mask, z_mask):
    p = PauliString(4, x_mask, z_mask)
    prod, phase = pauli_multiply(p, p)
    assert prod.is_identity
    assert phase == 1


@settings(max_examples=50)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_product_matches_matrix_product(xa, za, xb, zb):
    a = PauliString(4, xa, za)
    b = PauliString(4, xb, zb)
    prod, phase = pauli_multiply(a, b)
    lhs = a.to_matrix() @ b.to_matrix()
    rhs = phase * prod.to_matrix()
    assert np.allclose(lhs, rhs)


def test_string_matrix_matches_kron(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        label = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        ps = PauliString.from_label(label)
        assert np.allclose(ps.to_matrix(), kron_matrix(label))


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        pauli_multiply(PauliString(2), PauliString(3))


def test_weight_and_support():
    ps = PauliString.from_label("XIZY")
    assert ps.weight == 3
    assert ps.support == (0, 2, 3)


def test_to_matrix_conventions():
    z0 = table_from_sum(PauliSum(1, {PauliString.from_label("Z"): 1.0}))
    assert np.allclose(table_matrix(z0), np.diag([1.0, -1.0]))
    x0 = table_from_sum(PauliSum(2, {PauliString.from_label("XI"): 1.0}))
    m = table_matrix(x0)
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 1.0
    assert np.allclose(m, expected)


def test_too_large_cap():
    with pytest.raises(TooLarge):
        table_matrix(table_from_sum(PauliSum.identity(15)))


def random_table(rng, n_qubits: int, n_terms: int) -> PauliTable:
    """Random masks (repeats merged by the sum) with complex coefficients."""
    terms = [
        (PauliString(n_qubits, int(rng.integers(0, 1 << n_qubits)),
                     int(rng.integers(0, 1 << n_qubits))),
         complex(rng.normal(), rng.normal()))
        for _ in range(n_terms)
    ]
    return table_from_sum(PauliSum.from_terms(n_qubits, terms))


def test_table_matrix_matches_reference_sum(rng):
    for n in range(1, 9):
        for _ in range(3):
            table = random_table(rng, n, int(rng.integers(1, 30)))
            assert table.coeff.dtype == np.complex128
            want = sum_from_table(table).to_matrix()
            assert np.allclose(table_matrix(table), want, rtol=0.0, atol=1e-12)


def test_simplify_prunes_and_is_idempotent(rng):
    ps = PauliString.from_label("XZ")
    s = PauliSum.from_terms(2, [(ps, 0.5), (ps, -0.5), (PauliString.from_label("YY"), 1.0 + 1e-12j)])
    simplified = s.simplify()
    assert len(simplified) == 1
    coeff = simplified.coefficient(PauliString.from_label("YY"))
    assert coeff.imag == 0.0
    again = simplified.simplify()
    assert again.terms == simplified.terms


def test_simplify_order_independent(rng):
    terms = [
        (PauliString(3, int(rng.integers(0, 8)), int(rng.integers(0, 8))), complex(rng.normal()))
        for _ in range(30)
    ]
    a = PauliSum.from_terms(3, terms).simplify()
    order = rng.permutation(len(terms))
    b = PauliSum.from_terms(3, [terms[i] for i in order]).simplify()
    assert a.terms == b.terms


def test_jw_number_operator():
    d = FciDump.from_tensors(1, 1, 1, h1=np.array([[0.7]]))
    table = jordan_wigner_hamiltonian(d)
    h = sum_from_table(table)
    ident = PauliString.identity(2)
    z0 = PauliString.from_label("ZI")
    z1 = PauliString.from_label("IZ")
    assert h.coefficient(ident) == pytest.approx(0.7)
    assert h.coefficient(z0) == pytest.approx(-0.35)
    assert h.coefficient(z1) == pytest.approx(-0.35)
    assert len(table) == 3


def test_jw_core_energy_only():
    d = FciDump(norb=1, nelec=0, e_core=-2.5)
    h = jordan_wigner_hamiltonian(d)
    assert len(h) == 1
    assert sum_from_table(h).coefficient(PauliString.identity(2)) == pytest.approx(-2.5)


def test_jw_coefficients_real(rng):
    d = random_fcidump(rng, 2)
    h = sum_from_table(jordan_wigner_hamiltonian(d))
    for coeff in h.terms.values():
        assert coeff.imag == 0.0


def test_jw_matrix_hermitian(rng):
    d = random_fcidump(rng, 2)
    m = table_matrix(jordan_wigner_hamiltonian(d))
    assert np.allclose(m, m.conj().T)


def test_jw_spectrum_matches_fci_sector(rng):
    for _ in range(5):
        norb = int(rng.integers(1, 4))
        d = random_fcidump(rng, norb)
        m = table_matrix(jordan_wigner_hamiltonian(d))
        idx = sector_indices(2 * norb, d.n_alpha, d.n_beta)
        qubit_eigs = np.linalg.eigvalsh(m[np.ix_(idx, idx)])
        basis = build_basis(norb, d.n_alpha, d.n_beta)
        fci_eigs = np.linalg.eigvalsh(build_fci_matrix(d, basis).toarray())
        assert np.abs(qubit_eigs - fci_eigs).max() < 1e-8


def test_jw_spectrum_matches_fci_sector_four_orbitals(rng):
    d = random_fcidump(rng, 4, 4, 0)
    m = table_matrix(jordan_wigner_hamiltonian(d), max_qubits=8)
    idx = sector_indices(8, 2, 2)
    qubit_eigs = np.linalg.eigvalsh(m[np.ix_(idx, idx)])
    fci_eigs = np.linalg.eigvalsh(build_fci_matrix(d, build_basis(4, 2, 2)).toarray())
    assert np.abs(qubit_eigs - fci_eigs).max() < 1e-8


def test_ladder_anticommutation(rng):
    n = 6
    ident = np.eye(1 << n)
    for p in range(n):
        for q in range(n):
            a_p = jw_annihilation(n, p).to_matrix()
            adag_q = jw_creation(n, q).to_matrix()
            anti = a_p @ adag_q + adag_q @ a_p
            expected = ident if p == q else np.zeros_like(ident)
            assert np.allclose(anti, expected, atol=1e-12)


def test_jw_term_count_scales_quartically(rng):
    d = random_fcidump(rng, 3)
    h = jordan_wigner_hamiltonian(d)
    n = 2 * d.norb
    assert len(h) <= n**4


def test_jw_rebuild_from_shuffled_terms(rng):
    d = random_fcidump(rng, 2)
    h = sum_from_table(jordan_wigner_hamiltonian(d))
    pairs = list(h.terms.items())
    order = rng.permutation(len(pairs))
    rebuilt = PauliSum.from_terms(h.n_qubits, [pairs[i] for i in order]).simplify()
    assert len(rebuilt) == len(h)
    assert rebuilt.terms == h.terms


def _reference_cases(rng):
    """Random dumps at norb 1-5 plus the corner cases of the encoder."""
    cases = [random_fcidump(rng, norb) for norb in range(1, 6) for _ in range(2)]
    cases.append(random_fcidump(rng, 3, 3, 3))  # ms2 != 0
    cases.append(random_fcidump(rng, 4, 2, -2))
    # all-zero ERI: the two-body blocks contribute no term at all
    cases.append(FciDump.from_tensors(3, 2, 0, 0.4, random_symmetric(rng, 3)))
    # zero h1 entries (diagonal and off-diagonal) and no core energy
    h1 = random_symmetric(rng, 4)
    h1[0, 2] = h1[2, 0] = h1[1, 1] = 0.0
    cases.append(FciDump.from_tensors(4, 4, 2, 0.0, h1, random_eri(rng, 4)))
    cases.append(FciDump.from_tensors(2, 2, 0, 0.0, np.zeros((2, 2)), random_eri(rng, 2)))
    cases.append(FciDump(norb=2, nelec=2))  # the zero operator: no term at all
    return cases


def test_jw_matches_ladder_operator_reference(rng):
    for dump in _reference_cases(rng):
        table = jordan_wigner_hamiltonian(dump)
        reference = jordan_wigner_reference(dump)
        assert table.coeff.dtype == np.float64
        got = dict(zip(zip(table.x.tolist(), table.z.tolist()), table.coeff.tolist()))
        want = {(ps.x_mask, ps.z_mask): c for ps, c in reference.terms.items()}
        assert len(got) == len(table)
        assert got.keys() == want.keys()
        for key, coeff in want.items():
            assert coeff.imag == 0.0
            assert abs(got[key] - coeff.real) <= 1e-12 * abs(coeff.real)


def test_jw_table_round_trips_through_pauli_sum(rng):
    table = jordan_wigner_hamiltonian(random_fcidump(rng, 3))
    h = sum_from_table(table)
    assert len(h) == len(table)
    for x, z, coeff in zip(table.x.tolist(), table.z.tolist(), table.coeff.tolist()):
        assert h.coefficient(PauliString(table.n_qubits, x, z)) == coeff
    back = table_from_sum(h)
    assert np.array_equal(back.x, table.x) and np.array_equal(back.z, table.z)
    assert np.array_equal(back.coeff, table.coeff)


def test_jw_register_limit():
    with pytest.raises(TooLarge):
        jordan_wigner_hamiltonian(FciDump(norb=33, nelec=2))


DEMO_DUMPS = sorted((Path(__file__).parent.parent / "demo" / "catalog").rglob("*.fcidump"))


def _assert_same_table(got: PauliTable, want: PauliTable, rtol: float = 0.0) -> None:
    assert got.n_qubits == want.n_qubits
    assert np.array_equal(got.x, want.x) and np.array_equal(got.z, want.z)
    assert np.all(np.abs(got.coeff - want.coeff) <= rtol * np.abs(want.coeff))


def test_jw_plan_bit_identical_to_block_encoder_on_dense_dumps(rng):
    for norb in range(1, 9):
        for _ in range(3):
            dump = random_fcidump(rng, norb)
            _assert_same_table(jordan_wigner_hamiltonian(dump), jordan_wigner_blocks(dump))


def test_jw_plan_bit_identical_to_block_encoder_on_demo_dumps():
    assert len(DEMO_DUMPS) == 12
    for path in DEMO_DUMPS:
        with open(path, encoding="utf-8") as fh:
            dump = parse_fcidump(fh)
        _assert_same_table(jordan_wigner_hamiltonian(dump), jordan_wigner_blocks(dump))


def _zero_orbits(rng, norb: int) -> FciDump:
    """A dense dump with about half of its ERI orbits set to exactly zero."""
    h2 = random_eri(rng, norb)
    for key in np.argwhere(rng.random((norb,) * 4) < 0.5):
        for perm in eri_orbit(*key):
            h2[perm] = 0.0
    return FciDump.from_tensors(norb, norb, norb % 2, float(rng.normal()),
                                random_symmetric(rng, norb), h2)


def _hubbard_ring(sites: int, u: float, t: float = 1.0) -> FciDump:
    h1 = np.zeros((sites, sites))
    for s in range(sites):
        h1[s, (s + 1) % sites] = h1[(s + 1) % sites, s] = -t
    h2 = np.zeros((sites,) * 4)
    for s in range(sites):
        h2[s, s, s, s] = u
    return FciDump.from_tensors(sites, sites, sites % 2, 0.0, h1, h2)


def test_jw_plan_matches_block_encoder_on_sparse_dumps(rng):
    """The block encoder leaves the products of zero weights out, which moves
    the pairwise summation of long runs of equal strings in the last bits."""
    dumps = [_zero_orbits(rng, norb) for norb in range(1, 7)]
    dumps += [_hubbard_ring(sites, u) for sites in range(2, 9) for u in (0.5, 4.0)]
    for dump in dumps:
        _assert_same_table(jordan_wigner_hamiltonian(dump), jordan_wigner_blocks(dump), 1e-13)


def test_jw_plan_cached_up_to_cap_and_read_only():
    pauli._cached_jw_plan.cache_clear()
    cap = pauli._CACHED_JW_NORB
    for norb in (1, 2, cap + 1):
        jordan_wigner_hamiltonian(random_fcidump(np.random.default_rng(norb), norb))
    assert pauli._cached_jw_plan.cache_info().currsize == 2
    plan = pauli._cached_jw_plan(2)
    assert pauli._cached_jw_plan(2) is plan
    assert pauli._cached_jw_plan.cache_info().currsize == 2
    for name, array in vars(plan).items():
        assert not array.flags.writeable, name
    with pytest.raises(ValueError):
        plan.factor[0] = 0.0
