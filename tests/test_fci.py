import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from gsee_bench import fci
from gsee_bench.catalog import scan_catalog
from gsee_bench.errors import InconsistentBasis, InvalidOccupation, TooLarge
from gsee_bench.fcidump import FciDump, parse_fcidump
from gsee_bench.fermionic import log_fci_size
from gsee_bench.fci import (
    DAVIDSON_MAX_SUBSPACE,
    DENSE_CUTOFF,
    DeterminantBasis,
    MAX_NONZEROS,
    _row_elements,
    build_basis,
    build_fci_matrix,
    lowest_eigenvalues,
    solve_ground_state,
)

from conftest import brute_force_fci_matrix, interleave, random_fcidump, random_symmetric
from fci_reference import build_csr, sector_dets, sigma_reference

ROOT = Path(__file__).resolve().parent.parent


def test_basis_counts():
    assert len(build_basis(2, 1, 1)) == 4
    assert len(build_basis(1, 1, 1)) == 1
    assert len(build_basis(6, 3, 3)) == 400


def test_basis_count_matches_log_fci_size():
    for norb, na, nb in [(6, 3, 3), (10, 5, 5)]:
        basis = build_basis(norb, na, nb)
        assert len(basis) == pytest.approx(10 ** log_fci_size(norb, na, nb))


def test_basis_masks_have_right_popcount():
    basis = build_basis(5, 2, 3)
    dets = sector_dets(5, 2, 3)
    for a, b in dets:
        assert bin(a).count("1") == 2
        assert bin(b).count("1") == 3
    assert len(set(dets)) == len(dets) == len(basis)
    # alpha-major, occupations enumerated in lexicographic index order
    from itertools import combinations

    def mask(occ):
        return sum(1 << o for o in occ)

    expected = [
        (mask(a), mask(b))
        for a in combinations(range(5), 2)
        for b in combinations(range(5), 3)
    ]
    assert dets == expected


def test_basis_caps():
    with pytest.raises(TooLarge):
        build_basis(17, 1, 1)
    # the basis checks its caps before max_dim, so over both the nnz cap speaks
    with pytest.raises(TooLarge, match="over the cap"):
        build_basis(16, 8, 8, max_dim=1000)
    with pytest.raises(TooLarge, match="exceeds cap 1000"):
        build_basis(8, 3, 3, max_dim=1000)
    with pytest.raises(InvalidOccupation):
        build_basis(3, 4, 0)


def test_sector_checks_live_in_the_basis():
    with pytest.raises(TooLarge):
        DeterminantBasis(17, 1, 1)
    with pytest.raises(InvalidOccupation):
        DeterminantBasis(3, 4, 0)
    with pytest.raises(TooLarge):
        DeterminantBasis(12, 6, 3)
    assert DeterminantBasis(12, 6, 2).nnz == 60_984 * _row_elements(12, 6, 2)


def test_sector_hamiltonian_binds_its_tables_once(rng, monkeypatch):
    d = random_fcidump(rng, 4, 3, 1)
    mat = build_fci_matrix(d, build_basis(4, d.n_alpha, d.n_beta))
    calls = []

    def counted(name):
        original = getattr(fci, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for name in ("_strings", "_interleave_phase"):
        monkeypatch.setattr(fci, name, counted(name))
    x = rng.normal(size=(mat.shape[0], 2))
    mat.diagonal(), mat @ x[:, 0], mat @ x, mat.toarray()
    assert calls == []
    build_fci_matrix(d, mat.basis)
    assert sorted(calls) == ["_interleave_phase", "_strings", "_strings"]


def test_interleave():
    assert interleave(0b1, 0b0, 2) == 0b01
    assert interleave(0b0, 0b1, 2) == 0b10
    # alpha bits land on even positions, beta on odd: a1 b1 b0 a0 reads 1101
    assert interleave(0b11, 0b10, 2) == 0b1101


def test_one_electron_matrix_is_h1():
    rng = np.random.default_rng(0)
    h1 = rng.normal(size=(2, 2))
    h1 = (h1 + h1.T) / 2
    d = FciDump.from_tensors(2, 1, 1, e_core=0.25, h1=h1)
    basis = build_basis(2, 1, 0)
    m = build_fci_matrix(d, basis).toarray()
    assert np.allclose(m, h1 + 0.25 * np.eye(2))


def test_matrix_symmetric(rng):
    d = random_fcidump(rng, 3)
    basis = build_basis(3, d.n_alpha, d.n_beta)
    m = build_fci_matrix(d, basis).toarray()
    assert np.array_equal(m, m.T)


def test_matrix_matches_brute_force_ladder_build(rng):
    for norb, nelec, ms2 in [(2, 2, 0), (3, 3, 1), (3, 2, 2), (3, 4, 0), (4, 4, 0)]:
        d = random_fcidump(rng, norb, nelec, ms2)
        basis = build_basis(norb, d.n_alpha, d.n_beta)
        fast = build_fci_matrix(d, basis).toarray()
        slow = brute_force_fci_matrix(d, basis)
        assert np.abs(fast - slow).max() < 1e-12


def _sector_dumps(rng, norb: int, n_alpha: int, n_beta: int) -> list[FciDump]:
    nelec, ms2 = n_alpha + n_beta, n_alpha - n_beta
    h1 = random_symmetric(rng, norb)
    return [
        random_fcidump(rng, norb, nelec, ms2),
        FciDump.from_tensors(norb, nelec, ms2, 0.375, h1, np.zeros((norb,) * 4)),
        FciDump(norb, nelec, ms2, -1.25, h1),
        FciDump.from_tensors(norb, nelec, ms2, 0.0, None,
                             random_fcidump(rng, norb, nelec, ms2).two_body_tensor()),
    ]


def test_build_matches_brute_force_in_every_small_sector(rng):
    # every (n_alpha, n_beta) of norb 1-4, empty and full strings included;
    # random integrals with e_core != 0, an all-zero ERI, h1 only, ERI only
    for norb in range(1, 5):
        for n_alpha in range(norb + 1):
            for n_beta in range(norb + 1):
                basis = build_basis(norb, n_alpha, n_beta)
                for d in _sector_dumps(rng, norb, n_alpha, n_beta):
                    slow = brute_force_fci_matrix(d, basis)
                    assert np.abs(build_fci_matrix(d, basis).toarray() - slow).max() <= 1e-12
                    oracle = build_csr(d, basis)
                    assert np.abs(oracle.toarray() - slow).max() <= 1e-12
                    # the oracle stores no exact zeros
                    assert np.count_nonzero(oracle.data) == oracle.nnz


def _sigma_sectors():
    # every sector of norb 1-6, empty and full strings included, and dim 3136
    sectors = [(norb, n_alpha, n_beta) for norb in range(1, 7)
               for n_alpha in range(norb + 1) for n_beta in range(norb + 1)]
    return sectors + [(8, 3, 3)]


@pytest.mark.parametrize("norb, n_alpha, n_beta", _sigma_sectors())
def test_sigma_matches_csr_oracle(norb, n_alpha, n_beta):
    rng = np.random.default_rng([norb, n_alpha, n_beta])
    d = random_fcidump(rng, norb, n_alpha + n_beta, n_alpha - n_beta, scale=0.5)
    basis = build_basis(norb, n_alpha, n_beta)
    mat, oracle = build_fci_matrix(d, basis), build_csr(d, basis)
    assert mat.shape == oracle.shape == (len(basis), len(basis))
    block = rng.normal(size=(len(basis), 3))
    assert np.abs(mat @ block - oracle @ block).max() <= 1e-12
    assert (mat @ block[:, 0]).shape == (len(basis),)
    assert np.abs(mat @ block[:, 0] - oracle @ block[:, 0]).max() <= 1e-12
    # the fixed scratch gives the one-pass sigma bit for bit, and again on a
    # second use of the same buffers
    sigma = mat @ block[:, 0]
    assert np.array_equal(sigma, sigma_reference(mat, block[:, 0]))
    assert np.array_equal(mat @ sigma, sigma_reference(mat, sigma))
    reference = np.column_stack([sigma_reference(mat, column) for column in block.T])
    assert np.array_equal(mat @ block, reference)
    assert np.array_equal(mat.diagonal(), oracle.diagonal())
    if norb <= 6:  # (8, 3, 3) is compared in the dim-3136 test below
        assert np.abs(mat.toarray() - oracle.toarray()).max() <= 1e-12


def test_build_symmetry_and_stored_elements_at_dim_3136(rng):
    d = random_fcidump(rng, 8, 6, 0, scale=0.5)
    basis = build_basis(8, 3, 3)
    mat, oracle = build_fci_matrix(d, basis), build_csr(d, basis)
    assert mat.shape == (3136, 3136)
    assert mat.nnz == oracle.nnz == 990_976 == 3136 * _row_elements(8, 3, 3)
    assert oracle.indices.dtype == np.int32
    assert (oracle != oracle.T).nnz == 0
    dense = mat.toarray()
    assert np.abs(dense - oracle.toarray()).max() <= 1e-12
    assert np.array_equal(dense, dense.T)


def _traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc while `call` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sigma_allocates_only_its_result_after_the_first_product(rng):
    d = random_fcidump(rng, 8, 6, 0, scale=0.5)
    mat = build_fci_matrix(d, build_basis(8, 3, 3))
    dim = mat.shape[0]
    x, block = rng.normal(size=dim), rng.normal(size=(dim, 3))
    mat @ x  # binds the scratch
    # no buffer of dim x pairs floats, nor a gather back of dim x (pairs of
    # one string): the one-pass sigma peaked at 40 dim floats here
    assert _traced_peak(lambda: mat @ x) < 4 * dim * 8
    assert _traced_peak(lambda: mat @ block) < (3 + 4) * dim * 8


def test_davidson_working_set_is_the_closed_form(rng):
    d = random_fcidump(rng, 8, 6, 0, scale=0.5)
    mat = build_fci_matrix(d, build_basis(8, 3, 3))
    dim, pairs, k = mat.shape[0], 8 * 9 // 2, 2
    results = []
    peak = _traced_peak(lambda: results.append(lowest_eigenvalues(mat, k=k)))
    assert results[0].converged and results[0].n_iterations > 0
    # sigma's D and G, and the basis and product rows; the slack is the
    # scratch's [c; -c; 0] stacks and sigma terms (6 dim), the diagonal and
    # the denominators, a restart's 2k + 2 rotated rows and a product block
    # (the one-pass sigma with a column-stacked subspace peaked at 246 dim
    # floats here, 110 over the closed form)
    closed_form = 2 * dim * pairs + 2 * (DAVIDSON_MAX_SUBSPACE + k) * dim
    slack = 24 * dim
    assert peak < (closed_form + slack) * 8


def test_oracle_cap_reachable_and_enforced_at_once():
    # norb 12 with 6+2 electrons is the largest sector under the cap
    assert 60_984 * _row_elements(12, 6, 2) <= MAX_NONZEROS
    assert len(build_basis(12, 6, 2)) == 60_984
    assert math.comb(12, 6) * math.comb(12, 3) * _row_elements(12, 6, 3) > MAX_NONZEROS
    over = FciDump(norb=12, nelec=9, ms2=3)
    started = time.perf_counter()
    with pytest.raises(TooLarge):
        solve_ground_state(over)
    with pytest.raises(TooLarge):
        build_fci_matrix(over, DeterminantBasis(12, 6, 3))
    assert time.perf_counter() - started < 1.0


def test_inconsistent_basis():
    d = FciDump(norb=2, nelec=2)
    with pytest.raises(InconsistentBasis):
        build_fci_matrix(d, build_basis(2, 2, 0))


def test_spectrum_invariant_under_basis_permutation(rng):
    d = random_fcidump(rng, 2)
    basis = build_basis(2, d.n_alpha, d.n_beta)
    m = build_fci_matrix(d, basis).toarray()
    perm = rng.permutation(m.shape[0])
    permuted = m[np.ix_(perm, perm)]
    assert np.allclose(np.linalg.eigvalsh(m), np.linalg.eigvalsh(permuted))


def test_lowest_eigenvalues_diag():
    result = lowest_eigenvalues(np.diag([3.0, 1.0, 2.0]), k=2)
    assert result.energies == (1.0, 2.0)
    assert result.gap == pytest.approx(1.0)
    assert result.converged


def test_lowest_eigenvalues_1x1():
    result = lowest_eigenvalues(np.array([[4.5]]), k=1)
    assert result.energies == (4.5,)
    assert result.gap is None


def _random_sparse_symmetric(rng, n: int, density: float = 0.01) -> scipy.sparse.csr_array:
    diag = np.sort(rng.uniform(0.0, 10.0, size=n))
    nnz = int(density * n * n / 2)
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = 0.1 * rng.normal(size=nnz)
    mat = scipy.sparse.coo_array((vals, (rows, cols)), shape=(n, n))
    upper = mat.tocsr()
    return (upper + upper.T + scipy.sparse.diags_array(diag)).tocsr()


def test_davidson_matches_dense_oracle(rng, monkeypatch):
    mat = _random_sparse_symmetric(rng, 500)
    monkeypatch.setattr(fci, "DAVIDSON_TOL", 1e-9)
    monkeypatch.setattr(fci, "DENSE_CUTOFF", 0)
    result = lowest_eigenvalues(mat, k=2)
    assert result.converged
    assert result.n_iterations > 0
    dense = np.linalg.eigvalsh(mat.toarray())
    assert abs(result.energies[0] - dense[0]) < 1e-8
    assert abs(result.energies[1] - dense[1]) < 1e-8


def test_davidson_large_sparse(rng, monkeypatch):
    mat = _random_sparse_symmetric(rng, 5000)
    monkeypatch.setattr(fci, "DAVIDSON_TOL", 1e-8)
    monkeypatch.setattr(fci, "DENSE_CUTOFF", 0)
    result = lowest_eigenvalues(mat, k=2)
    assert result.converged
    assert result.energies[0] <= result.energies[1]
    assert result.gap == pytest.approx(result.energies[1] - result.energies[0])
    reference = scipy.sparse.linalg.eigsh(mat, k=2, which="SA", return_eigenvectors=False)
    assert np.abs(np.sort(reference) - np.array(result.energies)).max() < 1e-8


def test_davidson_honest_convergence_flag(rng, monkeypatch):
    mat = _random_sparse_symmetric(rng, 300)
    monkeypatch.setattr(fci, "DAVIDSON_TOL", 1e-14)
    monkeypatch.setattr(fci, "DAVIDSON_MAX_ITERATIONS", 1)
    monkeypatch.setattr(fci, "DENSE_CUTOFF", 0)
    result = lowest_eigenvalues(mat, k=1)
    assert not result.converged


class _CountingMatrix(scipy.sparse.csr_array):
    """CSR matrix that records the column count of every product H @ V."""

    def __matmul__(self, other):
        self.applied.append(np.shape(other)[1])
        return super().__matmul__(other)


@pytest.mark.parametrize("max_subspace", [30, 8])
def test_davidson_applies_matrix_to_each_direction_once(rng, monkeypatch, max_subspace):
    mat = _CountingMatrix(_random_sparse_symmetric(rng, 400))
    mat.applied = []
    monkeypatch.setattr(fci, "DAVIDSON_TOL", 1e-9)
    monkeypatch.setattr(fci, "DENSE_CUTOFF", 0)
    monkeypatch.setattr(fci, "DAVIDSON_MAX_SUBSPACE", max_subspace)
    result = lowest_eigenvalues(mat, k=2)
    assert result.converged
    dense = np.linalg.eigvalsh(mat.toarray())
    assert np.abs(np.array(result.energies) - dense[:2]).max() < 1e-8
    # the initial guesses once, then only the directions each iteration adds
    # (at most k); a restart applies nothing
    initial, *added = mat.applied
    assert initial == 4
    assert all(1 <= cols <= 2 for cols in added)
    assert len(added) < result.n_iterations
    # a Davidson that re-applied the whole basis would apply at least this many
    assert sum(mat.applied) < initial * result.n_iterations


def test_davidson_on_structured_hamiltonian(rng, monkeypatch):
    # a genuine sector Hamiltonian large enough to bypass the dense path:
    # Davidson on sigma against eigvalsh on the CSR oracle
    d = random_fcidump(rng, 8, 6, 0, scale=0.5)
    basis = build_basis(8, 3, 3)
    mat = build_fci_matrix(d, basis)
    assert mat.shape[0] > 2000
    monkeypatch.setattr(fci, "DAVIDSON_TOL", 1e-9)
    dav = lowest_eigenvalues(mat, k=2)
    assert dav.converged and dav.n_iterations > 0
    dense = np.linalg.eigvalsh(build_csr(d, basis).toarray())
    assert abs(dav.energies[0] - dense[0]) < 1e-10
    assert abs(dav.energies[1] - dense[1]) < 1e-10


def test_dense_cutoff_routes_the_sectors_either_side(monkeypatch):
    # the largest sector of norb <= 8 at or below DENSE_CUTOFF, and the
    # smallest above it, against eigvalsh on the CSR oracle
    sectors = sorted((math.comb(norb, n_alpha) * math.comb(norb, n_beta), norb, n_alpha, n_beta)
                     for norb in range(1, 9) for n_alpha in range(norb + 1)
                     for n_beta in range(n_alpha + 1))
    below = max(s for s in sectors if s[0] <= DENSE_CUTOFF)
    above = min(s for s in sectors if s[0] > DENSE_CUTOFF)
    monkeypatch.setattr(fci, "DAVIDSON_TOL", 1e-9)
    for (dim, norb, n_alpha, n_beta), dense in ((below, True), (above, False)):
        rng = np.random.default_rng([norb, n_alpha, n_beta])
        d = random_fcidump(rng, norb, n_alpha + n_beta, n_alpha - n_beta, scale=0.5)
        basis = build_basis(norb, n_alpha, n_beta)
        mat = build_fci_matrix(d, basis)
        result = lowest_eigenvalues(mat, k=2)
        assert result.converged
        assert (result.n_iterations == 0) == dense, (dim, result.n_iterations)
        exact = np.linalg.eigvalsh(build_csr(d, basis).toarray())[:2]
        assert np.abs(np.array(result.energies) - exact).max() < 1e-10
        if dense:
            m = mat.toarray()
            assert np.array_equal(m, m.T)


def test_solve_ground_state_variational_bound(rng):
    d = random_fcidump(rng, 3)
    spectrum, dim = solve_ground_state(d)
    assert dim == math.comb(3, d.n_alpha) * math.comb(3, d.n_beta)
    basis = build_basis(3, d.n_alpha, d.n_beta)
    dense = np.linalg.eigvalsh(build_fci_matrix(d, basis).toarray())
    assert spectrum.energies[0] == pytest.approx(dense[0], abs=1e-10)
    if dim > 1:
        assert spectrum.gap >= 0.0


def test_demo_reference_energies_reproduce():
    # the committed demo references are what the oracle computes today
    checked = 0
    for instance in scan_catalog(ROOT / "demo" / "catalog"):
        for task in instance.tasks:
            if task.reference_energy is None:
                continue
            text = task.fcidump_path.read_text(encoding="utf-8")
            spectrum, _ = solve_ground_state(parse_fcidump(text))
            assert abs(spectrum.energies[0] - task.reference_energy) <= 1e-12, task.task_uuid
            checked += 1
    assert checked == 11


def test_package_import_loads_no_scipy():
    code = ("import sys, gsee_bench.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
