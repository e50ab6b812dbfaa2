import math

import numpy as np
import pytest

from gsee_bench.errors import InvalidOccupation
from gsee_bench.fcidump import FciDump
from gsee_bench.fermionic import double_factorize, log_fci_size
from gsee_bench.qubit_features import FEATURE_NAMES, compute_feature_vector

from conftest import random_eri, random_symmetric
from df_reference import df_reconstruct
from df_reference import double_factorize as reference_factorize


def _dump_with_eri(eri: np.ndarray, norb: int) -> FciDump:
    return FciDump.from_tensors(norb, 2, 0, h2=eri)


def test_log_fci_size_small_values():
    assert log_fci_size(2, 1, 1) == pytest.approx(math.log10(4.0), abs=1e-12)
    assert log_fci_size(1, 1, 1) == pytest.approx(0.0, abs=1e-12)
    assert log_fci_size(10, 5, 5) == pytest.approx(math.log10(252.0**2), abs=1e-12)


def test_log_fci_size_matches_exact_binomials():
    for norb in range(1, 21):
        for na in range(norb + 1):
            for nb in range(norb + 1):
                exact = math.log10(math.comb(norb, na) * math.comb(norb, nb))
                assert log_fci_size(norb, na, nb) == pytest.approx(exact, abs=1e-12)


def test_log_fci_size_no_overflow():
    assert np.isfinite(log_fci_size(2000, 1000, 1000))


def test_invalid_occupation():
    with pytest.raises(InvalidOccupation):
        log_fci_size(2, 3, 1)


def test_size_features():
    d = FciDump(norb=4, nelec=3, ms2=1)
    s = dict(zip(FEATURE_NAMES, compute_feature_vector(d)))
    assert s["n_spin_orbitals"] == 8
    assert d.n_alpha == 2
    assert d.n_beta == 1
    assert d.n_alpha + d.n_beta == s["n_elec"]
    assert s["log_fci_size"] == log_fci_size(4, 2, 1)


def test_rank_one_tensor():
    norb = 3
    rng = np.random.default_rng(3)
    g = random_symmetric(rng, norb)
    g /= np.linalg.norm(g)
    scale = 1.7
    eri = scale**2 * np.einsum("ij,kl->ijkl", g, g)
    assert double_factorize(_dump_with_eri(eri, norb)) == (1, 0.0)
    df = reference_factorize(_dump_with_eri(eri, norb))
    assert df.rank == 1
    assert df.gap == 0.0
    assert df.lambdas[0] == pytest.approx(scale**2, abs=1e-10)
    assert np.allclose(np.abs(df.g_matrices[0]), np.abs(g), atol=1e-10)
    assert np.allclose(df_reconstruct(df), eri, atol=1e-10)


def test_all_zero_tensor():
    assert double_factorize(FciDump(norb=2, nelec=2)) == (0, 0.0)
    df = reference_factorize(FciDump(norb=2, nelec=2))
    assert df.rank == 0
    assert df.lambdas.size == 0
    assert df.gap == 0.0
    assert np.allclose(df_reconstruct(df), np.zeros((2,) * 4))


def test_reconstruction_zero_threshold(rng):
    for norb in (2, 3, 4):
        eri = random_eri(rng, norb, rank=6)
        df = reference_factorize(_dump_with_eri(eri, norb), threshold=0.0)
        assert np.abs(df_reconstruct(df) - eri).max() <= 1e-8


def test_reconstruction_error_bounded_by_threshold(rng):
    threshold = 1e-3
    for _ in range(5):
        eri = random_eri(rng, 3, rank=5, psd=True)
        df = reference_factorize(_dump_with_eri(eri, 3), threshold=threshold)
        bound = threshold * abs(df.lambdas[0]) * max(df.rank, 1)
        assert np.abs(df_reconstruct(df) - eri).max() <= bound


def test_g_matrices_symmetric_unit_norm(rng):
    eri = random_eri(rng, 4, rank=8)
    df = reference_factorize(_dump_with_eri(eri, 4), threshold=1e-10)
    for g in df.g_matrices:
        assert np.allclose(g, g.T, atol=1e-10)
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-10)


def test_lambda_ordering_and_gap(rng):
    eri = random_eri(rng, 3, rank=5)
    df = reference_factorize(_dump_with_eri(eri, 3))
    mags = np.abs(df.lambdas)
    assert np.all(mags[:-1] >= mags[1:])
    assert df.gap == pytest.approx(abs(df.lambdas[0] - df.lambdas[1]))
    assert double_factorize(_dump_with_eri(eri, 3))[1] == pytest.approx(df.gap, rel=1e-12)


def test_threshold_monotonicity(rng):
    eri = random_eri(rng, 3, rank=5)
    d = _dump_with_eri(eri, 3)
    ranks = [double_factorize(d, threshold=t)[0] for t in (0.0, 1e-8, 1e-4, 1e-2, 0.5)]
    assert ranks == sorted(ranks, reverse=True)


def test_absolute_threshold_mode(rng):
    eri = 1e-4 * random_eri(rng, 3, rank=5)
    d = _dump_with_eri(eri, 3)
    relative_rank, _ = double_factorize(d, threshold=1e-3)
    absolute_rank, _ = double_factorize(d, threshold=1e-3, absolute=True)
    # at this scale every eigenvalue falls below an absolute 1 mHa cutoff
    assert absolute_rank == 0
    assert relative_rank > 0


def test_gap_invariant_under_g_sign_flip(rng):
    eri = random_eri(rng, 3, rank=4)
    df = reference_factorize(_dump_with_eri(eri, 3))
    flipped = df.g_matrices.copy()
    flipped[0] *= -1.0
    rebuilt = np.einsum("a,aij,akl->ijkl", df.lambdas, flipped, flipped)
    assert np.allclose(rebuilt, df_reconstruct(df), atol=1e-12)


def test_full_eigendecomposition_identity(rng):
    for norb in (2, 3, 4, 5, 6):
        eri = random_eri(rng, norb, rank=norb * 2)
        df = reference_factorize(_dump_with_eri(eri, norb), threshold=0.0)
        assert np.abs(df_reconstruct(df) - eri).max() <= 1e-8


def _random_tensors(rng):
    """(norb, eri) over norb 1-8: the demo generator's rank norb + 1, a low
    rank of 1-3, and full rank on the norb(norb+1)/2 pairs."""
    for norb in range(1, 9):
        n_pairs = norb * (norb + 1) // 2
        for rank in (norb + 1, int(rng.integers(1, 4)), n_pairs + 2):
            for _ in range(2):
                yield norb, random_eri(rng, norb, rank=rank)


@pytest.mark.parametrize(
    "threshold, absolute",
    [(1e-12, False), (1e-6, False), (1e-3, False), (0.5, False), (1e-3, True)],
)
def test_rank_and_gap_match_reference(rng, threshold, absolute):
    for norb, eri in _random_tensors(rng):
        dump = _dump_with_eri(eri, norb)
        rank, gap = double_factorize(dump, threshold, absolute=absolute)
        want = reference_factorize(dump, threshold, absolute=absolute)
        lam_max = abs(reference_factorize(dump, 0.0).lambdas[0])
        assert rank == want.rank, norb
        assert abs(gap - want.gap) <= 1e-12 * max(1.0, lam_max), norb


def test_zero_threshold_rank_at_most_pair_count(rng):
    # V's index-antisymmetric null space holds no DF term, so roundoff
    # eigenvalues there must not count at threshold 0
    for norb, eri in _random_tensors(rng):
        rank, _ = double_factorize(_dump_with_eri(eri, norb), threshold=0.0)
        assert rank <= norb * (norb + 1) // 2, norb
