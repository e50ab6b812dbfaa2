"""Shared random-problem generators and independent brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest

from gsee_bench.fcidump import FciDump
from gsee_bench.fci import DeterminantBasis

from fci_reference import sector_dets


def eri_orbit(i: int, j: int, k: int, l: int) -> tuple[tuple[int, int, int, int], ...]:
    """All 8 index permutations equivalent to (ij|kl) under real-orbital symmetry."""
    return (
        (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
        (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
    )


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2.0


def random_eri(rng: np.random.Generator, norb: int, rank: int = 4, psd: bool = False) -> np.ndarray:
    """8-fold symmetric two-electron tensor built from symmetric outer products."""
    eri = np.zeros((norb,) * 4)
    for _ in range(rank):
        g = random_symmetric(rng, norb)
        c = abs(rng.normal()) if psd else rng.normal()
        eri += c * np.einsum("ij,kl->ijkl", g, g)
    return eri


def random_fcidump(
    rng: np.random.Generator,
    norb: int,
    nelec: int | None = None,
    ms2: int | None = None,
    scale: float = 1.0,
) -> FciDump:
    if nelec is None:
        nelec = int(rng.integers(1, 2 * norb + 1))
    if ms2 is None:
        choices = [m for m in range(-nelec, nelec + 1) if (nelec + m) % 2 == 0
                   and (nelec + m) // 2 <= norb and (nelec - m) // 2 <= norb]
        ms2 = int(rng.choice(choices))
    h1 = scale * random_symmetric(rng, norb)
    h2 = scale * random_eri(rng, norb)
    e_core = float(scale * rng.normal())
    return FciDump.from_tensors(norb, nelec, ms2, e_core, h1, h2)


def interleave(alpha_mask: int, beta_mask: int, norb: int) -> int:
    """Spin-orbital occupation mask: bit 2p from alpha, bit 2p+1 from beta."""
    mask = 0
    for p in range(norb):
        mask |= (alpha_mask >> p & 1) << (2 * p)
        mask |= (beta_mask >> p & 1) << (2 * p + 1)
    return mask


def _annihilate(mask: int, s: int) -> tuple[int, int] | None:
    if not mask >> s & 1:
        return None
    phase = -1 if (mask & ((1 << s) - 1)).bit_count() % 2 else 1
    return mask & ~(1 << s), phase


def _create(mask: int, s: int) -> tuple[int, int] | None:
    if mask >> s & 1:
        return None
    phase = -1 if (mask & ((1 << s) - 1)).bit_count() % 2 else 1
    return mask | (1 << s), phase


def brute_force_fci_matrix(dump: FciDump, basis: DeterminantBasis) -> np.ndarray:
    """Dense sector Hamiltonian built by applying second-quantized terms
    directly to occupation bitmasks; independent of the string-table build."""
    norb = dump.norb
    occ_masks = [interleave(a, b, norb) for a, b in sector_dets(norb, basis.n_alpha, basis.n_beta)]
    index = {m: i for i, m in enumerate(occ_masks)}
    dim = len(occ_masks)
    mat = np.zeros((dim, dim))
    eri = dump.two_body_tensor()
    for col, occ in enumerate(occ_masks):
        mat[col, col] += dump.e_core
        for i in range(norb):
            for j in range(norb):
                if dump.h1[i, j] == 0.0:
                    continue
                for s in (0, 1):
                    state = _apply_chain(occ, [(False, 2 * j + s), (True, 2 * i + s)])
                    if state is not None:
                        mask, phase = state
                        mat[index[mask], col] += dump.h1[i, j] * phase
        for i in range(norb):
            for j in range(norb):
                for k in range(norb):
                    for l in range(norb):
                        v = eri[i, j, k, l]
                        if v == 0.0:
                            continue
                        for s in (0, 1):
                            for t in (0, 1):
                                state = _apply_chain(
                                    occ,
                                    [
                                        (False, 2 * j + s),
                                        (False, 2 * l + t),
                                        (True, 2 * k + t),
                                        (True, 2 * i + s),
                                    ],
                                )
                                if state is not None:
                                    mask, phase = state
                                    mat[index[mask], col] += 0.5 * v * phase
    return mat


def _apply_chain(mask: int, ops: list[tuple[bool, int]]) -> tuple[int, int] | None:
    phase = 1
    for is_creation, s in ops:
        step = _create(mask, s) if is_creation else _annihilate(mask, s)
        if step is None:
            return None
        mask, p = step
        phase *= p
    return mask, phase


def sector_indices(n_qubits: int, n_alpha: int, n_beta: int) -> list[int]:
    """Computational-basis indices with the given alpha/beta occupation counts."""
    alpha_mask = sum(1 << q for q in range(0, n_qubits, 2))
    beta_mask = sum(1 << q for q in range(1, n_qubits, 2))
    return [
        c
        for c in range(1 << n_qubits)
        if (c & alpha_mask).bit_count() == n_alpha and (c & beta_mask).bit_count() == n_beta
    ]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
