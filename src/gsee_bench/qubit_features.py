"""Qubit-representation features and the assembled per-task feature row.

Each non-identity Pauli term is an edge of an interaction hypergraph whose
vertices are qubits; edge order is the number of non-identity factors, edge
weight the coefficient magnitude, and vertex degree the number of edges
touching a qubit.  The one-norm sums |h_e| over non-identity terms only:
constant shifts carry no simulation cost and the hypergraph has no empty edge.
The features are computed from the arrays of a `PauliTable`, with no per-edge
objects: edge orders are popcounts of the support masks and vertex degrees
come from byte histograms of those masks.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import InsufficientRows, NonFiniteInput
from .fcidump import FciDump
from .fermionic import DEFAULT_DF_THRESHOLD, double_factorize, log_fci_size
from .pauli import PauliTable, jordan_wigner_hamiltonian

log = logging.getLogger(__name__)

# Spin-orbital ordering used by the encoder; qubit-level features depend on it.
SPIN_ORBITAL_ORDERING = "interleaved-alpha-even"

# One task's features are one float row in this column order: the fermionic
# columns (sizes, DF rank and gap) and then the qubit columns.
FEATURE_NAMES: tuple[str, ...] = (
    "n_elec", "n_spin_orbitals", "log_fci_size", "df_rank", "df_gap",
    "one_norm", "n_pauli_strings", "n_qubits",
    "edge_order_max", "edge_order_min", "edge_order_mean", "edge_order_std",
    "vertex_degree_max", "vertex_degree_min", "vertex_degree_mean", "vertex_degree_std",
    "edge_weight_max", "edge_weight_min", "edge_weight_mean", "edge_weight_std",
)
_QUBIT_NAMES = FEATURE_NAMES[5:]


def _stats(values: np.ndarray) -> tuple[float, float, float, float]:
    """(max, min, mean, population std); zeros for an empty sample.

    Values are sorted first so the statistics are exactly independent of
    term order (floating-point summation is order sensitive).
    """
    if values.size == 0:
        return 0.0, 0.0, 0.0, 0.0
    values = np.sort(values)
    return (
        float(values[-1]),
        float(values[0]),
        float(values.mean()),
        float(values.std()),
    )


def _vertex_degrees(support: np.ndarray, n_qubits: int) -> np.ndarray:
    """Edges touching each qubit, from the uint64 support masks.

    Each of the 8 mask bytes is histogrammed over its 256 values; unpacking
    the bits of those values turns the histograms into per-qubit counts
    (qubit 8b + k is bit k of byte b), with no per-edge unpacking.
    """
    byte_rows = np.asarray(support, dtype="<u8").view(np.uint8).reshape(-1, 8)
    counts = np.stack([np.bincount(col, minlength=256) for col in byte_rows.T])
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    return (counts @ bits).ravel()[:n_qubits].astype(float)


def compute_qubit_features(table: PauliTable) -> dict[str, float]:
    """The qubit columns of the feature row, by name in FEATURE_NAMES order,
    from a Pauli table of distinct, pruned terms.

    A Hamiltonian with no non-identity term reports all statistics as zero.
    Degree statistics run over every qubit, including isolated ones, so the
    register size shapes the distribution.
    """
    support = table.x | table.z
    is_edge = support != 0
    support = support[is_edge]
    if not support.size:
        log.warning("Pauli sum has no non-identity term; emitting zero features")
        return {**dict.fromkeys(_QUBIT_NAMES, 0.0), "n_qubits": float(table.n_qubits)}
    weights = np.abs(table.coeff[is_edge])
    values = (
        float(np.sort(weights).sum()),
        float(len(support)),
        float(table.n_qubits),
        *_stats(np.bitwise_count(support).astype(float)),
        *_stats(_vertex_degrees(support, table.n_qubits)),
        *_stats(weights),
    )
    return dict(zip(_QUBIT_NAMES, values))


def compute_feature_vector(
    dump: FciDump,
    df_threshold: float = DEFAULT_DF_THRESHOLD,
    df_absolute: bool = False,
) -> np.ndarray:
    """One task's features as a float row in FEATURE_NAMES order: sizes, the
    DF rank and gap, and the qubit columns.  The qubit columns come first, so
    a dump too wide for the encoder fails before any DF work.  Finite
    integrals can still overflow a sum or a square: such a row raises
    NonFiniteInput, in place of numpy's overflow warnings."""
    sizes = (dump.nelec, 2 * dump.norb, log_fci_size(dump.norb, dump.n_alpha, dump.n_beta))
    with np.errstate(over="ignore", invalid="ignore"):
        qubit = compute_qubit_features(jordan_wigner_hamiltonian(dump))
        df_rank, df_gap = double_factorize(dump, df_threshold, absolute=df_absolute)
        row = np.array([*sizes, df_rank, df_gap, *qubit.values()], dtype=float)
    bad = [name for name, ok in zip(FEATURE_NAMES, np.isfinite(row)) if not ok]
    if bad:
        raise NonFiniteInput(f"non-finite features: {', '.join(bad)}")
    return row


def correlation_matrix(table: np.ndarray) -> np.ndarray:
    """Pearson correlation between the columns of an (n, D) feature table.

    Constant columns correlate as 0 with everything (flagged in the log);
    the diagonal is 1 by definition.
    """
    x = np.asarray(table, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InsufficientRows("correlation needs at least 2 rows")
    centered = x - x.mean(axis=0)
    std = x.std(axis=0)
    constant = std == 0.0
    if constant.any():
        log.warning("%d constant feature column(s); correlations set to 0", constant.sum())
    denom = np.where(constant, 1.0, std)
    normed = centered / denom
    corr = normed.T @ normed / x.shape[0]
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    np.fill_diagonal(corr, 1.0)
    return corr
