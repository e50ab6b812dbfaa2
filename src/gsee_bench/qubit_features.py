"""Qubit-representation features and the assembled per-task feature vector.

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
from dataclasses import dataclass, fields

import numpy as np

from .errors import InsufficientRows
from .fcidump import FciDump
from .fermionic import DEFAULT_DF_THRESHOLD, double_factorize, size_features
from .pauli import PauliTable, jordan_wigner_hamiltonian

log = logging.getLogger(__name__)

# Spin-orbital ordering used by the encoder; qubit-level features depend on it.
SPIN_ORBITAL_ORDERING = "interleaved-alpha-even"


@dataclass(frozen=True)
class QubitFeatureBlock:
    """Qubit-side feature slice of one Hamiltonian."""

    n_qubits: int
    one_norm: float
    n_pauli_strings: int
    edge_order_max: float
    edge_order_min: float
    edge_order_mean: float
    edge_order_std: float
    vertex_degree_max: float
    vertex_degree_min: float
    vertex_degree_mean: float
    vertex_degree_std: float
    edge_weight_max: float
    edge_weight_min: float
    edge_weight_mean: float
    edge_weight_std: float
    empty: bool = False


@dataclass(frozen=True)
class FeatureVector:
    """All numeric features of one task, in the canonical column order."""

    n_elec: float
    n_spin_orbitals: float
    log_fci_size: float
    df_rank: float
    df_gap: float
    one_norm: float
    n_pauli_strings: float
    n_qubits: float
    edge_order_max: float
    edge_order_min: float
    edge_order_mean: float
    edge_order_std: float
    vertex_degree_max: float
    vertex_degree_min: float
    vertex_degree_mean: float
    vertex_degree_std: float
    edge_weight_max: float
    edge_weight_min: float
    edge_weight_mean: float
    edge_weight_std: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES])


FEATURE_NAMES: tuple[str, ...] = tuple(f.name for f in fields(FeatureVector))


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


def compute_qubit_features(table: PauliTable) -> QubitFeatureBlock:
    """Derive the qubit feature block from a Pauli table of distinct, pruned terms.

    A Hamiltonian with no non-identity term is flagged empty and reports all
    statistics as zero.  Degree statistics run over every qubit, including
    isolated ones, so the register size shapes the distribution.
    """
    support = table.x | table.z
    is_edge = support != 0
    support = support[is_edge]
    if not support.size:
        log.warning("Pauli sum has no non-identity term; emitting zero features")
        return QubitFeatureBlock(
            table.n_qubits, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0, 0.0, empty=True,
        )
    orders = np.bitwise_count(support).astype(float)
    weights = np.abs(table.coeff[is_edge])
    degrees = _vertex_degrees(support, table.n_qubits)
    ord_stats = _stats(orders)
    deg_stats = _stats(degrees)
    wt_stats = _stats(weights)
    return QubitFeatureBlock(
        n_qubits=table.n_qubits,
        one_norm=float(np.sort(weights).sum()),
        n_pauli_strings=len(support),
        edge_order_max=ord_stats[0],
        edge_order_min=ord_stats[1],
        edge_order_mean=ord_stats[2],
        edge_order_std=ord_stats[3],
        vertex_degree_max=deg_stats[0],
        vertex_degree_min=deg_stats[1],
        vertex_degree_mean=deg_stats[2],
        vertex_degree_std=deg_stats[3],
        edge_weight_max=wt_stats[0],
        edge_weight_min=wt_stats[1],
        edge_weight_mean=wt_stats[2],
        edge_weight_std=wt_stats[3],
    )


def compute_feature_vector(
    dump: FciDump,
    df_threshold: float = DEFAULT_DF_THRESHOLD,
    df_absolute: bool = False,
) -> FeatureVector:
    """Full feature vector of one Hamiltonian: sizes, DF block, qubit block."""
    sizes = size_features(dump)
    df = double_factorize(dump, df_threshold, absolute=df_absolute)
    qubit = compute_qubit_features(jordan_wigner_hamiltonian(dump))
    return FeatureVector(
        n_elec=float(sizes.n_elec),
        n_spin_orbitals=float(sizes.n_spin_orbitals),
        log_fci_size=sizes.log_fci_size,
        df_rank=float(df.rank),
        df_gap=df.gap,
        one_norm=qubit.one_norm,
        n_pauli_strings=float(qubit.n_pauli_strings),
        n_qubits=float(qubit.n_qubits),
        edge_order_max=qubit.edge_order_max,
        edge_order_min=qubit.edge_order_min,
        edge_order_mean=qubit.edge_order_mean,
        edge_order_std=qubit.edge_order_std,
        vertex_degree_max=qubit.vertex_degree_max,
        vertex_degree_min=qubit.vertex_degree_min,
        vertex_degree_mean=qubit.vertex_degree_mean,
        vertex_degree_std=qubit.vertex_degree_std,
        edge_weight_max=qubit.edge_weight_max,
        edge_weight_min=qubit.edge_weight_min,
        edge_weight_mean=qubit.edge_weight_mean,
        edge_weight_std=qubit.edge_weight_std,
    )


def feature_table(rows) -> np.ndarray:
    """Stack FeatureVector rows (or arrays) into an (n, D) matrix."""
    return np.array(
        [r.as_array() if isinstance(r, FeatureVector) else np.asarray(r) for r in rows]
    )


def correlation_matrix(table) -> np.ndarray:
    """Pearson correlation between feature columns across rows.

    Constant columns correlate as 0 with everything (flagged in the log);
    the diagonal is 1 by definition.
    """
    x = feature_table(table) if not isinstance(table, np.ndarray) else np.asarray(table, dtype=float)
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
