"""Benchmark harness for ground-state energy estimation solvers.

Ingests FCIDUMP Hamiltonians and solver solution files, computes fermionic
and qubit complexity features, scores correctness against accuracy and
runtime requirements, and estimates per-solver solvability regions in a
latent feature space.
"""

__version__ = "0.1.0"

from .catalog import (
    ProblemInstance,
    SolutionFile,
    Task,
    TaskOutcome,
    Verdict,
    evaluate_task,
    load_instance,
    load_solution,
)
from .fcidump import FciDump, parse_fcidump, write_fcidump
from .fermionic import double_factorize, log_fci_size
from .fci import DeterminantBasis, SpectrumResult, build_basis, build_fci_matrix, lowest_eigenvalues
from .ml import (
    SolvabilityConfig,
    SolvabilityReport,
    SvmModel,
    classification_metrics,
    estimate_solvability,
    exact_shapley,
    minmax_scale,
    nnmf_fit,
    pca_fit,
    predict_proba,
    svm_fit_cv,
)
from .pauli import PauliTable, jordan_wigner_hamiltonian
from .qubit_features import (
    FEATURE_NAMES,
    compute_feature_vector,
    compute_qubit_features,
    correlation_matrix,
)

__all__ = [
    "DeterminantBasis",
    "FEATURE_NAMES",
    "FciDump",
    "ProblemInstance",
    "SolutionFile",
    "SolvabilityConfig",
    "SolvabilityReport",
    "SpectrumResult",
    "SvmModel",
    "Task",
    "TaskOutcome",
    "Verdict",
    "PauliTable",
    "build_basis",
    "build_fci_matrix",
    "classification_metrics",
    "compute_feature_vector",
    "compute_qubit_features",
    "correlation_matrix",
    "double_factorize",
    "estimate_solvability",
    "evaluate_task",
    "exact_shapley",
    "jordan_wigner_hamiltonian",
    "load_instance",
    "load_solution",
    "log_fci_size",
    "lowest_eigenvalues",
    "minmax_scale",
    "nnmf_fit",
    "parse_fcidump",
    "pca_fit",
    "predict_proba",
    "svm_fit_cv",
    "write_fcidump",
]
