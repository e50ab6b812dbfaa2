import dataclasses
import functools
import importlib
import inspect

import pytest

import gsee_bench

PUBLIC = [
    "DeterminantBasis",
    "FEATURE_NAMES",
    "FciDump",
    "PauliTable",
    "ProblemInstance",
    "SolutionFile",
    "SolvabilityConfig",
    "SolvabilityReport",
    "SpectrumResult",
    "SvmModel",
    "Task",
    "TaskOutcome",
    "Verdict",
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


def test_package_exports_exactly_the_public_names():
    assert sorted(gsee_bench.__all__) == sorted(PUBLIC)
    assert len(set(gsee_bench.__all__)) == len(gsee_bench.__all__)
    for name in gsee_bench.__all__:
        assert getattr(gsee_bench, name) is not None, name


@pytest.mark.parametrize(
    "module, name",
    [
        ("gsee_bench.pauli", "PauliString"),
        ("gsee_bench.pauli", "PauliSum"),
        ("gsee_bench.pauli", "pauli_multiply"),
        ("gsee_bench.pauli", "_merge"),
        ("gsee_bench.qubit_features", "Hypergraph"),
        ("gsee_bench.qubit_features", "build_hypergraph"),
        ("gsee_bench.qubit_features", "FeatureVector"),
        ("gsee_bench.qubit_features", "QubitFeatureBlock"),
        ("gsee_bench.qubit_features", "feature_table"),
        ("gsee_bench.fermionic", "SizeFeatures"),
        ("gsee_bench.fermionic", "size_features"),
        ("gsee_bench.fermionic", "DfResult"),
        ("gsee_bench.fermionic", "df_reconstruct"),
        ("gsee_bench.pauli", "_PHASES"),
        ("gsee_bench.ml", "shapley_attribution"),
        ("gsee_bench.ml.shapley", "MAX_EXACT_FEATURES"),
        ("gsee_bench.errors", "TooManyFeatures"),
        ("gsee_bench.ml", "minmax_inverse"),
        ("gsee_bench.ml.scaling", "minmax_inverse"),
        ("gsee_bench.ml.svm", "_Smo"),
        ("gsee_bench.ml.svm", "_smo"),
        ("gsee_bench.errors", "SizeMismatch"),
        ("gsee_bench.fcidump", "eri_orbit"),
        ("gsee_bench.fcidump", "_ORBIT"),
        ("gsee_bench.fcidump", "_ORBIT_GENERATORS"),
        ("gsee_bench.fcidump", "_canonical_flat"),
        ("gsee_bench.fcidump", "FciDump.h2"),
        ("gsee_bench.plots", "_prob_color"),
        ("gsee_bench.cli", "_render_cell"),
        ("gsee_bench.cli", "_Pool"),
        ("gsee_bench.cli", "_map"),
        ("gsee_bench.cli", "_load_tasks"),
        ("gsee_bench.cli", "NonFiniteInput"),
        ("gsee_bench.ml", "ScaledDataset"),
        ("gsee_bench.ml.scaling", "ScaledDataset"),
        ("gsee_bench.fci", "_sector_dets"),
        ("gsee_bench.fci", "scipy"),
        ("gsee_bench.fci", "_plan"),
        ("gsee_bench.fci", "_Plan"),
        ("gsee_bench.fci", "_value_table"),
        ("gsee_bench.fci", "_cached_plan"),
        ("gsee_bench.fci", "_BLOCK_ELEMENTS"),
        ("gsee_bench.fci", "_CACHED_PLAN_ELEMENTS"),
        ("gsee_bench.fci", "_check_size"),
        ("gsee_bench.fci", "_pair_index"),
        ("gsee_bench.fci", "_pairs"),
        ("gsee_bench.fci", "_diagonal"),
        ("gsee_bench.fci", "_spectrum"),
        ("gsee_bench.cli", "SAMPLE_BLOCK"),
        ("gsee_bench.plots", "SAMPLE_BLOCK"),
        ("gsee_bench.cli", "_inline_map"),
        ("gsee_bench.ml.svm", "_decision"),
        ("gsee_bench.ml.svm", "SvmModel.mean_cv_metrics"),
        ("gsee_bench.pauli", "_CACHED_JW_NORB"),
        ("gsee_bench.pauli", "_cached_jw_plan"),
    ],
)
def test_reference_path_not_in_package(module, name):
    *owner, attr = name.split(".")
    assert not hasattr(functools.reduce(getattr, owner, importlib.import_module(module)), attr)


def test_sector_hamiltonian_has_no_per_call_sector_lookup():
    from gsee_bench.fci import SectorHamiltonian

    assert not hasattr(SectorHamiltonian, "_sector")


def test_sector_hamiltonian_holds_no_dump():
    from gsee_bench.fci import build_basis, build_fci_matrix
    from gsee_bench.fcidump import FciDump

    mat = build_fci_matrix(FciDump(norb=2, nelec=2, e_core=0.5), build_basis(2, 1, 1))
    assert not hasattr(mat, "dump")
    assert not any(isinstance(value, FciDump) for value in vars(mat).values())


def test_fcidump_keeps_one_integral_store():
    from gsee_bench.fcidump import FciDump

    assert not hasattr(FciDump, "h2_at")
    assert "sym_tol" not in inspect.signature(FciDump.from_tensors).parameters
    fields = [f.name for f in dataclasses.fields(FciDump)]
    assert fields == ["norb", "nelec", "ms2", "e_core", "h1", "v", "orbsym", "isym"]
    # the dense tensor is gathered on request, never stored
    dump = FciDump(norb=2, nelec=2)
    assert dump.two_body_tensor() is not dump.two_body_tensor()
    assert "_two_body_tensor" not in vars(dump)


def test_latent_model_has_no_unused_transform():
    from gsee_bench.ml import LatentModel

    assert not hasattr(LatentModel, "transform")


def test_latent_model_is_one_affine_map():
    from gsee_bench.ml import LatentModel

    fields = [f.name for f in dataclasses.fields(LatentModel)]
    assert fields == ["embedding", "bounds", "components", "mean", "converged"]


@pytest.mark.parametrize(
    "cls, name",
    [
        ("LatentModel", "kind"),
        ("LatentModel", "dim"),
        ("LatentModel", "h"),
        ("LatentModel", "explained_variance"),
        ("LatentModel", "reconstruction_error"),
        ("SvmModel", "train_accuracy"),
        ("SvmModel", "n_features"),
    ],
)
def test_removed_fit_record_fields(cls, name):
    import gsee_bench.ml

    model_cls = getattr(gsee_bench.ml, cls)
    assert name not in {f.name for f in dataclasses.fields(model_cls)}
    assert not hasattr(model_cls, name)


def test_pauli_table_has_no_dense_matrix():
    from gsee_bench.pauli import PauliTable

    assert not hasattr(PauliTable, "to_matrix")


def test_build_basis_has_no_dimension_cap():
    from gsee_bench.fci import build_basis

    assert list(inspect.signature(build_basis).parameters) == ["norb", "n_alpha", "n_beta"]


def test_root_and_fold_counts_are_constants():
    from gsee_bench.fci import SpectrumResult, lowest_eigenvalues, solve_ground_state
    from gsee_bench.ml.svm import stratified_folds

    assert list(inspect.signature(lowest_eigenvalues).parameters) == ["matrix"]
    assert list(inspect.signature(solve_ground_state).parameters) == ["dump"]
    assert "k" not in inspect.signature(stratified_folds).parameters
    fields = [f.name for f in dataclasses.fields(SpectrumResult)]
    assert fields == ["energies", "n_iterations", "converged"]


def test_solvability_report_holds_its_config_not_copies():
    from gsee_bench.ml import SolvabilityReport

    fields = [f.name for f in dataclasses.fields(SolvabilityReport)]
    assert fields[0] == "config" and "n_samples" not in fields
    for name in ("threshold", "latent_kind", "latent_dim", "seed"):
        assert name not in fields and not hasattr(SolvabilityReport, name)


def test_sample_cap_is_owned_by_the_solvability_config():
    from gsee_bench import cli
    from gsee_bench.ml import SolvabilityConfig
    from gsee_bench.ml.solvability import MAX_SAMPLES

    assert not hasattr(cli, "MAX_SAMPLES")
    SolvabilityConfig(n_samples=MAX_SAMPLES)
    with pytest.raises(ValueError, match=f"n_samples must be <= {MAX_SAMPLES}"):
        SolvabilityConfig(n_samples=MAX_SAMPLES + 1)


def test_pair_integrals_returns_k_alone():
    import numpy as np

    from gsee_bench.fcidump import FciDump, pair_integrals

    k = pair_integrals(FciDump(norb=3, nelec=2))
    assert isinstance(k, np.ndarray) and k.shape == (6,)
