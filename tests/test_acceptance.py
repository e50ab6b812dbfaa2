"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import time
from pathlib import Path

import numpy as np

from gsee_bench.cli import main
from gsee_bench.fcidump import FciDump
from gsee_bench.fermionic import double_factorize
from gsee_bench.fci import build_basis, build_fci_matrix, lowest_eigenvalues
from gsee_bench.ml import (
    classification_metrics,
    estimate_solvability,
    exact_shapley,
    minmax_scale,
    predict_proba,
    svm_fit_cv,
)
from gsee_bench.ml.solvability import SolvabilityConfig
from gsee_bench.pauli import jordan_wigner_hamiltonian
from gsee_bench.qubit_features import _vertex_degrees, compute_qubit_features

from conftest import random_eri, random_fcidump, random_symmetric, sector_indices
from df_reference import df_reconstruct
from df_reference import double_factorize as reference_factorize
from pauli_reference import PauliString, PauliSum, build_hypergraph, table_from_sum, table_matrix
from shapley_reference import exact_shapley as reference_shapley
from shapley_reference import log_odds

DEMO = Path(__file__).parent.parent / "demo"


class _Budget:
    def __init__(self, criterion: int, description: str, seconds: float):
        self.criterion = criterion
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion} {status} ({elapsed:.1f}s): {self.description}")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.criterion} over budget"
        return False


def test_criterion_1_encoding_oracle_equivalence():
    rng = np.random.default_rng(101)
    with _Budget(1, "JW sector spectrum equals exact-solver ground energy", 60.0):
        for trial in range(20):
            norb = int(rng.integers(1, 4))
            dump = random_fcidump(rng, norb)
            matrix = table_matrix(jordan_wigner_hamiltonian(dump))
            idx = sector_indices(2 * norb, dump.n_alpha, dump.n_beta)
            jw_min = np.linalg.eigvalsh(matrix[np.ix_(idx, idx)])[0]
            basis = build_basis(norb, dump.n_alpha, dump.n_beta)
            oracle = lowest_eigenvalues(build_fci_matrix(dump, basis))
            assert abs(jw_min - oracle.energies[0]) < 1e-8, f"trial {trial}"


def test_criterion_2_df_faithfulness():
    rng = np.random.default_rng(102)
    with _Budget(2, "DF reconstruction exact at threshold 0; rank-1 detected", 10.0):
        for norb in (2, 3, 4):
            eri = random_eri(rng, norb, rank=2 * norb)
            dump = FciDump.from_tensors(norb, 2, 0, h2=eri)
            df = reference_factorize(dump, threshold=0.0)
            assert np.abs(df_reconstruct(df) - eri).max() <= 1e-8
            # the default cutoff: at 0 the oracle also counts roundoff vectors
            rank, gap = double_factorize(dump)
            want = reference_factorize(dump)
            assert rank == want.rank
            assert abs(gap - want.gap) <= 1e-12 * max(1.0, abs(want.lambdas[0]))
        for norb in (2, 3, 4):
            g = random_symmetric(rng, norb)
            g /= np.linalg.norm(g)
            planted = 2.3 * np.einsum("ij,kl->ijkl", g, g)
            dump = FciDump.from_tensors(norb, 2, 0, h2=planted)
            df = reference_factorize(dump)
            assert df.rank == 1
            assert df.gap == 0.0
            assert double_factorize(dump) == (1, 0.0)


def _edges(table):
    """Support masks of the non-identity terms, their orders and the degrees
    of every qubit, as the feature code computes them."""
    support = table.x | table.z
    support = support[support != 0]
    return np.bitwise_count(support).astype(int), _vertex_degrees(support, table.n_qubits)


def test_criterion_3_feature_correctness():
    rng = np.random.default_rng(103)
    with _Budget(3, "published hypergraph example and handshake identity", 5.0):
        labels = ["ZZIXIII", "XYXIIII", "IYXIIII", "IIXIYZX"]
        h = PauliSum.from_terms(
            7, [(PauliString.from_label(lab), 0.1 * (i + 1)) for i, lab in enumerate(labels)]
        ).simplify()
        orders, degrees = _edges(table_from_sum(h))
        assert sorted(orders.tolist()) == [2, 3, 3, 4]
        assert degrees[2] == 3
        graph = build_hypergraph(h)
        assert sorted(e.order for e in graph.edges) == sorted(orders.tolist())
        assert np.array_equal(graph.vertex_degrees(), degrees)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            terms = [
                (
                    PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))),
                    complex(rng.normal()),
                )
                for _ in range(int(rng.integers(1, 25)))
            ]
            sum_h = PauliSum.from_terms(n, terms).simplify()
            table = table_from_sum(sum_h)
            orders, degrees = _edges(table)
            assert degrees.sum() == orders.sum()
            assert compute_qubit_features(table)["n_pauli_strings"] == len(orders)
            graph = build_hypergraph(sum_h)
            assert sorted(e.order for e in graph.edges) == sorted(orders.tolist())
            assert np.array_equal(graph.vertex_degrees(), degrees)


def test_criterion_4_one_norm_bound():
    rng = np.random.default_rng(104)
    with _Budget(4, "one-norm bounds the traceless spectral radius", 30.0):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            terms = [
                (
                    PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))),
                    complex(rng.normal()),
                )
                for _ in range(int(rng.integers(1, 30)))
            ]
            h = PauliSum.from_terms(n, terms).simplify()
            features = compute_qubit_features(table_from_sum(h))
            matrix = h.to_matrix()
            traceless = matrix - np.trace(matrix) / matrix.shape[0] * np.eye(matrix.shape[0])
            radius = np.abs(np.linalg.eigvalsh(traceless)).max()
            assert features["one_norm"] >= radius - 1e-10


def _planted_dataset(rng, n, frac):
    x1 = rng.uniform(0.0, 1.0, n)
    x1[0], x1[1] = 0.0, 1.0
    x2 = np.clip(0.5 + 0.08 * rng.normal(size=n), 0.0, 1.0)
    x2[0], x2[1] = 0.0, 1.0
    return np.column_stack([x1, x2]), x1 <= frac


def test_criterion_5_solvability_pipeline_fidelity():
    rng = np.random.default_rng(105)
    with _Budget(5, "latent-map ratio tracks planted area; held-out metrics >= 0.9", 120.0):
        for frac in (0.25, 0.5, 0.75):
            X, labels = _planted_dataset(rng, 400, frac)
            report = estimate_solvability(
                X,
                labels.tolist(),
                SolvabilityConfig(n_samples=10_000),
            )
            assert report.n_samples == 10_000
            assert abs(report.solvability_ratio - frac) <= 0.05, f"frac={frac}"

            split = int(0.8 * len(X))
            model = svm_fit_cv(minmax_scale(X[:split]), labels[:split], seed=0)
            # held-out rows on the training columns' scale; a constant column maps to 0
            mins = X[:split].min(axis=0)
            span = X[:split].max(axis=0) - mins
            held = (X[split:] - mins) / np.where(span == 0.0, 1.0, span)
            held[:, span == 0.0] = 0.0
            predicted = predict_proba(model, held) >= 0.5
            metrics = classification_metrics(predicted, labels[split:])
            assert metrics.precision >= 0.9, f"frac={frac}"
            assert metrics.recall >= 0.9, f"frac={frac}"
            assert metrics.f1 >= 0.9, f"frac={frac}"


def test_criterion_6_shapley_properties():
    rng = np.random.default_rng(106)
    with _Budget(6, "Shapley efficiency/dummy/symmetry and additive closed form", 30.0):
        for d in range(2, 7):
            coeffs = rng.normal(size=d)
            cross = rng.normal()

            def model(rows):
                out = rows @ coeffs
                out = out + cross * rows[:, 0] * np.tanh(rows[:, -1])
                return out

            point = rng.normal(size=d)
            background = rng.normal(size=(10, d))
            phi = reference_shapley(model, point, background)
            target = float(model(point[None, :])[0] - model(background).mean())
            assert abs(phi.sum() - target) < 1e-6  # efficiency

        def dummy_model(rows):
            return rows[:, 0] ** 2

        phi = reference_shapley(dummy_model, rng.normal(size=4), rng.normal(size=(8, 4)))
        assert np.abs(phi[1:]).max() < 1e-6  # dummy

        def symmetric_model(rows):
            return np.sin(rows[:, 0] + rows[:, 1])

        shared = rng.normal(size=(9, 1))
        background = np.column_stack([shared, shared, rng.normal(size=(9, 1))])
        point = np.array([0.4, 0.4, -1.0])
        phi = reference_shapley(symmetric_model, point, background)
        assert abs(phi[0] - phi[1]) < 1e-6  # symmetry

        a, b, c = 1.1, -2.2, 0.7
        point = rng.normal(size=3)
        background = rng.normal(size=(12, 3))
        phi = reference_shapley(lambda r: a * r[:, 0] + b * r[:, 1] + c * r[:, 2], point, background)
        expected = np.array(
            [
                a * (point[0] - background[:, 0].mean()),
                b * (point[1] - background[:, 1].mean()),
                c * (point[2] - background[:, 2].mean()),
            ]
        )
        assert np.abs(phi - expected).max() < 1e-9  # additive closed form

        # The product-kernel path on a real fit at the CLI's 20 columns, with a
        # duplicated column (symmetry) and a constant one (dummy).
        X = rng.uniform(size=(60, 20))
        X[:, 1] = X[:, 0]
        X[:, 19] = 0.5
        svm = svm_fit_cv(X, X[:, 0] + X[:, 2] > 1.0, seed=0)
        target = log_odds(svm)
        for point in X[[0, 30]]:
            phi = exact_shapley(svm, point, X[:20])
            gap = float(target(point[None, :])[0] - target(X[:20]).mean())
            assert abs(phi.sum() - gap) < 1e-10  # efficiency
            assert abs(phi[0] - phi[1]) < 1e-12  # symmetry
            assert phi[19] == 0.0  # dummy


def test_criterion_7_end_to_end_determinism(tmp_path):
    with _Budget(7, "two full report runs are byte-identical", 300.0):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = main(
                [
                    "--catalog", str(DEMO / "catalog"),
                    "--out", str(out),
                    "--seed", "0",
                    "report", "--solutions", str(DEMO / "solutions"),
                ]
            )
            assert code == 0
            outputs.append(out)
        files = sorted(p.relative_to(outputs[0]) for p in outputs[0].rglob("*") if p.is_file())
        assert files, "report produced no artifacts"
        for rel in files:
            assert (outputs[0] / rel).read_bytes() == (outputs[1] / rel).read_bytes(), rel


def test_criterion_8_evaluation_semantics(tmp_path):
    from gsee_bench.catalog import catalog_tasks, evaluate_solver, scan_catalog, scan_solutions

    with _Budget(8, "oracle-exact energies all solved; +2 mHa flips all verdicts", 60.0):
        tasks = catalog_tasks(scan_catalog(DEMO / "catalog"))
        solutions = {s.solver_uuid: s for s in scan_solutions(DEMO / "solutions")}

        exact_outcomes, _ = evaluate_solver(tasks, solutions["exact-echo"])
        labeled = [o for o in exact_outcomes if o.verdict.value != "unlabeled"]
        assert labeled, "catalog has no labeled tasks"
        assert all(o.verdict.value == "solved" for o in labeled)

        perturbed_outcomes, _ = evaluate_solver(tasks, solutions["perturbed"])
        flipped = [o for o in perturbed_outcomes if o.verdict.value != "unlabeled"]
        assert all(o.verdict.value == "unsolved" for o in flipped)
        assert len(flipped) == len(labeled)
