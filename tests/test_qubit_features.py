import numpy as np
import pytest

from gsee_bench.errors import InsufficientRows
from gsee_bench.pauli import jordan_wigner_hamiltonian
from gsee_bench.qubit_features import (
    FEATURE_NAMES,
    compute_feature_vector,
    compute_qubit_features,
    correlation_matrix,
)

from conftest import random_fcidump
from pauli_reference import PauliString, PauliSum, build_hypergraph, table_from_sum


def sum_from_labels(pairs) -> PauliSum:
    n = len(pairs[0][0])
    return PauliSum.from_terms(
        n, [(PauliString.from_label(lab), coeff) for lab, coeff in pairs]
    ).simplify()


def random_pauli_sum(rng, n_qubits: int, n_terms: int) -> PauliSum:
    terms = []
    for _ in range(n_terms):
        ps = PauliString(
            n_qubits, int(rng.integers(0, 1 << n_qubits)), int(rng.integers(0, 1 << n_qubits))
        )
        terms.append((ps, complex(rng.normal())))
    return PauliSum.from_terms(n_qubits, terms).simplify()


def test_two_term_hand_computation():
    h = sum_from_labels([("XX", 0.5), ("ZI", -0.25)])
    q = compute_qubit_features(table_from_sum(h))
    assert list(q) == list(FEATURE_NAMES[5:])
    assert q["one_norm"] == pytest.approx(0.75)
    assert q["n_pauli_strings"] == 2
    assert q["edge_order_mean"] == pytest.approx(1.5)
    assert q["edge_order_max"] == 2
    assert q["edge_order_min"] == 1
    assert q["vertex_degree_max"] == 2
    assert q["vertex_degree_min"] == 1
    assert q["edge_weight_max"] == pytest.approx(0.5)
    assert q["edge_weight_min"] == pytest.approx(0.25)


def test_identity_only_is_flagged_empty(caplog):
    h = sum_from_labels([("III", 4.2)])
    q = compute_qubit_features(table_from_sum(h))
    assert "no non-identity term" in caplog.text
    assert q == {**dict.fromkeys(FEATURE_NAMES[5:], 0.0), "n_qubits": 3.0}
    assert q["one_norm"] == 0.0
    assert q["n_pauli_strings"] == 0
    assert q["edge_order_max"] == 0.0


def test_seven_qubit_interaction_hypergraph():
    h = sum_from_labels(
        [("ZZIXIII", 0.4), ("XYXIIII", -0.3), ("IYXIIII", 0.2), ("IIXIYZX", 0.1)]
    )
    graph = build_hypergraph(h)
    assert sorted(e.order for e in graph.edges) == [2, 3, 3, 4]
    degrees = graph.vertex_degrees()
    assert degrees[2] == 3
    q = compute_qubit_features(table_from_sum(h))
    assert q["n_pauli_strings"] == 4
    assert q["n_qubits"] == 7


def test_handshake_identity(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        h = random_pauli_sum(rng, n, int(rng.integers(1, 20)))
        graph = build_hypergraph(h)
        assert graph.vertex_degrees().sum() == sum(e.order for e in graph.edges)


def test_one_norm_bounds_spectral_radius(rng):
    for _ in range(25):
        n = int(rng.integers(1, 7))
        h = random_pauli_sum(rng, n, int(rng.integers(1, 25)))
        q = compute_qubit_features(table_from_sum(h))
        m = h.to_matrix()
        traceless = m - np.trace(m) / m.shape[0] * np.eye(m.shape[0])
        radius = np.abs(np.linalg.eigvalsh(traceless)).max()
        assert q["one_norm"] >= radius - 1e-10


def test_features_invariant_under_term_reorder(rng):
    h = random_pauli_sum(rng, 4, 12)
    pairs = list(h.terms.items())
    shuffled = PauliSum.from_terms(4, [pairs[i] for i in rng.permutation(len(pairs))]).simplify()
    assert compute_qubit_features(table_from_sum(h)) == compute_qubit_features(
        table_from_sum(shuffled)
    )


def test_cancellation_does_not_change_string_count():
    base = sum_from_labels([("XZ", 0.5), ("YY", 0.25)])
    extra = PauliString.from_label("ZZ")
    grown = PauliSum.from_terms(
        2, [*base.terms.items(), (extra, 0.7), (extra, -0.7)]
    ).simplify()
    grown_q = compute_qubit_features(table_from_sum(grown))
    base_q = compute_qubit_features(table_from_sum(base))
    assert grown_q["n_pauli_strings"] == base_q["n_pauli_strings"]


def test_table_features_match_hypergraph(rng):
    """The array path agrees with per-edge statistics over the hypergraph,
    on registers whose masks span several bytes."""
    for _ in range(20):
        n = int(rng.integers(2, 65))
        terms = [
            (PauliString(n, int(rng.integers(0, 1 << n, dtype=np.uint64)),
                         int(rng.integers(0, 1 << n, dtype=np.uint64))), float(rng.normal()))
            for _ in range(int(rng.integers(1, 40)))
        ]
        h = PauliSum.from_terms(n, terms).simplify()
        q = compute_qubit_features(table_from_sum(h))
        graph = build_hypergraph(h)
        degrees = graph.vertex_degrees()
        orders = [e.order for e in graph.edges]
        assert q["n_pauli_strings"] == len(graph.edges)
        assert (q["vertex_degree_max"], q["vertex_degree_min"]) == (degrees.max(), degrees.min())
        assert q["vertex_degree_mean"] == pytest.approx(degrees.mean(), rel=1e-12)
        assert (q["edge_order_max"], q["edge_order_min"]) == (max(orders), min(orders))
        assert q["edge_order_mean"] == pytest.approx(np.mean(orders), rel=1e-12)
        assert q["one_norm"] == pytest.approx(sum(e.weight for e in graph.edges), rel=1e-12)


def closed_form_one_norm(dump) -> float:
    """Qubit one-norm of the JW Hamiltonian in terms of real 8-fold symmetric
    integrals (Koridon et al., PRR 3, 033127, 2021), identity excluded."""
    h, g = dump.h1, dump.two_body_tensor()
    one_body = h + np.einsum("pqrr->pq", g) - 0.5 * np.einsum("prrq->pq", g)
    p, q, r, s = np.indices(g.shape)
    exchange = g - g.transpose(0, 3, 2, 1)  # g_pqrs - g_psrq
    return float(
        np.abs(one_body).sum()
        + 0.25 * np.abs(g).sum()
        + 0.5 * np.abs(exchange[(p > r) & (q > s)]).sum()
    )


@pytest.mark.parametrize("norb", range(1, 9))
def test_one_norm_matches_closed_form(rng, norb):
    d = random_fcidump(rng, norb)
    q = compute_qubit_features(jordan_wigner_hamiltonian(d))
    assert q["one_norm"] == pytest.approx(closed_form_one_norm(d), rel=1e-12)


def test_feature_vector_assembly(rng):
    d = random_fcidump(rng, 2)
    arr = compute_feature_vector(d)
    v = dict(zip(FEATURE_NAMES, arr))
    assert arr.shape == (len(FEATURE_NAMES),)
    assert np.all(np.isfinite(arr))
    assert np.all(arr >= 0.0)
    assert v["n_spin_orbitals"] == 4.0
    assert v["n_qubits"] == 4.0
    assert v["edge_order_min"] <= v["edge_order_mean"] <= v["edge_order_max"]
    assert v["vertex_degree_min"] <= v["vertex_degree_mean"] <= v["vertex_degree_max"]
    assert v["edge_weight_min"] <= v["edge_weight_mean"] <= v["edge_weight_max"]
    assert v["edge_order_std"] >= 0.0
    qubit = compute_qubit_features(jordan_wigner_hamiltonian(d))
    assert arr[5:].tolist() == list(qubit.values())


def test_correlation_duplicated_and_negated_columns(rng):
    base = rng.normal(size=50)
    table = np.column_stack([base, base, -base, rng.normal(size=50)])
    corr = correlation_matrix(table)
    assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert corr[0, 2] == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(np.diag(corr), 1.0)
    assert np.allclose(corr, corr.T)


def test_correlation_matches_brute_force(rng):
    table = rng.normal(size=(50, 5))
    corr = correlation_matrix(table)
    for a in range(5):
        for b in range(5):
            xa, xb = table[:, a], table[:, b]
            expected = np.mean((xa - xa.mean()) * (xb - xb.mean())) / (xa.std() * xb.std())
            assert corr[a, b] == pytest.approx(expected, abs=1e-12)


def test_correlation_constant_column_convention(rng):
    table = np.column_stack([np.full(10, 3.0), rng.normal(size=10)])
    corr = correlation_matrix(table)
    assert corr[0, 1] == 0.0
    assert corr[0, 0] == 1.0


def test_correlation_insufficient_rows():
    with pytest.raises(InsufficientRows):
        correlation_matrix(np.ones((1, 3)))
