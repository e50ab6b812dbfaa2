import numpy as np
import pytest

from gsee_bench.errors import (
    DimensionMismatch,
    LengthMismatch,
    SingleClass,
    TooFewSamples,
)
from gsee_bench.ml import classification_metrics, predict_proba, svm_fit_cv
from gsee_bench.ml import svm
from gsee_bench.ml.svm import stratified_folds


def blobs(rng, n_per_class=40, margin=2.0):
    a = rng.normal(size=(n_per_class, 2)) * 0.3 + [margin, margin]
    b = rng.normal(size=(n_per_class, 2)) * 0.3 - [margin, margin]
    X = np.vstack([a, b])
    labels = np.array([True] * n_per_class + [False] * n_per_class)
    return X, labels


def one_expression_sq_distances(a, b):
    """The squared distances as one expression of fresh arrays: the oracle
    that the in-place kernel must equal bit for bit."""
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    return np.maximum(sq, 0.0)


@pytest.mark.parametrize("n", [60, 400])
def test_sq_distances_of_one_table_is_the_one_expression_form(rng, n):
    # One array on both sides, as svm_fit_cv calls it: numpy would send
    # a @ a.T to SYRK, so the product must keep its copy 2a.  Repeated rows
    # round below 0 and are floored.
    X = rng.uniform(size=(n, 20))
    X[1::7] = X[0]
    got = svm._sq_distances(X, X)
    assert got.tobytes() == one_expression_sq_distances(X, X).tobytes()
    assert got.min() == 0.0


@pytest.mark.parametrize("gamma", [0.01, 0.05, 1.0])
def test_rbf_kernel_of_a_block_is_the_one_expression_form(rng, gamma):
    block = rng.uniform(size=(4096, 20))
    support = rng.uniform(size=(32, 20))
    support[3] = block[5]
    expected = np.exp(-gamma * one_expression_sq_distances(block, support))
    got = svm.rbf_kernel(block, support, gamma)
    assert got.tobytes() == expected.tobytes()
    assert got[5, 3] == 1.0


def test_default_gamma_grid_drops_repeats_in_order():
    assert svm.default_gamma_grid(1) == (0.01, 0.1, 1.0)
    assert svm.default_gamma_grid(10) == (0.01, 0.1, 1.0)
    assert svm.default_gamma_grid(100) == (0.01, 0.1, 1.0)
    assert svm.default_gamma_grid(20) == (0.01, 0.1, 1.0, 0.05)


def test_separable_blobs_perfect_training(rng):
    X, labels = blobs(rng)
    model = svm_fit_cv(X, labels, seed=0)
    metrics = classification_metrics(model.decision_function(X) >= 0, labels)
    assert metrics.f1 == 1.0


def test_planted_rbf_rule_recovery(rng):
    # labels assigned by a known smooth nonlinear rule
    X = rng.uniform(-1.0, 1.0, size=(200, 2))
    labels = (X[:, 0] ** 2 + X[:, 1] ** 2) < 0.5
    model = svm_fit_cv(X, labels, seed=0)
    cv = model.mean_cv_metrics()
    assert cv.f1 >= 0.9


def test_predict_proba_range_and_monotonicity(rng):
    X, labels = blobs(rng)
    model = svm_fit_cv(X, labels, seed=0)
    grid = rng.uniform(-4, 4, size=(300, 2))
    decisions = model.decision_function(grid)
    probs = predict_proba(model, grid)
    assert np.all(probs > 0.0) and np.all(probs < 1.0)
    order = np.argsort(decisions)
    diffs = np.diff(probs[order])
    assert np.all(diffs >= 0.0) or np.all(diffs <= 0.0)
    # a deep positive-region point comes out confidently solvable
    assert predict_proba(model, np.array([[2.0, 2.0]]))[0] > 0.5


def test_calibration_reliability_deciles(rng):
    X = rng.uniform(-1.0, 1.0, size=(400, 2))
    labels = (X[:, 0] ** 2 + X[:, 1] ** 2) < 0.5
    model = svm_fit_cv(X, labels, seed=0)
    X_test = rng.uniform(-1.0, 1.0, size=(2000, 2))
    y_test = (X_test[:, 0] ** 2 + X_test[:, 1] ** 2) < 0.5
    probs = predict_proba(model, X_test)
    edges = np.quantile(probs, np.linspace(0, 1, 11))
    errors = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (probs >= lo) & (probs <= hi)
        if mask.sum() < 10:
            continue
        errors.append(abs(probs[mask].mean() - y_test[mask].mean()))
    assert np.mean(errors) <= 0.15


def test_single_class_rejected(rng):
    X = rng.normal(size=(20, 2))
    with pytest.raises(SingleClass):
        svm_fit_cv(X, np.ones(20, dtype=bool))


def test_too_few_samples(rng):
    X = rng.normal(size=(3, 2))
    with pytest.raises(TooFewSamples):
        svm_fit_cv(X, np.array([True, False, True]))


def test_identical_rows_degenerate_flag(monkeypatch):
    # identical features force a constant decision function; with minority
    # positives any constant predictor has F1 below the majority prior
    X = np.ones((12, 3))
    labels = np.array([True] * 4 + [False] * 8)
    monkeypatch.setattr(svm, "K_FOLDS", 3)
    model = svm_fit_cv(X, labels, seed=0)
    assert model.degenerate
    majority = max(labels.mean(), 1.0 - labels.mean())
    assert model.mean_cv_metrics().f1 <= majority + 1e-9


def test_dimension_mismatch(rng, monkeypatch):
    X, labels = blobs(rng, n_per_class=10)
    monkeypatch.setattr(svm, "K_FOLDS", 2)
    model = svm_fit_cv(X, labels, seed=0)
    with pytest.raises(DimensionMismatch):
        model.decision_function(np.ones((3, 5)))


def test_deterministic_given_seed(rng, monkeypatch):
    X, labels = blobs(rng, n_per_class=15)
    monkeypatch.setattr(svm, "K_FOLDS", 3)
    a = svm_fit_cv(X, labels, seed=4)
    b = svm_fit_cv(X, labels, seed=4)
    assert np.array_equal(a.dual_coef, b.dual_coef)
    assert a.bias == b.bias
    assert (a.platt_a, a.platt_b) == (b.platt_a, b.platt_b)


def test_stratified_folds_cover_both_classes(rng):
    labels = np.array([True] * 7 + [False] * 23)
    folds = stratified_folds(labels, 5, seed=1)
    for f in range(5):
        assert labels[folds == f].any()
        assert (~labels[folds == f]).any()


def test_cv_metrics_recorded(rng, monkeypatch):
    X, labels = blobs(rng, n_per_class=20)
    monkeypatch.setattr(svm, "K_FOLDS", 4)
    model = svm_fit_cv(X, labels, seed=0)
    assert len(model.cv_metrics) == 4
    for m in model.cv_metrics:
        assert 0.0 <= m.f1 <= 1.0


def test_classification_metrics_hand_computation():
    predicted = np.array([True] * 10 + [False] * 0)
    true = np.array([True] * 8 + [False] * 2)
    m = classification_metrics(predicted, true)
    assert m.precision == pytest.approx(0.8)
    assert m.recall == pytest.approx(1.0)
    assert m.f1 == pytest.approx(2 * 0.8 / 1.8)


def test_classification_metrics_perfect():
    labels = np.array([True, False, True])
    m = classification_metrics(labels, labels)
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
    assert not m.zero_division


def test_classification_metrics_zero_division_flag():
    m = classification_metrics(np.array([False, False]), np.array([False, False]))
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
    assert m.zero_division


def test_classification_metrics_random_confusions(rng):
    for _ in range(50):
        predicted = rng.random(30) < 0.5
        true = rng.random(30) < 0.5
        m = classification_metrics(predicted, true)
        tp = np.sum(predicted & true)
        fp = np.sum(predicted & ~true)
        fn = np.sum(~predicted & true)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        assert m.precision == p and m.recall == r and m.f1 == f


def test_classification_metrics_length_mismatch():
    with pytest.raises(LengthMismatch):
        classification_metrics(np.array([True]), np.array([True, False]))
