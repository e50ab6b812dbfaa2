import numpy as np
import pytest

from gsee_bench.errors import TooManyFeatures
from gsee_bench.ml import exact_shapley, predict_proba, svm_fit_cv


def test_efficiency(rng):
    # values sum to f(point) - mean f(background), for an arbitrary model
    def f(rows):
        return np.sin(rows[:, 0]) + rows[:, 1] * rows[:, 2] - 0.5 * rows[:, 3]

    point = rng.normal(size=4)
    background = rng.normal(size=(15, 4))
    phi = exact_shapley(f, point, background)
    assert phi.sum() == pytest.approx(float(f(point[None, :])[0] - f(background).mean()), abs=1e-9)


def test_dummy_feature_gets_zero(rng):
    def f(rows):
        return rows[:, 1] ** 2  # depends on feature 1 only

    point = rng.normal(size=3)
    background = rng.normal(size=(10, 3))
    phi = exact_shapley(f, point, background)
    assert abs(phi[0]) < 1e-9
    assert abs(phi[2]) < 1e-9
    assert phi.sum() == pytest.approx(float(f(point[None, :])[0] - f(background).mean()), abs=1e-9)


def test_symmetry_of_exchangeable_features(rng):
    def f(rows):
        return np.tanh(rows[:, 0] + rows[:, 1])

    value = 0.8
    point = np.array([value, value, rng.normal()])
    base = rng.normal(size=(12, 1))
    background = np.column_stack([base, base, rng.normal(size=(12, 1))])
    phi = exact_shapley(f, point, background)
    assert phi[0] == pytest.approx(phi[1], abs=1e-9)


def test_additive_closed_form(rng):
    a, b, c = 1.3, -0.7, 2.1

    def f(rows):
        return a * rows[:, 0] + b * rows[:, 1] + c * rows[:, 2]

    point = rng.normal(size=3)
    background = rng.normal(size=(20, 3))
    phi = exact_shapley(f, point, background)
    expected = np.array(
        [
            a * (point[0] - background[:, 0].mean()),
            b * (point[1] - background[:, 1].mean()),
            c * (point[2] - background[:, 2].mean()),
        ]
    )
    assert np.abs(phi - expected).max() < 1e-9


def test_properties_on_enumerated_models(rng):
    # random multilinear models over D in 2..6; efficiency must hold exactly
    for d in range(2, 7):
        coeffs = rng.normal(size=d)
        pair = rng.normal()

        def f(rows):
            out = rows @ coeffs
            if d >= 2:
                out = out + pair * rows[:, 0] * rows[:, 1]
            return out

        point = rng.normal(size=d)
        background = rng.normal(size=(8, d))
        phi = exact_shapley(f, point, background)
        assert phi.sum() == pytest.approx(
            float(f(point[None, :])[0] - f(background).mean()), abs=1e-6
        )


def test_too_many_features():
    with pytest.raises(TooManyFeatures):
        exact_shapley(lambda r: r[:, 0], np.zeros(16), np.zeros((2, 16)))


def test_svm_attribution_dummy_feature(rng):
    # classifier depends on feature 0 only; feature 1 is frozen noise
    n = 60
    x0 = rng.uniform(-1, 1, size=n)
    X = np.column_stack([x0, np.zeros(n)])
    labels = x0 > 0
    model = svm_fit_cv(X, labels, k=5, seed=0)
    point = np.array([0.8, 0.0])
    phi = exact_shapley(lambda rows: predict_proba(model, rows), point, X)
    assert abs(phi[1]) < 1e-9
    expected_total = predict_proba(model, point[None, :])[0] - predict_proba(model, X).mean()
    assert phi.sum() == pytest.approx(float(expected_total), abs=1e-6)
