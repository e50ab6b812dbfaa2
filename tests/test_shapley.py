import dataclasses

import numpy as np
import pytest

from gsee_bench.ml import exact_shapley, svm_fit_cv
from gsee_bench.ml.svm import default_gamma_grid

from shapley_reference import exact_shapley as reference_shapley
from shapley_reference import log_odds


def test_efficiency(rng):
    # values sum to f(point) - mean f(background), for an arbitrary model
    def f(rows):
        return np.sin(rows[:, 0]) + rows[:, 1] * rows[:, 2] - 0.5 * rows[:, 3]

    point = rng.normal(size=4)
    background = rng.normal(size=(15, 4))
    phi = reference_shapley(f, point, background)
    assert phi.sum() == pytest.approx(float(f(point[None, :])[0] - f(background).mean()), abs=1e-9)


def test_dummy_feature_gets_zero(rng):
    def f(rows):
        return rows[:, 1] ** 2  # depends on feature 1 only

    point = rng.normal(size=3)
    background = rng.normal(size=(10, 3))
    phi = reference_shapley(f, point, background)
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
    phi = reference_shapley(f, point, background)
    assert phi[0] == pytest.approx(phi[1], abs=1e-9)


def test_additive_closed_form(rng):
    a, b, c = 1.3, -0.7, 2.1

    def f(rows):
        return a * rows[:, 0] + b * rows[:, 1] + c * rows[:, 2]

    point = rng.normal(size=3)
    background = rng.normal(size=(20, 3))
    phi = reference_shapley(f, point, background)
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
        phi = reference_shapley(f, point, background)
        assert phi.sum() == pytest.approx(
            float(f(point[None, :])[0] - f(background).mean()), abs=1e-6
        )


def _fit(rng, n, d):
    X = rng.uniform(size=(n, d))
    labels = X[:, 0] + 0.5 * X[:, -1] > 0.75
    return X, svm_fit_cv(X, labels, seed=0)


def _log_odds_gap(model, point, background):
    target = log_odds(model)
    return float(target(point[None, :])[0] - target(background).mean())


@pytest.mark.parametrize("d", range(1, 13))
def test_product_path_matches_reference(rng, d):
    X, model = _fit(rng, 40, d)
    background = X[:20]
    for gamma in default_gamma_grid(d):
        # the closed form holds for any dual coefficients, so one fit serves every gamma
        model_g = dataclasses.replace(model, gamma=gamma)
        for point in X[[0, 25, 39]]:
            phi = exact_shapley(model_g, point, background)
            expected = reference_shapley(log_odds(model_g), point, background)
            assert phi.shape == (d,)
            assert np.abs(phi - expected).max() < 1e-10, f"gamma={gamma}"


def test_product_path_axioms_at_d20(rng):
    X = rng.uniform(size=(60, 20))
    X[:, 7] = X[:, 3]  # symmetric pair: a duplicated column
    X[:, 12] = 0.4  # dummy: a constant column
    labels = X[:, 3] + X[:, 7] + X[:, 0] > 1.5
    model = svm_fit_cv(X, labels, seed=0)
    background = X[:20]
    for point in X[[0, 30, 59]]:
        phi = exact_shapley(model, point, background)
        assert phi.shape == (20,)
        assert abs(phi.sum() - _log_odds_gap(model, point, background)) < 1e-10
        assert phi[3] == pytest.approx(phi[7], abs=1e-12)
        assert phi[12] == 0.0


def test_underflowed_kernel_factors_stay_finite(rng):
    X, model = _fit(rng, 40, 6)
    point = np.full(6, 50.0)  # exp(-gamma * 50**2) is 0.0 in double precision
    assert np.exp(-model.gamma * (point[0] - 1.0) ** 2) == 0.0
    background = X[:20]
    phi = exact_shapley(model, point, background)
    assert np.isfinite(phi).all()
    assert abs(phi.sum() - _log_odds_gap(model, point, background)) < 1e-10


def test_svm_attribution_dummy_feature(rng):
    # classifier depends on feature 0 only; feature 1 is frozen noise
    n = 60
    x0 = rng.uniform(-1, 1, size=n)
    X = np.column_stack([x0, np.zeros(n)])
    labels = x0 > 0
    model = svm_fit_cv(X, labels, seed=0)
    point = np.array([0.8, 0.0])
    phi = exact_shapley(model, point, X)
    assert abs(phi[1]) < 1e-9
    assert phi.sum() == pytest.approx(_log_odds_gap(model, point, X), abs=1e-6)
