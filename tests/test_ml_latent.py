import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gsee_bench.errors import NonFiniteInput, RankDeficient
from gsee_bench.ml import latent, minmax_scale, nnmf_fit, pca_fit


def test_minmax_basic_column():
    scaled = minmax_scale(np.array([[0.0], [5.0], [10.0]]))
    assert np.allclose(scaled[:, 0], [0.0, 0.5, 1.0])


def test_minmax_constant_column():
    scaled = minmax_scale(np.array([[3.0, 1.0], [3.0, 2.0]]))
    assert np.allclose(scaled[:, 0], 0.0)


def test_minmax_nonfinite_rejected():
    with pytest.raises(NonFiniteInput):
        minmax_scale(np.array([[1.0], [np.nan]]))


@settings(max_examples=30)
@given(
    arrays(
        float,
        st.tuples(st.integers(2, 12), st.integers(1, 5)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
def test_minmax_roundtrip(X):
    mins, maxs = X.min(axis=0), X.max(axis=0)
    restored = minmax_scale(X) * (maxs - mins) + mins
    span = np.where(maxs > mins, maxs - mins, 1.0)
    # constant columns legitimately collapse to their min
    expected = np.where(maxs > mins, X, mins)
    assert np.abs(restored - expected).max() <= 1e-12 * max(1.0, np.abs(span).max())


def test_pca_line_explains_all_variance(rng):
    t = rng.normal(size=40)
    X = np.column_stack([t, t])
    model = pca_fit(X, 1)
    assert np.abs(model.inverse(model.embedding) - X).max() <= 1e-12


def test_pca_full_rank_inverse_identity(rng):
    X = rng.normal(size=(30, 4))
    model = pca_fit(X, 4)
    restored = model.inverse(model.embedding)
    assert np.abs(restored - X).max() < 1e-10


def test_pca_components_orthonormal(rng):
    X = rng.normal(size=(30, 5))
    model = pca_fit(X, 3)
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(3), atol=1e-12)


def test_pca_sign_convention_row_permutation_invariant(rng):
    X = rng.normal(size=(25, 3))
    a = pca_fit(X, 2)
    b = pca_fit(X[rng.permutation(25)], 2)
    assert np.allclose(a.components, b.components, atol=1e-9)


def test_pca_rank_deficient():
    X = np.ones((5, 3))
    with pytest.raises(RankDeficient):
        pca_fit(X, 2)


def test_pca_bounds_cover_embedding(rng):
    X = rng.normal(size=(40, 4))
    model = pca_fit(X, 2)
    assert np.all(model.embedding.min(axis=0) >= model.bounds[:, 0] - 1e-12)
    assert np.all(model.embedding.max(axis=0) <= model.bounds[:, 1] + 1e-12)


def test_nnmf_planted_factorization(rng, monkeypatch):
    W0 = rng.uniform(0.1, 1.0, size=(50, 2))
    H0 = rng.uniform(0.1, 1.0, size=(2, 4))
    X = W0 @ H0
    monkeypatch.setattr(latent, "NNMF_MAX_ITER", 50000)
    monkeypatch.setattr(latent, "NNMF_TOL", 0.0)
    model = nnmf_fit(X, 2, seed=1)
    assert np.linalg.norm(X - model.embedding @ model.components) < 1e-6


def test_nnmf_factors_nonnegative(rng, monkeypatch):
    X = rng.uniform(0.0, 1.0, size=(30, 5))
    # factors stay entrywise non-negative after every update step
    monkeypatch.setattr(latent, "NNMF_TOL", 0.0)
    for iters in (1, 2, 3, 10, 200):
        monkeypatch.setattr(latent, "NNMF_MAX_ITER", iters)
        model = nnmf_fit(X, 2, seed=2)
        assert np.all(model.embedding >= 0.0)
        assert np.all(model.components >= 0.0)


def test_nnmf_inverse_nonnegative(rng):
    X = rng.uniform(0.0, 1.0, size=(30, 5))
    model = nnmf_fit(X, 2, seed=3)
    samples = rng.uniform(model.bounds[:, 0], model.bounds[:, 1], size=(100, 2))
    assert np.all(model.inverse(samples) >= 0.0)


def test_nnmf_rejects_negative_input():
    with pytest.raises(ValueError):
        nnmf_fit(np.array([[-1.0, 2.0]]), 1)


def test_nnmf_deterministic_given_seed(rng):
    X = rng.uniform(0.0, 1.0, size=(20, 4))
    a = nnmf_fit(X, 2, seed=7)
    b = nnmf_fit(X, 2, seed=7)
    assert np.array_equal(a.embedding, b.embedding)
    assert np.array_equal(a.components, b.components)
