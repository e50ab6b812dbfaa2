"""The batched second-order SMO solver against the single-problem solver (bit
for bit), Platt's SMO and the dual's optimality conditions."""

import logging

import numpy as np
import pytest

from gsee_bench.ml import SolvabilityConfig, estimate_solvability, svm
from gsee_bench.ml.svm import DEFAULT_C_GRID, SMO_TOL, _smo_batch, default_gamma_grid, rbf_kernel
from svm_reference import platt_smo, smo


def _smo(K, y, C, alpha=None):
    """One problem through the batched solver, as a batch of one."""
    alphas, rho, converged = _smo_batch(
        K[None], y[None], np.array([len(y)]), C, None if alpha is None else alpha[None]
    )
    return alphas[0], float(rho[0]), bool(converged[0])


def random_problem(rng, index):
    """A labeled problem on the scaled unit box and one (C, gamma) of the grid.

    Labels cycle through random, linear and noisy-ball rules; index walks
    every (C, gamma) position of the grid.
    """
    n = int(rng.integers(10, 121))
    d = int(rng.integers(2, 21))
    X = rng.uniform(size=(n, d))
    rule = index % 3
    if rule == 0:
        labels = rng.random(n) < 0.5
    elif rule == 1:
        labels = (X - 0.5) @ rng.normal(size=d) > 0.0
    else:
        labels = (np.sum((X - 0.5) ** 2, axis=1) < d / 12) ^ (rng.random(n) < 0.1)
    if labels.all() or not labels.any():
        labels[0] = not labels[0]
    gammas = default_gamma_grid(d)
    C = DEFAULT_C_GRID[index % len(DEFAULT_C_GRID)]
    gamma = gammas[(index // len(DEFAULT_C_GRID)) % len(gammas)]
    return rbf_kernel(X, X, gamma), np.where(labels, 1.0, -1.0), C


def dual_objective(K, y, alpha):
    v = alpha * y
    return 0.5 * v @ K @ v - alpha.sum()


def kkt_gap(K, y, C, alpha):
    """max over the 'up' set of -y*G minus min over the 'low' set, G = Q alpha - e."""
    F = y - K @ (alpha * y)
    pos = y > 0
    up = np.where(pos, alpha < C, alpha > 0)
    low = np.where(pos, alpha > 0, alpha < C)
    return F[up].max() - F[low].min()


def assert_feasible_and_optimal(K, y, C, alpha):
    assert alpha.min() >= 0.0 and alpha.max() <= C
    assert abs(y @ alpha) <= 1e-10
    assert kkt_gap(K, y, C, alpha) < SMO_TOL


def test_solver_matches_platt_oracle_on_random_problems(rng):
    for index in range(208):
        K, y, C = random_problem(rng, index)
        alpha, _, converged = _smo(K, y, C)
        assert converged, index
        assert_feasible_and_optimal(K, y, C, alpha)
        oracle_alpha, _, oracle_converged = platt_smo(K, y, C)
        assert oracle_converged, index
        new, old = dual_objective(K, y, alpha), dual_objective(K, y, oracle_alpha)
        assert new <= old + 1e-4 * abs(old), index


def test_rho_without_free_alpha_is_calc_rho_midpoint(rng):
    # Balanced classes and a tiny C: every alpha sits at C, none is free.
    X = rng.uniform(size=(30, 5))
    y = np.repeat([1.0, -1.0], 15)
    K = rbf_kernel(X, X, 1.0)
    C = 1e-4
    alpha, rho, converged = _smo(K, y, C)
    assert converged
    assert np.all(alpha == C)
    # LIBSVM calc_rho on yG, G = Q alpha - e.
    yG = y * (y * (K @ (alpha * y)) - 1.0)
    at_upper = alpha >= C
    ub = min(yG[(at_upper & (y < 0)) | (~at_upper & (y > 0))])
    lb = max(yG[(at_upper & (y > 0)) | (~at_upper & (y < 0))])
    assert rho == pytest.approx((ub + lb) / 2.0, abs=1e-12)


def test_seeded_and_cold_fits_reach_the_same_tolerance(rng):
    for index in range(40):
        K, y, _ = random_problem(rng, index)
        alpha, C_prev = None, None
        for C in DEFAULT_C_GRID:
            if alpha is not None:
                seed = alpha / C_prev * C
                assert np.all(seed[alpha == C_prev] == C)
                assert abs(y @ seed) <= 1e-10
                alpha = seed
            alpha, _, converged = _smo(K, y, C, alpha)
            cold, _, cold_converged = _smo(K, y, C)
            assert converged and cold_converged, index
            assert_feasible_and_optimal(K, y, C, alpha)
            assert_feasible_and_optimal(K, y, C, cold)
            seeded_obj, cold_obj = dual_objective(K, y, alpha), dual_objective(K, y, cold)
            assert abs(seeded_obj - cold_obj) <= 1e-4 * abs(cold_obj), index
            C_prev = C


def test_grid_search_seeds_each_fold_along_the_C_grid(rng, monkeypatch):
    calls = []  # (C, seed alphas or None, y, sizes, solution alphas), one per batch

    def recording_batch(K, y, sizes, C, alpha=None):
        result = _smo_batch(K, y, sizes, C, alpha)
        calls.append((C, None if alpha is None else alpha.copy(), y, sizes, result[0]))
        return result

    monkeypatch.setattr(svm, "_smo_batch", recording_batch)
    X = rng.uniform(size=(50, 6))
    labels = np.sum((X - 0.5) ** 2, axis=1) < 0.5
    svm.svm_fit_cv(X, labels)
    folds = len(default_gamma_grid(6)) * 5
    assert [len(sizes) for _, _, _, sizes, _ in calls] == [folds] * len(DEFAULT_C_GRID) + [1]
    assert sum(len(sizes) for _, seed, _, sizes, _ in calls if seed is None) == folds + 1
    for previous, (C, seed, y, sizes, _) in zip(calls, calls[1:]):
        if seed is None:
            continue
        C_prev, _, _, _, solution = previous
        assert C_prev < C
        assert np.array_equal(seed, solution / C_prev * C)
        assert np.all(seed[solution == C_prev] == C)
        for p, n in enumerate(sizes.tolist()):
            fold_seed = seed[p, :n]
            assert fold_seed.min() >= 0.0 and fold_seed.max() <= C
            assert abs(y[p, :n] @ fold_seed) <= 1e-10
            assert not seed[p, n:].any()


def _cap_messages(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "gsee_bench.ml.svm" and r.getMessage().startswith("SMO stopped after")]


def test_iteration_cap_returns_unconverged_and_logs(rng, monkeypatch, caplog):
    K, y, C = random_problem(rng, 3)
    monkeypatch.setattr(svm, "SMO_MAX_ITER", 2)
    with caplog.at_level(logging.WARNING, logger="gsee_bench.ml.svm"):
        alpha, _, converged = _smo(K, y, C)
    assert not converged
    assert alpha.min() >= 0.0 and alpha.max() <= C and abs(y @ alpha) <= 1e-10
    assert _cap_messages(caplog) == ["SMO stopped after 2 iterations without full KKT"]


def test_iteration_cap_reaches_the_report_flag(rng, monkeypatch, caplog):
    X = rng.uniform(size=(60, 4))
    labels = (X[:, 0] + X[:, 1] > 1.0).tolist()
    config = SolvabilityConfig(n_samples=100)
    assert estimate_solvability(X, labels, config).flags["svm_converged"]
    monkeypatch.setattr(svm, "SMO_MAX_ITER", 2)
    with caplog.at_level(logging.WARNING, logger="gsee_bench.ml.svm"):
        report = estimate_solvability(X, labels, config)
    assert report.flags["svm_converged"] is False
    assert _cap_messages(caplog)


def test_tiny_iteration_cap_clears_the_report_flag(rng, monkeypatch):
    X = rng.uniform(size=(60, 4))
    labels = (X[:, 0] + X[:, 1] > 1.0).tolist()
    config = SolvabilityConfig(n_samples=100)
    monkeypatch.setattr(svm, "SMO_MAX_ITER", 2)
    assert estimate_solvability(X, labels, config).flags["svm_converged"] is False


def test_capped_cross_validation_fit_clears_the_report_flag(rng, monkeypatch):
    # Only the fold fits (fewer rows than the table) hit the cap; the final
    # fit on all rows converges, and the flag must still report the folds.
    X = rng.uniform(size=(60, 4))
    labels = (X[:, 0] + X[:, 1] > 1.0).tolist()
    config = SolvabilityConfig(n_samples=100)
    full_fit_converged = []
    cap = svm.SMO_MAX_ITER

    def fold_capped(K, y, sizes, C, alpha=None):
        full = sizes.tolist() == [len(X)]
        monkeypatch.setattr(svm, "SMO_MAX_ITER", cap if full else 2)
        result = _smo_batch(K, y, sizes, C, alpha)
        if full:
            full_fit_converged.append(bool(result[2][0]))
        return result

    monkeypatch.setattr(svm, "_smo_batch", fold_capped)
    report = estimate_solvability(X, labels, config)
    assert full_fit_converged == [True]
    assert report.flags["svm_converged"] is False


def padded_batch(problems):
    """Zero-padded (K, y, sizes) stacks of (K, y) problems of any sizes."""
    sizes = np.array([len(y) for _, y in problems])
    m = sizes.max()
    K = np.zeros((len(problems), m, m))
    Y = np.zeros((len(problems), m))
    for p, (K_p, y_p) in enumerate(problems):
        K[p, :len(y_p), :len(y_p)] = K_p
        Y[p, :len(y_p)] = y_p
    return K, Y, sizes


def assert_batch_is_the_oracle(problems, C, seeds, result):
    """Each problem's α, ρ and flag are the oracle's from the same seed, bit for bit."""
    alphas, rho, converged = result
    for p, (K, y) in enumerate(problems):
        n = len(y)
        seed = None if seeds is None else seeds[p, :n]
        alpha, oracle_rho, oracle_converged = smo(K, y, C, seed)
        assert np.array_equal(alphas[p, :n], alpha), p
        assert rho[p] == oracle_rho, p
        assert converged[p] == oracle_converged, p
        assert not alphas[p, n:].any(), p


def test_batch_matches_the_single_problem_oracle_along_the_C_grid(rng):
    for trial in range(6):
        problems = [random_problem(rng, 7 * trial + p)[:2] for p in range(7)]
        # A problem of identical rows: every curvature sits at the TAU floor.
        problems.append((np.ones((9, 9)), np.repeat([1.0, -1.0], [4, 5])))
        K, y, sizes = padded_batch(problems)
        assert len(set(sizes.tolist())) > 1
        alphas, C_prev = None, None
        for C in DEFAULT_C_GRID:
            seeds = None if alphas is None else alphas / C_prev * C
            result = _smo_batch(K, y, sizes, C, seeds)
            assert_batch_is_the_oracle(problems, C, seeds, result)
            alphas, C_prev = result[0], C


def test_grid_search_batches_match_the_oracle(rng, monkeypatch):
    # 53 rows give folds of unequal size; a single positive row makes the
    # fold that tests it train on one class, so that fold is no ladder.
    batches = []

    def recording_batch(K, y, sizes, C, alpha=None):
        result = _smo_batch(K, y, sizes, C, alpha)
        batches.append((K, y, sizes, C, alpha, result))
        return result

    monkeypatch.setattr(svm, "_smo_batch", recording_batch)
    X = rng.uniform(size=(53, 8))
    for labels in (np.sum((X - 0.5) ** 2, axis=1) < 0.6, np.arange(53) == 17):
        batches.clear()
        svm.svm_fit_cv(X, labels)
        folds = 4 if labels.sum() == 1 else 5
        gammas = len(default_gamma_grid(8))
        assert [len(b[2]) for b in batches] == [folds * gammas] * len(DEFAULT_C_GRID) + [1]
        assert len(set(batches[0][2].tolist())) > 1
        for K, y, sizes, C, alpha, result in batches:
            problems = [(K[p, :n, :n], y[p, :n]) for p, n in enumerate(sizes.tolist())]
            assert_batch_is_the_oracle(problems, C, alpha, result)


def test_each_capped_problem_in_a_batch_logs_once(rng, monkeypatch, caplog):
    X_easy = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 1.0], [0.9, 1.0]])
    easy = (rbf_kernel(X_easy, X_easy, 1.0), np.array([1.0, 1.0, -1.0, -1.0]))
    X_hard = rng.uniform(size=(80, 5))
    hard = (rbf_kernel(X_hard, X_hard, 1.0), np.where(rng.random(80) < 0.5, 1.0, -1.0))
    monkeypatch.setattr(svm, "SMO_MAX_ITER", 5)
    assert smo(*easy, 10.0)[2] and not smo(*hard, 10.0)[2]
    for problems, capped in (([easy, hard, easy], 1), ([hard, easy, hard], 2)):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="gsee_bench.ml.svm"):
            result = _smo_batch(*padded_batch(problems), 10.0)
        assert result[2].tolist() == [p is easy for p in problems]
        assert _cap_messages(caplog) == ["SMO stopped after 5 iterations without full KKT"] * capped
        assert_batch_is_the_oracle(problems, 10.0, None, result)
