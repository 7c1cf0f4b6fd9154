from __future__ import annotations

import numpy as np
import pytest

from polyinfer import regress
from polyinfer.regress import (
    Hyperplane,
    RegressError,
    cross_validate,
    kkt_violation,
    lambda_grid,
    lasso_fit,
    predict,
    r_squared,
    select_lambda,
)


def ols_oracle(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Normal equations with an explicit intercept column."""
    A = np.hstack([X, np.ones((len(y), 1))])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return coef[:-1], float(coef[-1])


# -- lasso_fit ----------------------------------------------------------------


def test_lambda_zero_matches_normal_equations():
    rng = np.random.default_rng(0)
    for _ in range(20):
        X = rng.normal(size=(50, 5))
        y = rng.normal(size=50)
        h = lasso_fit(X, y, lam=0.0)
        w_ref, b_ref = ols_oracle(X, y)
        assert np.allclose(h.w, w_ref, atol=1e-6)
        assert abs(h.b - b_ref) < 1e-6


def test_huge_lambda_zeroes_everything():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30) + 3.0
    lam_max = max(float(np.max(np.abs(X.T @ y / 30))), abs(float(np.mean(y))))
    h = lasso_fit(X, y, lam=lam_max * 1.01)
    assert np.all(h.w == 0.0) and h.b == 0.0


def test_one_dimensional_soft_threshold_closed_form():
    rng = np.random.default_rng(2)
    x = rng.normal(size=40)
    y = 2.0 * x  # exact fit through the origin
    lam = 1e-3
    h = lasso_fit(np.column_stack([x]), y, lam=lam)
    z = float(x @ x) / len(x)
    # with b pinned at 0, the fixed point is soft(z*2, lam)/z
    expected = (2.0 * z - lam) / z
    assert abs(h.w[0] - expected) < 1e-6
    assert abs(h.b) < 1e-9


def test_kkt_conditions_at_convergence():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 8))
    w_true = np.array([1.5, -2.0, 0, 0, 0.7, 0, 0, 0])
    y = X @ w_true + 0.3 + 0.05 * rng.normal(size=60)
    for lam in (1e-4, 1e-2, 0.1):
        h = lasso_fit(X, y, lam=lam)
        assert kkt_violation(X, y, h, lam) < 1e-6


def test_unpenalized_bias_variant():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = X @ np.array([1.0, 0.0, -1.0]) + 5.0
    big = lasso_fit(X, y, lam=10.0, penalize_bias=False)
    assert np.all(big.w == 0.0)
    assert abs(big.b - np.mean(y)) < 1e-9


def test_rejects_bad_inputs():
    with pytest.raises(RegressError):
        lasso_fit(np.array([[1.0, np.nan]]), np.array([1.0]), 0.1)
    with pytest.raises(RegressError):
        lasso_fit(np.ones((3, 2)), np.ones(3), -0.5)


def test_objective_increase_raises(monkeypatch):
    # a check that survives python -O: an increasing objective is an error
    values = iter(range(100))
    monkeypatch.setattr(regress, "objective", lambda *args, **kwargs: float(next(values)))
    rng = np.random.default_rng(1)
    with pytest.raises(RegressError, match="objective increased"):
        lasso_fit(rng.normal(size=(10, 3)), rng.normal(size=10), 0.1)


# -- predict / r_squared -------------------------------------------------------


def test_predict_constant_and_unit_vector():
    h = Hyperplane(w=np.zeros(4), b=2.5)
    assert predict(h, np.ones(4)) == 2.5
    h2 = Hyperplane(w=np.array([0.5, -1.0, 3.0]), b=0.25)
    e1 = np.array([0.0, 1.0, 0.0])
    assert predict(h2, e1) == pytest.approx(-1.0 + 0.25)


def test_predict_matches_reverse_summation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.normal(size=12)
        x = rng.normal(size=12)
        b = float(rng.normal())
        h = Hyperplane(w=w, b=b)
        reverse = sum(w[j] * x[j] for j in reversed(range(12))) + b
        assert abs(predict(h, x) - reverse) < 1e-12


def test_predict_dimension_mismatch():
    with pytest.raises(RegressError, match="dimension"):
        predict(Hyperplane(w=np.ones(3), b=0.0), np.ones(4))


def test_r_squared_reference_points():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 3.0])
    perfect = Hyperplane(w=np.array([1.0]), b=0.0)
    assert r_squared(perfect, X, y) == pytest.approx(1.0)
    at_mean = Hyperplane(w=np.array([0.0]), b=2.0)
    assert r_squared(at_mean, X, y) == pytest.approx(0.0)
    # predictor worse than the mean: constant 4 gives
    # 1 - ((1-4)^2+(2-4)^2+(3-4)^2)/2 = 1 - 14/2 = -6
    worse = Hyperplane(w=np.array([0.0]), b=4.0)
    assert r_squared(worse, X, y) == pytest.approx(-6.0)


def test_r_squared_zero_variance_raises():
    with pytest.raises(RegressError, match="zero-variance"):
        r_squared(Hyperplane(w=np.array([0.0]), b=1.0), np.ones((3, 1)), np.ones(3))


# -- cross-validation ----------------------------------------------------------


def make_sparse_problem(seed: int, n: int = 80, k: int = 20, support: int = 4):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, k))
    w = np.zeros(k)
    idx = rng.choice(k, size=support, replace=False)
    w[idx] = rng.uniform(0.5, 2.0, size=support) * rng.choice([-1, 1], size=support)
    y = X @ w + 0.25
    return X, y, w


def test_cv_noiseless_recovery():
    X, y, w = make_sparse_problem(seed=10)
    rep = cross_validate(X, y, lam=1e-5, seed=7)
    assert len(rep.r2_values) == 50
    assert rep.median_r2 >= 0.999


def test_cv_deterministic_under_seed():
    X, y, _ = make_sparse_problem(seed=11)
    a = cross_validate(X, y, lam=1e-4, seed=3)
    b = cross_validate(X, y, lam=1e-4, seed=3)
    assert a == b and a.to_json() == b.to_json()
    c = cross_validate(X, y, lam=1e-4, seed=4)
    assert c.r2_values != a.r2_values


def test_cv_too_small_dataset():
    with pytest.raises(RegressError, match="5-fold"):
        cross_validate(np.ones((3, 2)), np.array([1.0, 2.0, 3.0]), 0.1)


def test_cv_duplicated_record_degenerates():
    X = np.tile(np.array([[1.0, 2.0]]), (10, 1))
    y = np.full(10, 3.0)
    with pytest.raises(RegressError, match="zero-variance"):
        cross_validate(X, y, lam=0.01)


def test_mean_selected_weakly_decreasing_in_lambda():
    X, y, _ = make_sparse_problem(seed=12, n=60, k=10, support=3)
    lams = [1e-5, 1e-3, 1e-2, 0.1, 1.0]
    kps = [cross_validate(X, y, lam, runs=2, seed=5).mean_selected for lam in lams]
    assert all(a >= b - 1e-9 for a, b in zip(kps, kps[1:]))


def test_lambda_grid_shape():
    grid = lambda_grid()
    assert len(grid) == 37 and grid[0] == 0.0
    assert grid[1] == pytest.approx(1e-6) and grid[-1] == pytest.approx(100.0)


def test_select_lambda_prefers_sparser_near_tie():
    X, y, w = make_sparse_problem(seed=13)
    lam, reports = select_lambda(X, y, grid=[0.0, 1e-6, 1e-4], runs=3, seed=9)
    assert lam > 0.0
    assert reports[lam].median_r2 >= 0.999
