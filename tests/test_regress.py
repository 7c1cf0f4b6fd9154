from __future__ import annotations

import random
import statistics

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from corpus import synthetic_corpus
from polyinfer import regress
from polyinfer.features import build_registry, load_dataset, standardize
from polyinfer.regress import (
    Hyperplane,
    RegressError,
    cross_validate,
    kkt_violation,
    lambda_grid,
    lasso_fit,
    lasso_path,
    predict,
    r_squared,
    select_lambda,
)


def ols_oracle(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Normal equations with an explicit intercept column."""
    A = np.hstack([X, np.ones((len(y), 1))])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return coef[:-1], float(coef[-1])


def objective(X: np.ndarray, y: np.ndarray, h: Hyperplane, lam: float, penalize_bias: bool = True) -> float:
    resid = y - X @ h.w - h.b
    penalty = np.sum(np.abs(h.w)) + (abs(h.b) if penalize_bias else 0.0)
    return float(resid @ resid / (2 * len(y)) + lam * penalty)


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
    for lam in (float("nan"), float("inf")):
        with pytest.raises(RegressError, match="lambda"):
            lasso_path(np.ones((3, 2)), np.ones(3), [0.1, lam])


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


def test_cv_rejects_a_protocol_it_cannot_run():
    X, y, _ = make_sparse_problem(seed=17, n=20, k=3, support=1)
    for kwargs, message in (
        ({"folds": 1}, "at least 2 folds, got 1"),
        ({"runs": 0}, "at least 1 run, got 0"),
        ({"grid": []}, "at least one penalty"),
    ):
        with pytest.raises(RegressError, match=message):
            select_lambda(X, y, **kwargs)


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


# -- references: the solver and the KKT check before the Gram-form rewrite ------


def _soft(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def reference_lasso_fit(X, y, lam, tol=1e-8, max_sweeps=100_000, penalize_bias=True) -> Hyperplane:
    """Residual-form cyclic coordinate descent from zero, stopping when the
    largest coordinate change in a sweep drops below tol."""
    n, k = X.shape
    col_sq = np.einsum("ij,ij->j", X, X) / n
    w = np.zeros(k)
    b = 0.0
    r = y.copy()
    prev_obj = objective(X, y, Hyperplane(w, b), lam, penalize_bias)
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in range(k):
            if col_sq[j] == 0.0:
                continue
            xj = X[:, j]
            rho = (xj @ r) / n + col_sq[j] * w[j]
            new = _soft(rho, lam) / col_sq[j]
            if new != w[j]:
                r += xj * (w[j] - new)
                max_delta = max(max_delta, abs(new - w[j]))
                w[j] = new
        rho_b = float(np.mean(r)) + b
        new_b = _soft(rho_b, lam) if penalize_bias else rho_b
        if new_b != b:
            r += b - new_b
            max_delta = max(max_delta, abs(new_b - b))
            b = new_b
        obj = objective(X, y, Hyperplane(w, b), lam, penalize_bias)
        if obj > prev_obj + 1e-12 * max(1.0, abs(prev_obj)):
            raise RegressError(f"objective increased from {prev_obj!r} to {obj!r}")
        prev_obj = obj
        if max_delta < tol:
            break
    return Hyperplane(w=w, b=b)


def reference_kkt_violation(X, y, h, lam, penalize_bias=True) -> float:
    n = len(y)
    r = y - X @ h.w - h.b
    grad = X.T @ r / n
    worst = 0.0
    for j in range(X.shape[1]):
        if h.w[j] != 0.0:
            worst = max(worst, abs(grad[j] - lam * np.sign(h.w[j])))
        else:
            worst = max(worst, max(0.0, abs(grad[j]) - lam))
    gb = float(np.mean(r))
    if penalize_bias:
        if h.b != 0.0:
            worst = max(worst, abs(gb - lam * np.sign(h.b)))
        else:
            worst = max(worst, max(0.0, abs(gb) - lam))
    else:
        worst = max(worst, abs(gb))
    return worst


def reference_select_lambda(X, y, grid, runs, folds, seed, tie_tol=1e-4):
    """Per-penalty selection: every (penalty, fold) fit starts cold.  Cold
    fits match the reference solver (test_cold_fit_matches_reference_*)."""
    medians = {}
    for lam in grid:
        rng = np.random.default_rng(seed)
        r2s = []
        for _ in range(runs):
            for test_idx in regress._fold_indices(len(y), folds, rng):
                mask = np.zeros(len(y), dtype=bool)
                mask[test_idx] = True
                h = lasso_fit(X[~mask], y[~mask], lam)
                r2s.append(r_squared(h, X[mask], y[mask]))
        medians[lam] = statistics.median(r2s)
    best = max(medians.values())
    return max(lam for lam, m in medians.items() if m >= best - tie_tol), medians


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    """Standardized (X, y) of the 40-graph corpus the CLI tests train on
    (K=47 collinear count descriptors of rank 14)."""
    root = tmp_path_factory.mktemp("regress_corpus")
    rows = ["id,value"]
    for rid, text in synthetic_corpus(random.Random(21), 40):
        (root / f"{rid}.pmg").write_text(text)
        atoms = [line.split()[2] for line in text.splitlines() if line.startswith("ATOM")]
        value = 1.0 + 0.3 * atoms.count("O") + 0.05 * sum(1 for a in atoms if a != "H")
        rows.append(f"{rid},{value:.6f}")
    (root / "values.csv").write_text("\n".join(rows) + "\n")
    dataset, _ = load_dataset(root, root / "values.csv")
    _, Xs, ys = standardize(dataset, build_registry(dataset, 2))
    return Xs, ys


def criterion_4_problem():
    rng = np.random.default_rng(41)
    n, k, support = 80, 20, 4
    X = rng.uniform(size=(n, k))
    w = np.zeros(k)
    idx = rng.choice(k, size=support, replace=False)
    w[idx] = rng.uniform(0.5, 2.0, size=support) * rng.choice([-1, 1], size=support)
    return X, X @ w


# -- the Gram-form solver against the references -----------------------------------


def test_kkt_violation_matches_reference():
    rng = np.random.default_rng(30)
    for trial in range(40):
        X = rng.normal(size=(12, 5))
        y = rng.normal(size=12)
        w = rng.normal(size=5) * (rng.uniform(size=5) < 0.5)
        b = float(rng.normal()) if trial % 3 else 0.0
        h = Hyperplane(w, b)
        for lam in (0.0, 1e-3, 0.5):
            for pb in (True, False):
                assert kkt_violation(X, y, h, lam, pb) == pytest.approx(
                    reference_kkt_violation(X, y, h, lam, pb), rel=1e-12, abs=1e-15
                )


@pytest.mark.parametrize("lam", [1e-4, 1e-5])
def test_cold_fit_matches_reference_on_corpus(cli_corpus, lam):
    X, y = cli_corpus
    h = lasso_fit(X, y, lam)
    ref = reference_lasso_fit(X, y, lam)
    assert h.converged and h.kkt <= regress.DEFAULT_TOL
    assert max(float(np.max(np.abs(h.w - ref.w))), abs(h.b - ref.b)) <= 1e-6
    assert h.support() == ref.support()


def test_select_lambda_matches_reference_on_criterion_4_data():
    X, y = criterion_4_problem()
    grid = lambda_grid()
    lam, reports = select_lambda(X, y, grid=grid, runs=3, seed=11)
    ref_lam, ref_medians = reference_select_lambda(X, y, grid, runs=3, folds=5, seed=11)
    assert lam == ref_lam
    assert all(abs(reports[g].median_r2 - ref_medians[g]) <= 1e-6 for g in grid)


def test_select_lambda_matches_reference_on_corpus(cli_corpus):
    X, y = cli_corpus
    grid = [g for g in lambda_grid() if g >= 1e-4]
    lam, reports = select_lambda(X, y, grid=grid, runs=1, seed=0)
    ref_lam, ref_medians = reference_select_lambda(X, y, grid, runs=1, folds=5, seed=0)
    assert lam == ref_lam
    assert all(abs(reports[g].median_r2 - ref_medians[g]) <= 1e-6 for g in grid)
    assert max(rep.kkt_max for rep in reports.values()) <= regress.DEFAULT_TOL
    assert sum(rep.unconverged for rep in reports.values()) == 0


# -- warm starts, paths and convergence reports ------------------------------------


def test_select_lambda_fits_once_per_penalty_and_fold(monkeypatch):
    """One module-level fit per (penalty, fold), each seeing penalize_bias."""
    X, y, _ = make_sparse_problem(seed=14, n=40, k=8, support=2)
    seen = []
    original = regress.lasso_fit

    def spy(X, y, lam, **kwargs):
        seen.append((lam, kwargs["penalize_bias"]))
        return original(X, y, lam, **kwargs)

    monkeypatch.setattr(regress, "lasso_fit", spy)
    grid = [0.0, 1e-3, 1e-1]
    select_lambda(X, y, grid=grid, runs=2, folds=4, seed=1, penalize_bias=False)
    assert sorted(seen) == sorted((lam, False) for lam in grid for _ in range(2 * 4))


def test_cross_validate_reports_the_selection_path():
    X, y, _ = make_sparse_problem(seed=15, n=40, k=8, support=2)
    _, reports = select_lambda(X, y, runs=1, seed=2)
    for lam in (lambda_grid()[0], lambda_grid()[20]):
        assert cross_validate(X, y, lam, runs=1, seed=2) == reports[lam]


def test_unconverged_fit_is_reported_not_raised():
    # a third column within 1e-6 of the sum of the other two: the path's
    # point at lambda = 0 misses the certificate, and the fit says so
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 2))
    X = np.column_stack([x, x[:, 0] + x[:, 1] + 1e-6 * rng.normal(size=8)])
    y = rng.normal(size=8)
    point = lasso_path(X, y, [0.0])[0]
    h = lasso_fit(X, y, 0.0)
    assert not h.converged
    assert h.kkt == kkt_violation(X, y, h, 0.0) == pytest.approx(4.0e-8, rel=0.05)
    assert np.array_equal(h.w, point.w) and h.b == point.b and h.steps == point.steps


def test_warm_start_at_the_solution_is_returned_certified():
    X, y, _ = make_sparse_problem(seed=16, n=40, k=8, support=2)
    h = lasso_fit(X, y, 1e-3)
    again = lasso_fit(X, y, 1e-3, start=h)
    assert again.converged
    assert np.array_equal(again.w, h.w) and again.b == h.b


def test_start_dimension_mismatch_raises():
    with pytest.raises(RegressError, match="start"):
        lasso_fit(np.ones((4, 2)), np.arange(4.0), 0.1, start=Hyperplane(np.zeros(3), 0.0))


@st.composite
def warm_start_problems(draw):
    n = draw(st.integers(2, 8))
    base = draw(st.integers(1, 3))
    cells = st.integers(0, 3).map(float)
    X = np.array(draw(st.lists(st.lists(cells, min_size=base, max_size=base), min_size=n, max_size=n)))
    dups = draw(st.lists(st.integers(0, base - 1), max_size=2))  # duplicated columns
    X = np.column_stack([X] + [X[:, j] for j in dups])
    values = st.floats(-2.0, 2.0, allow_nan=False)
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    k = X.shape[1]
    start = Hyperplane(np.array(draw(st.lists(values, min_size=k, max_size=k))), draw(values))
    lam = draw(st.sampled_from([0.0, 1e-3, 1e-2, 0.1, 1.0]))
    return X, y, lam, draw(st.booleans()), start


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(warm_start_problems())
def test_fit_returns_its_start_with_its_certificate(problem):
    X, y, lam, penalize_bias, start = problem
    h = lasso_fit(X, y, lam, penalize_bias=penalize_bias, start=start)
    assert np.array_equal(h.w, start.w) and h.b == start.b and h.steps == start.steps
    assert h.kkt == kkt_violation(X, y, start, lam, penalize_bias)
    assert h.converged == (h.kkt <= regress.DEFAULT_TOL)


# -- the homotopy path -----------------------------------------------------------


def _rank(X: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(np.hstack([X, np.ones((len(X), 1))])))


@pytest.mark.parametrize("lam", [1e-4, 1e-5, 1e-6, 0.0])
def test_path_alone_certifies_on_corpus(cli_corpus, lam):
    X, y = cli_corpus
    point = lasso_path(X, y, [lam])[0]
    h = lasso_fit(X, y, lam, start=point)
    assert h.converged and h.steps == point.steps > 0
    assert len(h.support()) + (h.b != 0.0) <= _rank(X)


def test_path_above_lambda_max_is_the_null_model():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20) + 2.0
    lam_max = float(np.max(np.abs(np.append(X.T @ y, np.sum(y))))) / 20
    zero = lasso_path(X, y, [1.01 * lam_max])[0]
    assert np.all(zero.w == 0.0) and zero.b == 0.0 and zero.steps == 0
    lam_max = float(np.max(np.abs(X.T @ (y - np.mean(y))))) / 20  # with the bias unpenalized
    flat = lasso_path(X, y, [1.01 * lam_max], False)[0]
    assert np.all(flat.w == 0.0) and flat.b == pytest.approx(np.mean(y)) and flat.steps == 0


# columns 1 and 2 tie at the first knot, and column 1's weight on the
# active set {1, 2} is zero up to rounding that can leave it below zero
TIED_AT_A_KNOT = (np.array([[0.0, 3.0, 3.0], [0.0, 3.0, 0.0]]), np.array([0.75, 0.0]), 1e-3, True,
                  Hyperplane(np.zeros(3), 0.0))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(warm_start_problems())
@example(TIED_AT_A_KNOT)
def test_path_start_reaches_the_cold_objective(problem):
    X, y, lam, penalize_bias, _ = problem
    point = lasso_path(X, y, [lam], penalize_bias)[0]
    fit = lasso_fit(X, y, lam, penalize_bias=penalize_bias, start=point)
    cold = lasso_fit(X, y, lam, penalize_bias=penalize_bias)
    assert fit.converged and fit.kkt <= regress.DEFAULT_TOL and fit.steps == point.steps
    a = objective(X, y, fit, lam, penalize_bias)
    c = objective(X, y, cold, lam, penalize_bias)
    assert abs(a - c) <= 1e-9 * max(abs(a), abs(c)) + 1e-15


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(warm_start_problems())
def test_path_support_stays_within_rank_and_apart_from_twins(problem):
    X, y, _, penalize_bias, _ = problem
    Z = np.hstack([X, np.ones((len(y), 1))])
    twins = [(i, j) for i in range(Z.shape[1]) for j in range(i) if np.array_equal(Z[:, i], Z[:, j])]
    for point in lasso_path(X, y, [1.0, 0.1, 1e-2, 1e-3, 0.0], penalize_bias):
        coef = np.append(point.w, point.b)
        assert np.count_nonzero(coef) <= _rank(X)
        assert not any(coef[i] != 0.0 and coef[j] != 0.0 for i, j in twins)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(warm_start_problems())
def test_each_path_point_matches_a_one_penalty_path(problem):
    X, y, _, penalize_bias, _ = problem
    grid = [0.0, 1.0, 1e-3, 0.1, 1e-2]  # any order: points come back in the order asked
    for lam, point in zip(grid, lasso_path(X, y, grid, penalize_bias)):
        alone = lasso_path(X, y, [lam], penalize_bias)[0]
        a = objective(X, y, point, lam, penalize_bias)
        b = objective(X, y, alone, lam, penalize_bias)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)) + 1e-15
