"""Lasso-penalized linear prediction by cyclic coordinate descent.

The objective is (1/(2|D|))·sum of squared errors plus lambda times the
L1 norm of the weights *including the bias*; an opt-in flag restores the
conventional unpenalized intercept.  The solver works on the Gram matrix
of the features with the bias as one more column.  It stops on a KKT
certificate: the largest violation of the stationarity conditions,
recomputed from a fresh residual, at most `tol`.  A fit that runs out of
sweeps is returned with `converged` False rather than raised.

Also provides the repeated k-fold cross-validation protocol (10 runs of 5
folds by default) with the median test R^2 and the mean selected-descriptor
count.  Each fold walks its penalties from the largest down, warm-starting
every fit from the previous one (Friedman, Hastie & Tibshirani,
"Regularization Paths for Generalized Linear Models via Coordinate
Descent", JSS 33(1), 2010).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9
DEFAULT_MAX_SWEEPS = 100_000


class RegressError(ValueError):
    pass


@dataclass(frozen=True)
class Hyperplane:
    w: np.ndarray
    b: float
    # What `lasso_fit` reports of its fit; a hand-built hyperplane has 0 and None.
    sweeps: int = field(default=0, compare=False)
    kkt: float | None = field(default=None, compare=False)
    converged: bool | None = field(default=None, compare=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.w)) or not np.isfinite(self.b):
            raise RegressError("non-finite hyperplane")

    def support(self) -> list[int]:
        return [int(j) for j in np.flatnonzero(self.w)]


def predict(h: Hyperplane, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != h.w.shape:
        raise RegressError(f"dimension mismatch: {x.shape} vs {h.w.shape}")
    return float(h.w @ x + h.b)


def objective(X: np.ndarray, y: np.ndarray, h: Hyperplane, lam: float, penalize_bias: bool = True) -> float:
    resid = y - X @ h.w - h.b
    penalty = np.sum(np.abs(h.w)) + (abs(h.b) if penalize_bias else 0.0)
    return float(resid @ resid / (2 * len(y)) + lam * penalty)


def _stationarity(grad: np.ndarray, coef: np.ndarray, lam: float, penalize_bias: bool) -> float:
    """Largest KKT violation, given coef = (w, b) and grad = Z^T r / n for
    the columns Z = [X, 1] and the residual r."""
    viol = np.where(coef != 0.0, np.abs(grad - lam * np.sign(coef)), np.abs(grad) - lam)
    if not penalize_bias:
        viol[-1] = abs(grad[-1])
    return max(0.0, float(viol.max()))


def kkt_violation(X: np.ndarray, y: np.ndarray, h: Hyperplane, lam: float, penalize_bias: bool = True) -> float:
    """Largest violation of the soft-threshold stationarity conditions."""
    r = y - X @ h.w - h.b
    grad = np.append(X.T @ r, np.sum(r)) / len(y)
    return _stationarity(grad, np.append(h.w, h.b), lam, penalize_bias)


def lasso_fit(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    penalize_bias: bool = True,
    start: Hyperplane | None = None,
) -> Hyperplane:
    """Cyclic coordinate descent with soft thresholding on the Gram matrix.

    Starts from `start`, or from zero when it is None, and sweeps every
    coordinate in order: the features, then the bias.  Stops when the KKT
    violation computed from a fresh residual is at most tol, or after
    max_sweeps sweeps; the result reports its sweeps, that violation and
    whether it converged.  The objective is compared between the start
    and the result only: an increase raises RegressError.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise RegressError("X and y shapes do not line up")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise RegressError("non-finite training data")
    if lam < 0:
        raise RegressError("lambda must be non-negative")

    n, k = X.shape
    if start is None:
        start = Hyperplane(np.zeros(k), 0.0)
    elif start.w.shape != (k,):
        raise RegressError(f"start has {start.w.shape} weights for {k} features")
    Z = np.hstack([X, np.ones((n, 1))])
    gram = Z.T @ Z / n
    coef = np.append(start.w, start.b)
    coef[gram.diagonal() == 0.0] = 0.0  # an all-zero column's weight only adds penalty
    threshold = [lam] * k + [lam if penalize_bias else 0.0]
    coords = [(j, float(gram[j, j]), gram[j], threshold[j]) for j in range(k + 1) if gram[j, j] > 0.0]
    step = np.empty(k + 1)
    start_obj = objective(X, y, start, lam, penalize_bias)

    sweeps = 0
    kkt = kkt_violation(X, y, Hyperplane(coef[:k], coef[k]), lam, penalize_bias)
    while kkt > tol and sweeps < max_sweeps:
        grad = Z.T @ (y - Z @ coef) / n  # Z^T r / n, kept current coordinate by coordinate
        beta = coef.tolist()  # python floats: the sweep reads and writes them one at a time
        while sweeps < max_sweeps:
            sweeps += 1
            for j, d, gram_j, t in coords:
                old = beta[j]
                rho = grad.item(j) + d * old
                new = (rho - t) / d if rho > t else (rho + t) / d if rho < -t else 0.0  # soft threshold
                if new != old:
                    np.multiply(gram_j, new - old, out=step)
                    np.subtract(grad, step, out=grad)
                    beta[j] = new
            coef = np.array(beta)
            if _stationarity(grad, coef, lam, penalize_bias) <= tol:
                break  # the running gradient screens; a fresh residual certifies
        kkt = kkt_violation(X, y, Hyperplane(coef[:k], coef[k]), lam, penalize_bias)
    h = Hyperplane(coef[:k].copy(), float(coef[k]), sweeps, kkt, kkt <= tol)
    end_obj = objective(X, y, h, lam, penalize_bias)
    if end_obj > start_obj + 1e-12 * max(1.0, abs(start_obj)):
        raise RegressError(f"objective increased from {start_obj!r} to {end_obj!r}")
    return h


def r_squared(h: Hyperplane, X: np.ndarray, y: np.ndarray) -> float:
    y = np.asarray(y, dtype=float)
    if len(y) < 2:
        raise RegressError("R^2 needs at least two observations")
    mean = float(np.mean(y))
    tss = float(np.sum((y - mean) ** 2))
    if tss == 0.0:
        raise RegressError("R^2 undefined for zero-variance targets")
    resid = y - X @ h.w - h.b
    return 1.0 - float(resid @ resid) / tss


# ---------------------------------------------------------------------------
# Cross-validation protocol


@dataclass(frozen=True)
class CvReport:
    lam: float
    r2_values: tuple[float, ...]  # one per trial (runs x folds)
    median_r2: float
    mean_selected: float  # mean number of selected descriptors over all trials
    kkt_max: float  # largest KKT violation among the trials' fits
    unconverged: int  # trials whose fit ran out of sweeps

    def to_json(self) -> str:
        return json.dumps(
            {
                "lambda": self.lam,
                "r2_values": list(self.r2_values),
                "median_r2": self.median_r2,
                "mean_selected": self.mean_selected,
                "kkt_max": self.kkt_max,
                "unconverged": self.unconverged,
            }
        )


def _fold_indices(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def _cv_path(
    X: np.ndarray,
    y: np.ndarray,
    lams: list[float],
    runs: int,
    folds: int,
    seed: int,
    penalize_bias: bool,
) -> dict[float, CvReport]:
    """Cross-validate every penalty in `lams` on the same `runs` random fold
    partitions.  Each trial trains on the other folds, walking the distinct
    penalties from the largest down with each fit warm-started from the
    previous one, and reports test R^2 on the held-out fold."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < folds:
        raise RegressError(f"need at least {folds} records for {folds}-fold CV")
    path = sorted(set(lams), reverse=True)
    fits: dict[float, list[tuple[float, Hyperplane]]] = {lam: [] for lam in path}
    rng = np.random.default_rng(seed)
    for _ in range(runs):
        for test_idx in _fold_indices(n, folds, rng):
            mask = np.zeros(n, dtype=bool)
            mask[test_idx] = True
            h = None
            for lam in path:
                h = lasso_fit(X[~mask], y[~mask], lam, penalize_bias=penalize_bias, start=h)
                fits[lam].append((r_squared(h, X[mask], y[mask]), h))
    reports = {}
    for lam, trials in fits.items():
        r2s = tuple(r2 for r2, _ in trials)
        reports[lam] = CvReport(
            lam=lam,
            r2_values=r2s,
            median_r2=float(statistics.median(r2s)),
            mean_selected=float(np.mean([len(h.support()) for _, h in trials])),
            kkt_max=max(h.kkt for _, h in trials),
            unconverged=sum(not h.converged for _, h in trials),
        )
    return reports


def lambda_grid() -> list[float]:
    """Penalty candidates: zero plus 36 geometric values from 1e-6 to 100."""
    return [0.0] + [float(v) for v in np.geomspace(1e-6, 100.0, 36)]


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    runs: int = 10,
    folds: int = 5,
    seed: int = 0,
    penalize_bias: bool = True,
) -> CvReport:
    """Repeat `runs` random fold partitions; each trial trains on the
    other folds and reports test R^2 on the held-out one.  The fits walk
    down the grid values above `lam` to reach it, as in `select_lambda`."""
    path = [g for g in lambda_grid() if g > lam] + [lam]
    return _cv_path(X, y, path, runs, folds, seed, penalize_bias)[lam]


def select_lambda(
    X: np.ndarray,
    y: np.ndarray,
    grid: list[float] | None = None,
    runs: int = 10,
    folds: int = 5,
    seed: int = 0,
    tie_tol: float = 1e-4,
    penalize_bias: bool = True,
) -> tuple[float, dict[float, CvReport]]:
    """Pick the penalty with the best median CV R^2; near-ties within
    tie_tol go to the larger (sparser) penalty."""
    grid = lambda_grid() if grid is None else list(grid)
    path = _cv_path(X, y, grid, runs, folds, seed, penalize_bias)
    reports = {lam: path[lam] for lam in grid}
    best = max(reports.values(), key=lambda rep: rep.median_r2).median_r2
    chosen = max(lam for lam, rep in reports.items() if rep.median_r2 >= best - tie_tol)
    return chosen, reports
