"""Lasso-penalized linear prediction by cyclic coordinate descent.

The objective is (1/(2|D|))·sum of squared errors plus lambda times the
L1 norm of the weights *including the bias*; an opt-in flag restores the
conventional unpenalized intercept.  Also provides the repeated k-fold
cross-validation protocol (10 runs of 5 folds by default) with the median
test R^2 and the mean selected-descriptor count.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 100_000


class RegressError(ValueError):
    pass


@dataclass(frozen=True)
class Hyperplane:
    w: np.ndarray
    b: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.w)) or not np.isfinite(self.b):
            raise RegressError("non-finite hyperplane")

    def support(self) -> list[int]:
        return [int(j) for j in np.flatnonzero(self.w)]

    def to_json(self) -> str:
        return json.dumps({"w": self.w.tolist(), "b": self.b})

    @classmethod
    def from_json(cls, text: str) -> "Hyperplane":
        d = json.loads(text)
        return cls(w=np.array(d["w"], dtype=float), b=float(d["b"]))


def predict(h: Hyperplane, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != h.w.shape:
        raise RegressError(f"dimension mismatch: {x.shape} vs {h.w.shape}")
    return float(h.w @ x + h.b)


def objective(X: np.ndarray, y: np.ndarray, h: Hyperplane, lam: float, penalize_bias: bool = True) -> float:
    resid = y - X @ h.w - h.b
    penalty = np.sum(np.abs(h.w)) + (abs(h.b) if penalize_bias else 0.0)
    return float(resid @ resid / (2 * len(y)) + lam * penalty)


def _soft(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def lasso_fit(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    penalize_bias: bool = True,
) -> Hyperplane:
    """Cyclic coordinate descent with soft thresholding.

    Converges when the largest coordinate change in a sweep drops below
    tol; an objective that increases after a sweep raises RegressError.
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
    col_sq = np.einsum("ij,ij->j", X, X) / n
    w = np.zeros(k)
    b = 0.0
    r = y.copy()  # residual y - Xw - b
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


def kkt_violation(X: np.ndarray, y: np.ndarray, h: Hyperplane, lam: float, penalize_bias: bool = True) -> float:
    """Largest violation of the soft-threshold stationarity conditions."""
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "lambda": self.lam,
                "r2_values": list(self.r2_values),
                "median_r2": self.median_r2,
                "mean_selected": self.mean_selected,
            }
        )


def _fold_indices(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


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
    other folds and reports test R^2 on the held-out one."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < folds:
        raise RegressError(f"need at least {folds} records for {folds}-fold CV")
    rng = np.random.default_rng(seed)
    r2s: list[float] = []
    nnz: list[int] = []
    for _ in range(runs):
        for test_idx in _fold_indices(n, folds, rng):
            mask = np.zeros(n, dtype=bool)
            mask[test_idx] = True
            h = lasso_fit(X[~mask], y[~mask], lam, penalize_bias=penalize_bias)
            r2s.append(r_squared(h, X[mask], y[mask]))
            nnz.append(len(h.support()))
    return CvReport(
        lam=lam,
        r2_values=tuple(r2s),
        median_r2=float(statistics.median(r2s)),
        mean_selected=float(np.mean(nnz)),
    )


def lambda_grid() -> list[float]:
    """Penalty candidates: zero plus 36 geometric values from 1e-6 to 100."""
    return [0.0] + [float(v) for v in np.geomspace(1e-6, 100.0, 36)]


def select_lambda(
    X: np.ndarray,
    y: np.ndarray,
    grid: list[float] | None = None,
    runs: int = 10,
    folds: int = 5,
    seed: int = 0,
    tie_tol: float = 1e-4,
) -> tuple[float, dict[float, CvReport]]:
    """Pick the penalty with the best median CV R^2; near-ties within
    tie_tol go to the larger (sparser) penalty."""
    grid = lambda_grid() if grid is None else list(grid)
    reports = {lam: cross_validate(X, y, lam, runs=runs, folds=folds, seed=seed) for lam in grid}
    best = max(reports.values(), key=lambda rep: rep.median_r2).median_r2
    chosen = max(lam for lam, rep in reports.items() if rep.median_r2 >= best - tie_tol)
    return chosen, reports
