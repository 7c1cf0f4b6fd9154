"""Lasso-penalized linear prediction: an exact homotopy path, certified.

The objective is (1/(2|D|))·sum of squared errors plus lambda times the
L1 norm of the weights *including the bias*; an opt-in flag restores the
conventional unpenalized intercept.  The path works on the Gram matrix of
the features with the bias as one more column.

`lasso_path` follows the LARS-Lasso homotopy (Osborne, Presnell & Turlach,
"A new approach to variable selection in least squares problems", IMA J.
Numer. Anal. 20(3), 2000; Efron, Hastie, Johnstone & Tibshirani, "Least
Angle Regression", Ann. Statist. 32(2), 2004) from the penalty at which
the first column enters down through the requested penalties.  Between
knots the solution is linear in lambda; at a knot one column joins the
active set or one leaves it.  Ties go to the lower column index (registry
order, the bias last), and a column whose join would make the active Gram
matrix singular is skipped until the active set changes, so dependent
columns never join together and the support never exceeds rank([X, 1]).

`lasso_fit` is the certificate.  It returns a path point, or a start it is
given, with its weights unchanged and the largest violation of the KKT
stationarity conditions, recomputed from a fresh residual; the fit is
`converged` when that is at most `DEFAULT_TOL`.  A fit that misses the
certificate is reported, not raised and not improved.

Also provides the repeated k-fold cross-validation protocol (10 runs of 5
folds by default) with the median test R^2 and the mean selected-descriptor
count.  Each fold follows one path through all its penalties and
certifies every point.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9  # KKT violation up to which a fit is certified
_DEPENDENT = 1e-10  # Schur complement on the active set, as a share of the Gram diagonal, of a column in their span
_KNOT_TIE = 1e-12  # relative gap within which two path events share a knot
_TIE_TOL = 1e-4  # median R^2 gap within which select_lambda prefers the sparser penalty


class RegressError(ValueError):
    pass


@dataclass(frozen=True)
class Hyperplane:
    w: np.ndarray
    b: float
    # What `lasso_fit` reports of its fit; a hand-built hyperplane has None and 0.
    kkt: float | None = field(default=None, compare=False)
    steps: int = field(default=0, compare=False)  # homotopy knots of the `lasso_path` point

    def __post_init__(self):
        if not np.all(np.isfinite(self.w)) or not np.isfinite(self.b):
            raise RegressError("non-finite hyperplane")

    @property
    def converged(self) -> bool | None:
        return None if self.kkt is None else self.kkt <= DEFAULT_TOL

    def support(self) -> list[int]:
        return [int(j) for j in np.flatnonzero(self.w)]


def predict(h: Hyperplane, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != h.w.shape:
        raise RegressError(f"dimension mismatch: {x.shape} vs {h.w.shape}")
    return float(h.w @ x + h.b)


def kkt_violation(X: np.ndarray, y: np.ndarray, h: Hyperplane, lam: float, penalize_bias: bool = True) -> float:
    """Largest violation of the soft-threshold stationarity conditions on the
    columns Z = [X, 1] and the weights (w, b)."""
    r = y - X @ h.w - h.b
    grad = np.append(X.T @ r, np.sum(r)) / len(y)
    coef = np.append(h.w, h.b)
    viol = np.where(coef != 0.0, np.abs(grad - lam * np.sign(coef)), np.abs(grad) - lam)
    if not penalize_bias:
        viol[-1] = abs(grad[-1])
    return max(0.0, float(viol.max()))


def _training_data(X, y, lams) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise RegressError("X and y shapes do not line up")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise RegressError("non-finite training data")
    if not all(0.0 <= lam < np.inf for lam in lams):  # NaN too
        raise RegressError("lambda must be a finite non-negative number")
    return X, y


def lasso_path(X: np.ndarray, y: np.ndarray, lams: list[float], penalize_bias: bool = True) -> list[Hyperplane]:
    """The Lasso solution at each penalty in `lams`, in the order given,
    from one LARS-Lasso homotopy on the Gram matrix of Z = [X, 1].

    With active set A and signs s (0 for the unpenalized bias, which is
    active throughout), the solution on A is u - lam*v, where
    G_AA u = Z_A^T y / n and G_AA v = s_A, and every column's correlation
    with the residual is a + lam*d.  Going down from the penalty at which
    the first column enters, the next knot is the largest penalty at which
    an inactive column's correlation reaches +-lam or an active weight
    reaches zero; ties go to the lower column index.  A column whose
    Schur complement on A is at most _DEPENDENT of its Gram diagonal lies
    in the span of A and does not join; the column that has just joined
    cannot leave at once, nor can the one that has just left rejoin with
    the sign it had.  The points are exact up to rounding but not
    certified: each reports the knots passed before it as `steps`, and
    `lasso_fit(..., start=point)` certifies it.  A path that has not
    reached the smallest penalty after 10 knots per column stops there,
    and its remaining points come from its last linear piece.
    """
    X, y = _training_data(X, y, lams)
    n, k = X.shape
    Z = np.hstack([X, np.ones((n, 1))])
    gram = Z.T @ Z / n
    corr = Z.T @ y / n
    diag = gram.diagonal()
    penalized = np.ones(k + 1, dtype=bool)
    penalized[k] = penalize_bias
    active = ~penalized
    sign = np.zeros(k + 1)
    pending = sorted(range(len(lams)), key=lambda i: lams[i], reverse=True)
    points: list[Hyperplane | None] = [None] * len(lams)
    knot = np.inf
    joined, left, left_sign = -1, -1, 0.0
    max_steps = 10 * (k + 1)
    for steps in range(max_steps + 1):
        A = np.flatnonzero(active)
        gram_A = gram[A]
        sol = np.linalg.solve(gram[np.ix_(A, A)], np.column_stack([corr[A], sign[A], gram_A]))
        u, v = sol[:, 0], sol[:, 1]
        a = corr - gram_A.T @ u
        d = gram_A.T @ v
        schur = diag - np.einsum("ij,ij->j", gram_A, sol[:, 2:])

        # an inactive correlation a + lam*d meets s*lam, as lam falls, at s*a / (1 - s*d)
        event = np.full(k + 1, -np.inf)
        event_sign = np.zeros(k + 1)
        free = ~active & penalized & (schur > _DEPENDENT * diag)
        for s in (1.0, -1.0):
            slope = 1.0 - s * d
            meets = free & (slope > 0.0)
            if s == left_sign:
                meets[left] = False
            at = np.full(k + 1, -np.inf)
            at[meets] = s * a[meets] / slope[meets]
            event_sign[at > event] = s
            event = np.maximum(event, at)
        # an active weight u - lam*v that moves against its sign reaches zero at u/v
        shrinks = sign[A] * v < 0.0
        shrinks[A == joined] = False
        event[A[shrinks]] = u[shrinks] / v[shrinks]
        np.minimum(event, knot, out=event)

        nxt = float(event.max())
        last = nxt <= 0.0 or steps == max_steps
        while pending and (last or lams[pending[0]] >= nxt):
            i = pending.pop(0)
            coef = np.zeros(k + 1)
            coef[A] = u - lams[i] * v
            # an active weight of the other sign is rounding noise around zero;
            # at a zero penalty no sign is read, and the weight stays as it is
            if lams[i] > 0.0:
                coef[A[sign[A] * coef[A] < 0.0]] = 0.0
            points[i] = Hyperplane(coef[:k].copy(), float(coef[k]), steps=steps)
        if not pending:
            break
        j = int(np.flatnonzero(event >= nxt * (1.0 - _KNOT_TIE))[0])  # ties: the lower column index
        if active[j]:
            joined, left, left_sign = -1, j, sign[j]
            active[j], sign[j] = False, 0.0
        else:
            joined, left_sign = j, 0.0
            active[j], sign[j] = True, event_sign[j]
        knot = nxt
    return points


def lasso_fit(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    penalize_bias: bool = True,
    start: Hyperplane | None = None,
) -> Hyperplane:
    """Certify `start`, or the `lasso_path` point at `lam` when it is None.

    The result keeps the start's weights and `steps` unchanged and reports
    as `kkt` its KKT violation, computed from a fresh residual; it is
    `converged` when that is at most DEFAULT_TOL.
    """
    X, y = _training_data(X, y, [lam])
    if start is None:
        start = lasso_path(X, y, [lam], penalize_bias)[0]
    elif start.w.shape != (X.shape[1],):
        raise RegressError(f"start has {start.w.shape} weights for {X.shape[1]} features")
    return Hyperplane(start.w, start.b, kkt_violation(X, y, start, lam, penalize_bias), start.steps)


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
    unconverged: int  # trials whose fit misses the KKT certificate

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
    partitions.  Each trial trains on the other folds, following one path
    through the distinct penalties and certifying each of its points with
    one `lasso_fit`, and reports test R^2 on the held-out fold."""
    if folds < 2:
        raise RegressError(f"CV needs at least 2 folds, got {folds}")
    if runs < 1:
        raise RegressError(f"CV needs at least 1 run, got {runs}")
    if not lams:
        raise RegressError("CV needs at least one penalty")
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
            X_train, y_train = X[~mask], y[~mask]
            for lam, start in zip(path, lasso_path(X_train, y_train, path, penalize_bias)):
                h = lasso_fit(X_train, y_train, lam, penalize_bias=penalize_bias, start=start)
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
    other folds and reports test R^2 on the held-out one.  A path's point
    at `lam` does not depend on the other penalties it visits, so this
    reports what `select_lambda` reports for `lam`."""
    return _cv_path(X, y, [lam], runs, folds, seed, penalize_bias)[lam]


def select_lambda(
    X: np.ndarray,
    y: np.ndarray,
    grid: list[float] | None = None,
    runs: int = 10,
    folds: int = 5,
    seed: int = 0,
    penalize_bias: bool = True,
) -> tuple[float, dict[float, CvReport]]:
    """Pick the penalty with the best median CV R^2; near-ties within
    1e-4 go to the larger (sparser) penalty."""
    grid = lambda_grid() if grid is None else list(grid)
    path = _cv_path(X, y, grid, runs, folds, seed, penalize_bias)
    reports = {lam: path[lam] for lam in grid}
    best = max(reports.values(), key=lambda rep: rep.median_r2).median_r2
    chosen = max(lam for lam, rep in reports.items() if rep.median_r2 >= best - _TIE_TOL)
    return chosen, reports
