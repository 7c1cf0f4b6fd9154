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
count.  Every held-out fold of every run is checked before any path runs:
a fold of fewer than two records, or one whose targets are all equal,
cannot be scored, and the error names it.  Each fold then follows one path
through all its penalties and certifies every point with one `lasso_fit`,
scored against the fold's total sum of squares, computed once.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9  # KKT violation up to which a fit is certified
_DEPENDENT = 1e-10  # Schur complement on the active set, as a share of the Gram diagonal, of a column in their span
_KNOT_TIE = 1e-12  # relative gap within which two path events share a knot
_TIE_TOL = 1e-4  # median R^2 gap within which select_lambda prefers the sparser penalty
_SIGNS = np.array([1.0, -1.0])  # the signs s of a column's two events, in the order of the rows


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
        if not np.isfinite(self.w).all() or not np.isfinite(self.b):
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
    columns Z = [X, 1] and the weights (w, b): the features' as one vector,
    the bias's as a scalar."""
    n = len(y)
    r = y - X @ h.w - h.b
    grad = X.T @ r / n
    viol = np.where(h.w != 0.0, np.abs(grad - lam * np.sign(h.w)), np.abs(grad) - lam)
    grad_b = float(r.sum()) / n
    if not penalize_bias:
        viol_b = abs(grad_b)
    elif h.b != 0.0:
        viol_b = abs(grad_b - lam * math.copysign(1.0, h.b))
    else:
        viol_b = abs(grad_b) - lam
    return max(0.0, float(viol.max(initial=viol_b)))


def _training_data(X, y, lams) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise RegressError("X and y shapes do not line up")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
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
    the sign it had.  Each knot solves one system, whose right-hand side
    is the active rows of one table of (Z^T y / n, s, G) built before the
    first knot.  The points are exact up to rounding but not
    certified: each reports the knots passed before it as `steps`, and
    `lasso_fit(..., start=point)` certifies it.  A path that has not
    reached the smallest penalty after 10 knots per column stops there,
    and its remaining points come from its last linear piece.
    """
    X, y = _training_data(X, y, lams)
    n, k = X.shape
    Z = np.hstack([X, np.ones((n, 1))])
    table = np.zeros((k + 1, k + 3))  # per column: its correlation, its sign, its Gram row
    table[:, 0] = Z.T @ y / n
    table[:, 2:] = Z.T @ Z / n
    corr, sign, gram = table[:, 0], table[:, 1], table[:, 2:]
    diag = gram.diagonal()
    dependent = _DEPENDENT * diag
    penalized = np.ones(k + 1, dtype=bool)
    penalized[k] = penalize_bias
    active = ~penalized
    pending = sorted(range(len(lams)), key=lambda i: lams[i], reverse=True)
    points: list[Hyperplane | None] = [None] * len(lams)
    knot = np.inf
    joined, left, left_sign = -1, -1, 0.0
    max_steps = 10 * (k + 1)
    for steps in range(max_steps + 1):
        A = active.nonzero()[0]
        rhs = table[A]
        sign_A, gram_A = rhs[:, 1], rhs[:, 2:]
        sol = np.linalg.solve(gram_A[:, A], rhs)
        u, v = sol[:, 0], sol[:, 1]
        a = corr - gram_A.T @ u
        d = gram_A.T @ v
        schur = diag - np.einsum("ij,ij->j", gram_A, sol[:, 2:])

        # an inactive correlation a + lam*d meets s*lam, as lam falls, at
        # s*a / (1 - s*d): row 0 is s = +1, row 1 is s = -1
        slope = 1.0 - np.multiply.outer(_SIGNS, d)
        meets = (~active & penalized & (schur > dependent)) & (slope > 0.0)
        if left_sign:
            meets[int(left_sign < 0.0), left] = False
        at = np.divide(np.multiply.outer(_SIGNS, a), slope, out=np.full((2, k + 1), -np.inf), where=meets)
        event_sign = np.where(at[1] > at[0], -1.0, 1.0)  # a tie goes to +1
        event = at.max(axis=0)
        # an active weight u - lam*v that moves against its sign reaches zero at u/v
        shrinks = sign_A * v < 0.0
        shrinks[A == joined] = False
        event[A[shrinks]] = u[shrinks] / v[shrinks]
        np.minimum(event, knot, out=event)

        nxt = float(event.max())
        last = nxt <= 0.0 or steps == max_steps
        while pending and (last or lams[pending[0]] >= nxt):
            i = pending.pop(0)
            lam = lams[i]
            on_A = u - lam * v
            # an active weight of the other sign is rounding noise around zero;
            # at a zero penalty no sign is read, and the weight stays as it is
            if lam > 0.0:
                on_A[sign_A * on_A < 0.0] = 0.0
            coef = np.zeros(k + 1)
            coef[A] = on_A
            points[i] = Hyperplane(coef[:k], float(coef[k]), steps=steps)
        if not pending:
            break
        j = int((event >= nxt * (1.0 - _KNOT_TIE)).argmax())  # ties: the lower column index
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


def _total_squares(y: np.ndarray) -> float:
    """The total sum of squares of y about its mean; 0.0 when its values are
    all equal, where rounding of the mean can leave a tiny positive sum."""
    if y.min() == y.max():
        return 0.0
    return float(np.sum((y - float(np.mean(y))) ** 2))


def r_squared(h: Hyperplane, X: np.ndarray, y: np.ndarray, tss: float | None = None) -> float:
    """1 - RSS/TSS of `h` on (X, y).  A caller that scores many
    hyperplanes on one y passes its total sum of squares as `tss`, having
    checked that y can be scored."""
    y = np.asarray(y, dtype=float)
    if tss is None:
        if len(y) < 2:
            raise RegressError("R^2 needs at least two observations")
        tss = _total_squares(y)
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
    partitions.  Every held-out fold is checked before any path runs: it
    needs two records and targets that are not all equal, or R^2 is
    undefined.  Each trial then trains on the other folds, following one
    path through the distinct penalties and certifying each of its points
    with one `lasso_fit`, and reports test R^2 on the held-out fold, from
    the fold's total sum of squares computed once."""
    if folds < 2:
        raise RegressError(f"CV needs at least 2 folds, got {folds}")
    if runs < 1:
        raise RegressError(f"CV needs at least 1 run, got {runs}")
    if not lams:
        raise RegressError("CV needs at least one penalty")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 2 * folds:  # the smallest held-out fold has n // folds records
        raise RegressError(f"{folds}-fold CV needs at least {2 * folds} records, so that each "
                           f"held-out fold has two to score R^2 on, got {n}")
    rng = np.random.default_rng(seed)
    held_out = []  # (mask, total sum of squares) per run and fold
    for run in range(1, runs + 1):
        for fold, test_idx in enumerate(_fold_indices(n, folds, rng), 1):
            y_test = y[test_idx]
            tss = _total_squares(y_test)
            if tss == 0.0:
                raise RegressError(f"CV run {run}, fold {fold}: the {len(y_test)} held-out targets are "
                                   f"all {y_test[0]:g}, and R^2 is undefined for zero-variance targets")
            mask = np.zeros(n, dtype=bool)
            mask[test_idx] = True
            held_out.append((mask, tss))
    path = sorted(set(lams), reverse=True)
    fits: dict[float, list[tuple[float, Hyperplane]]] = {lam: [] for lam in path}
    for mask, tss in held_out:
        X_train, y_train = X[~mask], y[~mask]
        X_test, y_test = X[mask], y[mask]
        for lam, start in zip(path, lasso_path(X_train, y_train, path, penalize_bias)):
            h = lasso_fit(X_train, y_train, lam, penalize_bias=penalize_bias, start=start)
            fits[lam].append((r_squared(h, X_test, y_test, tss), h))
    reports = {}
    for lam, trials in fits.items():
        r2s = tuple(r2 for r2, _ in trials)
        reports[lam] = CvReport(
            lam=lam,
            r2_values=r2s,
            median_r2=float(statistics.median(r2s)),
            mean_selected=float(np.mean([np.count_nonzero(h.w) for _, h in trials])),
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
