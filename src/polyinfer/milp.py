"""Mixed-integer linear feasibility models and two exact solvers.

The inverse-prediction model encodes descriptor box bounds, integrality,
the two-sided target window on the prediction, and tolerance-relaxed
normalization rows linking raw descriptors to their standardized
counterparts.  It is K independent blocks (x_j, xh_j) coupled only by
the two window rows.  `solve_inverse` reduces each block exactly, in
rational arithmetic, to an interval of xh_j whose ends are nondecreasing
in x_j, and branches on the Lasso support alone: the LP relaxation on a
box is then a sum of interval ends, with no simplex.  `solve` is the
general solver, for any model (one `parse_lp` read back from the LP
text `emit_lp` writes, say): branch-and-bound over a phase-1 simplex
with Bland's rule, on a tableau whose pivots touch only the nonzero
entries of the pivot row.  Both are exact, and both accept
an assignment only after re-checking it bound by bound and row by row in
integer arithmetic: one kernel cross-multiplies the integer ratios of the
floats a row holds and of the rational values, with no `Fraction` built.
`solve` checks its answer on the model it solved (`verify_assignment`),
`solve_inverse` on the inverse model's rows without building the
`MilpModel` (`verify_inverse`).  `MilpSolution` reports the nodes and
pivots spent, and the subproblems a budget left unexplored.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .regress import Hyperplane


class MilpError(ValueError):
    pass



@dataclass(frozen=True)
class Variable:
    name: str
    lower: float
    upper: float
    integer: bool = False

    def __post_init__(self):
        if self.lower > self.upper:
            raise MilpError(f"variable {self.name}: lower {self.lower} > upper {self.upper}")


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: tuple[tuple[str, float], ...]  # (variable, coefficient)
    sense: str  # "<=", ">=", "="
    rhs: float

    def __post_init__(self):
        if self.sense not in ("<=", ">=", "="):
            raise MilpError(f"bad sense {self.sense!r}")


@dataclass(frozen=True)
class MilpModel:
    variables: tuple[Variable, ...]
    constraints: tuple[Constraint, ...]
    # feasibility models carry no objective

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise MilpError("duplicate variable name")
        known = set(names)
        for c in self.constraints:
            for var, _ in c.coeffs:
                if var not in known:
                    raise MilpError(f"constraint {c.name} references unknown variable {var}")
        for v in self.variables:
            if v.integer and not (math.isfinite(v.lower) and math.isfinite(v.upper)):
                raise MilpError(f"integer variable {v.name} must have finite bounds")


@dataclass(frozen=True)
class MilpSolution:
    status: str  # "feasible" | "infeasible" | "bound-limit"
    assignment: dict[str, Fraction | int] = field(default_factory=dict)
    nodes: int = 0  # LP relaxations solved
    pivots: int = 0  # simplex pivots, summed over all nodes
    open_nodes: int = 0  # subproblems left unexplored when a budget stopped the search


def verify_assignment(model: MilpModel, assignment: dict[str, Fraction | int]) -> list[str]:
    """Names of violated bounds/constraints under exact rational arithmetic
    (`_violations`); the values are ints or `Fraction`s."""
    return _violations(
        ((v.name, v.lower, v.upper, v.integer) for v in model.variables),
        ((c.name, c.coeffs, c.sense, c.rhs) for c in model.constraints),
        assignment,
    )


def _meets(num: int, den: int, sense: str, rhs: float) -> bool:
    """Whether num/den (den > 0) stands in `sense` to the float `rhs`,
    decided exactly by cross-multiplying integer ratios.  A non-finite
    `rhs` raises, as `Fraction(rhs)` would."""
    rn, rd = rhs.as_integer_ratio()
    left, right = num * rd, rn * den
    return left <= right if sense == "<=" else left >= right if sense == ">=" else left == right


def _violations(variables, constraints, assignment: dict[str, Fraction | int]) -> list[str]:
    """The exact check behind both certificates, over plain rows:
    `variables` as (name, lower, upper, integer) and `constraints` as
    (name, ((variable, coefficient), ...), sense, rhs).

    A bound is `_meets` on the value's own numerator and denominator; a
    row's left side is summed as one integer ratio, with no `Fraction`
    built or reduced, and then goes through `_meets`.  Every coefficient
    is converted, so a non-finite one raises; a term whose value is
    exactly 0 adds nothing to its row."""
    bad: list[str] = []
    for name, lower, upper, integer in variables:
        val = assignment[name]
        num, den = val.numerator, val.denominator
        if not (_meets(num, den, ">=", lower) and _meets(num, den, "<=", upper)):
            bad.append(f"bounds:{name}")
        if integer and den != 1:
            bad.append(f"integrality:{name}")
    for name, coeffs, sense, rhs in constraints:
        num, den = 0, 1
        for var, coef in coeffs:
            cn, cd = coef.as_integer_ratio()
            val = assignment[var]
            vn = val.numerator
            if vn:
                d = cd * val.denominator
                num, den = num * d + cn * vn * den, den * d
        if not _meets(num, den, sense, rhs):
            bad.append(f"constraint:{name}")
    return bad


# ---------------------------------------------------------------------------
# Phase-1 simplex over exact fractions


def _lp_feasible(
    variables: list[tuple[Fraction, Fraction]],
    rows: list[tuple[dict[int, Fraction], str, Fraction]],
) -> tuple[list[Fraction] | None, int]:
    """Feasible point of {l <= x <= u, rows} or None, and the pivot count.

    Variables are shifted to x' = x - l >= 0; finite upper bounds become
    extra rows; phase-1 simplex (Bland's rule) then decides feasibility.
    The tableau is stored dense, but each pivot works only on the nonzero
    columns of the pivot row: the rows are mostly zeros, and an exact
    `Fraction` product with zero is wasted work.
    """
    n = len(variables)
    lower = [lb for lb, _ in variables]
    work_rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
    for coeffs, sense, rhs in rows:
        shift = sum((c * lower[j] for j, c in coeffs.items()), Fraction(0))
        work_rows.append((dict(coeffs), sense, rhs - shift))
    for j, (lb, ub) in enumerate(variables):
        work_rows.append(({j: Fraction(1)}, "<=", ub - lb))

    # standard form: rhs >= 0, slack for <=, surplus+artificial for >=, artificial for =
    m = len(work_rows)
    ncols = n
    slack_cols: list[int | None] = []
    art_cols: list[int | None] = []
    prepared: list[tuple[dict[int, Fraction], Fraction]] = []
    for coeffs, sense, rhs in work_rows:
        if rhs < 0:
            coeffs = {j: -c for j, c in coeffs.items()}
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        row = dict(coeffs)
        slack = art = None
        if sense == "<=":
            slack = ncols
            row[slack] = Fraction(1)
            ncols += 1
        elif sense == ">=":
            slack = ncols
            row[slack] = Fraction(-1)
            ncols += 1
            art = ncols
            row[art] = Fraction(1)
            ncols += 1
        else:
            art = ncols
            row[art] = Fraction(1)
            ncols += 1
        slack_cols.append(slack)
        art_cols.append(art)
        prepared.append((row, rhs))

    zero = Fraction(0)
    tableau = [[zero] * ncols + [rhs] for _, rhs in prepared]
    for i, (row, _) in enumerate(prepared):
        for j, c in row.items():
            tableau[i][j] = c
    basis = [slack if art is None else art for slack, art in zip(slack_cols, art_cols)]

    # phase-1 objective row: z_j = sum of artificial-basis rows minus cost,
    # summed over the sparse rows
    z = [zero] * (ncols + 1)
    for (row, rhs), art in zip(prepared, art_cols):
        if art is not None:
            for j, c in row.items():
                z[j] += c
            z[ncols] += rhs
            z[art] -= 1

    # Signs are read from `.numerator`: comparing a Fraction with an int
    # costs far more than the sign test itself.
    pivots = 0
    while True:
        enter = next((j for j in range(ncols) if z[j].numerator > 0), None)
        if enter is None:
            break
        leave = None
        best: Fraction | None = None
        for i in range(m):
            a = tableau[i][enter]
            if a.numerator > 0:
                ratio = tableau[i][ncols] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise MilpError("phase-1 unbounded; inconsistent model")
        prow = tableau[leave]
        piv = prow[enter]
        pairs = [(j, c / piv) for j, c in enumerate(prow) if c.numerator]
        for j, p in pairs:
            prow[j] = p
        for i in range(m):
            row = tableau[i]
            f = row[enter]
            if i != leave and f.numerator:
                for j, p in pairs:
                    row[j] -= f * p
        f = z[enter]
        if f.numerator:
            for j, p in pairs:
                z[j] -= f * p
        basis[leave] = enter
        pivots += 1

    if z[ncols].numerator > 0:
        return None, pivots
    values = [zero] * ncols
    for i in range(m):
        values[basis[i]] = tableau[i][ncols]
    return [values[j] + lower[j] for j in range(n)], pivots


# ---------------------------------------------------------------------------
# Branch and bound


def solve(
    model: MilpModel,
    max_nodes: int = 200_000,
    max_seconds: float = 120.0,
) -> MilpSolution:
    """First feasible integer point by depth-first branch and bound.

    Bounding solves the LP relaxation exactly on rationals; branching
    splits the most fractional integer variable.  There is no objective,
    so search stops at the first verified feasible assignment.
    """
    for v in model.variables:
        if not (math.isfinite(v.lower) and math.isfinite(v.upper)):
            raise MilpError(f"solve requires finite bounds; {v.name} is unbounded")
    names = [v.name for v in model.variables]
    index = {n: j for j, n in enumerate(names)}
    int_idx = [j for j, v in enumerate(model.variables) if v.integer]
    base_bounds = [(Fraction(v.lower), Fraction(v.upper)) for v in model.variables]
    rows = [
        (
            {index[var]: Fraction(coef) for var, coef in c.coeffs},
            c.sense,
            Fraction(c.rhs),
        )
        for c in model.constraints
    ]

    deadline = time.monotonic() + max_seconds
    stack: list[dict[int, tuple[Fraction, Fraction]]] = [{}]
    nodes = pivots = 0
    while stack:
        if nodes >= max_nodes or time.monotonic() > deadline:
            return MilpSolution(status="bound-limit", nodes=nodes, pivots=pivots, open_nodes=len(stack))
        overrides = stack.pop()
        bounds = list(base_bounds)
        for j, bd in overrides.items():
            bounds[j] = bd
        nodes += 1
        point, node_pivots = _lp_feasible(bounds, rows)
        pivots += node_pivots
        if point is None:
            continue
        frac_j = None
        frac_dist = Fraction(0)
        for j in int_idx:
            v = point[j]
            if v.denominator != 1:
                dist = abs(v - Fraction(round(v)))
                if dist > frac_dist:
                    frac_dist = dist
                    frac_j = j
        if frac_j is None:
            assignment = {names[j]: point[j] for j in range(len(names))}
            violated = verify_assignment(model, assignment)
            if violated:  # pragma: no cover - exact arithmetic should not land here
                raise MilpError(f"solver produced invalid point: {violated}")
            return MilpSolution(status="feasible", assignment=assignment, nodes=nodes, pivots=pivots)
        floor_v = Fraction(math.floor(point[frac_j]))
        lo, hi = bounds[frac_j]
        # a child whose box is empty (possible only with non-integer bounds
        # on an integer variable) is dropped here, so the stack holds only
        # subproblems still to solve
        if floor_v + 1 <= hi:
            right = dict(overrides)
            right[frac_j] = (floor_v + 1, hi)
            stack.append(right)
        if lo <= floor_v:
            left = dict(overrides)
            left[frac_j] = (lo, floor_v)
            stack.append(left)
    return MilpSolution(status="infeasible", nodes=nodes, pivots=pivots)


# ---------------------------------------------------------------------------
# Inverse-prediction model


@dataclass(frozen=True)
class InverseProblemSpec:
    """Data for the inverse problem: find raw descriptor values whose
    standardized image is predicted inside [y_lo, y_hi].

    The window is in standardized property units, matching the space the
    hyperplane was trained in.  Each raw descriptor is boxed by its data
    range [feat_min, feat_max], in raw units.
    """

    hyperplane: Hyperplane
    y_lo: float
    y_hi: float
    feat_min: np.ndarray
    feat_max: np.ndarray
    integer_indices: frozenset[int]
    epsilon: float = 1e-5

    def __post_init__(self):
        k = len(self.hyperplane.w)
        if not (len(self.feat_min) == len(self.feat_max) == k):
            raise MilpError("descriptor array lengths disagree")
        if not all(map(math.isfinite, (self.y_lo, self.y_hi, self.epsilon))):
            raise MilpError("target window and epsilon must be finite")
        if not 0 < self.epsilon < 1:
            raise MilpError("epsilon must lie strictly between 0 and 1")
        if not self.y_lo < self.y_hi:
            raise MilpError("target window is degenerate")
        if np.any(self.feat_min > self.feat_max):
            raise MilpError("descriptor minimum above maximum")
        for j in self.integer_indices:
            if not (float(self.feat_min[j]).is_integer() and float(self.feat_max[j]).is_integer()):
                raise MilpError(f"integer descriptor {j + 1} has a non-integer bound")

    @property
    def k(self) -> int:
        return len(self.hyperplane.w)

    @cached_property
    def rows(self) -> tuple[tuple, tuple]:
        """The inverse model as plain rows, worked out on first use and
        kept: (variables, constraints), each variable as (name, lower,
        upper, integer) and each constraint as (name, ((variable,
        coefficient), ...), sense, rhs).  `build_inverse_milp` wraps them
        and `verify_inverse` checks an answer on them, so the LP file and
        the certificate read one model.  Each descriptor adds x_j and xh_j
        and, unless constant, its two normalization rows; the window rows
        come last."""
        variables, constraints = [], []
        for j, block in enumerate(self.blocks):
            x, xh = f"x_{j + 1}", f"xh_{j + 1}"
            variables.append((x, block.mn, block.mx, j in self.integer_indices))
            variables.append((xh, block.h_lo, block.h_hi, False))
            r = block.rows
            if r is None:
                continue
            constraints.append((f"norm_lo_{j + 1}", ((x, r.lo_coef), (xh, -r.span)), "<=", r.lo_rhs))
            constraints.append((f"norm_hi_{j + 1}", ((xh, r.span), (x, -r.hi_coef)), "<=", r.hi_rhs))
        w = self.hyperplane.w
        terms = tuple((f"xh_{j + 1}", float(w[j])) for j in range(self.k) if w[j] != 0.0)
        lo, hi = _window_rhs(self)
        constraints.append(("window_lo", terms, ">=", lo))
        constraints.append(("window_hi", terms, "<=", hi))
        return tuple(variables), tuple(constraints)

    @cached_property
    def blocks(self) -> tuple["_Block", ...]:
        """Each descriptor's block, worked out on first use and kept:
        `rows` writes them, `solve_inverse` reduces them and
        `exact_standardized` divides by their spans, so none can disagree."""
        eps, blocks = self.epsilon, []
        for mn, mx in zip(map(float, self.feat_min), map(float, self.feat_max)):
            if mx <= mn:
                blocks.append(_Block(mn, mx, 0.0, 0.0, None))
                continue
            span = mx - mn
            corners = [factor * (bound - mn) / span for factor in (1 - eps, 1 + eps) for bound in (mn, mx)]
            rows = _NormRows(
                span=span,
                lo_coef=1 - eps,
                lo_rhs=_rhs_at_least(1 - eps, mn),
                hi_coef=1 + eps,
                hi_rhs=_rhs_at_least(-(1 + eps), mn),
            )
            blocks.append(_Block(mn, mx, min(corners), max(corners), rows))
        return tuple(blocks)


def _rhs_at_least(coef: float, value: float) -> float:
    """The smallest float not below the exact product coef*value, so the
    point that makes a row tight in exact arithmetic stays feasible."""
    rhs = coef * value
    # rhs < coef*value exactly, compared as integer ratios (positive denominators)
    (n, d), (cn, cd), (vn, vd) = rhs.as_integer_ratio(), coef.as_integer_ratio(), value.as_integer_ratio()
    if n * cd * vd < cn * vn * d:
        rhs = math.nextafter(rhs, math.inf)
    return rhs


class _NormRows(NamedTuple):
    """lo_coef*x - span*xh <= lo_rhs  and  span*xh - hi_coef*x <= hi_rhs."""

    span: float
    lo_coef: float
    lo_rhs: float
    hi_coef: float
    hi_rhs: float


class _Block(NamedTuple):
    """Descriptor j's variables and rows, in the floats the model holds:
    x_j in [mn, mx], xh_j in [h_lo, h_hi], and the normalization rows
    (None for a constant descriptor, whose xh_j is pinned at 0)."""

    mn: float
    mx: float
    h_lo: float
    h_hi: float
    rows: _NormRows | None


def _window_rhs(spec: InverseProblemSpec) -> tuple[float, float]:
    """Right-hand sides of the window rows on sum(w*xh): y_lo - b and
    y_hi - b rounded inward, so a window sum between them puts sum + b
    inside [y_lo, y_hi] in exact arithmetic."""
    b = Fraction(float(spec.hyperplane.b))
    lo, hi = Fraction(float(spec.y_lo)) - b, Fraction(float(spec.y_hi)) - b
    lo_rhs, hi_rhs = float(lo), float(hi)
    if lo_rhs < lo:
        lo_rhs = math.nextafter(lo_rhs, math.inf)
    if hi_rhs > hi:
        hi_rhs = math.nextafter(hi_rhs, -math.inf)
    return lo_rhs, hi_rhs


def build_inverse_milp(spec: InverseProblemSpec) -> MilpModel:
    """Raw integer/real descriptor variables, standardized companions,
    tolerance-relaxed normalization rows and the target window rows: the
    `MilpModel` of `spec.rows`."""
    variables, constraints = spec.rows
    return MilpModel(
        tuple(Variable(*v) for v in variables),
        tuple(Constraint(*c) for c in constraints),
    )


def verify_inverse(spec: InverseProblemSpec, assignment: dict[str, Fraction | int]) -> list[str]:
    """`verify_assignment(build_inverse_milp(spec), assignment)`, read off
    `spec.rows` without building the model: the same names in the same
    order, from the same exact check."""
    return _violations(*spec.rows, assignment)


# ---------------------------------------------------------------------------
# The inverse model in reduced form


class _ExactBlock:
    """A non-constant descriptor's block in exact arithmetic.

    Its rows and xh box give xh in [low(x), high(x)], with
    low(x) = max(h_lo, a1*x + b1) and high(x) = min(h_hi, a2*x + b2); both
    ends are nondecreasing in x (a1, a2 > 0 for 0 < eps < 1).  The box
    [lo, hi] is the data range cut to where low(x) <= high(x), rounded
    inward when x is integer.  For x >= min, the outward rounding of the
    right-hand sides already gives h_lo = 0 <= a2*x + b2 and
    a1*x + b1 <= a2*x + b2, so only a1*x + b1 <= h_hi can cut the range.
    """

    __slots__ = ("integer", "h_lo", "h_hi", "a1", "b1", "a2", "b2", "lo", "hi")

    def __init__(self, block: _Block, integer: bool):
        r = block.rows
        span = Fraction(r.span)
        self.integer = integer
        self.h_lo, self.h_hi = Fraction(block.h_lo), Fraction(block.h_hi)
        self.a1, self.b1 = Fraction(r.lo_coef) / span, -Fraction(r.lo_rhs) / span
        self.a2, self.b2 = Fraction(r.hi_coef) / span, Fraction(r.hi_rhs) / span
        lo = Fraction(block.mn)
        hi = min(Fraction(block.mx), (self.h_hi - self.b1) / self.a1)
        self.lo, self.hi = (math.ceil(lo), math.floor(hi)) if integer else (lo, hi)

    def low(self, x) -> Fraction:
        return max(self.h_lo, self.a1 * x + self.b1)

    def high(self, x) -> Fraction:
        return min(self.h_hi, self.a2 * x + self.b2)


class _Reduction:
    """The inverse model reduced exactly to its support.

    Blocks off the support (zero weight or constant descriptor) sit at
    x = min, xh = 0, which meets their rows exactly.  On the support,
    block i adds w_i*xh_i to the window sum.  At fixed x that term ranges
    over [lower(i, x), upper(i, x)]; over a box [a, b] of x it ranges over
    [lower(i, start), upper(i, finish)], where the start is the box end at
    which the term is least (a for w > 0, b for w < 0) and the finish the
    other.  Summing those ends gives the LP relaxation of the full model
    on the box.  Both ends are memoized per x value.
    """

    def __init__(self, spec: InverseProblemSpec):
        w = spec.hyperplane.w
        self.mins = [float(v) for v in spec.feat_min]
        self.support = [j for j, block in enumerate(spec.blocks) if w[j] != 0.0 and block.rows is not None]
        self.blocks = [_ExactBlock(spec.blocks[j], j in spec.integer_indices) for j in self.support]
        self.w = [Fraction(float(w[j])) for j in self.support]
        self.rising = [wi > 0 for wi in self.w]
        lo, hi = _window_rhs(spec)
        self.w_lo, self.w_hi = Fraction(lo), Fraction(hi)
        self._lower: list[dict] = [{} for _ in self.support]
        self._upper: list[dict] = [{} for _ in self.support]

    def lower(self, i: int, x) -> Fraction:
        memo = self._lower[i]
        if x not in memo:
            b = self.blocks[i]
            memo[x] = self.w[i] * (b.low(x) if self.rising[i] else b.high(x))
        return memo[x]

    def upper(self, i: int, x) -> Fraction:
        memo = self._upper[i]
        if x not in memo:
            b = self.blocks[i]
            memo[x] = self.w[i] * (b.high(x) if self.rising[i] else b.low(x))
        return memo[x]

    def box(self, i: int, a, b) -> tuple:
        """(a, b, least term, greatest term) of block i over [a, b]."""
        if self.rising[i]:
            return a, b, self.lower(i, a), self.upper(i, b)
        return a, b, self.lower(i, b), self.upper(i, a)

    def reach(self, i: int, a, b, target: Fraction):
        """The x in [a, b] nearest the start at which block i's term can
        reach `target`, given that it can at the finish."""
        blk, w = self.blocks[i], self.w[i]
        if self.rising[i]:  # high(x) >= target/w
            return max(a, (target / w - blk.b2) / blk.a2)
        return min(b, (target / w - blk.b1) / blk.a1)  # low(x) <= target/w

    def lift(self, x: list) -> dict[str, Fraction | int]:
        """Every variable: the support at `x`, each term raised from its
        least in support order until the sum meets the window's lower end.
        A block off the support is written in ints where it can be: x at
        its minimum (a `Fraction` only for a non-integral one), xh = 0."""
        assignment: dict[str, Fraction | int] = {}
        for j, mn in enumerate(self.mins):
            assignment[f"x_{j + 1}"] = int(mn) if mn.is_integer() else Fraction(mn)
            assignment[f"xh_{j + 1}"] = 0
        lows = [self.lower(i, xi) for i, xi in enumerate(x)]
        deficit = self.w_lo - sum(lows, Fraction(0))
        for i, j in enumerate(self.support):
            term = lows[i]
            if deficit > 0:
                term = min(lows[i] + deficit, self.upper(i, x[i]))
                deficit -= term - lows[i]
            assignment[f"x_{j + 1}"] = Fraction(x[i])
            assignment[f"xh_{j + 1}"] = term / self.w[i]
        return assignment


def solve_inverse(
    spec: InverseProblemSpec,
    max_nodes: int = 200_000,
    max_seconds: float = 120.0,
) -> MilpSolution:
    """First feasible point of `build_inverse_milp(spec)` by depth-first
    branch and bound on its reduced form (`_Reduction`).

    A node is a box on the support's x; its bound, the interval of
    reachable window sums, is updated from the parent's in O(1).  Its
    point is the fractional-knapsack one: every block at the start of its
    box, then blocks raised to the finish in support order until the sum
    meets the window's lower end.  Only the last raised block can stop
    short.  If its x is fractional and rounding it towards the finish
    overshoots the window, the node branches at its floor and ceiling;
    continuous descriptors never branch.  An answer is accepted only
    through `verify_inverse`, on every bound and row of the full model;
    the `MilpModel` itself is never built here.  `nodes`
    counts the interval relaxations evaluated; no simplex runs, so `pivots`
    reads 0.
    """
    red = _Reduction(spec)
    w_lo, w_hi = red.w_lo, red.w_hi
    root = [red.box(i, b.lo, b.hi) for i, b in enumerate(red.blocks)]
    stack = [(root, sum((e[2] for e in root), Fraction(0)), sum((e[3] for e in root), Fraction(0)))]
    deadline = time.monotonic() + max_seconds
    nodes = 0
    while stack:
        if nodes >= max_nodes or time.monotonic() > deadline:
            return MilpSolution(status="bound-limit", nodes=nodes, open_nodes=len(stack))
        boxes, least, most = stack.pop()
        nodes += 1
        if most < w_lo or least > w_hi:
            continue
        x = [a if up else b for (a, b, _, _), up in zip(boxes, red.rising)]
        total, i = least, 0
        while total < w_lo and total - boxes[i][2] + boxes[i][3] < w_lo:
            a, b, lo_i, hi_i = boxes[i]
            x[i] = b if red.rising[i] else a
            total += hi_i - lo_i
            i += 1
        if total < w_lo:  # block i stops short of its finish
            a, b, lo_i, hi_i = boxes[i]
            x[i] = red.reach(i, a, b, w_lo - total + lo_i)
            if red.blocks[i].integer and x[i].denominator != 1:
                ahead = math.ceil(x[i]) if red.rising[i] else math.floor(x[i])
                if total - lo_i + red.lower(i, ahead) > w_hi:
                    floor_v = math.floor(x[i])
                    for part in ((a, floor_v), (floor_v + 1, b)):  # the ceiling side first
                        child = list(boxes)
                        child[i] = red.box(i, *part)
                        stack.append((child, least - lo_i + child[i][2], most - hi_i + child[i][3]))
                    continue
                x[i] = ahead
        assignment = red.lift(x)
        violated = verify_inverse(spec, assignment)
        if violated:  # pragma: no cover - exact arithmetic should not land here
            raise MilpError(f"solver produced invalid point: {violated}")
        return MilpSolution(status="feasible", assignment=assignment, nodes=nodes)
    return MilpSolution(status="infeasible", nodes=nodes)


def exact_standardized(
    spec: InverseProblemSpec, assignment: dict[str, Fraction], indices: list[int] | None = None
) -> list[Fraction]:
    """Standardize the raw solution exactly (constant descriptors map to 0),
    at the descriptors `indices` (all of them by default).

    The divisor is the float span max - min of `spec.blocks[j]`: the one
    the Standardizer the hyperplane was fit on divides by, and the one the
    model rows hold.
    """
    out: list[Fraction] = []
    for j in range(spec.k) if indices is None else indices:
        block = spec.blocks[j]
        if block.rows is None:
            out.append(Fraction(0))
            continue
        out.append((assignment[f"x_{j + 1}"] - Fraction(block.mn)) / Fraction(block.rows.span))
    return out


def predicted_value(spec: InverseProblemSpec, assignment: dict[str, Fraction]) -> float:
    """Prediction at the exactly re-standardized solution.  Only the
    descriptors with a nonzero weight enter the exact sum; the others add
    exactly 0."""
    w = spec.hyperplane.w
    support = np.flatnonzero(w).tolist()
    xh = exact_standardized(spec, assignment, support)
    total = sum((Fraction(float(w[j])) * v for j, v in zip(support, xh)), Fraction(0))
    return float(total) + spec.hyperplane.b


# ---------------------------------------------------------------------------
# CPLEX-LP text format


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def emit_lp(model: MilpModel) -> str:
    """CPLEX LP text; `parse_lp` reads it back to an equal model."""
    out = ["\\ polyinfer model", "Minimize", " obj:", "Subject To"]
    for c in model.constraints:
        terms = []
        for var, coef in c.coeffs:
            sign = "-" if coef < 0 else "+"
            terms.append(f"{sign} {_fmt(abs(coef))} {var}")
        if not terms and model.variables:  # an empty row keeps one term
            terms.append("+ 0 " + model.variables[0].name)
        out.append(f" {c.name}: " + " ".join(terms + [c.sense, _fmt(c.rhs)]))
    out.append("Bounds")
    for v in model.variables:
        out.append(f" {_fmt(v.lower)} <= {v.name} <= {_fmt(v.upper)}")
    generals = [v.name for v in model.variables if v.integer]
    if generals:
        out.append("Generals")
        for name in generals:
            out.append(f" {name}")
    out.append("End")
    return "\n".join(out) + "\n"


def parse_lp(text: str) -> MilpModel:
    """Read back the LP text `emit_lp` writes.

    A term is `[sign] [coefficient] variable`, a missing sign or
    coefficient reading as + or 1.  Variables keep bounds-line order, and
    every constraint and generals name needs a bounds line.  Any other
    line raises MilpError naming it.
    """
    section = None
    constraints: list[Constraint] = []
    bounded: list[Variable] = []
    integers: set[str] = set()
    named: list[tuple[str, str]] = []  # (variable, the line naming it)
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].strip()
        if line == "End":
            break
        try:
            if line in ("Minimize", "Subject To", "Bounds", "Generals"):
                section = line
            elif not line or section == "Minimize":
                continue  # feasibility models carry an empty objective
            elif section == "Subject To":
                name, _, body = line.partition(":")
                *terms, sense, rhs = body.split()
                coeffs, sign, coef = [], None, None
                for tok in terms:
                    if tok in ("+", "-"):
                        sign = tok
                    elif tok[0] in "0123456789.":
                        coef = float(tok)
                    else:
                        value = (-1.0 if sign == "-" else 1.0) * (1.0 if coef is None else coef)
                        if value:  # an empty row is written `+ 0 <variable>`
                            coeffs.append((tok, value))
                        named.append((tok, line))
                        sign = coef = None
                if sign or coef is not None:
                    raise ValueError("a term without a variable")
                constraints.append(Constraint(name, tuple(coeffs), sense, float(rhs)))
            elif section == "Bounds":
                lo, le, name, le2, hi = line.split()
                if le != "<=" or le2 != "<=":
                    raise ValueError("not lo <= name <= hi")
                bounded.append(Variable(name, float(lo), float(hi)))
            elif section == "Generals":
                integers.update(line.split())
                named += [(tok, line) for tok in line.split()]
            else:
                raise ValueError("outside any section")
        except ValueError as exc:  # MilpError included
            raise MilpError(f"cannot read LP line {line!r}: {exc}") from None
    declared = {v.name for v in bounded}
    for var, line in named:
        if var not in declared:
            raise MilpError(f"cannot read LP line {line!r}: {var} has no bounds line")
    variables = tuple(Variable(v.name, v.lower, v.upper, v.name in integers) for v in bounded)
    return MilpModel(variables, tuple(constraints))
