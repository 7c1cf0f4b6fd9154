"""Mixed-integer linear feasibility models and two exact solvers.

A model has one record shape: `Variable` and `Constraint` named tuples,
which `MilpModel` checks once.  The inverse-prediction model encodes
descriptor box bounds, integrality, the two-sided target window on the
prediction, and tolerance-relaxed normalization rows linking raw
descriptors to their standardized counterparts.  `InverseProblemSpec.rows`
builds its records, from one `_Block` per descriptor, and the LP file and
the certificate read those same records.  It is K independent blocks
(x_j, xh_j) coupled only by the two window rows.  `solve_inverse` reduces
each block exactly to an interval of xh_j whose ends are nondecreasing in
x_j, and branches on the Lasso support alone: the LP relaxation on a box
is then a sum of interval ends, with no simplex.  It runs on one integer
scale per solve, every term an int over one common denominator, and
builds `Fraction`s only for the answer.  `solve` is the general solver,
for any model (one `parse_lp` read back from the LP text `emit_lp`
writes, say): branch-and-bound over a phase-1 simplex with Bland's rule,
on a tableau whose pivots touch only the nonzero entries of the pivot
row.  Both are exact, and both accept an assignment only after
re-checking it bound by bound and row by row in integer arithmetic: one
kernel cross-multiplies the integer ratios of the floats a row holds and
of the rational values, with no `Fraction` built.  `solve` checks its
answer on the model it solved (`verify_assignment`), `solve_inverse` on
the inverse model's records without building the `MilpModel`
(`verify_inverse`).  `MilpSolution` reports the nodes and pivots spent,
and the subproblems a budget left unexplored.
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


class Variable(NamedTuple):
    name: str
    lower: float
    upper: float
    integer: bool = False


class Constraint(NamedTuple):
    name: str
    coeffs: tuple[tuple[str, float], ...]  # (variable, coefficient)
    sense: str  # "<=", ">=", "="
    rhs: float


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
            if c.sense not in ("<=", ">=", "="):
                raise MilpError(f"constraint {c.name}: bad sense {c.sense!r}")
            for var, _ in c.coeffs:
                if var not in known:
                    raise MilpError(f"constraint {c.name} references unknown variable {var}")
        for v in self.variables:
            if v.lower > v.upper:
                raise MilpError(f"variable {v.name}: lower {v.lower} > upper {v.upper}")
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
    return _violations(model.variables, model.constraints, assignment)


def _meets(num: int, den: int, sense: str, rhs: float) -> bool:
    """Whether num/den (den > 0) stands in `sense` to the float `rhs`,
    decided exactly by cross-multiplying integer ratios.  A non-finite
    `rhs` raises, as `Fraction(rhs)` would."""
    rn, rd = rhs.as_integer_ratio()
    left, right = num * rd, rn * den
    return left <= right if sense == "<=" else left >= right if sense == ">=" else left == right


def _violations(variables, constraints, assignment: dict[str, Fraction | int]) -> list[str]:
    """The exact check behind both certificates, over `Variable` and
    `Constraint` records.

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
    def rows(self) -> tuple[tuple[Variable, ...], tuple[Constraint, ...]]:
        """The inverse model's records, worked out on first use and kept:
        (variables, constraints), the `Variable`s and `Constraint`s that
        `build_inverse_milp` hands to `MilpModel` as they are and that
        `verify_inverse` checks an answer on, so the LP file and the
        certificate read one model.  Each descriptor adds x_j and xh_j
        and, unless constant, its two normalization rows; the window rows
        come last."""
        variables, constraints = [], []
        for j, b in enumerate(self.blocks):
            x, xh = f"x_{j + 1}", f"xh_{j + 1}"
            variables.append(Variable(x, b.mn, b.mx, j in self.integer_indices))
            variables.append(Variable(xh, b.h_lo, b.h_hi))
            if b.span:
                constraints += [
                    Constraint(f"norm_lo_{j + 1}", ((x, b.lo_coef), (xh, -b.span)), "<=", b.lo_rhs),
                    Constraint(f"norm_hi_{j + 1}", ((xh, b.span), (x, -b.hi_coef)), "<=", b.hi_rhs),
                ]
        w = self.hyperplane.w
        terms = tuple((f"xh_{j + 1}", float(w[j])) for j in range(self.k) if w[j] != 0.0)
        lo, hi = _window_rhs(self)
        constraints.append(Constraint("window_lo", terms, ">=", lo))
        constraints.append(Constraint("window_hi", terms, "<=", hi))
        return tuple(variables), tuple(constraints)

    @cached_property
    def blocks(self) -> tuple["_Block", ...]:
        """Each descriptor's block, worked out on first use and kept:
        `rows` writes them, `solve_inverse` reduces them and
        `predicted_value` divides by their spans, so none can disagree."""
        eps, blocks = self.epsilon, []
        for mn, mx in zip(map(float, self.feat_min), map(float, self.feat_max)):
            if mx <= mn:
                blocks.append(_Block(mn, mx))
                continue
            span = mx - mn
            corners = [factor * (bound - mn) / span for factor in (1 - eps, 1 + eps) for bound in (mn, mx)]
            blocks.append(_Block(
                mn, mx, min(corners), max(corners), span,
                1 - eps, _rhs_at_least(1 - eps, mn), 1 + eps, _rhs_at_least(-(1 + eps), mn),
            ))
        return tuple(blocks)


def _safe_side(value: float, num: int, den: int, side: int) -> float:
    """`value`, a float within one step of the exact ratio num/den
    (den > 0), moved one step towards side*inf if it lies on the other
    side of num/den: the result is not below num/den for side 1 and not
    above it for side -1, so a row whose right-hand side it is stays true
    at the exact ratio.  The sides are compared as integer ratios."""
    vn, vd = value.as_integer_ratio()
    if side * (vn * den - num * vd) < 0:
        return math.nextafter(value, side * math.inf)
    return value


def _rhs_at_least(coef: float, value: float) -> float:
    """The float product coef*value, moved up when it lies below the
    exact product, so the point that makes a row tight in exact
    arithmetic stays feasible."""
    (cn, cd), (vn, vd) = coef.as_integer_ratio(), value.as_integer_ratio()
    return _safe_side(coef * value, cn * vn, cd * vd, 1)


class _Block(NamedTuple):
    """Descriptor j's variables and rows, in the floats the model holds:
    x_j in [mn, mx], xh_j in [h_lo, h_hi], and the normalization rows
    lo_coef*x - span*xh <= lo_rhs and span*xh - hi_coef*x <= hi_rhs.  A
    constant descriptor has span 0.0 and no rows, and its xh_j is pinned
    at 0."""

    mn: float
    mx: float
    h_lo: float = 0.0
    h_hi: float = 0.0
    span: float = 0.0
    lo_coef: float = 0.0
    lo_rhs: float = 0.0
    hi_coef: float = 0.0
    hi_rhs: float = 0.0


def _window_rhs(spec: InverseProblemSpec) -> tuple[float, float]:
    """Right-hand sides of the window rows on sum(w*xh): y_lo - b and
    y_hi - b rounded inward, so a window sum between them puts sum + b
    inside [y_lo, y_hi] in exact arithmetic.  Each difference is an
    integer ratio; its int true division is correctly rounded."""
    bn, bd = float(spec.hyperplane.b).as_integer_ratio()
    out = []
    for y, inward in ((spec.y_lo, 1), (spec.y_hi, -1)):
        yn, yd = float(y).as_integer_ratio()
        num, den = yn * bd - bn * yd, yd * bd  # y - b
        out.append(_safe_side(num / den, num, den, inward))
    return out[0], out[1]


def build_inverse_milp(spec: InverseProblemSpec) -> MilpModel:
    """Raw integer/real descriptor variables, standardized companions,
    tolerance-relaxed normalization rows and the target window rows: the
    `MilpModel` of the records `spec.rows` holds."""
    return MilpModel(*spec.rows)


def verify_inverse(spec: InverseProblemSpec, assignment: dict[str, Fraction | int]) -> list[str]:
    """`verify_assignment(build_inverse_milp(spec), assignment)`: the same
    exact check on the same records, `spec.rows`, without building the
    model, so the same names come out in the same order."""
    return _violations(*spec.rows, assignment)


# ---------------------------------------------------------------------------
# The inverse model in reduced form


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms; den > 0."""
    g = math.gcd(num, den)
    return num // g, den // g


def _weighted(w: tuple[int, int], v: float, span: tuple[int, int] = (1, 1)) -> tuple[int, int]:
    """w*v/span as a reduced integer ratio, for w and span given as ratios
    (span > 0)."""
    (wn, wd), (n, d), (sn, sd) = w, v.as_integer_ratio(), span
    return _reduced(wn * n * sd, wd * d * sn)


def _line_at(slope: tuple[int, int], offset: tuple[int, int], x) -> tuple[int, int]:
    """slope*x + offset as a reduced integer ratio, for an int or
    `Fraction` x."""
    (an, ad), (bn, bd), xn, xd = slope, offset, x.numerator, x.denominator
    return _reduced(an * xn * bd + bn * ad * xd, ad * bd * xd)


def _on_scale(slope: int, offset: int, x) -> int:
    """slope*x + offset for an int or `Fraction` x, which must land on
    the common scale (be an int)."""
    q = x.denominator
    if q == 1:
        return slope * x + offset
    n, rem = divmod(slope * x.numerator + offset * q, q)
    if rem:
        raise MilpError(f"the term at x = {x} falls off the common scale")
    return n


class _ScaledBlock(NamedTuple):
    """A non-constant support descriptor's term w*xh on the common scale.

    Its rows and xh box give xh in [low(x), high(x)], with
    low(x) = max(h_lo, a1*x + b1) and high(x) = min(h_hi, a2*x + b2); both
    ends are nondecreasing in x (a1, a2 > 0 for 0 < eps < 1).  The term
    then ranges over [least(x), most(x)], w*low and w*high for w > 0 and
    the other way round for w < 0.  In units of 1/D, the solve's common
    scale, least(x) = max(l0, la*x + lb) and most(x) = min(u0, ua*x + ub),
    all six ints.  The box [lo, hi] is the data range cut to where
    low(x) <= high(x): ints rounded inward when x is integer, `Fraction`s
    otherwise.  For x >= min, the outward rounding of the right-hand sides
    already gives h_lo = 0 <= a2*x + b2 and a1*x + b1 <= a2*x + b2, so only
    a1*x + b1 <= h_hi can cut the range.
    """

    integer: bool
    lo: int | Fraction
    hi: int | Fraction
    l0: int
    la: int
    lb: int
    u0: int
    ua: int
    ub: int


def _term_ratios(block: _Block, w: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """(w*h_lo, w*a1, w*b1, w*h_hi, w*a2, w*b2) of a non-constant block
    (`_ScaledBlock`) as reduced integer ratios; a1 = lo_coef/span,
    b1 = -lo_rhs/span, a2 = hi_coef/span, b2 = hi_rhs/span."""
    span = block.span.as_integer_ratio()
    return (
        _weighted(w, block.h_lo), _weighted(w, block.lo_coef, span), _weighted(w, -block.lo_rhs, span),
        _weighted(w, block.h_hi), _weighted(w, block.hi_coef, span), _weighted(w, block.hi_rhs, span),
    )


def _box(block: _Block, integer: bool) -> tuple:
    """The box of x (`_ScaledBlock`): [min, max] cut where a1*x + b1
    reaches h_hi, at (h_hi - b1)/a1 = (h_hi*span + lo_rhs)/lo_coef."""
    (hn, hd), (sn, sd) = block.h_hi.as_integer_ratio(), block.span.as_integer_ratio()
    (rn, rd), (cn, cd) = block.lo_rhs.as_integer_ratio(), block.lo_coef.as_integer_ratio()
    num, den = (hn * sn * rd + rn * hd * sd) * cd, hd * sd * rd * cn  # cn > 0
    if integer:  # min and max are integral floats
        return int(block.mn), min(int(block.mx), num // den)
    return Fraction(block.mn), min(Fraction(block.mx), Fraction(num, den))


class _Reduction:
    """The inverse model reduced exactly to its support, on one integer scale.

    Blocks off the support (zero weight or constant descriptor) sit at
    x = min, xh = 0, which meets their rows exactly.  On the support,
    block i adds w_i*xh_i to the window sum.  At fixed x that term ranges
    over [lower(i, x), upper(i, x)]; over a box [a, b] of x it ranges over
    [lower(i, start), upper(i, finish)], where the start is the box end at
    which the term is least (a for w > 0, b for w < 0) and the finish the
    other.  Summing those ends gives the LP relaxation of the full model
    on the box.  Both ends are memoized per x value.

    Every term value the search compares, and the window's right-hand
    sides `w_lo` and `w_hi`, is an int N standing for N/D: D (`scale`) is
    the lcm of the denominators of the blocks' term coefficients, of the
    window's right-hand sides and of the terms at a continuous block's box
    ends.  A term at an integer x is then on the scale, and a continuous
    block's x is only ever at its box ends or where the search stops.
    """

    def __init__(self, spec: InverseProblemSpec):
        w = spec.hyperplane.w
        self.mins = [float(v) for v in spec.feat_min]
        self.support = [j for j, block in enumerate(spec.blocks) if w[j] != 0.0 and block.span]
        self.weights = [float(w[j]).as_integer_ratio() for j in self.support]
        self.rising = [wn > 0 for wn, _ in self.weights]
        window = [v.as_integer_ratio() for v in _window_rhs(spec)]
        dens = [d for _, d in window]
        parts = []
        for j, wj, up in zip(self.support, self.weights, self.rising):
            block, integer = spec.blocks[j], j in spec.integer_indices
            ratios = _term_ratios(block, wj)
            if not up:  # least = w*high, most = w*low
                ratios = ratios[3:] + ratios[:3]
            lo, hi = _box(block, integer)
            dens += [d for _, d in ratios]
            if not integer:
                dens += [_line_at(*line, x)[1] for x in (lo, hi) for line in (ratios[1:3], ratios[4:])]
            parts.append((integer, lo, hi, ratios))
        self.scale = scale = math.lcm(*dens)
        self.blocks = [
            _ScaledBlock(integer, lo, hi, *(n * (scale // d) for n, d in ratios))
            for integer, lo, hi, ratios in parts
        ]
        self.w_lo, self.w_hi = (n * (scale // d) for n, d in window)
        self._lower: list[dict] = [{} for _ in self.support]
        self._upper: list[dict] = [{} for _ in self.support]

    def lower(self, i: int, x) -> int:
        memo = self._lower[i]
        if x not in memo:
            b = self.blocks[i]
            memo[x] = max(b.l0, _on_scale(b.la, b.lb, x))
        return memo[x]

    def upper(self, i: int, x) -> int:
        memo = self._upper[i]
        if x not in memo:
            b = self.blocks[i]
            memo[x] = min(b.u0, _on_scale(b.ua, b.ub, x))
        return memo[x]

    def box(self, i: int, a, b) -> tuple:
        """(a, b, least term, greatest term) of block i over [a, b]."""
        if self.rising[i]:
            return a, b, self.lower(i, a), self.upper(i, b)
        return a, b, self.lower(i, b), self.upper(i, a)

    def reach(self, i: int, a, b, target: int) -> tuple[int, int]:
        """The x in [a, b] nearest the start at which block i's term can
        reach `target`, given that it can at the finish, as an integer
        ratio (p, q) with q > 0: the start itself, or where the rising
        side of upper(i, x) meets `target`."""
        blk = self.blocks[i]
        p, q = target - blk.ub, blk.ua  # ua*x + ub = target; ua != 0
        if q < 0:
            p, q = -p, -q
        up = self.rising[i]
        start = a if up else b
        sn, sd = start.numerator, start.denominator
        if (p * sd <= sn * q) if up else (p * sd >= sn * q):
            return sn, sd
        return p, q

    def lift(self, x: list) -> dict[str, Fraction | int]:
        """Every variable: the support at `x`, each term raised from its
        least in support order until the sum meets the window's lower end.
        The terms are summed as ints on the scale D*q, q the lcm of the
        denominators in `x` (1 unless a continuous block's x is
        fractional); `Fraction`s are built only for the answer, x and xh on
        the support.  A block off the support is written in ints where it
        can be: x at its minimum (a `Fraction` only for a non-integral
        one), xh = 0."""
        assignment: dict[str, Fraction | int] = {}
        for j, mn in enumerate(self.mins):
            assignment[f"x_{j + 1}"] = int(mn) if mn.is_integer() else Fraction(mn)
            assignment[f"xh_{j + 1}"] = 0
        q = math.lcm(*(v.denominator for v in x))
        lows, highs = [], []
        for b, v in zip(self.blocks, x):
            p = v.numerator * (q // v.denominator)
            lows.append(max(b.l0 * q, b.la * p + b.lb * q))
            highs.append(min(b.u0 * q, b.ua * p + b.ub * q))
        deficit = self.w_lo * q - sum(lows)
        scale = self.scale * q
        for i, j in enumerate(self.support):
            term = lows[i]
            if deficit > 0:
                term = min(lows[i] + deficit, highs[i])
                deficit -= term - lows[i]
            wn, wd = self.weights[i]
            assignment[f"x_{j + 1}"] = Fraction(x[i])
            assignment[f"xh_{j + 1}"] = Fraction(term * wd, scale * wn)  # term / (D*q) / w
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
    continuous descriptors never branch.  Sums and tests are int
    arithmetic on the reduction's common scale.  An answer is accepted
    only through `verify_inverse`, on every bound and row of the full
    model; the `MilpModel` itself is never built here.  `nodes` counts the
    interval relaxations evaluated; no simplex runs, so `pivots` reads 0.
    """
    red = _Reduction(spec)
    w_lo, w_hi = red.w_lo, red.w_hi
    root = [red.box(i, b.lo, b.hi) for i, b in enumerate(red.blocks)]
    stack = [(root, sum(e[2] for e in root), sum(e[3] for e in root))]
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
            p, q = red.reach(i, a, b, w_lo - total + lo_i)
            if p % q == 0:
                x[i] = p // q
            elif not red.blocks[i].integer:
                x[i] = Fraction(p, q)
            else:
                ahead = -(-p // q) if red.rising[i] else p // q
                if total - lo_i + red.lower(i, ahead) > w_hi:
                    floor_v = p // q
                    for part in ((a, floor_v), (floor_v + 1, b)):  # the ceiling side first
                        child = list(boxes)
                        child[i] = red.box(i, *part)
                        stack.append((child, least - lo_i + child[i][2], most - hi_i + child[i][3]))
                    continue
                x[i] = ahead
        assignment = red.lift(x)
        violated = verify_inverse(spec, assignment)
        if violated:
            raise MilpError(f"solver produced invalid point: {violated}")
        return MilpSolution(status="feasible", assignment=assignment, nodes=nodes)
    return MilpSolution(status="infeasible", nodes=nodes)


def predicted_value(spec: InverseProblemSpec, assignment: dict[str, Fraction | int]) -> float:
    """Prediction at the exactly re-standardized solution: b plus the sum
    of w_j*(x_j - min_j)/span_j over the descriptors with a nonzero weight
    that are not constant (the others add exactly 0), summed as one
    unreduced integer ratio.  Its int true division is correctly rounded,
    as `float` of the reduced `Fraction` is, so the two agree.  The span
    is the float max - min of `spec.blocks[j]`: the one the Standardizer
    the hyperplane was fit on divides by, and the one the model rows
    hold."""
    w = spec.hyperplane.w
    num, den = 0, 1
    for j in np.flatnonzero(w).tolist():
        block = spec.blocks[j]
        if not block.span:
            continue
        x = assignment[f"x_{j + 1}"]
        (wn, wd), (mn, md), (sn, sd) = (
            float(w[j]).as_integer_ratio(), block.mn.as_integer_ratio(), block.span.as_integer_ratio()
        )
        xn, xd = x.numerator, x.denominator
        d = wd * xd * md * sn
        num, den = num * d + wn * (xn * md - mn * xd) * sd * den, den * d
    return num / den + spec.hyperplane.b


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
                if sense not in ("<=", ">=", "="):
                    raise ValueError(f"bad sense {sense!r}")
                constraints.append(Constraint(name, tuple(coeffs), sense, float(rhs)))
            elif section == "Bounds":
                lo, le, name, le2, hi = line.split()
                lower, upper = float(lo), float(hi)
                if le != "<=" or le2 != "<=":
                    raise ValueError("not lo <= name <= hi")
                if lower > upper:
                    raise ValueError(f"lower {lower} > upper {upper}")
                bounded.append(Variable(name, lower, upper))
            elif section == "Generals":
                integers.update(line.split())
                named += [(tok, line) for tok in line.split()]
            else:
                raise ValueError("outside any section")
        except ValueError as exc:
            raise MilpError(f"cannot read LP line {line!r}: {exc}") from None
    declared = {v.name for v in bounded}
    for var, line in named:
        if var not in declared:
            raise MilpError(f"cannot read LP line {line!r}: {var} has no bounds line")
    variables = tuple(Variable(v.name, v.lower, v.upper, v.name in integers) for v in bounded)
    return MilpModel(variables, tuple(constraints))
