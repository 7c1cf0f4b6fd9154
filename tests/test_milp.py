from __future__ import annotations

import contextlib
import dataclasses
import itertools
import random
import re
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inverse_models import beyond_reach, synthetic_trained_spec
from polyinfer import milp
from polyinfer.milp import (
    Constraint,
    InverseProblemSpec,
    MilpError,
    MilpModel,
    Variable,
    _lp_feasible,
    _Reduction,
    _window_rhs,
    build_inverse_milp,
    emit_lp,
    parse_lp,
    predicted_value,
    solve,
    solve_inverse,
    verify_assignment,
    verify_inverse,
)
from polyinfer.regress import Hyperplane
from reference_checks import (
    reference_predicted_value,
    reference_solve_inverse,
    reference_verify_assignment,
    reference_window_rhs,
)
from test_acceptance import trained_inverse_base


def exhaustive_feasible(model: MilpModel) -> dict[str, int] | None:
    """Oracle for all-integer models: scan the full integer box."""
    ranges = []
    for v in model.variables:
        assert v.integer
        ranges.append(range(int(v.lower), int(v.upper) + 1))
    for point in itertools.product(*ranges):
        assignment = {v.name: Fraction(x) for v, x in zip(model.variables, point)}
        if not verify_assignment(model, assignment):
            return {k: int(val) for k, val in assignment.items()}
    return None


def random_integer_model(rng: random.Random, nvars: int = 3) -> MilpModel:
    variables = []
    for j in range(nvars):
        lo = rng.randint(-10, 5)
        hi = lo + rng.randint(0, 20)
        variables.append(Variable(f"v{j}", lo, hi, integer=True))
    constraints = []
    for i in range(rng.randint(1, 4)):
        coeffs = tuple(
            (f"v{j}", rng.choice([-3, -2, -1, 1, 2, 3]))
            for j in range(nvars)
            if rng.random() < 0.8
        )
        if not coeffs:
            coeffs = ((f"v0", 1),)
        sense = rng.choice(["<=", ">=", "="])
        rhs = rng.randint(-15, 15)
        constraints.append(Constraint(f"c{i}", coeffs, sense, rhs))
    return MilpModel(tuple(variables), tuple(constraints))


# -- solver -------------------------------------------------------------------


def test_solve_window_example():
    # 2x in [3,5] for integer x in [0,10] forces x = 2
    m = MilpModel(
        (Variable("x", 0, 10, integer=True),),
        (
            Constraint("lo", (("x", 2.0),), ">=", 3.0),
            Constraint("hi", (("x", 2.0),), "<=", 5.0),
        ),
    )
    sol = solve(m)
    assert sol.status == "feasible"
    assert sol.assignment["x"] == 2


def test_solve_infeasible_window():
    m = MilpModel(
        (Variable("x", 0, 10, integer=True),),
        (
            Constraint("lo", (("x", 2.0),), ">=", 100.0),
            Constraint("hi", (("x", 2.0),), "<=", 101.0),
        ),
    )
    assert solve(m).status == "infeasible"


def test_solver_matches_exhaustive_enumeration():
    rng = random.Random(42)
    for _ in range(100):
        m = random_integer_model(rng)
        got = solve(m, max_seconds=30.0)
        want = exhaustive_feasible(m)
        assert got.status == ("feasible" if want is not None else "infeasible")
        if got.status == "feasible":
            assert not verify_assignment(m, got.assignment)


def even_sum_model() -> MilpModel:
    # LP-feasible (v0 + v1 = 15.5) but integer-infeasible: the left side is even
    return MilpModel(
        tuple(Variable(f"v{j}", 0, 20, integer=True) for j in range(2)),
        (Constraint("c", (("v0", 2.0), ("v1", 2.0)), "=", 31.0),),
    )


def test_solver_node_limit():
    sol = solve(even_sum_model(), max_nodes=1)
    assert sol.status == "bound-limit"
    assert sol.nodes == 1
    assert sol.open_nodes == 2  # both children of the root
    assert sol.pivots > 0
    full = solve(even_sum_model())
    assert (full.status, full.nodes, full.open_nodes) == ("infeasible", 65, 0)


def test_solver_reports_work_when_feasible():
    sol = solve(build_inverse_milp(random_trained_spec(2)), max_seconds=20.0)
    assert sol.status == "feasible"
    assert sol.nodes > 1  # this window needs branching
    assert sol.pivots > 0
    assert sol.open_nodes == 0


def test_empty_child_box_is_not_left_open():
    # the root LP puts x at 1/2; both children of x in [1/2, 7/10] are empty,
    # so the search is complete after one node even with max_nodes=1
    m = MilpModel((Variable("x", 0.5, 0.7, integer=True),), ())
    sol = solve(m, max_nodes=1)
    assert (sol.status, sol.nodes, sol.open_nodes) == ("infeasible", 1, 0)


def test_continuous_variables_supported():
    m = MilpModel(
        (Variable("x", 0, 4, integer=True), Variable("y", 0.0, 1.0)),
        (
            Constraint("c1", (("x", 1.0), ("y", 2.0)), ">=", 4.5),
            Constraint("c2", (("y", 1.0),), "<=", 0.5),
        ),
    )
    sol = solve(m)
    assert sol.status == "feasible"
    x, y = sol.assignment["x"], sol.assignment["y"]
    assert x + 2 * y >= Fraction(45, 10) and y <= Fraction(1, 2)


def test_integer_variable_needs_finite_bounds():
    with pytest.raises(MilpError, match="finite"):
        MilpModel((Variable("x", 0, float("inf"), integer=True),), ())


@pytest.mark.parametrize("variable,sense,message", [
    (Variable("x", 1.0, 0.0), "<=", "variable x: lower 1.0 > upper 0.0"),
    (Variable("x", 0.0, 1.0), "<", "constraint c: bad sense '<'"),
])
def test_model_refuses_inverted_bounds_and_an_unknown_sense(variable, sense, message):
    with pytest.raises(MilpError, match=re.escape(message)):
        MilpModel((variable,), (Constraint("c", (("x", 1.0),), sense, 1.0),))


def test_solve_rejects_unbounded_continuous():
    m = MilpModel((Variable("y", 0.0, float("inf")),), ())
    with pytest.raises(MilpError, match="finite bounds"):
        solve(m)


# -- inverse problem ----------------------------------------------------------


def one_dim_spec(y_lo=0.4, y_hi=0.6, eps=1e-5) -> InverseProblemSpec:
    return InverseProblemSpec(
        hyperplane=Hyperplane(w=np.array([1.0]), b=0.0),
        y_lo=y_lo,
        y_hi=y_hi,
        feat_min=np.array([0.0]),
        feat_max=np.array([10.0]),
        integer_indices=frozenset({0}),
        epsilon=eps,
    )


def test_build_inverse_model_shape():
    m = build_inverse_milp(one_dim_spec())
    assert len(m.variables) == 2
    assert sum(v.integer for v in m.variables) == 1
    assert len(m.constraints) == 4  # two normalization rows + window rows


def test_build_inverse_model_linear_size():
    # raw + standardized variable per descriptor, two rows per descriptor
    # plus the window: O(K) overall
    for k in (1, 4, 16):
        rng = np.random.default_rng(k)
        spec = InverseProblemSpec(
            hyperplane=Hyperplane(w=rng.normal(size=k), b=0.1),
            y_lo=0.0,
            y_hi=1.0,
            feat_min=np.zeros(k),
            feat_max=np.full(k, 9.0),
            integer_indices=frozenset(range(k)),
        )
        m = build_inverse_milp(spec)
        assert len(m.variables) == 2 * k
        assert len(m.constraints) == 2 * k + 2


def test_normalization_pins_extremes():
    spec = one_dim_spec(y_lo=-1.0, y_hi=2.0)
    m = build_inverse_milp(spec)
    eps = spec.epsilon
    # x at the descriptor minimum forces xhat to 0
    fixed = MilpModel(
        m.variables,
        m.constraints + (Constraint("pin", (("x_1", 1.0),), "=", 0.0),),
    )
    sol = solve(fixed)
    assert sol.status == "feasible"
    assert sol.assignment["xh_1"] == 0
    # x at the maximum forces xhat into [1-eps, 1+eps]
    fixed = MilpModel(
        m.variables,
        m.constraints + (Constraint("pin", (("x_1", 1.0),), "=", 10.0),),
    )
    sol = solve(fixed)
    xh = sol.assignment["xh_1"]
    assert Fraction(1) - Fraction(str(eps)) <= xh <= Fraction(1) + Fraction(str(eps))


def test_degenerate_spec_rejected():
    with pytest.raises(MilpError, match="window"):
        one_dim_spec(y_lo=0.7, y_hi=0.7)
    with pytest.raises(MilpError, match="epsilon"):
        one_dim_spec(eps=0.0)


def random_trained_spec(seed: int) -> InverseProblemSpec:
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    w = np.round(rng.normal(size=k), 3)
    b = float(np.round(rng.normal(), 3))
    feat_min = np.zeros(k)
    feat_max = rng.integers(2, 12, size=k).astype(float)
    center = float(b + w @ rng.uniform(0.2, 0.8, size=k))
    width = float(rng.uniform(0.05, 0.3))
    return InverseProblemSpec(
        hyperplane=Hyperplane(w=w, b=b),
        y_lo=center - width,
        y_hi=center + width,
        feat_min=feat_min,
        feat_max=feat_max,
        integer_indices=frozenset(range(k)),
    )


def test_inverse_roundtrip_within_slack():
    feasible = 0
    for seed in range(40):
        spec = random_trained_spec(seed)
        sol = solve(build_inverse_milp(spec), max_seconds=20.0)
        if sol.status != "feasible":
            continue
        feasible += 1
        delta = spec.epsilon * float(np.sum(np.abs(spec.hyperplane.w)))
        y = predicted_value(spec, sol.assignment)
        assert spec.y_lo - delta <= y <= spec.y_hi + delta
    assert feasible >= 10  # the generator produces plenty of feasible windows


@pytest.mark.parametrize("mn", [7, 8, 11, 14])
def test_window_at_data_minimum_is_feasible(mn):
    # only x = feat_min reaches the window; rounding the normalization
    # right-hand sides must not cut that corner off
    spec = InverseProblemSpec(
        hyperplane=Hyperplane(w=np.array([1.0]), b=0.0),
        y_lo=-0.01,
        y_hi=0.01,
        feat_min=np.array([float(mn)]),
        feat_max=np.array([mn + 3.0]),
        integer_indices=frozenset({0}),
    )
    m = build_inverse_milp(spec)
    corner = {"x_1": Fraction(mn), "xh_1": Fraction(0)}
    assert verify_assignment(m, corner) == []
    sol = solve(m)
    assert sol.status == "feasible"
    assert sol.assignment["x_1"] == mn
    assert parse_lp(emit_lp(m)) == m


def test_inverse_infeasible_window():
    spec = one_dim_spec(y_lo=5.0, y_hi=6.0)  # xhat cannot exceed ~1
    assert solve(build_inverse_milp(spec)).status == "infeasible"


def test_exact_standardized_constant_descriptor():
    spec = InverseProblemSpec(
        hyperplane=Hyperplane(w=np.array([0.5, 1.0]), b=0.0),
        y_lo=0.0,
        y_hi=1.0,
        feat_min=np.array([3.0, 0.0]),
        feat_max=np.array([3.0, 4.0]),
        integer_indices=frozenset({0, 1}),
    )
    m = build_inverse_milp(spec)
    # constant descriptor contributes no normalization rows and a pinned xhat
    assert not any("1" == c.name.rsplit("_", 1)[-1] and c.name.startswith("norm") for c in m.constraints)
    sol = solve(m)
    assert sol.status == "feasible"
    assert sol.assignment["xh_1"] == 0
    # descriptor 1 adds 0.5 * 0 whatever its raw value: the prediction is
    # descriptor 2's term alone
    for x_1 in (sol.assignment["x_1"], Fraction(7), Fraction(-5, 3)):
        assignment = {**sol.assignment, "x_1": x_1}
        assert predicted_value(spec, assignment) == reference_predicted_value(spec, assignment)
        assert predicted_value(spec, assignment) == float(sol.assignment["x_2"] / 4)


# -- the inverse model in reduced form ------------------------------------------


def assert_inverse_answer(spec: InverseProblemSpec, sol) -> None:
    """Verified on the full model, predicted within eps*sum|w| of the window."""
    assert sol.status == "feasible"
    assert verify_assignment(build_inverse_milp(spec), sol.assignment) == []
    delta = spec.epsilon * float(np.sum(np.abs(spec.hyperplane.w)))
    y = predicted_value(spec, sol.assignment)
    assert spec.y_lo - delta <= y <= spec.y_hi + delta


def assert_same_decision(spec: InverseProblemSpec) -> str:
    """`solve_inverse` decides as `solve` on the full model does."""
    want = solve(build_inverse_milp(spec), max_seconds=20.0)
    got = solve_inverse(spec, max_seconds=20.0)
    assert want.status != "bound-limit"
    assert got.status == want.status
    assert got.pivots == 0 and got.open_nodes == 0
    if got.status == "feasible":
        assert_inverse_answer(spec, got)
    return got.status


def criterion_5_specs():
    """The 100 specs of acceptance criterion 5, drawn as it draws them."""
    h, X = trained_inverse_base()
    k = X.shape[1]
    eps = 1e-5
    rng = np.random.default_rng(99)
    for case in range(100):
        if case < 70:
            center = float(h.b + h.w @ rng.uniform(0.1, 0.9, size=k))
            window = (center - 0.04, center + 0.04)
        else:
            top = float(h.b + np.sum(np.abs(h.w)) * (1 + eps)) + 1.0
            window = (top + case, top + case + 1)
        yield InverseProblemSpec(
            hyperplane=h,
            y_lo=window[0],
            y_hi=window[1],
            feat_min=X.min(axis=0),
            feat_max=X.max(axis=0),
            integer_indices=frozenset(range(k)),
            epsilon=eps,
        )


def test_solve_inverse_decides_as_solve_on_criterion_5_specs():
    decisions = [assert_same_decision(spec) for spec in criterion_5_specs()]
    assert decisions.count("feasible") >= 40 and decisions.count("infeasible") >= 30


def test_solve_inverse_decides_as_solve_on_random_trained_specs():
    decisions = []
    for seed in range(200):
        spec = random_trained_spec(seed)
        decisions += [assert_same_decision(spec), assert_same_decision(beyond_reach(spec))]
    assert decisions.count("feasible") >= 150 and decisions.count("infeasible") >= 200


def relaxation_is_nonempty(red: _Reduction, boxes: list[tuple]) -> bool:
    """Whether the interval of window sums over the support boxes meets the window."""
    ends = [red.box(i, a, b) for i, (a, b) in enumerate(boxes)]
    least = sum((e[2] for e in ends), Fraction(0))
    most = sum((e[3] for e in ends), Fraction(0))
    return least <= red.w_hi and most >= red.w_lo


def full_lp_is_feasible(model: MilpModel, boxes: dict[str, tuple]) -> bool:
    """Phase-1 simplex on the full model with the given variable boxes."""
    index = {v.name: j for j, v in enumerate(model.variables)}
    bounds = [boxes.get(v.name, (Fraction(v.lower), Fraction(v.upper))) for v in model.variables]
    rows = [
        ({index[var]: Fraction(coef) for var, coef in c.coeffs}, c.sense, Fraction(c.rhs))
        for c in model.constraints
    ]
    point, _ = _lp_feasible(bounds, rows)
    return point is not None


@st.composite
def drawn_inverse_specs(draw):
    """Weights negative, zero or tiny; integer, constant and continuous
    descriptors; windows from wide to narrow around a point in the box."""
    k = draw(st.integers(1, 4))
    weight = st.one_of(
        st.just(0.0),
        st.floats(-2.0, 2.0, allow_nan=False),
        st.sampled_from([1e-9, -1e-9, 3e-7, -2e-6]),
    )
    w = np.array([draw(weight) for _ in range(k)])
    feat_min, feat_max, integer = [], [], set()
    for j in range(k):
        kind = draw(st.sampled_from(["integer", "integer", "constant", "continuous"]))
        if kind == "continuous":
            lo = draw(st.floats(-5.0, 5.0, allow_nan=False))
            hi = lo + draw(st.floats(0.01, 5.0, allow_nan=False))
        else:
            lo = float(draw(st.integers(-3, 5)))
            hi = lo if kind == "constant" else lo + draw(st.integers(1, 6))
            integer.add(j)
        feat_min.append(lo)
        feat_max.append(hi)
    b = draw(st.floats(-1.0, 1.0, allow_nan=False))
    center = b + sum(wj * draw(st.floats(-0.1, 1.1, allow_nan=False)) for wj in w)
    half = draw(st.sampled_from([1e-7, 1e-4, 0.01, 0.1, 0.5]))
    return InverseProblemSpec(
        hyperplane=Hyperplane(w=w, b=b),
        y_lo=center - half,
        y_hi=center + half,
        feat_min=np.array(feat_min),
        feat_max=np.array(feat_max),
        integer_indices=frozenset(integer),
        epsilon=draw(st.sampled_from([1e-5, 1e-3, 0.1, 1e-17])),  # 1 +- 1e-17 rounds to 1
    )


@pytest.mark.parametrize(
    "w, b, y, feat_min, feat_max, integer",
    [
        # fl(1.3 - 0.3) = 1 is below the exact span: the prediction must divide by the float span
        ([0.0, 1.0, -1.0, 0.0], 0.0, 0.0, [0.0, 0.3, 0.0, 0.0], [1.0, 1.3, 1.0, 1.0], {0, 2, 3}),
        # 0.4999999 - 1 is not a float: the window rows must round it inward
        ([0.0, 0.0, -1.0, 0.0], 1.0, 0.5, [0.0] * 4, [1.0] * 4, {0, 1, 3}),
    ],
)
def test_inverse_answer_within_window_at_float_rounding_edges(w, b, y, feat_min, feat_max, integer):
    spec = InverseProblemSpec(
        hyperplane=Hyperplane(w=np.array(w), b=b),
        y_lo=y - 1e-7,
        y_hi=y + 1e-7,
        feat_min=np.array(feat_min),
        feat_max=np.array(feat_max),
        integer_indices=frozenset(integer),
        epsilon=1e-17,
    )
    assert assert_same_decision(spec) == "feasible"


@settings(max_examples=200, deadline=None)
@given(drawn_inverse_specs(), st.data())
def test_solve_inverse_and_interval_relaxation_match_the_full_model(spec, data):
    assert_same_decision(spec)
    red = _Reduction(spec)
    model = build_inverse_milp(spec)
    for _ in range(3):
        boxes = []
        for blk in red.blocks:
            if blk.integer:
                a = data.draw(st.integers(blk.lo, blk.hi))
                boxes.append((a, data.draw(st.integers(a, blk.hi))))
            else:
                boxes.append((blk.lo, blk.hi))
        named = {
            f"x_{j + 1}": (Fraction(a), Fraction(b)) for j, (a, b) in zip(red.support, boxes)
        }
        assert relaxation_is_nonempty(red, boxes) == full_lp_is_feasible(model, named)


def assert_same_search(spec: InverseProblemSpec, max_nodes: int | None = None):
    """`solve_inverse` and the `Fraction` search it replaced agree on the
    window's right-hand sides, the verdict, both node counts and the
    answer (the same keys, equal values and the same int/`Fraction` type
    for every value), and an answer's prediction is the full sum's."""
    budget = {} if max_nodes is None else {"max_nodes": max_nodes}
    got, want = solve_inverse(spec, **budget), reference_solve_inverse(spec, **budget)
    assert _window_rhs(spec) == reference_window_rhs(spec)
    assert (got.status, got.nodes, got.open_nodes) == (want.status, want.nodes, want.open_nodes)
    assert got.assignment == want.assignment
    assert {k: type(v) for k, v in got.assignment.items()} == {k: type(v) for k, v in want.assignment.items()}
    if got.status == "feasible":
        assert predicted_value(spec, got.assignment) == reference_predicted_value(spec, got.assignment)
    return got


def narrowed(spec: InverseProblemSpec, half_width: float) -> InverseProblemSpec:
    """The same model with a window of the given half-width around the
    centre of its own."""
    centre = (spec.y_lo + spec.y_hi) / 2
    return dataclasses.replace(spec, y_lo=centre - half_width, y_hi=centre + half_width)


@settings(max_examples=300, deadline=None)
@given(drawn_inverse_specs(), st.one_of(st.none(), st.integers(0, 6)))
def test_solve_inverse_matches_the_fraction_search_on_drawn_specs(spec, max_nodes):
    assert_same_search(spec, max_nodes)


def test_solve_inverse_matches_the_fraction_search_on_trained_specs():
    for seed in range(60):
        spec = random_trained_spec(seed)
        for max_nodes in (None, 0, 1, 2, 3):
            assert_same_search(spec, max_nodes)
            assert_same_search(beyond_reach(spec), max_nodes)
    for k in (5, 10, 25, 47, 100):
        for seed in range(4):
            spec = synthetic_trained_spec(k, seed)
            assert assert_same_search(spec).status == "feasible"
            assert assert_same_search(beyond_reach(spec)).status == "infeasible"


def test_solve_inverse_matches_the_fraction_search_on_narrow_windows():
    """Windows of +-1e-4 and +-1e-6 make the search branch: tens to
    hundreds of nodes are compared, not one or two."""
    nodes = []
    for seed in range(30):
        for half_width in (1e-4, 1e-6):
            nodes.append(assert_same_search(narrowed(random_trained_spec(seed), half_width)).nodes)
    assert sum(20 <= n <= 300 for n in nodes) >= 10 and max(nodes) > 300


PERTURBATIONS = [Fraction(sign, k) for k in (1, 7, 2**10, 10**9) for sign in (1, -1)]


def made_tight(assignment: dict, row: Constraint, var: str) -> dict:
    """`assignment` with `var` moved so that `row` holds with equality."""
    coef = dict(row.coeffs)[var]
    rest = sum((Fraction(c) * assignment[v] for v, c in row.coeffs if v != var), Fraction(0))
    return {**assignment, var: (Fraction(row.rhs) - rest) / Fraction(coef)}


def some_ints(data, assignment: dict) -> dict:
    """Each integral value drawn as an int or as a `Fraction`."""
    return {
        name: int(v) if v.denominator == 1 and data.draw(st.booleans()) else Fraction(v)
        for name, v in assignment.items()
    }


@settings(max_examples=200, deadline=None)
@given(drawn_inverse_specs(), st.data())
def test_block_certificate_agrees_with_the_full_model(spec, data):
    model = build_inverse_milp(spec)
    sol = solve_inverse(spec)
    if sol.status == "feasible":
        base = sol.assignment
    else:  # every descriptor at its minimum, its standardized value at 0
        base = {f"x_{j + 1}": Fraction(float(mn)) for j, mn in enumerate(spec.feat_min)}
        base |= {f"xh_{j + 1}": Fraction(0) for j in range(spec.k)}
    points = [base]
    rows = [c for c in model.constraints if any(coef for _, coef in c.coeffs)]
    for _ in range(3):
        if rows:
            row = data.draw(st.sampled_from(rows))
            var = data.draw(st.sampled_from([v for v, coef in row.coeffs if coef]))
            points.append(made_tight(data.draw(st.sampled_from(points)), row, var))
        name = data.draw(st.sampled_from(sorted(base)))
        start = data.draw(st.sampled_from(points))
        points.append({**start, name: start[name] + data.draw(st.sampled_from(PERTURBATIONS))})
    for point in points:
        point = some_ints(data, point)
        assert verify_inverse(spec, point) == verify_assignment(model, point)
    if sol.status == "feasible":
        assert verify_inverse(spec, sol.assignment) == []


def test_solve_inverse_refuses_an_answer_off_its_rows(monkeypatch):
    spec = random_trained_spec(30)
    assert solve_inverse(spec).status == "feasible"
    lift = _Reduction.lift

    def pushed(self, x):
        """The lifted answer with the first support block's xh just above
        what its norm_hi row allows."""
        assignment = lift(self, x)
        j = self.support[0]
        r = spec.blocks[j]
        most = (Fraction(r.hi_rhs) + Fraction(r.hi_coef) * assignment[f"x_{j + 1}"]) / Fraction(r.span)
        assignment[f"xh_{j + 1}"] = most + Fraction(1, 10**12)
        return assignment

    monkeypatch.setattr(_Reduction, "lift", pushed)
    with pytest.raises(MilpError, match=r"constraint:norm_hi_\d+"):
        solve_inverse(spec)


@pytest.mark.parametrize("k", [100, 250])
def test_solve_inverse_on_synthetic_models(k):
    spec = synthetic_trained_spec(k, seed=0)
    assert len(spec.hyperplane.support()) == k // 4
    assert_inverse_answer(spec, solve_inverse(spec, max_seconds=2.0))
    far = solve_inverse(beyond_reach(spec), max_seconds=2.0)
    assert (far.status, far.nodes) == ("infeasible", 1)


def test_solve_inverse_branches_to_an_integer_infeasible_verdict():
    # x/10 in [0.42, 0.48] for integer x in [0, 10]: the relaxation meets
    # the window, no integer point does
    spec = one_dim_spec(y_lo=0.42, y_hi=0.48)
    sol = solve_inverse(spec)
    assert (sol.status, sol.open_nodes, sol.pivots) == ("infeasible", 0, 0)
    assert sol.nodes == 3  # the root and its two children
    assert solve(build_inverse_milp(spec)).status == "infeasible"


def test_solve_inverse_budgets():
    spec = random_trained_spec(30)  # the search needs 7 nodes
    assert solve_inverse(spec).nodes == 7
    sol = solve_inverse(spec, max_nodes=1)
    assert (sol.status, sol.nodes, sol.open_nodes) == ("bound-limit", 1, 2)
    sol = solve_inverse(spec, max_nodes=0)
    assert (sol.status, sol.nodes, sol.open_nodes) == ("bound-limit", 0, 1)
    sol = solve_inverse(spec, max_seconds=-1.0)
    assert (sol.status, sol.nodes, sol.open_nodes) == ("bound-limit", 0, 1)


def test_continuous_descriptor_takes_a_fractional_value_without_branching():
    spec = InverseProblemSpec(
        hyperplane=Hyperplane(w=np.array([1.0]), b=0.0),
        y_lo=0.42,
        y_hi=0.43,
        feat_min=np.array([0.0]),
        feat_max=np.array([10.0]),
        integer_indices=frozenset(),
    )
    sol = solve_inverse(spec)
    assert sol.nodes == 1
    assert_inverse_answer(spec, sol)
    assert sol.assignment["x_1"].denominator != 1


def test_box_is_cut_where_the_float_span_falls_short_of_the_range():
    # fl(4.15 - 0.35) + 0.35 < 4.15 exactly, and at eps = 1e-17 both row
    # coefficients are 1: x_1 = 4.15 would need xh_1 above its box
    spec = InverseProblemSpec(
        hyperplane=Hyperplane(w=np.array([1.0, 1.0]), b=0.0),
        y_lo=1.5,
        y_hi=1.6,
        feat_min=np.array([0.35, 0.0]),
        feat_max=np.array([4.15, 4.0]),
        integer_indices=frozenset({1}),
        epsilon=1e-17,
    )
    sol = solve_inverse(spec)
    assert_inverse_answer(spec, sol)
    assert sol.assignment["x_1"] < Fraction(4.15)
    assert solve(build_inverse_milp(spec)).status == "feasible"


def test_off_support_descriptors_sit_at_their_minimum():
    spec = InverseProblemSpec(
        hyperplane=Hyperplane(w=np.array([0.0, 0.7, 1.0, -0.5]), b=0.1),
        y_lo=0.5,
        y_hi=0.6,
        feat_min=np.array([2.0, 3.0, 0.0, 1.0]),
        feat_max=np.array([9.0, 3.0, 4.0, 6.0]),
        integer_indices=frozenset(range(4)),
    )
    sol = solve_inverse(spec)
    assert_inverse_answer(spec, sol)
    assert (sol.assignment["x_1"], sol.assignment["xh_1"]) == (2, 0)  # zero weight
    assert (sol.assignment["x_2"], sol.assignment["xh_2"]) == (3, 0)  # constant descriptor


def test_spec_rejects_epsilon_of_one_or_more_and_fractional_integer_bounds():
    with pytest.raises(MilpError, match="epsilon"):
        one_dim_spec(eps=1.0)
    with pytest.raises(MilpError, match="non-integer bound"):
        InverseProblemSpec(
            hyperplane=Hyperplane(w=np.array([1.0]), b=0.0),
            y_lo=0.0,
            y_hi=1.0,
            feat_min=np.array([0.5]),
            feat_max=np.array([3.0]),
            integer_indices=frozenset({0}),
        )


# -- sparse simplex against the dense reference ---------------------------------


def reference_lp_feasible(
    variables: list[tuple[Fraction, Fraction]],
    rows: list[tuple[dict[int, Fraction], str, Fraction]],
) -> tuple[list[Fraction] | None, int]:
    """The dense phase-1 simplex that `_lp_feasible` replaced, kept as the
    reference: every pivot updates every column of every touched row.
    Only the pivot counter is new."""
    n = len(variables)
    lower = [lb for lb, _ in variables]
    work_rows = []
    for coeffs, sense, rhs in rows:
        shift = sum((c * lower[j] for j, c in coeffs.items()), Fraction(0))
        work_rows.append((dict(coeffs), sense, rhs - shift))
    for j, (lb, ub) in enumerate(variables):
        work_rows.append(({j: Fraction(1)}, "<=", ub - lb))

    m = len(work_rows)
    ncols = n
    slack_cols = []
    art_cols = []
    prepared = []
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
    basis = []
    artificials = set()
    for i in range(m):
        if art_cols[i] is not None:
            basis.append(art_cols[i])
            artificials.add(art_cols[i])
        else:
            basis.append(slack_cols[i])

    z = [zero] * (ncols + 1)
    for i in range(m):
        if basis[i] in artificials:
            for j in range(ncols + 1):
                z[j] += tableau[i][j]
    for j in artificials:
        z[j] -= 1

    pivots = 0
    while True:
        enter = next((j for j in range(ncols) if z[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][ncols] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise MilpError("phase-1 unbounded; inconsistent model")
        piv = tableau[leave][enter]
        tableau[leave] = [c / piv for c in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [c - f * p for c, p in zip(tableau[i], tableau[leave])]
        if z[enter] != 0:
            f = z[enter]
            z = [c - f * p for c, p in zip(z, tableau[leave])]
        basis[leave] = enter
        pivots += 1

    if z[ncols] > 0:
        return None, pivots
    values = [zero] * ncols
    for i in range(m):
        values[basis[i]] = tableau[i][ncols]
    return [values[j] + lower[j] for j in range(n)], pivots


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block after `seconds`, so that a simplex
    that cycles fails the test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"LP did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def checked_lp_feasible(bounds, rows):
    """`_lp_feasible`, after asserting that the reference returns the same
    point (or None) after the same number of pivots."""
    with time_limit(10.0):
        got = _lp_feasible(bounds, rows)
    assert got == reference_lp_feasible(bounds, rows)
    return got


def test_sparse_simplex_matches_reference_on_random_integer_models(monkeypatch):
    # `solve` runs both simplexes at every node it visits, root included
    monkeypatch.setattr(milp, "_lp_feasible", checked_lp_feasible)
    rng = random.Random(42)
    for _ in range(100):
        solve(random_integer_model(rng), max_nodes=4)


def test_sparse_simplex_matches_reference_on_inverse_models(monkeypatch):
    monkeypatch.setattr(milp, "_lp_feasible", checked_lp_feasible)
    branched = 0
    for seed in range(20):
        sol = solve(build_inverse_milp(random_trained_spec(seed)), max_nodes=6)
        branched += sol.nodes > 1
    assert branched >= 5  # branch overrides are exercised, not only the root


@st.composite
def small_row_systems(draw):
    """Bounds and rows with mixed senses and signed right-hand sides; zero
    right-hand sides are drawn often, to make degenerate pivots (ratio
    ties, where Bland's tie-break decides the leaving row) common."""
    nvars = draw(st.integers(1, 5))
    small = st.fractions(min_value=-6, max_value=6, max_denominator=3)
    bounds = []
    for _ in range(nvars):
        lo = draw(small)
        bounds.append((lo, lo + draw(st.fractions(min_value=0, max_value=8, max_denominator=3))))
    rhs = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-12, max_value=12, max_denominator=4))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cols = draw(st.sets(st.integers(0, nvars - 1), min_size=1))
        coeffs = {j: draw(small) for j in sorted(cols)}
        rows.append((coeffs, draw(st.sampled_from(["<=", ">=", "="])), draw(rhs)))
    return bounds, rows


@settings(max_examples=300, deadline=None)
@given(small_row_systems())
@example(  # a ratio tie at the second pivot: without Bland's tie-break the
    # same point is reached in 2 pivots instead of 3
    (
        [(Fraction(1), Fraction(5)), (Fraction(1), Fraction(3)), (Fraction(0), Fraction(2))],
        [({2: Fraction(3)}, ">=", Fraction(0)), ({0: Fraction(3), 2: Fraction(1)}, ">=", Fraction(3))],
    )
)
def test_sparse_simplex_matches_reference_on_drawn_systems(system):
    checked_lp_feasible(*system)


# -- exact checks against the full sums -------------------------------------------


@st.composite
def models_with_sparse_assignments(draw):
    """Integer and continuous variables, rows of every sense, and an
    assignment that is mostly exactly 0, in or out of bounds; a row's
    right-hand side is drawn or taken from its exact left side, so rows
    are met, violated and tight."""
    n = draw(st.integers(1, 8))
    variables, assignment = [], {}
    value = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)),
                      st.fractions(-12, 12, max_denominator=6))
    for j in range(n):
        integer = draw(st.booleans())
        if integer:
            lo = float(draw(st.integers(-5, 5)))
            hi = lo + draw(st.integers(0, 6))
        else:
            lo = draw(st.floats(-5.0, 5.0, allow_nan=False))
            hi = lo + draw(st.floats(0.0, 5.0, allow_nan=False))
        variables.append(Variable(f"v{j}", lo, hi, integer))
        assignment[f"v{j}"] = draw(value)
    coef = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False), st.sampled_from([1e-300, -2.5e-7]))
    constraints = []
    for i in range(draw(st.integers(0, 5))):
        names = draw(st.lists(st.sampled_from(sorted(assignment)), max_size=n, unique=True))
        coeffs = tuple((name, draw(coef)) for name in names)
        lhs = sum((Fraction(c) * assignment[v] for v, c in coeffs), Fraction(0))
        rhs = draw(st.one_of(st.just(float(lhs)), st.floats(-50.0, 50.0, allow_nan=False)))
        constraints.append(Constraint(f"c{i}", coeffs, draw(st.sampled_from(["<=", ">=", "="])), rhs))
    return MilpModel(tuple(variables), tuple(constraints)), assignment


@settings(max_examples=300, deadline=None)
@given(models_with_sparse_assignments())
def test_verify_assignment_matches_the_full_sum(drawn):
    model, assignment = drawn
    assert verify_assignment(model, assignment) == reference_verify_assignment(model, assignment)


@pytest.mark.parametrize("coef", [float("inf"), float("-inf"), float("nan")])
def test_verify_assignment_raises_on_a_non_finite_coefficient_against_zero(coef):
    model = MilpModel(
        (Variable("x", 0, 3, integer=True), Variable("y", 0, 1)),
        (Constraint("c", (("x", 1.0), ("y", coef)), "<=", 2.0),),
    )
    assignment = {"x": Fraction(1), "y": Fraction(0)}
    with pytest.raises((OverflowError, ValueError)) as want:
        reference_verify_assignment(model, assignment)
    with pytest.raises(want.type):
        verify_assignment(model, assignment)


@pytest.mark.parametrize("bounds", [(0.0, float("inf")), (float("-inf"), 0.0), (float("nan"), 1.0)])
def test_verify_assignment_raises_on_a_non_finite_bound_of_a_zero_value(bounds):
    # a zero value is judged by the signs of its bounds, which must still
    # be converted exactly
    model = MilpModel((Variable("x", 0, 3, integer=True), Variable("y", *bounds)), ())
    assignment = {"x": Fraction(1), "y": Fraction(0)}
    with pytest.raises((OverflowError, ValueError)) as want:
        reference_verify_assignment(model, assignment)
    with pytest.raises(want.type):
        verify_assignment(model, assignment)


@pytest.mark.parametrize("k", [25, 47, 100])
def test_predicted_value_matches_the_full_sum_on_synthetic_models(k):
    for seed in range(4):
        spec = synthetic_trained_spec(k, seed)
        sol = solve_inverse(spec)
        assert sol.status == "feasible"
        points = [sol.assignment]
        rng = np.random.default_rng(seed)
        for _ in range(5):
            x = rng.integers(spec.feat_min, spec.feat_max + 1)
            points.append({f"x_{j + 1}": Fraction(int(v)) for j, v in enumerate(x)})
        for assignment in points:
            assert predicted_value(spec, assignment) == reference_predicted_value(spec, assignment)


# -- LP format ----------------------------------------------------------------


def test_emit_lp_sections():
    text = emit_lp(build_inverse_milp(one_dim_spec()))
    for section in ("Minimize", "Subject To", "Bounds", "Generals", "End"):
        assert section in text


def test_lp_roundtrip_random_models():
    rng = random.Random(9)
    models = [random_integer_model(rng, nvars=rng.randint(1, 4)) for _ in range(50)]
    inf = float("inf")
    for lo, hi in ((-inf, inf), (-inf, 5.0), (0.0, inf)):  # continuous, unbounded
        models.append(MilpModel(
            (Variable("x", 0, 3, integer=True), Variable("y", lo, hi)),
            (Constraint("c", (("x", 1.0), ("y", -2.0)), "<=", 1.0),),
        ))
    for m in models:
        assert parse_lp(emit_lp(m)) == m


def test_lp_roundtrip_inverse_model():
    m = build_inverse_milp(one_dim_spec())
    assert parse_lp(emit_lp(m)) == m


def test_lp_empty_constraints():
    m = MilpModel((Variable("x", 0, 3, integer=True),), ())
    text = emit_lp(m)
    assert "Bounds" in text
    assert parse_lp(text) == m


def test_lp_roundtrip_empty_row_without_variables():
    m = MilpModel((), (Constraint("c", (), "<=", -1.0),))
    assert solve(m).status == "infeasible"
    assert parse_lp(emit_lp(m)) == m


def test_lp_parses_unsigned_coefficients():
    text = """Minimize
 obj:
Subject To
 c: x + 2 y <= 4
Bounds
 0 <= x <= 9
 0 <= y <= 9
End
"""
    m = parse_lp(text)
    assert m.constraints[0].coeffs == (("x", 1.0), ("y", 2.0))


READABLE_LP = """\\ a comment
Minimize
 obj:
Subject To
 c: x + 2 y <= 4
Bounds
 0 <= x <= 9
 -inf <= y <= inf
Generals
 x
End
"""


@pytest.mark.parametrize("line,bad", [
    (" c: x + 2 y <= 4", " c x + 2 y <= 4"),  # no name
    (" c: x + 2 y <= 4", " c: x + 2 y 4"),  # no sense
    (" c: x + 2 y <= 4", " c: x + 2 y <="),
    (" c: x + 2 y <= 4", " c: x + 2 y <= four"),
    (" c: x + 2 y <= 4", " c: x + 2 <= 4"),  # a coefficient without its variable
    (" c: x + 2 y <= 4", " c: x + 2 z <= 4"),  # z has no bounds line
    (" -inf <= y <= inf", " -inf <= y"),
    (" -inf <= y <= inf", " y free"),
    (" -inf <= y <= inf", " -inf >= y >= inf"),
    (" -inf <= y <= inf", " 1 <= y <= 0"),
    (" x\nEnd", " w\nEnd"),  # a generals name without a bounds line
    ("Minimize", "x <= 4\nMinimize"),  # text outside any section
    ("Minimize", "Maximize"),
])
def test_lp_reader_names_the_line_it_cannot_read(line, bad):
    assert READABLE_LP.count(line) == 1 and parse_lp(READABLE_LP).constraints
    with pytest.raises(MilpError, match=re.escape(repr(bad.split("\n")[0].strip()))):
        parse_lp(READABLE_LP.replace(line, bad))
