from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from polyinfer.milp import (
    Constraint,
    InverseProblemSpec,
    MilpError,
    MilpModel,
    Variable,
    build_inverse_milp,
    emit_lp,
    exact_standardized,
    parse_lp,
    predicted_value,
    solve,
    verify_assignment,
)
from polyinfer.regress import Hyperplane


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


def test_solver_node_limit():
    m = MilpModel(
        tuple(Variable(f"v{j}", 0, 20, integer=True) for j in range(3)),
        (Constraint("c", tuple((f"v{j}", 1.0) for j in range(3)), "=", 61.5),),
    )
    assert solve(m, max_nodes=1).status in ("bound-limit", "infeasible")


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
        lower=np.array([0.0]),
        upper=np.array([10.0]),
        feat_min=np.array([0.0]),
        feat_max=np.array([10.0]),
        integer_indices=frozenset({0}),
        nonnegative_indices=frozenset({0}),
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
            lower=np.zeros(k),
            upper=np.full(k, 9.0),
            feat_min=np.zeros(k),
            feat_max=np.full(k, 9.0),
            integer_indices=frozenset(range(k)),
            nonnegative_indices=frozenset(range(k)),
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
        lower=feat_min.copy(),
        upper=feat_max.copy(),
        feat_min=feat_min,
        feat_max=feat_max,
        integer_indices=frozenset(range(k)),
        nonnegative_indices=frozenset(range(k)),
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
        lower=np.array([float(mn)]),
        upper=np.array([mn + 3.0]),
        feat_min=np.array([float(mn)]),
        feat_max=np.array([mn + 3.0]),
        integer_indices=frozenset({0}),
        nonnegative_indices=frozenset({0}),
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
        lower=np.array([3.0, 0.0]),
        upper=np.array([3.0, 4.0]),
        feat_min=np.array([3.0, 0.0]),
        feat_max=np.array([3.0, 4.0]),
        integer_indices=frozenset({0, 1}),
        nonnegative_indices=frozenset({0, 1}),
    )
    m = build_inverse_milp(spec)
    # constant descriptor contributes no normalization rows and a pinned xhat
    assert not any("1" == c.name.rsplit("_", 1)[-1] and c.name.startswith("norm") for c in m.constraints)
    sol = solve(m)
    assert sol.status == "feasible"
    assert sol.assignment["xh_1"] == 0
    assert exact_standardized(spec, sol.assignment)[0] == 0


# -- LP format ----------------------------------------------------------------


def test_emit_lp_sections():
    text = emit_lp(build_inverse_milp(one_dim_spec()))
    for section in ("Minimize", "Subject To", "Bounds", "Generals", "End"):
        assert section in text


def test_lp_roundtrip_random_models():
    rng = random.Random(9)
    for _ in range(50):
        m = random_integer_model(rng, nvars=rng.randint(1, 4))
        assert parse_lp(emit_lp(m)) == m


def test_lp_roundtrip_inverse_model():
    m = build_inverse_milp(one_dim_spec())
    assert parse_lp(emit_lp(m)) == m


def test_lp_empty_constraints():
    m = MilpModel((Variable("x", 0, 3, integer=True),), ())
    text = emit_lp(m)
    assert "Bounds" in text
    assert parse_lp(text) == m


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
