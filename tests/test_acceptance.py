"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from corpus import make_polymer, synthetic_corpus
from polyinfer.chemgraph import parse_pmg
from polyinfer.cli import main as cli_main
from polyinfer.data import demo_polymer_text
from polyinfer.generate import canonical_signature, run_generation
from polyinfer.milp import (
    Constraint,
    InverseProblemSpec,
    MilpModel,
    Variable,
    build_inverse_milp,
    predicted_value,
    solve,
    verify_assignment,
)
from polyinfer.model import ModelBundle
from polyinfer.regress import cross_validate, lasso_fit, select_lambda
from polyinfer.topospec import build_instance_Ib, check_satisfies
from polyinfer.twolayer import RootedTree, decompose
from spechelpers import SMALL_CATALOG, forcing_spec, oracle_candidates, train_model


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# -- 1: demo polymer decomposition ----------------------------------------------------


def test_criterion_1_demo_polymer_decomposition():
    t0 = time.monotonic()
    g = parse_pmg(demo_polymer_text())
    dec = decompose(g, rho=2)
    elapsed = time.monotonic() - t0
    ok = (
        len(dec.interior_vertices) == 29
        and len(dec.exterior_vertices) == 26
        and g.link_edges
        == frozenset({(1, 15), (5, 15), (3, 16), (16, 17), (17, 18), (4, 18)})
        and elapsed < 0.1
    )
    report(1, ok, f"29/26 split and 6 link edges in {elapsed * 1000:.1f} ms")


# -- 2: canonical codes vs brute force ------------------------------------------


def tree_from_parents(parents, labels, mults) -> RootedTree:
    kids: dict[int, list[int]] = {i: [] for i in range(len(parents))}
    for i in range(1, len(parents)):
        kids[parents[i]].append(i)

    def build(i: int) -> RootedTree:
        return RootedTree(labels[i], tuple((mults[j], build(j)) for j in kids[i]))

    return build(0)


def language(t: RootedTree) -> set[str]:
    """All serializations under arbitrary child orderings (brute force)."""
    child_langs = [[(m, s) for s in language(c)] for m, c in t.children]
    out: set[str] = set()
    for perm in itertools.permutations(range(len(child_langs))):
        for combo in itertools.product(*(child_langs[i] for i in perm)):
            out.add(t.label + "".join(f"({'-=#'[m - 1]}{s})" for m, s in combo))
    return out


def test_criterion_2_canonicalization_exhaustive():
    t0 = time.monotonic()
    code_to_oracle: dict[str, str] = {}
    oracle_to_code: dict[str, str] = {}
    disagreements = 0
    instances = 0
    for n in range(1, 7):
        for parents in itertools.product(*[range(i) for i in range(1, n)]):
            shape = [None] + list(parents)
            for labels in itertools.product("CO", repeat=n):
                for mults in itertools.product((1, 2), repeat=max(n - 1, 0)):
                    t = tree_from_parents(shape, list(labels), [0] + list(mults))
                    instances += 1
                    code = t.code
                    oracle = min(language(t))
                    if code_to_oracle.setdefault(code, oracle) != oracle:
                        disagreements += 1
                    if oracle_to_code.setdefault(oracle, code) != code:
                        disagreements += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 60 and instances > 250_000
    report(
        2,
        ok,
        f"{instances} trees, {len(code_to_oracle)} classes, "
        f"{disagreements} disagreements in {elapsed:.1f} s",
    )


# -- 3: lasso against the normal equations --------------------------------------


def test_criterion_3_lasso_matches_ols():
    rng = np.random.default_rng(20)
    worst = 0.0
    slowest = 0.0
    for _ in range(20):
        X = rng.normal(size=(50, 5))
        y = rng.normal(size=50)
        t0 = time.monotonic()
        h = lasso_fit(X, y, lam=0.0)  # the homotopy path to lambda = 0, KKT-certified
        slowest = max(slowest, time.monotonic() - t0)
        A = np.hstack([X, np.ones((50, 1))])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        worst = max(worst, float(np.max(np.abs(h.w - coef[:-1]))), abs(h.b - coef[-1]))
    ok = worst < 1e-6 and slowest < 1.0
    report(3, ok, f"max |fit - normal equations| = {worst:.2e}, slowest fit {slowest:.2f} s")


# -- 4: cross-validation protocol ------------------------------------------------


def test_criterion_4_cv_protocol():
    rng = np.random.default_rng(41)
    n, k, support = 80, 20, 4
    X = rng.uniform(size=(n, k))
    w = np.zeros(k)
    idx = rng.choice(k, size=support, replace=False)
    w[idx] = rng.uniform(0.5, 2.0, size=support) * rng.choice([-1, 1], size=support)
    # zero intercept: the penalty on |b| otherwise shifts intercept mass
    # onto a correlated column and inflates the selected count
    y = X @ w
    lam, _ = select_lambda(X, y, runs=3, seed=11)
    rep = cross_validate(X, y, lam, runs=10, folds=5, seed=11)
    ok = (
        len(rep.r2_values) == 50
        and rep.median_r2 >= 0.999
        and abs(rep.mean_selected - support) <= 1.0
    )
    report(
        4,
        ok,
        f"lambda={lam:g}, median R^2={rep.median_r2:.6f}, mean selected={rep.mean_selected:.2f} "
        f"(true support {support})",
    )


# -- 5: inverse MILP round trip ---------------------------------------------------


def trained_inverse_base(seed: int = 5):
    rng = np.random.default_rng(seed)
    n, k = 60, 6
    X = rng.integers(0, 11, size=(n, k)).astype(float)
    w_true = np.array([0.8, -0.5, 0.0, 0.3, 0.0, 1.1])
    y = X @ w_true + 2.0
    Xs = (X - X.min(axis=0)) / (X.max(axis=0) - X.min(axis=0))
    ys = (y - y.min()) / (y.max() - y.min())
    h = lasso_fit(Xs, ys, 1e-3)
    return h, X


def test_criterion_5_inverse_roundtrip():
    h, X = trained_inverse_base()
    feat_min = X.min(axis=0)
    feat_max = X.max(axis=0)
    k = X.shape[1]
    eps = 1e-5
    delta = eps * float(np.sum(np.abs(h.w)))
    rng = np.random.default_rng(99)
    t0 = time.monotonic()
    feasible = infeasible = 0
    for case in range(100):
        if case < 70:
            center = float(h.b + h.w @ rng.uniform(0.1, 0.9, size=k))
            window = (center - 0.04, center + 0.04)
        else:  # beyond any achievable prediction
            top = float(h.b + np.sum(np.abs(h.w)) * (1 + eps)) + 1.0
            window = (top + case, top + case + 1)
        spec = InverseProblemSpec(
            hyperplane=h,
            y_lo=window[0],
            y_hi=window[1],
            feat_min=feat_min,
            feat_max=feat_max,
            integer_indices=frozenset(range(k)),
            epsilon=eps,
        )
        sol = solve(build_inverse_milp(spec), max_seconds=10.0)
        if case >= 70:
            assert sol.status == "infeasible", f"case {case} should be infeasible"
            infeasible += 1
            continue
        if sol.status != "feasible":
            infeasible += 1
            continue
        feasible += 1
        assert not verify_assignment(build_inverse_milp(spec), sol.assignment)
        y_exact = predicted_value(spec, sol.assignment)
        assert window[0] - delta <= y_exact <= window[1] + delta, f"case {case}"
    elapsed = time.monotonic() - t0
    ok = elapsed < 10 and feasible >= 40 and infeasible >= 30
    report(
        5,
        ok,
        f"{feasible} feasible round-trips within delta={delta:.2e}, "
        f"{infeasible} infeasible, {elapsed:.1f} s total",
    )


# -- 6: solver vs exhaustive enumeration -----------------------------------------


def exhaustive_feasible(model: MilpModel) -> bool:
    ranges = [range(int(v.lower), int(v.upper) + 1) for v in model.variables]
    for point in itertools.product(*ranges):
        assignment = {v.name: Fraction(x) for v, x in zip(model.variables, point)}
        if not verify_assignment(model, assignment):
            return True
    return False


def test_criterion_6_solver_soundness():
    rng = random.Random(2024)
    agree = 0
    for _ in range(100):
        nvars = rng.randint(1, 3)
        variables = []
        for j in range(nvars):
            lo = rng.randint(-10, 5)
            variables.append(Variable(f"v{j}", lo, lo + rng.randint(0, 20), integer=True))
        constraints = []
        for i in range(rng.randint(1, 4)):
            coeffs = tuple(
                (f"v{j}", rng.choice([-3, -2, -1, 1, 2, 3]))
                for j in range(nvars)
                if rng.random() < 0.8
            ) or (("v0", 1),)
            constraints.append(
                Constraint(f"c{i}", coeffs, rng.choice(["<=", ">=", "="]), rng.randint(-15, 15))
            )
        m = MilpModel(tuple(variables), tuple(constraints))
        got = solve(m, max_seconds=30.0).status == "feasible"
        want = exhaustive_feasible(m)
        agree += got == want
    report(6, agree == 100, f"{agree}/100 feasibility decisions match exhaustive scan")


# -- 7: instance-builder regression ----------------------------------------------


def test_criterion_7_instance_builder():
    ok = True
    details = []
    for n_lb in (14, 20, 27):
        spec = build_instance_Ib("AmD", n_lb)
        # one line per published formula
        n_star = n_lb + 10
        ell_lb = 2 + max((n_lb - 15) // 4, 0)
        n_lnk_ub = 2 + max(n_lb - 15, 0)
        bd2_ub = ell_lb // 3
        fc1 = 12 + max(n_lb - 15, 0)
        fc5 = 8 + max((n_lb - 15) // 2, 0)
        fc13 = 5 + max((n_lb - 15) // 4, 0)
        na_o = 5 + max(n_lb - 15, 0)
        na_s = 2 + max((n_lb - 15) // 4, 0)
        codes = spec.fringe_catalog
        ok &= spec.n == (n_lb, n_star)
        ok &= spec.n_int == (14, n_star)
        ok &= spec.path_len["a1"] == (ell_lb, ell_lb + 5)
        ok &= spec.n_lnk == (2, n_lnk_ub)
        ok &= spec.double_bonds["a1"] == (0, bd2_ub)
        ok &= spec.fc[codes[0]] == (0, fc1) and spec.fc[codes[4]] == (0, fc5)
        ok &= spec.fc[codes[12]] == (0, fc13)
        ok &= spec.na["O"] == (0, na_o) and spec.na["S(2)"] == (0, na_s)
        ok &= all(spec.triple_bonds[e.name] == (0, 0) for e in spec.seed.edges)
        details.append(f"n_lb={n_lb}: ell={ell_lb}, n*={n_star}, n_lnk_ub={n_lnk_ub}")
    twice = build_instance_Ib("AmD", 20).to_json() == build_instance_Ib("AmD", 20).to_json()
    ok &= twice
    report(7, bool(ok), "; ".join(details) + f"; byte-stable={twice}")


def test_criterion_7_fixed_point_values():
    spec = build_instance_Ib("AmD", 14)
    ok = (
        spec.path_len["a1"] == (2, 7)
        and spec.n_lnk == (2, 2)
        and spec.double_bonds["a1"] == (0, 0)
        and spec.n == (14, 24)
    )
    report(7, ok, "n_lb=14 fixed values: ell in [2,7], n_lnk<=2, bd2<=0, n*=24")


# -- 8: generator soundness and completeness --------------------------------------


def test_criterion_8_generator_equivalence():
    t0 = time.monotonic()
    spec = forcing_spec(SMALL_CATALOG)
    model = train_model(
        [t for _, t in synthetic_corpus(random.Random(3), 25)]
        + [make_polymer(subst={2: ("Cl",)})]
    )
    window = (3.2, 3.75)
    expected: dict[str, float] = {}
    total = 0
    for text in oracle_candidates():
        total += 1
        g = parse_pmg(text)
        if not check_satisfies(g, spec).passed:
            continue
        pred, oov = model.predict_graph(g)
        if oov or not window[0] <= pred <= window[1]:
            continue
        expected[canonical_signature(g, 2)] = pred
    out = run_generation(spec, model, window)
    got = {r.signature: r.prediction for r in out.results}
    replayed = all(
        check_satisfies(r.graph, spec).passed
        and window[0] <= model.predict_graph(r.graph)[0] <= window[1]
        for r in out.results
    )
    elapsed = time.monotonic() - t0
    ok = (
        total == 3072
        and total <= 10_000
        and out.status == "exhausted"
        and set(got) == set(expected)
        and replayed
        and elapsed < 600
    )
    report(
        8,
        ok,
        f"{total} candidates, {len(expected)} satisfying, generator matched exactly "
        f"and outputs replay in {elapsed:.0f} s",
    )


# -- 9: end-to-end desk-scale inference --------------------------------------------


def corpus_value(text: str) -> float:
    g = parse_pmg(text)
    return (
        1.0
        + 0.3 * sum(1 for _, s in g.atoms if s == "O")
        + 0.2 * sum(1 for _, s in g.atoms if s == "Cl")
        + 0.05 * g.non_hydrogen_count()
    )


def test_criterion_9_end_to_end(tmp_path):
    t0 = time.monotonic()
    rng = random.Random(101)
    holdout_text = make_polymer(bridge_a=("O",), bridge_b=("C", "C"))
    corpus = [(rid, t) for rid, t in synthetic_corpus(rng, 70) if t != holdout_text][:60]
    assert len(corpus) == 60

    graphs = tmp_path / "graphs"
    graphs.mkdir()
    rows = ["id,value"]
    for rid, text in corpus:
        (graphs / f"{rid}.pmg").write_text(text)
        rows.append(f"{rid},{corpus_value(text):.8f}")
    (tmp_path / "values.csv").write_text("\n".join(rows) + "\n")

    model_path = tmp_path / "model.json"
    assert cli_main([
        "train",
        "--graphs", str(graphs),
        "--values", str(tmp_path / "values.csv"),
        "--lambda", "1e-6",
        "--out-model", str(model_path),
    ]) == 0

    bundle = ModelBundle.from_json(model_path.read_text())
    holdout = parse_pmg(holdout_text)
    pred, oov = bundle.predict_graph(holdout)
    assert not oov
    window = (pred - 0.02, pred + 0.02)

    spec_path = tmp_path / "spec.json"
    assert cli_main(["spec-ib", "--property", "AmD", "--n-lb", "14", "--out", str(spec_path)]) == 0
    out_dir = tmp_path / "generated"
    assert cli_main([
        "generate",
        "--model", str(model_path),
        "--spec", str(spec_path),
        "--window", f"{window[0]},{window[1]}",
        "--limit-candidates", "60000",
        "--out-dir", str(out_dir),
    ]) == 0
    manifest = [
        m
        for m in (json.loads(l) for l in (out_dir / "manifest.jsonl").read_text().splitlines())
        if "file" in m
    ]
    assert manifest, "no polymer generated inside the window"

    files = [str(out_dir / entry["file"]) for entry in manifest]
    assert cli_main([
        "verify",
        "--model", str(model_path),
        "--spec", str(spec_path),
        "--window", f"{window[0]},{window[1]}",
        *files,
    ]) == 0

    spec = build_instance_Ib("AmD", 14)
    for entry, path in zip(manifest, files):
        g = parse_pmg(Path(path).read_text())
        check = check_satisfies(g, spec)
        p, _ = bundle.predict_graph(g)
        assert check.passed and window[0] <= p <= window[1]

    elapsed = time.monotonic() - t0
    ok = elapsed < 900
    report(
        9,
        ok,
        f"60-graph corpus -> train -> window around held-out prediction "
        f"{pred:.4f} -> {len(manifest)} in-window polymers, verified, {elapsed:.0f} s",
    )
