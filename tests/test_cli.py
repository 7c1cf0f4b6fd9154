from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import random
from pathlib import Path

import pytest

from corpus import make_polymer, synthetic_corpus
from polyinfer import cli
from polyinfer.cli import main
from polyinfer.data import example_polymer_text
from polyinfer.milp import parse_lp
from spechelpers import SMALL_CATALOG, forcing_spec


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Corpus whose property is an exact linear function of simple counts."""
    root = tmp_path_factory.mktemp("corpus")
    graphs = root / "graphs"
    graphs.mkdir()
    rng = random.Random(21)
    rows = ["id,value"]
    for rid, text in synthetic_corpus(rng, 40):
        (graphs / f"{rid}.pmg").write_text(text)
        g_atoms = [l.split()[2] for l in text.splitlines() if l.startswith("ATOM")]
        value = 1.0 + 0.3 * g_atoms.count("O") + 0.05 * sum(1 for a in g_atoms if a != "H")
        rows.append(f"{rid},{value:.6f}")
    (root / "values.csv").write_text("\n".join(rows) + "\n")
    return root


def run(*argv) -> int:
    return main([str(a) for a in argv])


def test_featurize_writes_artifacts(corpus_dir, tmp_path, capsys):
    code = run(
        "featurize",
        "--graphs", corpus_dir / "graphs",
        "--values", corpus_dir / "values.csv",
        "--out-registry", tmp_path / "registry.json",
        "--out-matrix", tmp_path / "features.csv",
        "--out-report", tmp_path / "report.json",
    )
    assert code == 0
    with open(tmp_path / "features.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 41  # header + 40 kept records
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["kept"]) == 40 and not report["eliminated"]


def test_featurize_elimination_exit_code(corpus_dir, tmp_path, capsys):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    (graphs / "good.pmg").write_text(make_polymer())
    bad = "\n".join(
        l for l in make_polymer().splitlines() if not l.startswith("LINK")
    ) + "\n"
    (graphs / "bad.pmg").write_text(bad)
    (tmp_path / "values.csv").write_text("id,value\ngood,1.0\nbad,2.0\n")
    code = run(
        "featurize",
        "--graphs", graphs,
        "--values", tmp_path / "values.csv",
        "--out-registry", tmp_path / "r.json",
        "--out-matrix", tmp_path / "m.csv",
    )
    assert code == 2
    assert "eliminated bad" in capsys.readouterr().err


def test_featurize_empty_corpus_exit_one(tmp_path):
    (tmp_path / "values.csv").write_text("id,value\n")
    code = run(
        "featurize",
        "--graphs", tmp_path,
        "--values", tmp_path / "values.csv",
        "--out-registry", tmp_path / "r.json",
        "--out-matrix", tmp_path / "m.csv",
    )
    assert code == 1


@pytest.fixture(scope="module")
def trained_model(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    code = run(
        "train",
        "--graphs", corpus_dir / "graphs",
        "--values", corpus_dir / "values.csv",
        "--lambda", "1e-6",
        "--out-model", out,
    )
    assert code == 0
    return out


def test_cv_writes_table(corpus_dir, tmp_path):
    code = run(
        "cv",
        "--graphs", corpus_dir / "graphs",
        "--values", corpus_dir / "values.csv",
        "--lambda", "1e-6",
        "--runs", "2",
        "--seed", "5",
        "--out-report", tmp_path / "cv.json",
        "--out-table", tmp_path / "cv.csv",
    )
    assert code == 0
    rep = json.loads((tmp_path / "cv.json").read_text())
    assert len(rep["r2_values"]) == 10  # 2 runs x 5 folds
    assert rep["median_r2"] > 0.999
    assert rep["unconverged"] == 0 and rep["kkt_max"] <= 1e-9
    with open(tmp_path / "cv.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["size"] == "40"
    assert float(rows[0]["median_test_r2"]) > 0.999


def test_cv_deterministic_artifacts(corpus_dir, tmp_path):
    for name in ("a", "b"):
        run(
            "cv",
            "--graphs", corpus_dir / "graphs",
            "--values", corpus_dir / "values.csv",
            "--lambda", "1e-5",
            "--runs", "2",
            "--seed", "9",
            "--out-report", tmp_path / f"{name}.json",
        )
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("key,value,message", [
    ("folds", "1", "at least 2 folds, got 1"),
    ("folds", "0", "at least 2 folds, got 0"),
    ("folds", "-2", "at least 2 folds, got -2"),
    ("runs", "0", "at least 1 run, got 0"),
    ("runs", "-1", "at least 1 run, got -1"),
])
def test_cv_rejects_a_protocol_it_cannot_run(corpus_dir, tmp_path, capsys, key, value, message):
    common = ["--graphs", corpus_dir / "graphs", "--values", corpus_dir / "values.csv",
              "--lambda", "1e-6", "--out-report", tmp_path / "cv.json"]
    assert run("cv", *common, f"--{key}={value}") == 1
    from_flag = capsys.readouterr().err
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(f"{key}={value}\n")
    assert run("--config", cfg, "cv", *common) == 1
    assert capsys.readouterr().err == from_flag
    assert from_flag.startswith("error: CV needs") and message in from_flag
    assert not (tmp_path / "cv.json").exists()


def test_train_records_the_fit(trained_model):
    from polyinfer.model import ModelBundle

    text = Path(trained_model).read_text()
    fit = json.loads(text)["fit"]
    assert fit["converged"] is True and fit["steps"] > 0 and fit["kkt"] <= 1e-9
    h = ModelBundle.from_json(text).hyperplane
    assert "sweeps" not in fit
    assert (h.steps, h.kkt, h.converged) == (fit["steps"], fit["kkt"], True)
    older = json.loads(text)
    del older["fit"]["steps"]  # model files written before the path
    older["fit"]["sweeps"] = 0  # and before the path was the only solver
    h = ModelBundle.from_json(json.dumps(older)).hyperplane
    assert (h.steps, h.kkt, h.converged) == (0, fit["kkt"], True)


def test_train_warns_when_the_fit_does_not_converge(corpus_dir, tmp_path, monkeypatch, capsys):
    import numpy as np

    import polyinfer.regress
    from polyinfer.regress import Hyperplane

    # a zero start in place of the path's point, which the corpus certifies
    monkeypatch.setattr(polyinfer.regress, "lasso_path",
                        lambda X, y, lams, penalize_bias: [Hyperplane(np.zeros(X.shape[1]), 0.0)])
    code = run(
        "train",
        "--graphs", corpus_dir / "graphs",
        "--values", corpus_dir / "values.csv",
        "--lambda", "1e-6",
        "--out-model", tmp_path / "model.json",
    )
    assert code == 0
    assert "lasso fit not certified (KKT violation" in capsys.readouterr().err
    fit = json.loads((tmp_path / "model.json").read_text())["fit"]
    assert fit["converged"] is False and fit["kkt"] > 1e-9 and fit["steps"] == 0


def test_infer_feasible_and_lp(trained_model, tmp_path):
    code = run(
        "infer",
        "--model", trained_model,
        "--window", "2.2,2.6",
        "--emit-lp", tmp_path / "model.lp",
        "--out", tmp_path / "solution.json",
    )
    assert code == 0
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert sol["status"] == "feasible"
    assert 2.2 - 1e-3 <= sol["predicted"] <= 2.6 + 1e-3
    assert sol["nodes"] >= 1 and isinstance(sol["pivots"], int) and sol["open_nodes"] == 0
    parsed = parse_lp((tmp_path / "model.lp").read_text())
    assert parsed.constraints  # normalization and window rows present


def test_infer_infeasible_exit_three(trained_model, tmp_path):
    code = run(
        "infer",
        "--model", trained_model,
        "--window", "1e6,2e6",
        "--out", tmp_path / "solution.json",
    )
    assert code == 3
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert sol["status"] == "infeasible"
    assert sol["nodes"] >= 1 and sol["open_nodes"] == 0


def test_infer_emit_lp_writes_the_inverse_model(trained_model, tmp_path):
    from polyinfer.cli import _inverse_spec
    from polyinfer.milp import build_inverse_milp
    from polyinfer.model import ModelBundle

    code = run(
        "infer",
        "--model", trained_model,
        "--window", "2.2,2.6",
        "--emit-lp", tmp_path / "out.lp",
        "--out", tmp_path / "solution.json",
    )
    assert code == 0
    bundle = ModelBundle.from_json(Path(trained_model).read_text())
    want = build_inverse_milp(_inverse_spec(bundle, (2.2, 2.6), 1e-5))
    assert parse_lp((tmp_path / "out.lp").read_text()) == want
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert sol["nodes"] >= 1 and sol["pivots"] == 0  # no simplex runs on this path
    with pytest.raises(SystemExit):  # the separate emit-lp subcommand is gone
        run("emit-lp", "--model", trained_model, "--window", "2.2,2.6", "--out", tmp_path / "x.lp")


def test_infer_builds_the_inverse_model_once(trained_model, tmp_path, monkeypatch):
    from polyinfer import cli, milp

    built = []

    def counting(spec):
        built.append(spec)
        return original(spec)

    original = milp.build_inverse_milp
    monkeypatch.setattr(milp, "build_inverse_milp", counting)
    monkeypatch.setattr(cli, "build_inverse_milp", counting, raising=False)
    common = ["infer", "--model", trained_model, "--window", "2.2,2.6"]
    assert run(*common, "--out", tmp_path / "plain.json") == 0
    assert json.loads((tmp_path / "plain.json").read_text())["status"] == "feasible"
    assert built == []  # the certificate reads the rows, not a `MilpModel`
    assert run(*common, "--emit-lp", tmp_path / "out.lp", "--out", tmp_path / "solution.json") == 0
    assert json.loads((tmp_path / "solution.json").read_text())["status"] == "feasible"
    assert len(built) == 1  # for the LP file only
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "solution.json").read_bytes()


def test_predicted_value_matches_the_full_sum_on_the_corpus_model(trained_model):
    from fractions import Fraction

    from polyinfer.cli import _inverse_spec
    from polyinfer.milp import predicted_value, solve_inverse
    from polyinfer.model import ModelBundle
    from reference_checks import reference_predicted_value

    bundle = ModelBundle.from_json(Path(trained_model).read_text())
    std = bundle.standardizer
    assert 0 < len(bundle.hyperplane.support()) < len(bundle.registry)  # zero weights to skip
    spec = _inverse_spec(bundle, (2.2, 2.6), 1e-5)
    sol = solve_inverse(spec)
    assert sol.status == "feasible"
    points = [sol.assignment]
    for t in (Fraction(0), Fraction(1, 3), Fraction(1)):
        points.append({
            f"x_{j + 1}": Fraction(float(lo)) + t * (Fraction(float(hi)) - Fraction(float(lo)))
            for j, (lo, hi) in enumerate(zip(std.feature_min, std.feature_max))
        })
    for assignment in points:
        assert predicted_value(spec, assignment) == reference_predicted_value(spec, assignment)


# -- dispatch -------------------------------------------------------------------


def test_every_subcommand_has_a_handler():
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._handlers())


def test_main_builds_the_parser_once(tmp_path):
    spec_path = tmp_path / "spec.json"
    cli.build_parser.cache_clear()
    assert run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path) == 0
    assert run("spec-ib", "--property", "HcL", "--n-lb", "14", "--out", spec_path) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_main_runs_the_handler_bound_at_call_time(trained_model, monkeypatch):
    assert run("infer", "--model", trained_model, "--window", "1e6,2e6") == 3
    seen = []
    monkeypatch.setattr(cli, "cmd_infer", lambda args, config: seen.append(args.window) or 0)
    assert run("infer", "--model", trained_model, "--window", "2.2,2.6") == 0
    assert seen == ["2.2,2.6"]


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_infer_rejects_an_invalid_time_budget(trained_model, tmp_path, capsys, value):
    assert run("infer", "--model", trained_model, "--window", "2.2,2.6", f"--limit-seconds={value}") == 1
    from_flag = capsys.readouterr().err
    cfg = tmp_path / "budget.cfg"
    cfg.write_text(f"window=2.2,2.6\nlimit_seconds={value}\n")
    assert run("--config", cfg, "infer", "--model", trained_model) == 1
    from_config = capsys.readouterr().err
    assert from_flag == from_config
    assert from_flag.startswith("error: --limit-seconds must be a non-negative number")


@pytest.mark.parametrize("key,value", [
    ("limit_candidates", "-5"),
    ("limit_seconds", "nan"),
    ("limit_seconds", "-0.5"),
])
def test_generate_rejects_an_invalid_budget(trained_model, tmp_path, capsys, key, value):
    spec_path = tmp_path / "spec.json"
    assert run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path) == 0
    flag = f"--{key.replace('_', '-')}"
    common = ["--model", trained_model, "--spec", spec_path, "--window", "2.2,2.6"]
    capsys.readouterr()
    assert run("generate", *common, f"{flag}={value}", "--out-dir", tmp_path / "a") == 1
    from_flag = capsys.readouterr().err
    cfg = tmp_path / "budget.cfg"
    cfg.write_text(f"{key}={value}\n")
    assert run("--config", cfg, "generate", *common, "--out-dir", tmp_path / "b") == 1
    from_config = capsys.readouterr().err
    assert from_flag == from_config
    assert from_flag.startswith(f"error: {flag} must be a non-negative number")
    assert not (tmp_path / "a").exists()


def test_missing_window_is_clean_error(trained_model, capsys):
    code = run("infer", "--model", trained_model)
    assert code == 1
    assert "--window" in capsys.readouterr().err


def test_non_finite_window_or_epsilon_is_clean_error(trained_model, capsys):
    for argv in (
        ["--window=2.2,inf"],
        ["--window=-inf,inf"],
        ["--window=2.2,2.6", "--epsilon", "nan"],
    ):
        assert run("infer", "--model", trained_model, *argv) == 1
        assert "error:" in capsys.readouterr().err


def test_model_file_without_a_key_is_clean_error(trained_model, tmp_path, capsys):
    model = json.loads(Path(trained_model).read_text())
    del model["lambda"]
    broken = tmp_path / "model.json"
    broken.write_text(json.dumps(model))
    assert run("infer", "--model", broken, "--window", "2.2,2.6") == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'lambda'" in err


def test_model_file_with_more_descriptors_than_weights_is_clean_error(trained_model, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path)
    sample = tmp_path / "sample.pmg"
    sample.write_text(make_polymer())
    model = json.loads(Path(trained_model).read_text())
    k = len(model["w"])
    short = tmp_path / "short.json"
    for keys in (("w", "feature_min", "feature_max"), ("feature_min",), ("feature_max",)):
        broken = json.loads(json.dumps(model))
        for key in keys:
            values = broken["w"] if key == "w" else broken["standardizer"][key]
            values.pop()
        short.write_text(json.dumps(broken))
        named = keys[0] if keys[0] == "w" else f"standardizer.{keys[0]}"
        for argv in (
            ["infer", "--model", short, "--window", "2.2,2.6"],
            ["verify", "--model", short, "--spec", spec_path, "--window", "2.2,2.6", sample],
        ):
            assert run(*argv) == 1
            err = capsys.readouterr().err
            assert err == (f"error: model file key {named!r} holds {k - 1} values; "
                           f"the registry has {k} descriptors\n")


def test_model_file_with_a_non_finite_min_max_value_is_clean_error(trained_model, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path)
    sample = tmp_path / "sample.pmg"
    sample.write_text(make_polymer())
    broken = tmp_path / "model.json"
    for key in ("feature_min", "feature_max", "value_min", "value_max"):
        for value in (float("nan"), float("inf"), float("-inf")):
            model = json.loads(Path(trained_model).read_text())
            if key.startswith("feature"):
                model["standardizer"][key][0] = value
            else:
                model["standardizer"][key] = value
            broken.write_text(json.dumps(model))  # written as NaN, Infinity or -Infinity
            for argv in (
                ["infer", "--model", broken, "--window", "2.2,2.6"],
                ["verify", "--model", broken, "--spec", spec_path, "--window", "2.2,2.6", sample],
            ):
                assert run(*argv) == 1
                err = capsys.readouterr().err
                assert err == f"error: model file key 'standardizer.{key}' holds a non-finite value\n"


def test_model_file_with_a_wrongly_typed_value_is_clean_error(trained_model, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path)
    sample = tmp_path / "sample.pmg"
    sample.write_text(make_polymer())
    broken = tmp_path / "model.json"
    for key, value in (("fit", None), ("registry", 5), ("standardizer", [1]), ("w", "x"), ("lambda", "x")):
        model = json.loads(Path(trained_model).read_text())
        model[key] = value
        broken.write_text(json.dumps(model))
        for argv in (
            ["infer", "--model", broken, "--window", "2.2,2.6"],
            ["generate", "--model", broken, "--spec", spec_path, "--window", "2.2,2.6",
             "--out-dir", tmp_path / "gen"],
            ["verify", "--model", broken, "--spec", spec_path, "--window", "2.2,2.6", sample],
        ):
            assert run(*argv) == 1
            err = capsys.readouterr().err
            assert "error:" in err and f"{key!r}" in err


def test_spec_file_with_a_missing_or_unknown_key_is_clean_error(trained_model, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path)
    sample = tmp_path / "sample.pmg"
    sample.write_text(make_polymer())
    spec = json.loads(spec_path.read_text())
    no_n_int = dict(spec)
    del no_n_int["n_int"]
    odd_edge = json.loads(spec_path.read_text())
    odd_edge["seed"]["edges"][0]["colour"] = "red"
    for broken, key in ((no_n_int, "'n_int'"), (odd_edge, "'colour'")):
        spec_path.write_text(json.dumps(broken))
        for argv in (
            ["check", "--spec", spec_path, "--graph", sample],
            ["generate", "--model", trained_model, "--spec", spec_path,
             "--window", "2.2,2.6", "--out-dir", tmp_path / "gen"],
        ):
            assert run(*argv) == 1
            err = capsys.readouterr().err
            assert "error:" in err and key in err


def test_spec_file_without_a_path_length_is_clean_error(trained_model, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path)
    sample = tmp_path / "sample.pmg"
    sample.write_text(make_polymer())
    spec = json.loads(spec_path.read_text())
    del spec["path_len"]["a2"]
    spec_path.write_text(json.dumps(spec))
    for argv in (
        ["check", "--spec", spec_path, "--graph", sample],
        ["generate", "--model", trained_model, "--spec", spec_path,
         "--window", "2.2,2.6", "--out-dir", tmp_path / "gen"],
    ):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "'a2' has no path_len" in err


def test_spec_file_with_a_wrongly_typed_value_is_clean_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path)
    sample = tmp_path / "sample.pmg"
    sample.write_text(make_polymer())
    spec = json.loads(spec_path.read_text())
    spec["n_int"] = 5
    spec_path.write_text(json.dumps(spec))
    assert run("check", "--spec", spec_path, "--graph", sample) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'n_int'" in err


def test_generate_refuses_seed_vertex_branches(trained_model, tmp_path, capsys):
    # the checker accepts pendant trees at b2 here, but the enumerator
    # builds none, so an exhausted search would claim what it never ran
    spec = forcing_spec(SMALL_CATALOG)
    spec = dataclasses.replace(spec, branch_count_vertex={**spec.branch_count_vertex, "b2": (0, 1)})
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    assert run("generate", "--model", trained_model, "--spec", spec_path,
               "--window=-1e9,1e9", "--out-dir", tmp_path / "gen") == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'b2'" in err


@pytest.fixture(scope="module")
def covariate_model(tmp_path_factory):
    """A model trained on a corpus with an `fq` covariate column."""
    root = tmp_path_factory.mktemp("covariate")
    graphs = root / "graphs"
    graphs.mkdir()
    rows = ["id,value,fq"]
    for i, (rid, text) in enumerate(synthetic_corpus(random.Random(5), 20)):
        (graphs / f"{rid}.pmg").write_text(text)
        fq = 1.0 + i % 4
        rows.append(f"{rid},{1.0 + 0.3 * text.count(' O') + 0.1 * fq:.6f},{fq}")
    (root / "values.csv").write_text("\n".join(rows) + "\n")
    out = root / "model.json"
    assert run("train", "--graphs", graphs, "--values", root / "values.csv",
               "--lambda", "1e-6", "--out-model", out) == 0
    return out


def covariate_argvs(model, tmp_path, *covariates):
    """A `generate` and a `verify` run, each with these `--covariate` flags."""
    spec_path = tmp_path / "spec.json"
    assert run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path) == 0
    sample = tmp_path / "sample.pmg"
    sample.write_text(make_polymer())
    flags = [f"--covariate={c}" for c in covariates]
    common = ["--model", model, "--spec", spec_path, "--window=-1e9,1e9", *flags]
    return [
        ["generate", *common, "--limit-candidates", "20", "--out-dir", tmp_path / "gen"],
        ["verify", *common, sample],
    ]


@pytest.mark.parametrize("covariate,message", [
    ("fq=nan", "error: --covariate fq: expected a finite number, got 'nan'"),
    ("fq=-inf", "error: --covariate fq: expected a finite number, got '-inf'"),
    ("fq=abc", "error: --covariate fq: expected a finite number, got 'abc'"),
    ("fq=", "error: --covariate fq: expected a finite number, got ''"),
    ("typo=3", "error: --covariate typo: the model has no such covariate (it has: fq)"),
    ("fq", "error: --covariate expects NAME=VALUE, got 'fq'"),
])
def test_covariate_must_be_a_finite_number_the_model_names(
    covariate_model, tmp_path, capsys, covariate, message
):
    for argv in covariate_argvs(covariate_model, tmp_path, covariate):
        capsys.readouterr()
        assert run(*argv) == 1
        assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "gen").exists()


def test_covariate_the_model_carries_must_be_given(covariate_model, tmp_path, capsys):
    for argv in covariate_argvs(covariate_model, tmp_path):
        capsys.readouterr()
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            "error: --covariate fq: missing; the model needs a value for each of its covariates\n")
    assert not (tmp_path / "gen").exists()


def test_covariate_on_a_model_without_covariates_is_an_error(trained_model, tmp_path, capsys):
    for argv in covariate_argvs(trained_model, tmp_path, "fq=1"):
        capsys.readouterr()
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            "error: --covariate fq: the model has no such covariate (it has: none)\n")


def test_covariate_value_reaches_the_prediction(covariate_model, tmp_path, capsys):
    from polyinfer.chemgraph import parse_pmg
    from polyinfer.model import ModelBundle

    bundle = ModelBundle.from_json(Path(covariate_model).read_text())
    assert bundle.registry.keys_of("cov") == ["fq"]
    want, _ = bundle.predict_graph(parse_pmg(make_polymer()), {"fq": 2.5})
    generate, verify = covariate_argvs(covariate_model, tmp_path, "fq=3", "fq=2.5")  # the last one counts
    assert run(*generate) == 0
    capsys.readouterr()
    run(*verify)
    assert f"prediction {want:.6g} vs" in capsys.readouterr().out


def test_config_file_defaults(trained_model, tmp_path):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("window=2.2,2.6\nepsilon=1e-5\n")
    code = run(
        "--config", cfg,
        "infer",
        "--model", trained_model,
        "--out", tmp_path / "solution.json",
    )
    assert code == 0


def test_spec_generate_verify_roundtrip(corpus_dir, trained_model, tmp_path):
    spec_path = tmp_path / "spec.json"
    assert run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path) == 0

    model = json.loads(Path(trained_model).read_text())
    # window around the minimal polymer's prediction: predict via library
    from polyinfer.model import ModelBundle
    from polyinfer.chemgraph import parse_pmg

    bundle = ModelBundle.from_json(Path(trained_model).read_text())
    pred, _ = bundle.predict_graph(parse_pmg(make_polymer()))
    window = f"{pred - 0.02},{pred + 0.02}"

    out_dir = tmp_path / "generated"
    code = run(
        "generate",
        "--model", trained_model,
        "--spec", spec_path,
        "--window", window,
        "--limit-candidates", "4000",
        "--out-dir", out_dir,
    )
    assert code == 0
    lines = [json.loads(l) for l in (out_dir / "manifest.jsonl").read_text().splitlines()]
    manifest = [m for m in lines if "file" in m]
    summary = [m for m in lines if "summary" in m]
    assert manifest, "expected at least one generated polymer"
    assert summary and summary[-1]["summary"]["results"] == len(manifest)
    assert all("counts" in m and m["counts"]["link_edges"] >= 2 for m in manifest)
    files = [out_dir / entry["file"] for entry in manifest]
    assert all(f.exists() for f in files)

    code = run(
        "verify",
        "--model", trained_model,
        "--spec", spec_path,
        "--window", window,
        *files,
    )
    assert code == 0


def test_verify_fails_outside_window(corpus_dir, trained_model, tmp_path):
    spec_path = tmp_path / "spec.json"
    run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path)
    sample = tmp_path / "sample.pmg"
    sample.write_text(make_polymer())
    code = run(
        "verify",
        "--model", trained_model,
        "--spec", spec_path,
        "--window", "1e5,2e5",
        sample,
    )
    assert code == 1


def test_verify_reports_an_unreadable_graph_and_checks_the_rest(trained_model, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path)
    good = tmp_path / "good.pmg"
    good.write_text(make_polymer())
    bad = tmp_path / "bad.pmg"
    bad.write_text("PMG 1\nATOM 1 C\nATOM 2 H\nBOND 1 2 1\n")  # carbon with bond sum 1
    missing = tmp_path / "missing.pmg"
    capsys.readouterr()
    code = run(
        "verify",
        "--model", trained_model,
        "--spec", spec_path,
        "--window=-1e9,1e9",
        bad, good, missing,
    )
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [
        f"{bad}: FAIL",
        "  BAD parse: valence violation at atom 1 (C): bond sum 1 vs valence 4",
    ]
    assert out[2].startswith(f"{good}: ")
    assert any(line.startswith("  ok  decomposition:") for line in out[3:7])
    assert out[-2] == f"{missing}: FAIL"
    assert out[-1].startswith("  BAD parse: ") and "No such file" in out[-1]


def test_verify_fails_a_hydrogen_only_graph_and_checks_the_rest(trained_model, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path)
    h2 = tmp_path / "h2.pmg"
    h2.write_text("PMG 1\nATOM 1 H\nATOM 2 H\nBOND 1 2 1\n")
    good = tmp_path / "good.pmg"
    good.write_text(make_polymer())
    capsys.readouterr()
    code = run(
        "verify",
        "--model", trained_model,
        "--spec", spec_path,
        "--window=-1e9,1e9",
        h2, good,
    )
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [
        f"{h2}: FAIL",
        "  BAD decomposition: hydrogen-only graph has no suppressed form",
    ]
    assert out[2] == f"{good}: PASS"
    assert out[3].startswith("  ok  decomposition:")


def test_verify_decomposes_each_file_once(trained_model, tmp_path, decompose_calls):
    spec_path = tmp_path / "spec.json"
    run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path)
    files = []
    for k, text in enumerate([make_polymer(), make_polymer(bridge_b=("C", "C")), example_polymer_text(1)]):
        files.append(tmp_path / f"g{k}.pmg")
        files[-1].write_text(text)
    decompose_calls.clear()
    run("verify", "--model", trained_model, "--spec", spec_path, "--window=-1e9,1e9", *files)
    rho = json.loads(spec_path.read_text())["rho"]
    assert [r for _, r in decompose_calls] == [rho] * len(files)
    assert len({id(g) for g, _ in decompose_calls}) == len(files)


def test_check_subcommand(tmp_path):
    spec_path = tmp_path / "spec.json"
    run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path)
    sample = tmp_path / "sample.pmg"
    sample.write_text(make_polymer())
    assert run("check", "--spec", spec_path, "--graph", sample) == 0
