from __future__ import annotations

import csv
import functools
import json
import random
from pathlib import Path

import pytest

from corpus import make_polymer, synthetic_corpus
from polyinfer.cli import main
from polyinfer.milp import parse_lp


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


def test_train_records_the_fit(trained_model):
    from polyinfer.model import ModelBundle

    text = Path(trained_model).read_text()
    fit = json.loads(text)["fit"]
    assert fit["converged"] is True and fit["sweeps"] > 0 and fit["kkt"] <= 1e-9
    h = ModelBundle.from_json(text).hyperplane
    assert (h.sweeps, h.kkt, h.converged) == (fit["sweeps"], fit["kkt"], True)


def test_train_warns_when_the_fit_does_not_converge(corpus_dir, tmp_path, monkeypatch, capsys):
    import polyinfer.cli
    from polyinfer.regress import lasso_fit

    monkeypatch.setattr(polyinfer.cli, "lasso_fit", functools.partial(lasso_fit, max_sweeps=3))
    code = run(
        "train",
        "--graphs", corpus_dir / "graphs",
        "--values", corpus_dir / "values.csv",
        "--lambda", "1e-6",
        "--out-model", tmp_path / "model.json",
    )
    assert code == 0
    assert "unconverged after 3 sweeps" in capsys.readouterr().err
    fit = json.loads((tmp_path / "model.json").read_text())["fit"]
    assert fit["converged"] is False and fit["sweeps"] == 3 and fit["kkt"] > 1e-9


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


def test_emit_lp_standalone(trained_model, tmp_path):
    code = run(
        "emit-lp",
        "--model", trained_model,
        "--window", "2.2,2.6",
        "--out", tmp_path / "out.lp",
    )
    assert code == 0
    assert "Subject To" in (tmp_path / "out.lp").read_text()


def test_missing_window_is_clean_error(trained_model, capsys):
    code = run("infer", "--model", trained_model)
    assert code == 1
    assert "--window" in capsys.readouterr().err


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


def test_check_subcommand(tmp_path):
    spec_path = tmp_path / "spec.json"
    run("spec-ib", "--property", "AmD", "--n-lb", "14", "--out", spec_path)
    sample = tmp_path / "sample.pmg"
    sample.write_text(make_polymer())
    assert run("check", "--spec", spec_path, "--graph", sample) == 0
