from __future__ import annotations

import importlib
import json
import pkgutil
import random

import pytest

import polyinfer
from corpus import make_polymer, synthetic_corpus
from polyinfer import twolayer
from polyinfer.chemgraph import parse_pmg
from polyinfer.cli import main
from polyinfer.generate import canonical_signature, run_generation, verify_roundtrip
from polyinfer.topospec import check_satisfies
from spechelpers import SMALL_CATALOG, forcing_spec, oracle_candidates, train_model


@pytest.fixture(scope="module")
def model_with_cl():
    return train_model([t for _, t in synthetic_corpus(random.Random(3), 25)]
                       + [make_polymer(subst={2: ("Cl",)})])


@pytest.fixture(scope="module")
def spec_full():
    return forcing_spec(SMALL_CATALOG)


def test_forcing_spec_oracle_equivalence_small(model_with_cl):
    positions = (2, 5, 8, 11)
    spec = forcing_spec(SMALL_CATALOG, cl_positions=positions)
    model = model_with_cl
    window = (3.2, 3.75)

    expected: dict[str, float] = {}
    total = 0
    for text in oracle_candidates(cl_positions=positions):
        total += 1
        g = parse_pmg(text)
        if not check_satisfies(g, spec).passed:
            continue
        pred, oov = model.predict_graph(g)
        if oov or not window[0] <= pred <= window[1]:
            continue
        expected[canonical_signature(g, 2)] = pred
    assert total == 192
    assert expected  # the window was chosen to keep some candidates

    out = run_generation(spec, model, window)
    assert out.status == "exhausted"
    got = {r.signature: r.prediction for r in out.results}
    assert set(got) == set(expected)
    for sig, pred in got.items():
        assert pred == pytest.approx(expected[sig], abs=1e-9)


def test_forcing_spec_unique_candidate(model_with_cl):
    spec = forcing_spec(("C", "C(-H)", "C(-H)(-H)"), a2_max_len=2)
    model = model_with_cl
    out = run_generation(spec, model, (-1e9, 1e9))
    assert out.status == "exhausted"
    assert len(out.results) == 1
    only = out.results[0]
    assert only.signature == canonical_signature(parse_pmg(make_polymer()), 2)


def test_empty_window_exhausts(model_with_cl):
    spec = forcing_spec(("C", "C(-H)", "C(-H)(-H)"), a2_max_len=2)
    model = model_with_cl
    out = run_generation(spec, model, (1e6, 1e6 + 1))
    assert out.status == "exhausted"
    assert not out.results
    assert out.rejected_window >= 1


def test_outputs_replay_prediction_and_spec(model_with_cl, spec_full):
    spec = spec_full
    model = model_with_cl
    window = (3.0, 4.0)
    out = run_generation(spec, model, window, limit_candidates=800)
    assert out.results
    for r in out.results:
        pred, oov = model.predict_graph(r.graph)
        assert not oov
        assert window[0] <= pred <= window[1]
        assert check_satisfies(r.graph, spec).passed


def test_generation_deterministic(model_with_cl, spec_full):
    spec = spec_full
    model = model_with_cl
    a = run_generation(spec, model, (3.0, 4.0), limit_candidates=600)
    b = run_generation(spec, model, (3.0, 4.0), limit_candidates=600)
    assert [r.signature for r in a.results] == [r.signature for r in b.results]
    assert a.candidates_examined == b.candidates_examined


def test_rho_mismatch_rejected(model_with_cl):
    import dataclasses

    spec = dataclasses.replace(forcing_spec(("C", "C(-H)")), rho=1)
    with pytest.raises(ValueError, match="rho"):
        run_generation(spec, model_with_cl, (0.0, 1.0))


def test_limit_candidates_status(model_with_cl, spec_full):
    spec = spec_full
    model = model_with_cl
    out = run_generation(spec, model, (-1e9, 1e9), limit_candidates=5)
    assert out.status == "limit-candidates"
    assert out.candidates_examined == 5


def test_signature_invariant_under_relabeling():
    rng = random.Random(19)
    g = parse_pmg(make_polymer(bridge_a=("C", "O"), subst={2: ("Cl",)}))
    base = canonical_signature(g, 2)
    ids = g.vertex_ids
    for _ in range(4):
        new = list(ids)
        rng.shuffle(new)
        mapping = dict(zip(ids, new))
        from polyinfer.chemgraph import ChemicalGraph

        relabeled = ChemicalGraph(
            atoms=tuple((mapping[i], s) for i, s in g.atoms),
            bonds=tuple((mapping[u], mapping[v], m) for u, v, m in g.bonds),
            link_edges=frozenset((mapping[u], mapping[v]) for u, v in g.link_edges),
        )
        assert canonical_signature(relabeled, 2) == base


def test_signature_distinguishes_bridge_contents():
    a = canonical_signature(parse_pmg(make_polymer(bridge_a=("C",))), 2)
    b = canonical_signature(parse_pmg(make_polymer(bridge_a=("O",))), 2)
    assert a != b


def test_verify_roundtrip_reports(model_with_cl, spec_full):
    spec = spec_full
    model = model_with_cl
    g = parse_pmg(make_polymer())
    pred, _ = model.predict_graph(g)
    checks = verify_roundtrip(g, spec, model, (pred - 0.1, pred + 0.1))
    assert all(c.ok for c in checks)
    # mutate one bond multiplicity (ring double bond 2-3 becomes single;
    # two fresh hydrogens keep the valences legal): a check must flip
    from polyinfer.chemgraph import ChemicalGraph

    top = max(g.vertex_ids)
    atoms = g.atoms + ((top + 1, "H"), (top + 2, "H"))
    bonds = tuple(
        (u, v, 1 if (u, v) == (2, 3) else m) for u, v, m in g.bonds
    ) + ((2, top + 1, 1), (3, top + 2, 1))
    g_mut = ChemicalGraph(atoms=atoms, bonds=bonds, link_edges=g.link_edges)
    checks_mut = verify_roundtrip(g_mut, spec, model, (pred - 0.1, pred + 0.1))
    assert any(not c.ok for c in checks_mut)


def test_oov_outputs_are_flagged(spec_full):
    spec = spec_full
    # model trained WITHOUT any Cl-bearing graph: Cl candidates are OOV
    model = train_model([make_polymer(), make_polymer(bridge_a=("O",)),
                         make_polymer(bridge_b=("C", "C")), make_polymer(bridge_a=("O",), bridge_b=("C", "O"))])
    out = run_generation(spec, model, (-1e9, 1e9), limit_candidates=2000)
    assert out.rejected_oov > 0
    assert all("Cl" not in dict(r.graph.atoms).values() for r in out.results)


@pytest.fixture
def decompositions(monkeypatch):
    """Count `decompose` calls, wrapped at every module binding that holds it."""
    calls: list[int] = []
    original = twolayer.decompose

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for info in pkgutil.iter_modules(polyinfer.__path__):
        module = importlib.import_module(f"polyinfer.{info.name}")
        if vars(module).get("decompose") is original:
            monkeypatch.setattr(module, "decompose", counting)
    return calls


def test_generation_decomposes_each_candidate_once(model_with_cl, decompositions):
    spec = forcing_spec(SMALL_CATALOG, cl_positions=(2, 5, 8, 11))
    out = run_generation(spec, model_with_cl, (-1e9, 1e9))
    assert out.results and out.duplicates  # every stage ran on some candidates
    assert len(decompositions) == out.candidates_examined


def test_verify_roundtrip_decomposes_once(model_with_cl, spec_full, decompositions):
    graphs = [parse_pmg(make_polymer()), parse_pmg(make_polymer(bridge_a=("O",)))]
    for g in graphs:
        verify_roundtrip(g, spec_full, model_with_cl, (-1e9, 1e9))
    assert len(decompositions) == len(graphs)


def test_cmd_generate_adds_no_decompositions(model_with_cl, tmp_path, decompositions):
    spec = forcing_spec(SMALL_CATALOG, cl_positions=(2, 5))
    (tmp_path / "model.json").write_text(model_with_cl.to_json())
    (tmp_path / "spec.json").write_text(spec.to_json())
    code = main([
        "generate", "--model", str(tmp_path / "model.json"), "--spec", str(tmp_path / "spec.json"),
        "--window=-1e9,1e9", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    lines = (tmp_path / "out" / "manifest.jsonl").read_text().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["results"] > 0
    assert len(decompositions) == summary["candidates_examined"]
