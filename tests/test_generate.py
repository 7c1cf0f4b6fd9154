from __future__ import annotations

import importlib
import itertools
import json
import pkgutil
import random
from collections import Counter

import pytest

import polyinfer
from corpus import make_polymer, synthetic_corpus
from polyinfer import generate, twolayer
from polyinfer.chemgraph import parse_pmg
from polyinfer.cli import main
from polyinfer.generate import (
    GenerationOutcome,
    canonical_signature,
    iter_generate,
    run_generation,
    verify_roundtrip,
)
from polyinfer.topospec import build_instance_Ib, check_satisfies
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


def test_status_stays_incomplete_when_consumer_stops(model_with_cl, spec_full):
    outcome = GenerationOutcome()
    stream = iter_generate(spec_full, model_with_cl, (-1e9, 1e9), outcome)
    first = next(stream)
    stream.close()
    assert first.signature
    assert outcome.status == "incomplete"
    assert not outcome.results  # the consumer holds what it was yielded


# -- the unpruned enumerator, kept as the reference for the pruned one --------


def reference_iter_skeletons(spec):
    """Every skeleton, then the admission test on the finished skeleton."""
    path_edges = [e for e in spec.seed.edges if e.kind == "path"]
    length_ranges = [
        range(spec.path_len[e.name][0], spec.path_len[e.name][1] + 1) for e in path_edges
    ]
    for lengths in itertools.product(*length_ranges):
        per_edge_options = []
        for e, length in zip(path_edges, lengths):
            lo, hi = spec.branch_count_edge.get(e.name, (0, 0))
            ch_lo, ch_hi = spec.branch_height_edge.get(e.name, (0, 0))
            options = []
            for count in range(lo, min(hi, length - 1) + 1):
                for chosen in itertools.combinations(range(length - 1), count):
                    depth_low = max(ch_lo, 1)
                    for depths in itertools.product(range(depth_low, ch_hi + 1), repeat=count):
                        options.append((chosen, depths))
            per_edge_options.append(options)
        for combo in itertools.product(*per_edge_options):
            for sk in generate._iter_bond_assignments(spec, path_edges, lengths, combo):
                if reference_skeleton_admissible(spec, sk):
                    yield sk


def reference_skeleton_admissible(spec, sk) -> bool:
    link_deg = Counter(v for uv in sk.link_edges for v in uv)
    n_lnk = sum(1 for c in link_deg.values() if c == 2)
    if not spec.n_int[0] <= sk.n_vertices <= spec.n_int[1]:
        return False
    if not spec.n_lnk[0] <= n_lnk <= spec.n_lnk[1]:
        return False
    return sk.n_vertices <= spec.n[1]


def reference_assign_fringes(spec, sk, catalog, _verdicts=None):
    """Fringe choices cut only on fc, element and size upper bounds."""
    bond_sum = Counter()
    for u, v, m in sk.edges:
        bond_sum[u] += m
        bond_sum[v] += m

    order = list(range(1, sk.n_vertices + 1))
    choices = []
    for v in order:
        opts = [
            c
            for c in catalog
            if c.element in sk.allowed_elements[v]
            and c.code in sk.allowed_codes[v]
            and c.free_valence == bond_sum[v]
            and (v not in sk.tips or c.height == spec.rho)
        ]
        if not opts:
            return
        choices.append(opts)

    na = Counter()
    fc = Counter()
    picked = []

    def admissible(entry) -> bool:
        if fc[entry.code] + 1 > spec.fc.get(entry.code, (0, sk.n_vertices + spec.n[1]))[1]:
            return False
        for elem, cnt in entry.elements:
            bound = spec.na.get(elem)
            if bound is not None and na[elem] + cnt > bound[1]:
                return False
            if elem != "H" and elem not in spec.elements:
                return False
        heavy_now = sum(na[e] for e in na if e != "H") + sum(
            c for e, c in entry.elements if e != "H"
        )
        remaining = len(order) - len(picked) - 1
        return heavy_now + remaining <= spec.n[1]

    def rec(pos):
        if pos == len(order):
            yield tuple(picked)
            return
        for entry in choices[pos]:
            if not admissible(entry):
                continue
            picked.append(entry)
            fc[entry.code] += 1
            for elem, cnt in entry.elements:
                na[elem] += cnt
            yield from rec(pos + 1)
            for elem, cnt in entry.elements:
                na[elem] -= cnt
            fc[entry.code] -= 1
            picked.pop()

    yield from rec(0)


def run_unpruned(monkeypatch, *args, **kwargs) -> GenerationOutcome:
    """`run_generation` on the reference enumerator."""
    with monkeypatch.context() as patch:
        patch.setattr(generate, "_iter_skeletons", reference_iter_skeletons)
        patch.setattr(generate, "_assign_fringes", reference_assign_fringes)
        return run_generation(*args, **kwargs)


def signatures(out: GenerationOutcome) -> list[str]:
    return [r.signature for r in out.results]


FORCING_SPACES = {
    "unique": dict(catalog=("C", "C(-H)", "C(-H)(-H)"), a2_max_len=2),
    "cl-4": dict(catalog=SMALL_CATALOG, cl_positions=(2, 5, 8, 11)),
    "cl-8": dict(catalog=SMALL_CATALOG),
}


@pytest.mark.parametrize("space", sorted(FORCING_SPACES))
def test_pruned_enumeration_matches_reference_on_forcing_spaces(model_with_cl, monkeypatch, space):
    # no candidate of these spaces fails the spec, so nothing may be cut
    spec = forcing_spec(**FORCING_SPACES[space])
    window = (3.2, 3.75)
    pruned = run_generation(spec, model_with_cl, window)
    reference = run_unpruned(monkeypatch, spec, model_with_cl, window)
    assert reference.status == pruned.status == "exhausted"
    assert reference.rejected_spec == 0
    assert signatures(pruned) == signatures(reference)
    assert pruned.candidates_examined == reference.candidates_examined
    assert (pruned.rejected_window, pruned.rejected_oov, pruned.duplicates) == (
        reference.rejected_window, reference.rejected_oov, reference.duplicates
    )


IB_TAGS = ("AmD", "HcL", "Tg", "RfId", "Prm")


@pytest.fixture(scope="module")
def ib_exhausted(model_with_cl):
    """Pruned generation on instance Ib (n_lb=14) run to exhaustion, per tag."""
    return {
        tag: run_generation(build_instance_Ib(tag, 14), model_with_cl, (-1e9, 1e9))
        for tag in IB_TAGS
    }


@pytest.mark.parametrize("tag", IB_TAGS)
def test_ib_search_exhausts_without_spec_rejections(ib_exhausted, tag):
    out = ib_exhausted[tag]
    assert out.status == "exhausted"
    assert out.rejected_spec == 0
    assert out.results


@pytest.mark.parametrize("tag", IB_TAGS)
def test_ib_reference_is_prefix_of_pruned(model_with_cl, ib_exhausted, monkeypatch, tag):
    spec = build_instance_Ib(tag, 14)
    reference = run_unpruned(monkeypatch, spec, model_with_cl, (-1e9, 1e9), limit_candidates=1500)
    assert reference.status == "limit-candidates"
    assert reference.rejected_spec > 0
    got = signatures(reference)
    assert got  # the cap leaves a prefix worth comparing
    assert signatures(ib_exhausted[tag])[: len(got)] == got
