from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import pkgutil
import random
import types
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import polyinfer
from corpus import make_polymer, synthetic_corpus
from polyinfer import generate, topospec, twolayer
from polyinfer.chemgraph import ChemicalGraph, parse_pmg, serialize_pmg
from polyinfer.cli import main
from polyinfer.data import demo_polymer_text
from polyinfer.features import DescriptorRegistry, Standardizer
from polyinfer.generate import (
    GenerationOutcome,
    canonical_signature,
    iter_generate,
    run_generation,
    verify_roundtrip,
)
from polyinfer.model import ModelBundle
from polyinfer.regress import Hyperplane
from polyinfer.topospec import (
    CONFIG_BOUNDS,
    SeedEdge,
    SeedGraph,
    build_instance_Ib,
    check_satisfies,
    check_witness,
    find_expansion_witness,
)
from reference_checks import reference_canonical_search, reference_canonical_signature, reference_check_witness
from spechelpers import FREE_POSITIONS, SMALL_CATALOG, forcing_spec, oracle_candidates, train_model


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


def relabeled(g: ChemicalGraph, rng: random.Random) -> ChemicalGraph:
    """`g` with its atom ids shuffled."""
    ids = list(g.labels)
    mapping = dict(zip(ids, rng.sample(ids, len(ids))))
    return ChemicalGraph(
        atoms=tuple((mapping[i], s) for i, s in g.atoms),
        bonds=tuple((mapping[u], mapping[v], m) for u, v, m in g.bonds),
        link_edges=frozenset((mapping[u], mapping[v]) for u, v in g.link_edges),
        connecting=None if g.connecting is None else tuple(mapping[v] for v in g.connecting),
    )


def test_signature_invariant_under_relabeling():
    rng = random.Random(19)
    g = parse_pmg(make_polymer(bridge_a=("C", "O"), subst={2: ("Cl",)}))
    base = canonical_signature(g, 2)
    for _ in range(4):
        assert canonical_signature(relabeled(g, rng), 2) == base


def test_signature_distinguishes_bridge_contents():
    a = canonical_signature(parse_pmg(make_polymer(bridge_a=("C",))), 2)
    b = canonical_signature(parse_pmg(make_polymer(bridge_a=("O",))), 2)
    assert a != b


def molecule(heavy: str, bonds=()) -> ChemicalGraph:
    """A molecule of the given heavy atoms (ids from 1, in order), bonded
    singly along `bonds`, every other valence filled with hydrogens."""
    atoms = list(enumerate(heavy, start=1))
    free = {i: {"C": 4, "O": 2}[e] for i, e in atoms}
    for u, v in bonds:
        free[u] -= 1
        free[v] -= 1
    all_bonds = [(u, v, 1) for u, v in bonds]
    for i in sorted(free):
        for _ in range(free[i]):
            atoms.append((len(atoms) + 1, "H"))
            all_bonds.append((i, len(atoms), 1))
    return ChemicalGraph(tuple(atoms), tuple(all_bonds))


ACYCLIC = {
    "ethane": molecule("CC", [(1, 2)]),
    "methanol": molecule("CO", [(1, 2)]),
    "butane": molecule("CCCC", [(1, 2), (2, 3), (3, 4)]),
}


@pytest.mark.parametrize("rho", [1, 2])
def test_graphs_with_an_empty_interior_keep_their_identity(rho):
    # ethane and methanol are stripped bare at rho 1, butane at rho 2; a
    # stripped graph is labeled whole, not by the fringe trees it lacks
    rng = random.Random(rho)
    sigs = {name: canonical_signature(g, rho) for name, g in ACYCLIC.items()}
    assert len(set(sigs.values())) == len(sigs), sigs
    for name, g in ACYCLIC.items():
        bare = not twolayer.decompose(g, rho).interior_vertices
        assert sigs[name].startswith("acyclic:") == bare, name
        for _ in range(3):
            assert canonical_signature(relabeled(g, rng), rho) == sigs[name], name


def test_signature_matches_the_reference_on_the_corpus():
    rng = random.Random(7)
    graphs = [parse_pmg(t) for _, t in synthetic_corpus(random.Random(21), 40)]
    graphs += [parse_pmg(demo_polymer_text()), *ACYCLIC.values()]
    for g in graphs:
        for rho in (1, 2, 3):
            sig = canonical_signature(g, rho)
            assert sig == reference_canonical_signature(g, rho)
            assert canonical_signature(relabeled(g, rng), rho) == sig


@st.composite
def colored_graphs(draw) -> tuple[list, list]:
    """(raw colors, edges as (u, v, multiplicity, is_link)) on 1-12
    vertices.  The colors come in classes of one to three vertices, so the
    search branches while its leaves stay few (at most 3!^4)."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=12))
    classes = [i for i, size in enumerate(sizes) for _ in range(size)][:12]
    palette = [(draw(st.sampled_from(("C", "O"))), i, draw(st.booleans())) for i in range(len(sizes))]
    colors = [palette[i] for i in draw(st.permutations(classes))]
    n = len(colors)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.integers(1, 3), st.booleans()), unique_by=lambda e: e[0]
    )) if pairs else []
    return colors, [(u, v, m, link) for (u, v), m, link in edges]


@settings(max_examples=300, deadline=None)
@given(colored_graphs())
# a hexagon of one color: every vertex a first choice, 12 leaves
@example(([("C", 0, False)] * 6, [(i, (i + 1) % 6, 1, False) for i in range(5)] + [(0, 5, 1, False)]))
# three disjoint edges of one color, two of them double
@example(([("C", 0, False)] * 6, [(0, 1, 2, False), (2, 3, 1, True), (4, 5, 2, False)]))
def test_integer_search_matches_the_reference(graph):
    colors, edges = graph
    adj = [[] for _ in colors]
    for u, v, m, link in edges:
        adj[u].append((v, (m, link)))
        adj[v].append((u, (m, link)))
    coded = twolayer.coded_adjacency(len(colors), edges)
    assert generate._coded_search(colors, coded) == reference_canonical_search(colors, adj)


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

    top = max(g.labels)
    atoms = g.atoms + ((top + 1, "H"), (top + 2, "H"))
    bonds = tuple(
        (u, v, 1 if (u, v) == (2, 3) else m) for u, v, m in g.bonds
    ) + ((2, top + 1, 1), (3, top + 2, 1))
    g_mut = ChemicalGraph(atoms=atoms, bonds=bonds, link_edges=g.link_edges)
    checks_mut = verify_roundtrip(g_mut, spec, model, (pred - 0.1, pred + 0.1))
    assert any(not c.ok for c in checks_mut)


@pytest.fixture(scope="module")
def model_without_cl():
    """Trained WITHOUT any Cl-bearing graph: Cl candidates are OOV."""
    return train_model([make_polymer(), make_polymer(bridge_a=("O",)),
                        make_polymer(bridge_b=("C", "C")), make_polymer(bridge_a=("O",), bridge_b=("C", "O"))])


def test_oov_outputs_are_flagged(spec_full, model_without_cl):
    out = run_generation(spec_full, model_without_cl, (-1e9, 1e9), limit_candidates=2000)
    # OOV candidates are cut during the enumeration; the OOV report after
    # prediction is the backstop
    assert out.cut_vocabulary + out.rejected_oov > 0
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


def test_generation_decomposes_no_candidate(model_with_cl, decompositions):
    spec = forcing_spec(SMALL_CATALOG, cl_positions=(2, 5, 8, 11))
    out = run_generation(spec, model_with_cl, (3.2, 3.75))
    # every stage ran: some candidates were predicted out of the window,
    # some were signed and emitted; each read the decomposition the
    # candidate was built with
    assert out.results and out.rejected_window
    assert decompositions == []


@pytest.fixture
def profiles(monkeypatch):
    """Count `count_profile` calls, wrapped at every module binding that holds it."""
    calls: list[int] = []
    original = twolayer.count_profile

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for info in pkgutil.iter_modules(polyinfer.__path__):
        module = importlib.import_module(f"polyinfer.{info.name}")
        if vars(module).get("count_profile") is original:
            monkeypatch.setattr(module, "count_profile", counting)
    return calls


def test_generation_profiles_each_candidate_once(model_with_cl, profiles):
    spec = forcing_spec(SMALL_CATALOG, cl_positions=(2, 5, 8, 11))
    out = run_generation(spec, model_with_cl, (3.2, 3.75))
    assert out.results and out.rejected_window
    assert len(profiles) == out.candidates_examined


def test_verify_roundtrip_profiles_once(model_with_cl, spec_full, profiles):
    graphs = [parse_pmg(make_polymer()), parse_pmg(make_polymer(bridge_a=("O",)))]
    for g in graphs:
        verify_roundtrip(g, spec_full, model_with_cl, (-1e9, 1e9))
    assert len(profiles) == len(graphs)


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
    assert decompositions == []


def test_a_candidate_failing_its_constructed_witness_is_an_error(model_with_cl, spec_full, monkeypatch):
    monkeypatch.setattr(topospec, "check_witness", lambda dec, spec, witness: None)
    with pytest.raises(RuntimeError, match="fails the witness it was built as"):
        run_generation(spec_full, model_with_cl, (-1e9, 1e9))


def with_seed_edge(spec, edge: SeedEdge, vertex: str | None = None):
    """`spec` with one more seed edge, and one more seed vertex if named."""
    vertices = spec.seed.vertices + ((vertex,) if vertex else ())
    return dataclasses.replace(spec, seed=SeedGraph(vertices, spec.seed.edges + (edge,)))


# each a fact checked once where it becomes known, not per candidate
@pytest.mark.parametrize("spec,message", [
    (forcing_spec(SMALL_CATALOG + ("C(-O)",)), "catalog tree 'C(-O)': valence violation at O below the root"),
    (with_seed_edge(forcing_spec(SMALL_CATALOG), SeedEdge("a15", "b2", "b13", kind="exact"), "b13"),
     "seed vertex 'b13' lies on no cycle of the seed"),
    (with_seed_edge(forcing_spec(SMALL_CATALOG), SeedEdge("a15", "b1", "b2", kind="exact")), "duplicate bond 1-2"),
], ids=["catalog-valence", "seed-vertex-off-cycles", "duplicate-bond"])
def test_cmd_generate_names_a_broken_construction(model_with_cl, tmp_path, capsys, spec, message):
    (tmp_path / "model.json").write_text(model_with_cl.to_json())
    (tmp_path / "spec.json").write_text(spec.to_json())
    code = main([
        "generate", "--model", str(tmp_path / "model.json"), "--spec", str(tmp_path / "spec.json"),
        "--window=-1e9,1e9", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 1
    assert message in capsys.readouterr().err


def test_manifest_summary_reports_cuts_and_rejections(model_without_cl, tmp_path):
    spec = forcing_spec(SMALL_CATALOG, cl_positions=(2, 5, 8, 11))
    window = (-1e9, 1e9)
    out = run_generation(spec, model_without_cl, window)
    assert out.dropped_symmetric and out.cut_vocabulary
    (tmp_path / "model.json").write_text(model_without_cl.to_json())
    (tmp_path / "spec.json").write_text(spec.to_json())
    assert main([
        "generate", "--model", str(tmp_path / "model.json"), "--spec", str(tmp_path / "spec.json"),
        "--window=-1e9,1e9", "--out-dir", str(tmp_path / "out"),
    ]) == 0
    lines = (tmp_path / "out" / "manifest.jsonl").read_text().splitlines()
    summary = json.loads(lines[-1])["summary"]
    for counter in ("candidates_examined", "rejected_spec", "rejected_window", "rejected_oov",
                    "duplicates", "dropped_symmetric", "cut_vocabulary"):
        assert summary[counter] == getattr(out, counter), counter
    assert summary["rejected_by"] == {}


def test_spec_rejections_are_keyed_by_failed_family(model_with_cl):
    # at n_lb=20 most candidates fall short of the n lower bound
    out = run_generation(build_instance_Ib("AmD", 20), model_with_cl, (-1e9, 1e9), limit_candidates=60)
    assert out.rejected_spec > 0
    assert out.rejected_by["n"] > 0
    assert max(out.rejected_by.values()) <= out.rejected_spec <= sum(out.rejected_by.values())


def test_limit_seconds_is_checked_between_skeletons(model_with_cl, monkeypatch):
    # a clock that advances one second per reading, and an enumeration whose
    # cuts leave no skeleton a complete assignment: the run must still stop
    clock = itertools.count()
    monkeypatch.setattr(generate.time, "monotonic", lambda: float(next(clock)))
    visited = []

    def no_assignment(spec, sk, *_):
        visited.append(sk)
        return iter(())

    monkeypatch.setattr(generate, "_assign_fringes", no_assignment)
    out = run_generation(build_instance_Ib("AmD", 14), model_with_cl, (-1e9, 1e9), limit_seconds=3)
    assert out.status == "limit-seconds"
    assert len(visited) == 3


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
    path_edges = [e for e in spec.plan.edges.values() if not e.exact]
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


def reference_assign_fringes(spec, sk, catalog, *_):
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


class ReferenceEdgeVerdicts(dict):
    """`(end_u, end_v, multiplicity, is_link)` -> the `((family, key), upper)`
    counters one interior edge adds, or None when one of its configurations
    is undeclared; blind to the model's vocabulary."""

    def __init__(self, spec):
        super().__init__()
        self.spec = spec

    def __missing__(self, key):
        (a, d), (b, dp), m, is_link = key
        cfg = twolayer.make_edge_config(a, d, b, dp, m)
        keys = {"ec_int": twolayer.config_str(cfg),
                "ac_int": twolayer.adjacency_str(twolayer.adjacency_of(cfg))}
        if is_link:
            keys.update(ec_lnk=keys["ec_int"], ac_lnk=keys["ac_int"])
        bounds = [getattr(self.spec, family).get(k) for family, k in keys.items()]
        verdict = None
        if None not in bounds:
            verdict = tuple((fk, hi) for fk, (_, hi) in zip(keys.items(), bounds))
        self[key] = verdict
        return verdict


def reference_spec_pruned_assign_fringes(spec, sk, catalog, *_):
    """Fringe choices cut on the spec alone, with every member of each
    skeleton-automorphism orbit kept: no vocabulary cut, no lex-leader test."""
    verdicts = ReferenceEdgeVerdicts(spec)
    bond_sum = Counter()
    skeleton_degree = Counter()
    links = set(sk.link_edges)
    back_edges = [[] for _ in range(sk.n_vertices)]
    for u, v, m in sk.edges:
        bond_sum[u] += m
        bond_sum[v] += m
        skeleton_degree[u] += 1
        skeleton_degree[v] += 1
        first, last = sorted((u, v))
        back_edges[last - 1].append((first - 1, m, (u, v) in links))

    choices = []
    for v in range(1, sk.n_vertices + 1):
        opts = []
        for c in catalog:
            if not (
                c.element in sk.allowed_elements[v]
                and c.code in sk.allowed_codes[v]
                and c.free_valence == bond_sum[v]
                and (v not in sk.tips or c.height == spec.rho)
                and all(e == "H" or e in spec.elements for e, _ in c.elements)
                and all(k in spec.ac_lf for k in c.leaf_adjacencies)
            ):
                continue
            end = (c.element, skeleton_degree[v] + c.heavy_children)
            if twolayer.symbol_str(*end) in spec.ns_int:
                opts.append((c, end))
        if not opts:
            return
        choices.append(opts)

    na = Counter()
    fc = Counter()
    edge_counts = Counter()
    ends = []
    picked = []
    heavy = 0

    def admissible(entry) -> bool:
        if fc[entry.code] + 1 > spec.fc.get(entry.code, (0, sk.n_vertices + spec.n[1]))[1]:
            return False
        for elem, cnt in entry.elements:
            bound = spec.na.get(elem)
            if bound is not None and na[elem] + cnt > bound[1]:
                return False
        remaining = len(choices) - len(picked) - 1
        return heavy + entry.heavy_atoms + remaining <= spec.n[1]

    def count_edges(pos, end, counted) -> bool:
        for w, m, is_link in back_edges[pos]:
            verdict = verdicts[(ends[w], end, m, is_link)]
            if verdict is None:
                return False
            for key, upper in verdict:
                if edge_counts[key] >= upper:
                    return False
                edge_counts[key] += 1
                counted.append(key)
        return True

    def rec(pos):
        nonlocal heavy
        if pos == len(choices):
            yield tuple(picked)
            return
        for entry, end in choices[pos]:
            if not admissible(entry):
                continue
            counted = []
            if count_edges(pos, end, counted):
                picked.append(entry)
                ends.append(end)
                fc[entry.code] += 1
                for elem, cnt in entry.elements:
                    na[elem] += cnt
                heavy += entry.heavy_atoms
                yield from rec(pos + 1)
                heavy -= entry.heavy_atoms
                for elem, cnt in entry.elements:
                    na[elem] -= cnt
                fc[entry.code] -= 1
                ends.pop()
                picked.pop()
            for key in counted:
                edge_counts[key] -= 1

    yield from rec(0)


def run_unpruned(monkeypatch, *args, **kwargs) -> GenerationOutcome:
    """`run_generation` on the reference enumerator."""
    with monkeypatch.context() as patch:
        patch.setattr(generate, "_iter_skeletons", reference_iter_skeletons)
        patch.setattr(generate, "_assign_fringes", reference_assign_fringes)
        return run_generation(*args, **kwargs)


def run_without_symmetry_or_vocabulary(monkeypatch, *args, **kwargs) -> GenerationOutcome:
    """`run_generation` on the spec-pruned enumerator that keeps every orbit
    member and ignores the model's vocabulary."""
    with monkeypatch.context() as patch:
        patch.setattr(generate, "_assign_fringes", reference_spec_pruned_assign_fringes)
        return run_generation(*args, **kwargs)


def assert_cuts_accounted(pruned: GenerationOutcome, reference: GenerationOutcome):
    """With no spec rejections, the reference's candidates are the pruned
    run's, plus the non-leaders it dropped, plus the OOV ones it cut."""
    assert reference.rejected_spec == pruned.rejected_spec == 0
    assert pruned.rejected_oov == 0
    assert pruned.candidates_examined == (
        reference.candidates_examined - reference.rejected_oov - pruned.dropped_symmetric
    )
    assert pruned.candidates_examined == (
        len(pruned.results) + pruned.rejected_window + pruned.duplicates
    )


def signatures(out: GenerationOutcome) -> list[str]:
    return [r.signature for r in out.results]


def emitted(out: GenerationOutcome) -> list:
    """The emitted graphs themselves, in order, not only their classes."""
    return [(r.signature, r.graph, r.fringe_codes) for r in out.results]


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
    assert_cuts_accounted(pruned, reference)


@pytest.mark.parametrize("space", sorted(FORCING_SPACES))
def test_symmetry_and_vocabulary_cuts_keep_the_sequence_on_forcing_spaces(
    model_with_cl, model_without_cl, monkeypatch, space
):
    spec = forcing_spec(**FORCING_SPACES[space])
    for model, window in ((model_with_cl, (3.2, 3.75)), (model_without_cl, (-1e9, 1e9))):
        pruned = run_generation(spec, model, window)
        reference = run_without_symmetry_or_vocabulary(monkeypatch, spec, model, window)
        assert reference.status == pruned.status == "exhausted"
        assert emitted(pruned) == emitted(reference)
        assert_cuts_accounted(pruned, reference)


def without_descriptor(model: ModelBundle, name: str) -> ModelBundle:
    """The model with one descriptor and its weight removed: its
    configuration becomes out of vocabulary."""
    keep = [j for j, other in enumerate(model.registry.names) if other != name]
    assert len(keep) == len(model.registry) - 1
    std = model.standardizer
    return ModelBundle(
        DescriptorRegistry(model.registry.rho, tuple(model.registry.descriptors[j] for j in keep)),
        Standardizer(std.feature_min[keep], std.feature_max[keep], std.value_min, std.value_max),
        Hyperplane(model.hyperplane.w[keep], model.hyperplane.b),
        model.lam,
    )


# each a key that only one cut tests: a vertex family whose edges the model
# knows, an interior edge, and a link edge whose ec_int key the model knows
@pytest.mark.parametrize(
    "descriptor",
    ["fc:C(-Cl)", "na:Cl", "ac_lf:(C,Cl,1)", "ns_int:(O,2)", "ec_int:(C2,O2,1)", "ec_lnk:(C2,C3,1)"],
)
def test_each_vocabulary_cut_drops_only_what_would_end_oov(model_with_cl, monkeypatch, descriptor):
    spec = forcing_spec(SMALL_CATALOG, cl_positions=(2, 5, 8, 11))
    model = without_descriptor(model_with_cl, descriptor)
    pruned = run_generation(spec, model, (-1e9, 1e9))
    reference = run_without_symmetry_or_vocabulary(monkeypatch, spec, model, (-1e9, 1e9))
    assert emitted(pruned) == emitted(reference)
    assert_cuts_accounted(pruned, reference)
    assert pruned.cut_vocabulary > 0
    assert reference.rejected_oov > 0


def test_a_vertex_left_without_vocabulary_options_ends_its_skeleton(model_without_cl):
    # the forcing space's first skeleton, relabelled so that a ring vertex
    # comes last, after both bridge vertices, and allowed only C(-Cl),
    # which the model has never seen; no other vertex may take C(-Cl)
    spec = forcing_spec(SMALL_CATALOG)
    sk = next(generate._iter_skeletons(spec))
    label = {**{v: v for v in range(1, sk.n_vertices + 1)}, 12: 14, 14: 12}
    codes = {label[v]: allowed - {"C(-Cl)"} for v, allowed in sk.allowed_codes.items()}
    last = dataclasses.replace(
        sk,
        edges=tuple((label[u], label[v], m) for u, v, m in sk.edges),
        link_edges=tuple((label[u], label[v]) for u, v in sk.link_edges),
        tips=frozenset(label[v] for v in sk.tips),
        allowed_elements={label[v]: e for v, e in sk.allowed_elements.items()},
        allowed_codes={**codes, 14: frozenset({"C(-Cl)"})},
    )
    entries = [generate.CatalogEntry.build(code) for code in spec.fringe_catalog]
    memo = generate._Contributions(spec, entries, model_without_cl.registry.vocabulary)
    # with C(-H) there instead, prefixes reach the last vertex
    viable = dataclasses.replace(last, allowed_codes={**codes, 14: frozenset({"C(-H)"})})
    assert len(list(generate._assign_fringes(spec, viable, entries, memo, GenerationOutcome()))) > 1
    outcome = GenerationOutcome()
    assert list(generate._assign_fringes(spec, last, entries, memo, outcome)) == []
    assert outcome.cut_vocabulary == 1  # the one option dropped, not one per prefix


IB_TAGS = ("AmD", "HcL", "Tg", "RfId", "Prm")


@pytest.fixture(scope="module")
def ib_exhausted(model_with_cl):
    """Pruned generation on instance Ib (n_lb=14) run to exhaustion, per tag."""
    return {
        tag: run_generation(build_instance_Ib(tag, 14), model_with_cl, (-1e9, 1e9))
        for tag in IB_TAGS
    }


def assert_signatures_survive_the_round_trip(out: GenerationOutcome, rho: int) -> None:
    # the oracle signs the graphs it reads from PMG text, so an emitted
    # graph must sign the same once written out and read back
    assert out.results
    for r in out.results:
        assert r.signature == canonical_signature(parse_pmg(serialize_pmg(r.graph)), rho)


@pytest.mark.parametrize("space", sorted(FORCING_SPACES))
def test_emitted_signatures_survive_the_pmg_round_trip(model_with_cl, space):
    spec = forcing_spec(**FORCING_SPACES[space])
    assert_signatures_survive_the_round_trip(run_generation(spec, model_with_cl, (-1e9, 1e9)), spec.rho)


def test_ib_emitted_signatures_survive_the_pmg_round_trip(ib_exhausted):
    assert_signatures_survive_the_round_trip(ib_exhausted["AmD"], build_instance_Ib("AmD", 14).rho)


@pytest.mark.parametrize("tag", IB_TAGS)
def test_ib_search_exhausts_without_spec_rejections(ib_exhausted, tag):
    out = ib_exhausted[tag]
    assert out.status == "exhausted"
    assert out.rejected_spec == 0
    assert out.results


@pytest.mark.parametrize("tag", IB_TAGS)
def test_ib_symmetry_and_vocabulary_cuts_keep_the_sequence(model_with_cl, ib_exhausted, monkeypatch, tag):
    pruned = ib_exhausted[tag]
    reference = run_without_symmetry_or_vocabulary(
        monkeypatch, build_instance_Ib(tag, 14), model_with_cl, (-1e9, 1e9)
    )
    assert reference.status == "exhausted"
    assert emitted(pruned) == emitted(reference)
    assert_cuts_accounted(pruned, reference)
    assert pruned.dropped_symmetric > 0


@pytest.mark.parametrize("tag", IB_TAGS)
def test_ib_reference_is_prefix_of_pruned(model_with_cl, ib_exhausted, monkeypatch, tag):
    spec = build_instance_Ib(tag, 14)
    reference = run_unpruned(monkeypatch, spec, model_with_cl, (-1e9, 1e9), limit_candidates=1500)
    assert reference.status == "limit-candidates"
    assert reference.rejected_spec > 0
    got = signatures(reference)
    assert got  # the cap leaves a prefix worth comparing
    assert signatures(ib_exhausted[tag])[: len(got)] == got


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    # "C" fills the seed's link ends and "C(-H)" the ring, so every drawn
    # space has members; the bridge and substituent trees vary, in any order
    catalog=st.sets(st.sampled_from(("C(-H)(-H)", "C(-Cl)", "O")), min_size=1).flatmap(
        lambda codes: st.permutations(["C", "C(-H)", *sorted(codes)])
    ),
    cl_positions=st.sets(st.sampled_from(FREE_POSITIONS), min_size=1, max_size=4),
    a2_max_len=st.sampled_from((2, 3)),
    narrow=st.booleans(),
    knows_cl=st.booleans(),
)
def test_symmetry_and_vocabulary_cuts_keep_the_sequence_on_drawn_spaces(
    model_with_cl, model_without_cl, catalog, cl_positions, a2_max_len, narrow, knows_cl
):
    spec = forcing_spec(tuple(catalog), a2_max_len=a2_max_len, cl_positions=tuple(sorted(cl_positions)))
    model = model_with_cl if knows_cl else model_without_cl
    window = (3.2, 3.75) if narrow else (-1e9, 1e9)
    with pytest.MonkeyPatch.context() as patch:
        pruned = run_generation(spec, model, window)
        reference = run_without_symmetry_or_vocabulary(patch, spec, model, window)
    assert emitted(pruned) == emitted(reference)
    assert_cuts_accounted(pruned, reference)


PROFILE_FAMILIES = ("na", "na_int", "ns_int", "ac_lf", "fc", "ec_int", "ac_int", "ec_lnk", "ac_lnk")


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    # a bridge tree in every catalog, so every drawn space has members
    catalog=st.sets(st.sampled_from(("C(-H)(-H)", "C(-Cl)", "O")), min_size=1)
    .filter(lambda codes: codes & {"C(-H)(-H)", "O"})
    .flatmap(lambda codes: st.permutations(["C", "C(-H)", *sorted(codes)])),
    cl_positions=st.sets(st.sampled_from(FREE_POSITIONS), min_size=1, max_size=4),
    a2_max_len=st.sampled_from((2, 3)),
    knows_cl=st.booleans(),
)
def test_memo_counts_add_up_to_the_profile(model_with_cl, model_without_cl, catalog, cl_positions,
                                           a2_max_len, knows_cl):
    # every upper-bound cut rests on this: what the memo says each vertex
    # and edge adds sums to the count profile of the graph they make.  Every
    # key of a forcing space is bounded, so the rows cover the whole profile.
    spec = forcing_spec(tuple(catalog), a2_max_len=a2_max_len, cl_positions=tuple(sorted(cl_positions)))
    model = model_with_cl if knows_cl else model_without_cl
    entries = [generate.CatalogEntry.build(code) for code in spec.fringe_catalog]
    memo = generate._Contributions(spec, entries, model.registry.vocabulary)
    complete = 0
    for sk in generate._iter_skeletons(spec):
        links = set(sk.link_edges)
        for assignment in generate._assign_fringes(spec, sk, entries, memo, GenerationOutcome()):
            complete += 1
            g, _ = generate._materialize(sk, assignment, spec.rho)
            dec = twolayer.decompose(g, spec.rho)
            s = dec.suppressed
            end = {v: (s.labels[v], len(s.adj[v])) for v in range(1, sk.n_vertices + 1)}
            verdicts = [memo[(entry.code, end[v][1])] for v, entry in enumerate(assignment, start=1)]
            verdicts += [
                memo[(end[min(u, v)], end[max(u, v)], m, (u, v) in links)] for u, v, m in sk.edges
            ]
            summed = Counter()
            for rows in verdicts:
                for name, count, _ in rows:
                    summed[name] += count
            profile = dec.profile
            assert summed == Counter({
                f"{family}[{key}]": count
                for family in PROFILE_FAMILIES
                for key, count in getattr(profile, family).items()
            })
    assert complete


class AcceptingModel:
    """A stand-in for a trained model at `rho` with the given vocabulary:
    every graph is predicted 0 with no out-of-vocabulary key, so
    `iter_generate` emits each distinct candidate that passes the spec."""

    def __init__(self, rho: int, vocabulary: dict[str, frozenset[str]]):
        self.registry = types.SimpleNamespace(rho=rho, vocabulary=vocabulary)

    def predict_graph(self, dec, covariates=None) -> tuple[float, tuple[str, ...]]:
        return 0.0, ()


def assert_candidates_carry_their_certificates(spec, vocabulary) -> Counter:
    """Every complete assignment of the enumeration, materialized: its
    decomposition is the one `decompose` finds, interior view and coded
    interior adjacency included, its graph the one full validation and a PMG round trip give,
    its signature the one the graph read back gets, and the witness it was
    built as and the one the search finds both pass `check_witness` and
    are reported in one shape, with the same pendant attachments where
    they place the seed alike.  Generation run on the same space emits
    the signatures its graphs get once read back.  Returns how many
    candidates there were, and how many of them carry pendant paths."""
    entries = [generate.CatalogEntry.build(code) for code in spec.fringe_catalog]
    memo = generate._Contributions(spec, entries, vocabulary)
    complete = Counter()
    for sk in generate._iter_skeletons(spec):
        for assignment in generate._assign_fringes(spec, sk, entries, memo, GenerationOutcome()):
            complete["candidates"] += 1
            complete["branched"] += bool(sk.tips)
            g, built = generate._materialize(sk, assignment, spec.rho)
            found = twolayer.decompose(g, spec.rho)
            for attr in ("interior_vertices", "exterior_vertices", "interior_edges"):
                assert getattr(built, attr) == getattr(found, attr), attr
            assert built.interior_adjacency == found.interior_adjacency
            assert built.interior_adj == found.interior_adj
            assert list(built.fringe_trees) == list(found.fringe_trees)
            assert [t.code for t in built.fringe_trees.values()] == [t.code for t in found.fringe_trees.values()]
            for attr in ("atoms", "bonds", "hydrogens", "link_edges", "connecting"):
                assert getattr(built.suppressed, attr) == getattr(found.suppressed, attr), attr
            assert built.profile == found.profile
            assert g == ChemicalGraph(g.atoms, g.bonds, g.link_edges)
            read_back = parse_pmg(serialize_pmg(g))
            assert g == read_back
            assert canonical_signature(built, spec.rho) == canonical_signature(read_back, spec.rho)
            assert check_witness(built, spec, sk.witness) is not None
            searched, message = find_expansion_witness(built, spec)
            assert searched is not None, message
            assert check_witness(built, spec, searched) is not None
            for witness in (sk.witness, searched, *mutated_witnesses(built, spec, sk.witness),
                            *mutated_witnesses(built, spec, searched)):
                assert (check_witness(built, spec, witness) is not None) == reference_check_witness(built, spec, witness)
            certified = check_satisfies(built, spec, sk.witness).witness
            assert certified.keys() == check_satisfies(built, spec).witness.keys() == searched.keys()
            if certified["images"] == searched["images"]:
                complete["placed alike"] += 1
                assert certified["attachments"] == searched["attachments"]
    outcome = GenerationOutcome()
    results = list(iter_generate(spec, AcceptingModel(spec.rho, vocabulary), (-1.0, 1.0), outcome))
    assert outcome.status == "exhausted" and outcome.candidates_examined == complete["candidates"]
    for r in results:
        assert r.signature == canonical_signature(parse_pmg(serialize_pmg(r.graph)), spec.rho)
    return complete


def mutated_witnesses(dec, spec, witness: dict) -> list[dict]:
    """Copies of a seed embedding, each broken one way: two images
    swapped, a path moved one vertex along, an image moved to an exterior
    vertex (when there is one), a path given for a kept edge, and a path
    dropped."""
    images, paths = witness["images"], witness["paths"]
    first, second = spec.seed.vertices[:2]
    name, path = next(iter(paths.items()))
    ahead = sorted(w for w in dec.suppressed.adj[path[-1]] if w in dec.interior_vertices and w not in path)
    kept = next(e for e in spec.seed.edges if e.kind == "exact")
    out = [
        {"images": {**images, first: images[second], second: images[first]}, "paths": paths},
        {"images": images, "paths": {**paths, name: path[1:] + ahead[:1]}},
        {"images": images, "paths": {**paths, kept.name: [images[kept.u], images[kept.v]]}},
        {"images": images, "paths": {k: v for k, v in paths.items() if k != name}},
    ]
    if dec.exterior_vertices:
        out.append({"images": {**images, first: min(dec.exterior_vertices)}, "paths": paths})
    return out


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    # the strategy of test_memo_counts_add_up_to_the_profile
    catalog=st.sets(st.sampled_from(("C(-H)(-H)", "C(-Cl)", "O")), min_size=1)
    .filter(lambda codes: codes & {"C(-H)(-H)", "O"})
    .flatmap(lambda codes: st.permutations(["C", "C(-H)", *sorted(codes)])),
    cl_positions=st.sets(st.sampled_from(FREE_POSITIONS), min_size=1, max_size=4),
    a2_max_len=st.sampled_from((2, 3)),
    knows_cl=st.booleans(),
)
def test_candidates_carry_their_certificates_on_drawn_spaces(model_with_cl, model_without_cl, catalog,
                                                              cl_positions, a2_max_len, knows_cl):
    spec = forcing_spec(tuple(catalog), a2_max_len=a2_max_len, cl_positions=tuple(sorted(cl_positions)))
    model = model_with_cl if knows_cl else model_without_cl
    assert assert_candidates_carry_their_certificates(spec, model.registry.vocabulary)["candidates"]


@pytest.mark.parametrize("space", sorted(FORCING_SPACES))
def test_forcing_candidates_carry_their_certificates(space):
    # no vocabulary, so no candidate is cut on it
    assert assert_candidates_carry_their_certificates(forcing_spec(**FORCING_SPACES[space]), {})["candidates"]


def test_ib_candidates_carry_their_certificates(model_with_cl):
    spec = build_instance_Ib("AmD", 14)
    assert assert_candidates_carry_their_certificates(spec, model_with_cl.registry.vocabulary)["candidates"]


def branched_spec():
    """The forcing spec with a pendant path of one or two vertices allowed
    on the a2 bridge, a tip fringe of full height (an n-propyl) in the
    catalog, and every configuration of carbons declared."""
    tip = twolayer.parse_code("C(-H)(-H)(-C(-H)(-H)(-C(-H)(-H)(-H)))").code
    catalog = ("C", "C(-H)", "C(-H)(-H)", tip)
    ends = [("C", d) for d in range(1, 5)]
    keys = [twolayer.edge_keys(a, d, b, dp, m) for a, d in ends for b, dp in ends for m in (1, 2)]
    base = forcing_spec(catalog)
    return dataclasses.replace(
        base,
        n=(14, 40),
        n_int=(14, 20),
        branch_count_edge={"a1": (0, 0), "a2": (0, 1)},
        branch_height_edge={"a1": (0, 0), "a2": (0, 2)},
        **{attr: {k: (0, 40) for k, _ in keys} for attr in ("ec_int", "ec_lnk")},
        **{attr: {k: (0, 40) for _, k in keys} for attr in ("ac_int", "ac_lnk")},
        ac_lf={"(C,C,1)": (0, 40)},
    )


def test_branched_candidates_carry_their_certificates():
    # pendant paths on a bridge, their tips interior through full-height
    # fringes; no vocabulary, so no candidate is cut on it
    count = assert_candidates_carry_their_certificates(branched_spec(), {})
    assert 0 < count["branched"] < count["candidates"]


# each bound is on a family only the full check tested before the memo
@pytest.mark.parametrize("family,key,upper", [
    ("na_int", "O", 1),
    ("ns_int", "(C,3)", 7),
    ("ac_lf", "(C,Cl,1)", 3),
])
def test_every_bounded_family_is_cut_during_the_search(model_with_cl, monkeypatch, family, key, upper):
    spec = forcing_spec(SMALL_CATALOG, cl_positions=(2, 5, 8, 11))
    spec = dataclasses.replace(spec, **{family: {**getattr(spec, family), key: (0, upper)}})
    pruned = run_generation(spec, model_with_cl, (-1e9, 1e9))
    reference = run_without_symmetry_or_vocabulary(monkeypatch, spec, model_with_cl, (-1e9, 1e9))
    assert reference.status == pruned.status == "exhausted"
    assert reference.rejected_spec > 0
    assert pruned.rejected_spec == 0
    assert emitted(pruned) == emitted(reference)


def brute_force_automorphisms(sk: generate.Skeleton) -> set[tuple[int, ...]]:
    """Non-identity vertex permutations checked one by one against the
    definition: bonds with multiplicities and link flags, tips, element and
    fringe-code restrictions."""
    links = set(sk.link_edges)
    bonds = Counter(
        (frozenset((u, v)), m, (u, v) in links) for u, v, m in sk.edges
    )
    found = set()
    n = sk.n_vertices
    for perm in itertools.permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        image = {v + 1: perm[v] + 1 for v in range(n)}
        mapped = Counter(
            (frozenset(image[x] for x in pair), m, link) for (pair, m, link), k in bonds.items()
            for _ in range(k)
        )
        if mapped != bonds:
            continue
        if {image[t] for t in sk.tips} != set(sk.tips):
            continue
        if any(
            sk.allowed_elements[image[v]] != sk.allowed_elements[v]
            or sk.allowed_codes[image[v]] != sk.allowed_codes[v]
            for v in range(1, n + 1)
        ):
            continue
        found.add(perm)
    return found


@st.composite
def small_skeletons(draw) -> generate.Skeleton:
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    edges = tuple((u, v, draw(st.integers(1, 3))) for u, v in chosen)
    link_edges = tuple((u, v) for u, v, _ in edges if draw(st.booleans()))
    tips = frozenset(draw(st.sets(st.integers(1, n))))
    elements = {v: draw(st.sampled_from((("C",), ("C", "O")))) for v in range(1, n + 1)}
    codes = {v: draw(st.sampled_from((("C",), ("C", "C(-H)")))) for v in range(1, n + 1)}
    return generate.Skeleton(n, edges, link_edges, tips, elements, codes)


def _uniform_skeleton(n, edges, link_edges=(), tips=()):
    return generate.Skeleton(
        n, tuple(edges), tuple(link_edges), frozenset(tips),
        {v: ("C",) for v in range(1, n + 1)}, {v: ("C",) for v in range(1, n + 1)},
    )


SQUARE = [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)]


@settings(max_examples=300, deadline=None)
@given(small_skeletons())
# the square's 8 symmetries drop to 4 once two opposite edges are links
@example(_uniform_skeleton(4, SQUARE, link_edges=[(1, 2), (3, 4)]))
# a path's reversal is no automorphism once only one end is a tip
@example(_uniform_skeleton(3, [(1, 2, 1), (2, 3, 1)], tips=[3]))
# nor once the two ends differ in bond multiplicity
@example(_uniform_skeleton(3, [(1, 2, 1), (2, 3, 2)]))
def test_skeleton_automorphisms_match_brute_force(sk):
    assert set(generate._automorphisms(sk)) == brute_force_automorphisms(sk)


# -- the enumerator reads the seed bounds off the checker's plan --------------


def cc_bridge_polymer() -> ChemicalGraph:
    """The two-carbon a2 bridge polymer with the bridge's middle bond made
    double: bridge atoms 14 and 15 each give up a hydrogen."""
    g = parse_pmg(make_polymer(bridge_b=("C", "C")))
    labels = dict(g.atoms)
    spare = {
        min(w for u, v, _ in g.bonds for x, w in ((u, v), (v, u)) if x == end and labels[w] == "H")
        for end in (14, 15)
    }
    return ChemicalGraph(
        atoms=tuple(a for a in g.atoms if a[0] not in spare),
        bonds=tuple(
            (u, v, 2 if (u, v) == (14, 15) else m) for u, v, m in g.bonds if spare.isdisjoint((u, v))
        ),
        link_edges=g.link_edges,
    )


def test_absent_bond_bound_is_read_as_the_checker_reads_it():
    # no bd2 bound on a2 admits any double-bond count: the checker accepts
    # a C=C bridge there, so the enumerator must build it
    g = cc_bridge_polymer()
    base = forcing_spec(SMALL_CATALOG, cl_positions=())
    profile = twolayer.decompose(g, 2).profile
    spec = dataclasses.replace(
        base,
        double_bonds={k: b for k, b in base.double_bonds.items() if k != "a2"},
        **{attr: {**getattr(base, attr), **{k: (0, 40) for k in getattr(profile, attr)}}
           for attr in CONFIG_BOUNDS},
    )
    assert check_satisfies(g, spec).passed
    model = train_model([make_polymer(), serialize_pmg(g)])
    out = run_generation(spec, model, (-1e9, 1e9))
    assert out.status == "exhausted"
    assert canonical_signature(g, 2) in {r.signature for r in out.results}


def link_path_multiplicities(sk: generate.Skeleton, start: int, end: int) -> tuple[int, ...]:
    """Bond multiplicities along the link path of a skeleton from `start` to `end`."""
    bond, links = {}, {}
    for u, v, m in sk.edges:
        bond[u, v] = bond[v, u] = m
    for u, v in sk.link_edges:
        links.setdefault(u, []).append(v)
        links.setdefault(v, []).append(u)
    path = [start]
    while path[-1] != end:
        path.append(next(w for w in links[path[-1]] if w not in path))
    return tuple(bond[x, y] for x, y in zip(path, path[1:]))


BOND_BOUNDS = st.one_of(st.none(), st.lists(st.integers(0, 3), min_size=2, max_size=2).map(sorted).map(tuple))


@settings(max_examples=40, deadline=None)
@given(st.fixed_dictionaries({
    (attr, name): BOND_BOUNDS for attr in ("double_bonds", "triple_bonds") for name in ("a1", "a2")
}))
def test_skeleton_bond_patterns_are_those_the_plan_admits(bounds):
    base = forcing_spec(SMALL_CATALOG)
    tables = {
        attr: {k: b for k, b in getattr(base, attr).items() if k not in ("a1", "a2")}
        for attr in ("double_bonds", "triple_bonds")
    }
    for (attr, name), b in bounds.items():
        if b is not None:  # absent otherwise
            tables[attr][name] = b
    spec = dataclasses.replace(
        base, path_len={"a1": (1, 3), "a2": (1, 3)}, n_int=(0, 40), n_lnk=(0, 40), **tables
    )
    a1, a2 = spec.plan.edges["a1"], spec.plan.edges["a2"]
    ids = {name: i for i, name in enumerate(spec.seed.vertices, start=1)}
    got = Counter(
        tuple(link_path_multiplicities(sk, ids[e.u], ids[e.v]) for e in (a1, a2))
        for sk in generate._iter_skeletons(spec)
    )

    def admitted(edge, length):
        return [p for p in itertools.product((1, 2, 3), repeat=length) if edge.bonds_ok(list(p))]

    want = Counter(
        pair
        for len1, len2 in itertools.product((1, 2, 3), repeat=2)
        for pair in itertools.product(admitted(a1, len1), admitted(a2, len2))
    )
    assert got == want
