from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from corpus import make_polymer
from polyinfer.chemgraph import ChemicalGraph, parse_pmg
from polyinfer.data import example_polymer_text, fringe_catalog_text
from polyinfer.topospec import (
    COUNT_BOUNDS,
    PROPERTY_ELEMENTS,
    SeedEdge,
    SeedGraph,
    SpecError,
    TopologicalSpec,
    build_instance_Ib,
    check_satisfies,
    check_witness,
    element_set,
    find_expansion_witness,
    load_fringe_catalog,
    two_ring_seed,
)
from polyinfer.twolayer import decompose
from reference_checks import reference_check_witness, reference_find_expansion_witness, reference_spec_report
from spechelpers import SMALL_CATALOG, forcing_spec, oracle_candidates


# -- element sets -------------------------------------------------------------


def test_element_sets_match_published_tables():
    assert set(element_set("AmD")) == {"H", "C", "N", "O", "Cl", "S(2)"}
    assert set(element_set("RfId")) == {"H", "C", "O(1)", "O(2)", "N", "Cl", "Si(4)", "F"}
    assert len(element_set("RfId")) == 8
    assert element_set("HcL") == element_set("Tg")
    assert set(element_set("Prm")) == {"H", "C", "O", "N", "Cl"}
    assert len(element_set("Prm")) == 5


def test_element_set_unknown_tag():
    with pytest.raises(SpecError, match="unknown property"):
        element_set("XyZ")


# -- seed graph ---------------------------------------------------------------


def test_two_ring_seed_shape():
    seed = two_ring_seed()
    assert len(seed.vertices) == 12
    assert len(seed.edges) == 14
    links = [e for e in seed.edges if e.link]
    assert [e.name for e in links] == ["a1", "a2"]
    assert all(e.kind == "exact" for e in seed.edges if not e.link)


def test_seed_rejects_link_on_exact_edge():
    with pytest.raises(SpecError, match="replaceable"):
        SeedGraph(("x", "y"), (SeedEdge("a", "x", "y", kind="exact", link=True),))


def test_seed_rejects_self_loop():
    with pytest.raises(SpecError, match="self-loop"):
        SeedGraph(("x",), (SeedEdge("a", "x", "x", kind="exact"),))


# -- instance builder ---------------------------------------------------------


def oracle_bounds(n_lb: int) -> dict:
    """Each published growth formula, one line apiece."""
    out = {}
    out["n_star"] = n_lb + 10
    out["n_int"] = (14, n_lb + 10)
    out["n_lnk"] = (2, 2 + max(n_lb - 15, 0))
    out["ell_lb"] = 2 + max((n_lb - 15) // 4, 0)
    out["ell_ub"] = out["ell_lb"] + 5
    out["bd2_link_ub"] = out["ell_lb"] // 3
    out["na_O"] = 5 + max(n_lb - 15, 0)
    out["na_other"] = 2 + max((n_lb - 15) // 4, 0)
    out["fc_1_4"] = 12 + max(n_lb - 15, 0)
    out["fc_5_12"] = 8 + max((n_lb - 15) // 2, 0)
    out["fc_13_17"] = 5 + max((n_lb - 15) // 4, 0)
    return out


@pytest.mark.parametrize("n_lb", [14, 20, 27])
def test_instance_Ib_matches_formula_oracle(n_lb):
    spec = build_instance_Ib("AmD", n_lb)
    want = oracle_bounds(n_lb)
    assert spec.n == (n_lb, want["n_star"])
    assert spec.n_int == want["n_int"]
    assert spec.n_lnk == want["n_lnk"]
    for a in ("a1", "a2"):
        assert spec.path_len[a] == (want["ell_lb"], want["ell_ub"])
        assert spec.double_bonds[a] == (0, want["bd2_link_ub"])
        assert spec.branch_count_edge[a] == (0, 3)
        assert spec.branch_height_edge[a] == (0, 5)
    assert spec.na["O"] == (0, want["na_O"])
    assert spec.na["S(2)"] == (0, want["na_other"])
    assert spec.na["H"] == (0, want["n_star"])
    codes = spec.fringe_catalog
    assert spec.fc[codes[0]] == (0, want["fc_1_4"])
    assert spec.fc[codes[7]] == (0, want["fc_5_12"])
    assert spec.fc[codes[16]] == (0, want["fc_13_17"])
    assert all(spec.triple_bonds[e.name] == (0, 0) for e in spec.seed.edges)


def test_instance_Ib_fixed_values_n14():
    spec = build_instance_Ib("AmD", 14)
    assert spec.path_len["a1"] == (2, 7)
    assert spec.n_lnk == (2, 2)
    assert spec.double_bonds["a1"] == (0, 0)
    assert spec.n == (14, 24)


def test_instance_Ib_fixed_values_n27():
    spec = build_instance_Ib("AmD", 27)
    assert spec.path_len["a1"][0] == 2 + 12 // 4 == 5
    assert spec.n_lnk == (2, 14)
    assert spec.fc[spec.fringe_catalog[0]] == (0, 24)


def test_instance_Ib_ring_bond_pattern():
    spec = build_instance_Ib("Tg", 14)
    for i in (3, 5, 7, 9, 11, 13):
        assert spec.double_bonds[f"a{i}"] == (0, 0)
    for i in (4, 6, 8, 10, 12, 14):
        assert spec.double_bonds[f"a{i}"] == (1, 1)
    assert all(spec.vertex_elements[v] == ("C",) for v in spec.seed.vertices)


def test_instance_Ib_guards_zero_below_threshold():
    for n_lb in range(1, 31):
        want = oracle_bounds(n_lb)
        if n_lb <= 15:
            assert want["ell_lb"] == 2 and want["ell_ub"] == 7
            assert want["n_lnk"] == (2, 2)
            assert want["na_O"] == 5 and want["fc_1_4"] == 12
        if n_lb < 4:
            # n_int lower bound 14 exceeds n* = n_lb + 10: not constructible
            with pytest.raises(SpecError):
                build_instance_Ib("Prm", n_lb)
            continue
        spec = build_instance_Ib("Prm", n_lb)
        assert spec.path_len["a1"] == (want["ell_lb"], want["ell_ub"])
        assert spec.n_lnk == want["n_lnk"]
        assert spec.na["O"] == (0, want["na_O"])


def test_instance_Ib_byte_stable():
    a = build_instance_Ib("HcL", 20).to_json()
    b = build_instance_Ib("HcL", 20).to_json()
    assert a == b
    assert TopologicalSpec.from_json(a).to_json() == a


def test_catalog_loads_and_validates():
    codes = load_fringe_catalog(fringe_catalog_text())
    assert len(codes) == 17
    assert codes[0] == "C" and codes[1] == "C(-H)"


# -- checker ------------------------------------------------------------------


def test_minimal_expansion_satisfies_Ib():
    spec = build_instance_Ib("AmD", 14)
    g = parse_pmg(make_polymer())  # two benzene rings, two CH2 links
    report = check_satisfies(g, spec)
    assert report.witness is not None
    assert report.passed, report.failures()
    assert report.witness["paths"]["a1"][0] in (1, 4, 7, 10)


def test_reference_examples_satisfy_their_instance():
    # n_lb chosen per example so its size fits [n_lb, n_lb + 10]
    for idx, n_lb in ((1, 14), (2, 16), (3, 16), (4, 17)):
        g = parse_pmg(example_polymer_text(idx))
        spec = build_instance_Ib("HcL", n_lb)
        report = check_satisfies(g, spec)
        assert report.passed, (idx, report.failures())


def test_checker_flags_na_violation():
    spec = build_instance_Ib("AmD", 14)
    # six oxygens exceed na_UB(O) = 5
    g = parse_pmg(
        make_polymer(
            bridge_a=("O",),
            bridge_b=("O",),
            subst={2: ("O",), 3: ("O",), 5: ("O",), 6: ("O",)},
        )
    )
    report = check_satisfies(g, spec)
    assert not report.passed
    assert any("na[O]" in f for f in report.failures())


def test_failed_families_name_each_failing_check_once():
    spec = build_instance_Ib("AmD", 14)
    g = parse_pmg(
        make_polymer(
            bridge_a=("O",),
            bridge_b=("O",),
            subst={2: ("O",), 3: ("O",), 5: ("O",), 6: ("O",), 8: ("S(2)", "C")},
        )
    )
    report = check_satisfies(g, spec)
    families = report.failed_families()
    assert families == sorted(set(families))
    assert {"na", "fringe trees in catalog"} <= set(families)
    assert all(any(f.startswith(family) for f in report.failures()) for family in families)
    # a witness not found, or given and not certified, is a family of its
    # own; a certified one adds none
    ring = parse_pmg(single_ring_text())
    bounds = ["ac_lnk configs declared", "ec_lnk configs declared", "n", "n_int", "n_lnk"]
    assert check_satisfies(ring, spec).failed_families() == bounds + ["witness"]
    assert check_satisfies(ring, spec, bridged_witness()).failed_families() == bounds + ["witness"]
    oxygens = parse_pmg(make_polymer(bridge_a=("O",), bridge_b=("O",), subst={p: ("O",) for p in (2, 3, 5, 6)}))
    searched = check_satisfies(oxygens, spec)
    assert searched.witness is not None and "na" in searched.failed_families()
    assert check_satisfies(oxygens, spec, searched.witness).failed_families() == searched.failed_families()


def test_spec_value_of_the_wrong_type_is_a_spec_error():
    text = build_instance_Ib("AmD", 14).to_json()
    for key, value in (("n_int", 5), ("na", {"C": 3}), ("na", [1, 2]), ("rho", [2]), ("n", ["a", 2])):
        broken = json.loads(text)
        broken[key] = value
        with pytest.raises(SpecError, match=repr(key)):
            TopologicalSpec.from_json(json.dumps(broken))


def test_checker_flags_unknown_fringe():
    spec = build_instance_Ib("AmD", 14)
    # NH2 substituent's fringe tree is not in the default catalog... it is;
    # use an S(2)H pendant instead, which no catalog tree covers
    g = parse_pmg(make_polymer(subst={2: ("S(2)", "C")}))
    report = check_satisfies(g, spec)
    assert not report.passed
    assert any("fringe trees in catalog" in f for f in report.failures())


def single_ring_text() -> str:
    """A benzene ring with two link edges: a single-ring monomer."""
    text = """PMG 1
ATOM 1 C
ATOM 2 C
ATOM 3 C
ATOM 4 C
ATOM 5 C
ATOM 6 C
BOND 1 2 1
BOND 2 3 2
BOND 3 4 1
BOND 4 5 2
BOND 5 6 1
BOND 6 1 2
LINK 1 2
LINK 2 3
"""
    for i, h in ((1, 7), (2, 8), (3, 9), (4, 10), (5, 11), (6, 12)):
        text += f"ATOM {h} H\nBOND {i} {h} 1\n"
    return text


def test_checker_flags_wrong_topology():
    spec = build_instance_Ib("AmD", 14)
    # single-ring monomer cannot embed the two-ring seed
    g = parse_pmg(single_ring_text())
    report = check_satisfies(g, spec)
    assert report.witness is None
    assert not report.passed


def test_checker_rejects_branch_on_seed_vertex():
    spec = build_instance_Ib("AmD", 16)
    # pendant interior chain off a ring vertex: bl_UB(u) = 0 forbids it
    g = parse_pmg(make_polymer(bridge_a=("C", "C"), subst={2: ("C", "C", "C")}))
    report = check_satisfies(g, spec)
    assert report.witness is None


def test_pass_implies_feature_counts_within_bounds():
    # cross-module consistency: a passing graph's featurized counts land
    # inside the specification's intervals for every shared key
    from polyinfer.features import DataRecord, Dataset, build_registry, featurize

    spec = build_instance_Ib("HcL", 16)
    g = parse_pmg(example_polymer_text(3))
    assert check_satisfies(g, spec).passed
    reg = build_registry(Dataset((DataRecord("g", g, 1.0, {}),)), rho=2)
    fv = featurize(g, reg)
    tables = {"ec_int": spec.ec_int, "ec_lnk": spec.ec_lnk, "ac_lf": spec.ac_lf,
              "fc": spec.fc, "na": spec.na}
    checked = 0
    for j, d in enumerate(reg.descriptors):
        bounds = tables.get(d.kind, {}).get(d.key)
        if bounds is None:
            continue
        assert bounds[0] <= fv.values[j] <= bounds[1], (d.name, fv.values[j], bounds)
        checked += 1
    assert checked >= 10


def test_fringe_vertex_restriction_enforced():
    import dataclasses

    spec = build_instance_Ib("AmD", 14)
    # pin one ring position to the bare-carbon fringe: the plain minimal
    # expansion (which needs C(-H) everywhere off the joins) loses its witness
    restricted = dataclasses.replace(spec, fringe_vertex={"b2": ("C",)})
    g = parse_pmg(make_polymer())
    assert check_satisfies(g, spec).passed
    assert check_satisfies(g, restricted).witness is None


def test_spec_rejects_inverted_bounds():
    spec = build_instance_Ib("AmD", 14)
    with pytest.raises(SpecError, match="lower"):
        TopologicalSpec.from_json(
            spec.to_json().replace('"n": [\n    14,\n    24\n  ]', '"n": [\n    30,\n    24\n  ]')
        )


@pytest.mark.parametrize(
    "table",
    ["vertex_elements", "branch_count_vertex", "branch_height_vertex", "path_len",
     "branch_count_edge", "branch_height_edge", "double_bonds", "triple_bonds"],
)
def test_spec_rejects_a_table_key_the_seed_lacks(table):
    import dataclasses

    spec = build_instance_Ib("AmD", 14)
    value = ("C",) if table == "vertex_elements" else (0, 1)
    kind = "vertex" if table.endswith(("vertex", "elements")) else "edge"
    with pytest.raises(SpecError, match=rf"{table} references unknown {kind} 'zz'"):
        dataclasses.replace(spec, **{table: {**getattr(spec, table), "zz": value}})


def test_spec_rejects_a_repeated_catalog_code():
    import dataclasses

    spec = build_instance_Ib("AmD", 14)
    first = spec.fringe_catalog[0]
    with pytest.raises(SpecError, match=f"catalog code {first!r} is repeated"):
        dataclasses.replace(spec, fringe_catalog=(first,) + spec.fringe_catalog)


def test_spec_json_roundtrip_with_catalog_restrictions():
    import dataclasses

    spec = dataclasses.replace(
        build_instance_Ib("AmD", 14),
        fringe_vertex={"b2": ("C",), "b3": ("C", "C(-H)")},
        fringe_edge={"a1": ("C(-H)(-H)",)},
    )
    text = spec.to_json()
    back = TopologicalSpec.from_json(text)
    assert back.fringe_vertex == spec.fringe_vertex
    assert back.fringe_edge == spec.fringe_edge
    assert back == spec
    assert back.to_json() == text


def test_demo_polymer_link_counts_keep_both_meanings():
    # descriptor n_lnk counts link edges; the specification's n_lnk counts
    # vertices with two incident link edges
    from polyinfer.data import demo_polymer_text
    from polyinfer.features import DataRecord, Dataset, build_registry, featurize

    g = parse_pmg(demo_polymer_text())
    reg = build_registry(Dataset((DataRecord("demo", g, 1.0, {}),)), rho=2)
    assert featurize(g, reg).values[reg.names.index("n_lnk")] == 6
    report = check_satisfies(g, build_instance_Ib("AmD", 14))
    assert next(c.measured for c in report.checks if c.name == "n_lnk") == 4


# -- the witness search against the earlier full-scan search ------------------


def assert_same_witness(text: str, spec: TopologicalSpec) -> bool:
    """The same (witness, message), dict order included; whether one
    exists.  A witness found also passes `check_witness`."""
    dec = decompose(parse_pmg(text), spec.rho)
    got = find_expansion_witness(dec, spec)
    want = reference_find_expansion_witness(dec, spec)
    assert json.dumps(got) == json.dumps(want), text
    if got[0] is not None:
        assert check_witness(dec, spec, got[0]) is not None, text
    return got[0] is not None


def test_witness_matches_reference_on_a_closed_space():
    space = list(oracle_candidates((2, 3, 5, 6), 3))
    closed = forcing_spec(SMALL_CATALOG, 3, (2, 3, 5, 6))
    # a2 bridges of two atoms and Cl at the pinned positions 5 and 6 leave
    # no embedding under this one
    narrow = forcing_spec(SMALL_CATALOG, 2, (2, 3))
    assert all(assert_same_witness(text, closed) for text in space)
    found = [assert_same_witness(text, narrow) for text in space]
    assert 0 < sum(found) < len(found)


def test_witness_matches_reference_on_the_example_polymers():
    texts = [example_polymer_text(i) for i in (1, 2, 3, 4)]
    for tag in PROPERTY_ELEMENTS:
        for n_lb in (14, 17, 27):
            spec = build_instance_Ib(tag, n_lb)
            for text in texts:
                assert_same_witness(text, spec)


def test_witness_matches_reference_without_a_witness():
    cases = [
        (single_ring_text(), build_instance_Ib("AmD", 14)),  # interior smaller than seed
        (make_polymer(bridge_a=("C", "C"), subst={2: ("C", "C", "C")}), build_instance_Ib("AmD", 16)),
    ]
    for text, spec in cases:
        assert not assert_same_witness(text, spec)


# -- certifying a given witness -----------------------------------------------


def bridged_witness(a2_path=(4, 14, 15, 10)) -> dict:
    """The seed embedding of a two-ring polymer built by `make_polymer`,
    written down: seed vertex bi is ring atom i, bridge a1 is 1-13-7 and
    bridge a2 runs 4-14-...-10."""
    return {"images": {f"b{i}": i for i in range(1, 13)}, "paths": {"a1": [1, 13, 7], "a2": list(a2_path)}}


@pytest.fixture(scope="module")
def bridged():
    """A forcing-space member with a two-atom a2 bridge, decomposed, and
    the forcing spec."""
    return decompose(parse_pmg(make_polymer(bridge_b=("C", "C"))), 2), forcing_spec(SMALL_CATALOG)


def test_check_witness_accepts_the_embedding_and_the_one_searched_for(bridged):
    dec, spec = bridged
    assert check_witness(dec, spec, bridged_witness()) is not None
    found, _ = find_expansion_witness(dec, spec)
    assert check_witness(dec, spec, found) is not None


def test_check_witness_rejects_an_image_of_the_wrong_element(bridged):
    dec, spec = bridged
    only_o = dataclasses.replace(spec, vertex_elements={**spec.vertex_elements, "b2": ("O",)})
    assert check_witness(dec, only_o, bridged_witness()) is None


def crossed_square():
    """Carbon 1 at the centre, bonded to carbons 2-5, with the bonds 2-4
    and 3-5 besides: two triangles that share the centre, whose corners
    have two heavy neighbours each and the centre four.  Hydrogens fill
    the valences; no link edges.  Decomposed at rho 2, all five carbons
    are interior."""
    heavy = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (3, 5)]
    atoms = [(i, "C") for i in range(1, 6)] + [(i, "H") for i in range(6, 14)]
    hydrogens = [(corner, 6 + 2 * k + j) for k, corner in enumerate((2, 3, 4, 5)) for j in (0, 1)]
    return decompose(ChemicalGraph(atoms=tuple(atoms), bonds=tuple((u, v, 1) for u, v in heavy + hydrogens)), 2)


def bare_spec(seed: SeedGraph, **tables) -> TopologicalSpec:
    """A spec on `seed` with no count bounds, for structural checks only:
    every path length 1..2 unless given, no branches unless given."""
    empty = {attr: {} for attr in COUNT_BOUNDS}
    kwargs = dict(
        seed=seed, rho=2, elements=("H", "C"), vertex_elements={}, fringe_catalog=("C", "C(-H)(-H)"),
        n=(0, 50), n_int=(0, 50), n_lnk=(0, 50),
        path_len={e.name: (1, 2) for e in seed.edges if e.kind == "path"},
        branch_count_edge={}, branch_height_edge={}, branch_count_vertex={}, branch_height_vertex={},
        double_bonds={}, triple_bonds={}, **empty,
    )
    return TopologicalSpec(**{**kwargs, **tables})


def test_check_witness_rejects_two_seed_vertices_on_one_image():
    # seed vertices s and t, each with two length-1 paths and room for a
    # branch, both at the centre: every other test passes
    seed = SeedGraph(("s", "t", "a", "b", "c", "d"), (
        SeedEdge("p1", "s", "a", "path"), SeedEdge("p2", "s", "b", "path"),
        SeedEdge("p3", "t", "c", "path"), SeedEdge("p4", "t", "d", "path"),
        SeedEdge("k1", "a", "c", "exact"), SeedEdge("k2", "b", "d", "exact"),
    ))
    spec = bare_spec(seed, branch_count_vertex={"s": (0, 1), "t": (0, 1)})
    witness = {"images": {"s": 1, "t": 1, "a": 2, "b": 3, "c": 4, "d": 5},
               "paths": {"p1": [1, 2], "p2": [1, 3], "p3": [1, 4], "p4": [1, 5]}}
    assert check_witness(crossed_square(), spec, witness) is None


def test_check_witness_rejects_a_path_through_a_used_vertex():
    # two length-2 paths across the square, both through the centre:
    # every other test passes
    seed = SeedGraph(("a", "b", "c", "d"), (
        SeedEdge("p1", "a", "b", "path"), SeedEdge("p2", "c", "d", "path"),
        SeedEdge("k1", "a", "c", "exact"), SeedEdge("k2", "b", "d", "exact"),
    ))
    witness = {"images": {"a": 2, "b": 3, "c": 4, "d": 5}, "paths": {"p1": [2, 1, 3], "p2": [4, 1, 5]}}
    assert check_witness(crossed_square(), bare_spec(seed), witness) is None


def test_check_witness_rejects_a_path_of_the_wrong_length():
    # a three-atom a2 bridge where the forcing spec admits at most two
    dec = decompose(parse_pmg(make_polymer(bridge_b=("C", "C", "C"))), 2)
    spec = forcing_spec(SMALL_CATALOG)
    assert check_witness(dec, spec, bridged_witness(a2_path=(4, 14, 15, 16, 10))) is None
    assert check_witness(dec, dataclasses.replace(spec, path_len={**spec.path_len, "a2": (2, 4)}),
                         bridged_witness(a2_path=(4, 14, 15, 16, 10))) is not None


def test_check_witness_rejects_a_non_link_path_over_link_edges(bridged):
    dec, spec = bridged
    edges = tuple(dataclasses.replace(e, link=False) if e.name == "a1" else e for e in spec.seed.edges)
    plain_a1 = dataclasses.replace(spec, seed=SeedGraph(spec.seed.vertices, edges))
    assert check_witness(dec, plain_a1, bridged_witness()) is None


def test_check_witness_rejects_an_uncovered_interior_edge():
    # a chord 2-5 across ring 1, each end giving up its hydrogen; the seed
    # vertices there may carry a branch, so only the cover fails
    g = parse_pmg(make_polymer(bridge_b=("C", "C")))
    spare = {min(w for w in g.adj[end] if g.labels[w] == "H") for end in (2, 5)}
    chorded = ChemicalGraph(
        atoms=tuple(a for a in g.atoms if a[0] not in spare),
        bonds=tuple(b for b in g.bonds if spare.isdisjoint(b[:2])) + ((2, 5, 1),),
        link_edges=g.link_edges,
    )
    spec = forcing_spec(SMALL_CATALOG)
    spec = dataclasses.replace(spec, branch_count_vertex={**spec.branch_count_vertex, "b2": (0, 1), "b5": (0, 1)})
    assert check_witness(decompose(chorded, 2), spec, bridged_witness()) is None


def test_an_empty_path_is_no_seed_expansion(bridged):
    dec, spec = bridged
    witness = {"images": bridged_witness()["images"], "paths": {"a1": [], "a2": [4, 14, 15, 10]}}
    assert check_witness(dec, spec, witness) is None
    assert not reference_check_witness(dec, spec, witness)
    report = check_satisfies(dec, spec, witness)
    assert report.witness is None and not report.passed
    assert report.failures()[-1] == "witness: the given embedding is not a seed expansion"


@pytest.mark.parametrize("chain", [(), ("C", "C", "C")])
def test_a_branch_lower_bound_needs_a_pendant_tree(chain):
    # b2 must carry exactly one pendant tree of height 1: a C-C-C chain at
    # ring position 2 leaves one interior carbon hanging there at rho 2,
    # and without it every interior vertex is embedded and none is left
    text = make_polymer(bridge_b=("C", "C"), subst={2: chain} if chain else None)
    dec = decompose(parse_pmg(text), 2)
    spec = forcing_spec(SMALL_CATALOG)
    spec = dataclasses.replace(
        spec,
        branch_count_vertex={**spec.branch_count_vertex, "b2": (1, 1)},
        branch_height_vertex={**spec.branch_height_vertex, "b2": (1, 1)},
    )
    searched, message = find_expansion_witness(dec, spec)
    certified = check_witness(dec, spec, bridged_witness())
    if chain:
        assert searched is not None, message
        assert searched["attachments"] == {"2": [1]}
        assert certified == {2: [1]}
    else:
        assert (searched, message) == (None, "no seed-expansion embedding found")
        assert certified is None
    assert reference_find_expansion_witness(dec, spec)[0] == searched
    assert reference_check_witness(dec, spec, bridged_witness()) == bool(chain)


# -- the report built on read against the eager one ---------------------------


def report_cases() -> list[tuple[str, TopologicalSpec]]:
    """Forcing-space members under the forcing spec, the example polymers
    under the instance Ib of each property tag, and two graphs without a
    witness under theirs."""
    forcing = forcing_spec(SMALL_CATALOG)
    cases = [(text, forcing) for text in list(oracle_candidates())[::61]]
    examples = [example_polymer_text(i) for i in (1, 2, 3, 4)]
    cases += [(text, build_instance_Ib(tag, n_lb)) for tag in PROPERTY_ELEMENTS
              for n_lb in (14, 17) for text in examples]
    cases += [
        (single_ring_text(), build_instance_Ib("AmD", 14)),
        (make_polymer(bridge_a=("C", "C"), subst={2: ("C", "C", "C")}), build_instance_Ib("AmD", 16)),
    ]
    return cases


REPORT_CASES = report_cases()
SCALAR_MEASURES = {"n": "n", "n_int": "n_int", "n_lnk": "link_vertices"}


@st.composite
def drawn_checks(draw):
    """A graph's decomposition and its spec with some bounds redrawn near
    the measured counts, so that some rows fail: a scalar bound, or per
    count family a few keys rebounded or dropped from the table (a dropped
    observed key fails that family's membership test; `fc` keys are only
    rebounded, since they must name catalog codes)."""
    text, spec = draw(st.sampled_from(REPORT_CASES))
    dec = decompose(parse_pmg(text), spec.rho)
    profile = dec.profile

    def near(measured: int) -> tuple[int, int]:
        lo = draw(st.integers(max(measured - 2, 0), measured + 2))
        return lo, draw(st.integers(lo, max(lo, measured + 2)))

    changes = {}
    for attr in draw(st.lists(st.sampled_from([*SCALAR_MEASURES, *COUNT_BOUNDS]), unique=True, max_size=4)):
        if attr in SCALAR_MEASURES:
            changes[attr] = near(getattr(profile, SCALAR_MEASURES[attr]))
            continue
        table = dict(getattr(spec, attr))
        counts = getattr(profile, attr)
        keys = sorted(table.keys() | (set() if attr == "fc" else counts.keys()))
        for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)) if keys else ():
            if attr != "fc" and draw(st.booleans()):
                table.pop(key, None)
            else:
                table[key] = near(counts.get(key, 0))
        changes[attr] = table
    return dec, dataclasses.replace(spec, **changes)


def rebounded(text: str, elements: tuple[str, ...] | None = None, **tables) -> tuple:
    """A forcing-space member's decomposition and the forcing spec with its
    alphabet replaced, when given, and each given count table's rows
    replaced (a None bound drops the row)."""
    spec = forcing_spec(SMALL_CATALOG)
    changes = {} if elements is None else {"elements": elements}
    for attr, rows in tables.items():
        table = {**getattr(spec, attr), **rows}
        changes[attr] = {key: bounds for key, bounds in table.items() if bounds is not None}
    return decompose(parse_pmg(text), 2), dataclasses.replace(spec, **changes)


# a member whose a1 link edge 1-13 is its connecting edge, so that it has
# connecting-vertex symbols (`ns_cnt`) to count
CONNECTED = make_polymer(bridge_b=("C", "C")) + "CONNECT 1 13\n"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn_checks(), st.sampled_from(["search", "known", "foreign"]))
# a declared key the profile lacks, with lower bound 1
@example(rebounded(CONNECTED, na={"O": (1, 6)}), "search")
# profile keys without a row in a family whose keys must be declared
@example(rebounded(CONNECTED, na={"H": None}, fc={"C(-H)": None}), "search")
# a profile key with a row in such a family, but not declared: Cl outside
# the alphabet, its `na` row kept
@example(rebounded(make_polymer(subst={5: ("Cl",)}), elements=("H", "C", "O")), "search")
# profile keys in families with no declared keys: without a row, and a
# row with lower bound 1 on a key the profile lacks
@example(rebounded(CONNECTED, ns_cnt={"(C,2)": None, "(C,3)": None}, na_int={"C": None}), "search")
@example(rebounded(CONNECTED, ns_cnt={"(O,2)": (1, 2)}, na_int={"Cl": (1, 40)}), "search")
def test_report_built_on_read_matches_the_eager_report(case, source):
    # the witness is searched for, or given: the graph's own (none where
    # it has no embedding), or the embedding of another graph
    dec, spec = case
    if source == "known":
        witness = find_expansion_witness(dec, spec)[0]
    else:
        witness = bridged_witness() if source == "foreign" else None
    report = check_satisfies(dec, spec, witness)
    want = reference_spec_report(dec, spec, witness)
    assert report.passed == want.passed
    assert report.checks == want.checks
    assert report.memberships == want.memberships
    assert report.failures() == want.failures
    assert report.failed_families() == want.failed_families
