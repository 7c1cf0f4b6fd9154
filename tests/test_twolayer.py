from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from corpus import synthetic_corpus
from polyinfer.chemgraph import GraphError, SuppressedGraph, hydrogen_suppress, parse_pmg
from polyinfer.data import demo_polymer_text, example_polymer_text
from polyinfer.twolayer import (
    CountProfile,
    RootedTree,
    config_str,
    count_profile,
    decompose,
    edge_config,
    encode_tree,
    leaf_edge_adjacency_configs,
    make_edge_config,
    parse_code,
)
from reference_checks import reference_build_fringe, reference_count_profile
from spechelpers import oracle_candidates

BENZENE = """PMG 1
ATOM 1 C
ATOM 2 C
ATOM 3 C
ATOM 4 C
ATOM 5 C
ATOM 6 C
ATOM 7 H
ATOM 8 H
ATOM 9 H
ATOM 10 H
ATOM 11 H
ATOM 12 H
BOND 1 2 2
BOND 2 3 1
BOND 3 4 2
BOND 4 5 1
BOND 5 6 2
BOND 6 1 1
BOND 1 7 1
BOND 2 8 1
BOND 3 9 1
BOND 4 10 1
BOND 5 11 1
BOND 6 12 1
"""


def all_orderings(t: RootedTree) -> set[str]:
    """Every serialization of t under arbitrary child orderings."""
    child_langs = [
        [(m, s) for s in all_orderings(c)] for m, c in t.children
    ]
    out: set[str] = set()
    for perm in itertools.permutations(range(len(child_langs))):
        for combo in itertools.product(*(child_langs[i] for i in perm)):
            out.add(t.label + "".join(f"({'-=#'[m - 1]}{s})" for m, s in combo))
    return out


def brute_min_code(t: RootedTree) -> str:
    """Brute-force canonical form: lexicographic minimum over all orderings."""
    return min(all_orderings(t))


def random_tree(rng: random.Random, n: int, labels=("C", "O"), mults=(1, 2)) -> RootedTree:
    parents = [None] + [rng.randrange(i) for i in range(1, n)]
    return tree_from_parents(
        parents,
        [rng.choice(labels) for _ in range(n)],
        [rng.choice(mults) for _ in range(n)],
    )


def tree_from_parents(parents, labels, mults) -> RootedTree:
    n = len(parents)
    kids: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(1, n):
        kids[parents[i]].append(i)

    def build(i: int) -> RootedTree:
        return RootedTree(labels[i], tuple((mults[j], build(j)) for j in kids[i]))

    return build(0)


def shuffled(t: RootedTree, rng: random.Random) -> RootedTree:
    children = list(t.children)
    rng.shuffle(children)
    return RootedTree(t.label, tuple((m, shuffled(c, rng)) for m, c in children))


# -- canonical codes ---------------------------------------------------------


def test_encode_identity_under_relabeling():
    a = RootedTree("C", tuple((1, RootedTree("H")) for _ in range(4)))
    b = RootedTree("C", tuple((1, RootedTree("H")) for _ in range(4)))
    assert a.code == b.code == "C(-H)(-H)(-H)(-H)"


def test_encode_distinguishes_distinct_trees():
    t1 = parse_code("C(-C(-H))(=O)")
    t2 = parse_code("C(-C(=O))(-H)")
    assert t1.code != t2.code
    assert brute_min_code(t1) != brute_min_code(t2)


def test_encode_invariant_under_child_permutation():
    rng = random.Random(17)
    for _ in range(60):
        t = random_tree(rng, rng.randint(1, 8))
        assert shuffled(t, rng).code == t.code


def test_code_roundtrip():
    rng = random.Random(23)
    for _ in range(40):
        t = random_tree(rng, rng.randint(1, 7), labels=("C", "O", "N", "S(2)"))
        assert parse_code(t.code).code == t.code


def test_code_parses_valence_suffix_tokens():
    t = parse_code("S(2)(-C(-H)(-H)(-H))")
    assert t.label == "S(2)"
    assert t.children[0][1].label == "C"


def test_code_equality_matches_brute_force_small():
    # all rooted trees on <= 5 vertices over {C,O} x multiplicities {1,2}
    seen: dict[str, str] = {}
    for n in range(1, 6):
        for parents in itertools.product(*[range(i) for i in range(1, n)]):
            shapes = (None,) + parents
            for labels in itertools.product("CO", repeat=n):
                for mults in itertools.product((1, 2), repeat=n - 1):
                    t = tree_from_parents(list(shapes), list(labels), [0] + list(mults))
                    code = t.code
                    oracle = brute_min_code(t)
                    if code in seen:
                        assert seen[code] == oracle
                    else:
                        seen[code] = oracle
    assert len(seen) == len(set(seen.values()))


# -- decomposition -----------------------------------------------------------


def test_demo_polymer_decomposition_counts():
    g = parse_pmg(demo_polymer_text())
    dec = decompose(g, rho=2)
    assert len(dec.interior_vertices) == 29
    assert len(dec.exterior_vertices) == 26
    assert dec.interior_vertices == frozenset(range(1, 30))


def test_demo_polymer_exterior_strip_profile():
    g = parse_pmg(demo_polymer_text())
    dec1 = decompose(g, rho=1)
    dec2 = decompose(g, rho=2)
    # 19 vertices stripped in the first round, 7 more in the second
    assert len(dec1.exterior_vertices) == 19
    assert len(dec2.exterior_vertices - dec1.exterior_vertices) == 7


def test_benzene_all_interior():
    dec = decompose(parse_pmg(BENZENE), rho=2)
    assert len(dec.interior_vertices) == 6
    assert not dec.exterior_vertices
    assert all(ft.code == "C(-H)" for ft in dec.fringe_trees.values())


def test_small_tree_empty_interior():
    ethane = "PMG 1\nATOM 1 C\nATOM 2 C\nBOND 1 2 1\n"
    ethane += "".join(f"ATOM {i} H\n" for i in range(3, 9))
    ethane += "BOND 1 3 1\nBOND 1 4 1\nBOND 1 5 1\nBOND 2 6 1\nBOND 2 7 1\nBOND 2 8 1\n"
    dec = decompose(parse_pmg(ethane), rho=2)
    assert not dec.interior_vertices
    assert len(dec.exterior_vertices) == 2
    assert not dec.fringe_trees


def test_partition_invariants():
    g = parse_pmg(demo_polymer_text())
    s = hydrogen_suppress(g)
    for rho in (1, 2, 3):
        dec = decompose(g, rho=rho)
        assert dec.interior_vertices | dec.exterior_vertices == set(s.adj)
        assert not dec.interior_vertices & dec.exterior_vertices
        # an edge is interior iff neither end is exterior
        assert dec.interior_edges == {
            (u, v) for u, v, _ in s.bonds if not {u, v} & dec.exterior_vertices
        }
        # every suppressed vertex is in exactly one fringe tree
        assert sum(ft.heavy_size() for ft in dec.fringe_trees.values()) == len(s.atoms)


def test_rho_monotonicity():
    g = parse_pmg(demo_polymer_text())
    prev: frozenset[int] = frozenset()
    for rho in (1, 2, 3, 4):
        ext = decompose(g, rho=rho).exterior_vertices
        assert prev <= ext
        prev = ext


def test_fringe_heights_bounded():
    g = parse_pmg(demo_polymer_text())
    dec = decompose(g, rho=2)
    assert all(ft.heavy_height() <= 2 for ft in dec.fringe_trees.values())


def test_demo_polymer_target_fringe_count():
    g = parse_pmg(demo_polymer_text())
    dec = decompose(g, rho=2)
    codes = [ft.code for ft in dec.fringe_trees.values()]
    roots = sorted(u for u, ft in dec.fringe_trees.items() if ft.code == "C(-H)")
    assert codes.count("C(-H)") == 5
    assert roots == [1, 2, 4, 9, 20]


def pendant_tree_graph(rng: random.Random, cycle_len: int, n: int):
    """A cycle on 0..cycle_len-1 with random trees hung off it: each later
    vertex attaches to one earlier vertex."""
    cycle = [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
    tree = [(rng.randrange(v), v) for v in range(cycle_len, n)]
    return list(range(n)), cycle, tree


def pendant_heights(cycle_len: int, tree_edges) -> dict[int, int]:
    """Independent oracle: each vertex's height in its pendant tree, rooted
    at the tree's cycle vertex; cycle vertices without a tree get none."""
    children: dict[int, list[int]] = {}
    for parent, child in tree_edges:  # parent < child, so parent is nearer the cycle
        children.setdefault(parent, []).append(child)

    def height(v):
        return 1 + max(height(c) for c in children[v]) if v in children else 0

    heights = {child: height(child) for _, child in tree_edges}
    heights.update({r: height(r) for r in range(cycle_len) if r in children})
    return heights


def carbon_skeleton(vertices, edges) -> SuppressedGraph:
    """A hydrogen-suppressed graph of carbons joined by single bonds."""
    return SuppressedGraph(
        atoms=tuple((v, "C") for v in vertices),
        bonds=tuple(sorted((min(u, v), max(u, v), 1) for u, v in edges)),
        link_edges=frozenset(),
        connecting=None,
        hydrogens=tuple((v, 0) for v in vertices),
    )


def test_decompose_strips_leaves_round_by_round():
    # 4-cycle 0-1-2-3 with a three-leaf star centred on 4 hung off vertex 0
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (4, 6), (4, 7)]
    s = carbon_skeleton(range(8), edges)
    assert decompose(s, rho=1).exterior_vertices == {5, 6, 7}
    for rho in (2, 3):
        dec = decompose(s, rho=rho)
        assert dec.exterior_vertices == {4, 5, 6, 7}
        assert dec.interior_vertices == {0, 1, 2, 3}
        assert dec.interior_edges == {(0, 1), (1, 2), (2, 3), (0, 3)}
    # neopentane: the first round leaves the centre with no neighbour, so
    # no round takes it
    neopentane = carbon_skeleton(range(5), [(0, 1), (0, 2), (0, 3), (0, 4)])
    for rho in (1, 2, 3, 4):
        dec = decompose(neopentane, rho=rho)
        assert dec.interior_vertices == {0}
        assert dec.exterior_vertices == {1, 2, 3, 4}
        assert not dec.interior_edges


def test_exterior_matches_pendant_heights_oracle():
    rng = random.Random(5)
    for _ in range(20):
        cycle_len = rng.randint(3, 5)
        vertices, cycle, tree_edges = pendant_tree_graph(rng, cycle_len, cycle_len + rng.randint(0, 8))
        s = carbon_skeleton(vertices, cycle + tree_edges)
        heights = pendant_heights(cycle_len, tree_edges)
        tree = range(cycle_len, len(vertices))
        for rho in (1, 2, 3):
            assert decompose(s, rho=rho).exterior_vertices == {v for v in tree if heights[v] < rho}


# -- edge configurations -----------------------------------------------------


def test_edge_config_definition():
    assert make_edge_config("C", 3, "N", 2, 1) == ("C", 3, "N", 2, 1)
    assert make_edge_config("N", 2, "C", 3, 1) == ("C", 3, "N", 2, 1)


def test_edge_config_symmetric_endpoints():
    assert make_edge_config("C", 2, "C", 2, 2) == ("C", 2, "C", 2, 2)


def test_edge_config_requires_interior_edge():
    g = parse_pmg(demo_polymer_text())
    dec = decompose(g, rho=2)
    ext_edge = next((u, v) for u, v, _ in dec.suppressed.bonds if (u, v) not in dec.interior_edges)
    with pytest.raises(GraphError, match="interior"):
        edge_config(dec, ext_edge)


def test_demo_polymer_interior_config_multiset():
    g = parse_pmg(demo_polymer_text())
    dec = decompose(g, rho=2)
    configs = [edge_config(dec, e) for e in dec.interior_edges]
    assert len(configs) == len(dec.interior_edges) == 32
    # hand-enumerated over the demo polymer: two fused rings and the pendant
    # chain give eleven (C3,C3) edges, the link paths and ring joins the rest
    from collections import Counter

    counted = Counter(configs)
    assert counted == Counter(
        {
            ("C", 3, "C", 3, 1): 11,
            ("C", 3, "C", 4, 1): 7,
            ("C", 2, "C", 3, 1): 6,
            ("C", 2, "N", 3, 1): 3,
            ("C", 2, "C", 4, 1): 1,
            ("C", 3, "N", 3, 1): 1,
            ("C", 3, "O", 2, 1): 1,
            ("C", 4, "N", 3, 1): 1,
            ("N", 3, "O", 2, 1): 1,
        }
    )
    # the six link edges are interior and all single
    link_configs = [edge_config(dec, e) for e in dec.suppressed.link_edges]
    assert all(cfg[4] == 1 for cfg in link_configs)
    assert len(link_configs) == 6
    # the count profile holds the same multisets, keyed by their strings
    profile = count_profile(dec)
    assert profile.ec_int == Counter(config_str(c) for c in configs)
    assert profile.ec_lnk == Counter(config_str(c) for c in link_configs)
    assert (profile.n, profile.n_int, profile.link_edges, profile.link_vertices) == (55, 29, 6, 4)


def test_leaf_edge_configs_orientation():
    g = parse_pmg(BENZENE)
    assert leaf_edge_adjacency_configs(hydrogen_suppress(g)) == []
    demo_polymer = hydrogen_suppress(parse_pmg(demo_polymer_text()))
    configs = leaf_edge_adjacency_configs(demo_polymer)
    # the carbonyl leaf is recorded inner-first
    assert ("C", "O", 2) in configs


def test_count_profile_and_fringe_trees_match_the_references():
    texts = [
        demo_polymer_text(),
        BENZENE,
        *(example_polymer_text(i) for i in (1, 2, 3, 4)),
        *(text for _, text in synthetic_corpus(random.Random(5), 60)),
        *oracle_candidates((2, 5, 9), 3),
    ]
    for text in texts:
        g = parse_pmg(text)
        for rho in (1, 2, 3):
            dec = decompose(g, rho)
            for root, tree in dec.fringe_trees.items():
                assert tree == reference_build_fringe(dec.suppressed, root, dec.exterior_vertices)
                assert tree.code == encode_tree(tree)
            inside, adj = dec.interior_vertices, dec.suppressed.adj
            assert list(dec.interior_adj) == sorted(inside)
            assert dec.interior_adj == {v: {w: m for w, m in adj[v].items() if w in inside} for v in inside}
            got, want = count_profile(dec), reference_count_profile(dec)
            for field in dataclasses.fields(CountProfile):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert a == b, (field.name, text)
                if isinstance(b, dict):  # the same keys in the same order
                    assert list(a.items()) == list(b.items()), (field.name, text)
