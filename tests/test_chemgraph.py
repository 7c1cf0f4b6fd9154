from __future__ import annotations

import ast
import inspect
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyinfer import chemgraph
from polyinfer.chemgraph import (
    ELEMENTS,
    ChemicalGraph,
    GraphError,
    PmgParseError,
    SuppressedGraph,
    hydrogen_suppress,
    is_circular_set,
    parse_pmg,
    serialize_pmg,
    split_symbol,
    valence,
)
from corpus import synthetic_corpus
from polyinfer.data import demo_polymer_text
from polyinfer.features import DataRecord, Dataset, build_registry, featurize
from polyinfer.generate import canonical_signature
from polyinfer.topospec import check_satisfies
from polyinfer.twolayer import as_decomposition, decompose
from reference_checks import bridges, two_pass_is_circular_set
from spechelpers import SMALL_CATALOG, forcing_spec, oracle_candidates

ETHANE = """PMG 1
ATOM 1 C
ATOM 2 C
ATOM 3 H
ATOM 4 H
ATOM 5 H
ATOM 6 H
ATOM 7 H
ATOM 8 H
BOND 1 2 1
BOND 1 3 1
BOND 1 4 1
BOND 1 5 1
BOND 2 6 1
BOND 2 7 1
BOND 2 8 1
"""


def random_connected_graph(rng: random.Random, n: int, extra: int) -> tuple[list[int], list[tuple[int, int]]]:
    vertices = list(range(n))
    edges = []
    for v in range(1, n):
        edges.append(tuple(sorted((v, rng.randrange(v)))))
    pool = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in set(edges)
    ]
    rng.shuffle(pool)
    edges.extend(pool[:extra])
    return vertices, edges


def acyclic(vertices, edges) -> bool:
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def brute_force_rank(vertices, edges) -> int:
    """Minimum number of edges whose removal leaves no cycle."""
    for size in range(len(edges) + 1):
        for removed in itertools.combinations(range(len(edges)), size):
            kept = [e for i, e in enumerate(edges) if i not in removed]
            if acyclic(vertices, kept):
                return size
    raise AssertionError("unreachable")


# -- parsing ----------------------------------------------------------------


def test_element_constant_invariants():
    # a repeated key in the dict literal would silently replace an entry
    (literal,) = [
        node.value for node in ast.walk(ast.parse(inspect.getsource(chemgraph)))
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "ELEMENTS"
    ]
    symbols = [ast.literal_eval(key) for key in literal.keys]
    assert len(set(symbols)) == len(symbols) == len(ELEMENTS)
    for symbol, (val, _) in ELEMENTS.items():
        assert 1 <= val <= 6 and valence(symbol) == val
        suffix = split_symbol(symbol)[1]
        assert suffix in (0, val), symbol
    with pytest.raises(GraphError, match="unknown element"):
        valence("Xx")


def test_parse_ethane():
    g = parse_pmg(ETHANE)
    assert len(g.atoms) == 8
    assert sum(g.adj[1].values()) == 4 and sum(g.adj[2].values()) == 4


def test_parse_rejects_valence_violation():
    bad = ETHANE.replace("BOND 2 8 1\n", "")  # C2 short one hydrogen
    bad = bad.replace("ATOM 8 H\n", "")
    with pytest.raises(PmgParseError, match="valence"):
        parse_pmg(bad)


def test_allow_charge_flag_relaxes_valence():
    text = ETHANE.replace("BOND 2 8 1\n", "").replace("ATOM 8 H\n", "")
    g = parse_pmg(text, max_abs_charge=1)
    assert sum(g.adj[2].values()) == 3


def test_parse_rejects_duplicate_edge():
    with pytest.raises(PmgParseError, match="duplicate bond"):
        parse_pmg("PMG 1\nATOM 1 C\nATOM 2 C\nBOND 1 2 1\nBOND 2 1 1\n")


def test_parse_rejects_unknown_element():
    with pytest.raises(PmgParseError, match="unknown element"):
        parse_pmg("PMG 1\nATOM 1 Xx\n")


def test_parse_rejects_disconnected():
    text = "PMG 1\nATOM 1 H\nATOM 2 H\nATOM 3 H\nATOM 4 H\nBOND 1 2 1\nBOND 3 4 1\n"
    with pytest.raises(PmgParseError, match="connected"):
        parse_pmg(text)


def test_parse_reports_line_numbers():
    with pytest.raises(PmgParseError, match="line 3"):
        parse_pmg("PMG 1\nATOM 1 C\nBOND 1 5 1\n")


def test_roundtrip_exact():
    g = parse_pmg(demo_polymer_text())
    assert parse_pmg(serialize_pmg(g)) == g
    assert serialize_pmg(parse_pmg(serialize_pmg(g))) == serialize_pmg(g)


def test_connect_must_name_link_edge():
    text = ETHANE + "LINK 1 2\nCONNECT 1 3\n"
    with pytest.raises(PmgParseError, match="LINK edge"):
        parse_pmg(text)


# -- demo_polymer ----------------------------------------------------------------


def test_demo_polymer_link_edges():
    g = parse_pmg(demo_polymer_text())
    assert g.link_edges == frozenset({(1, 15), (5, 15), (3, 16), (16, 17), (17, 18), (4, 18)})
    assert g.connecting == (16, 17)


def test_demo_polymer_suppressed_size():
    g = parse_pmg(demo_polymer_text())
    s = hydrogen_suppress(g)
    assert len(s.atoms) == 55
    assert all(sym != "H" for _, sym in s.atoms)


# -- hydrogen suppression ---------------------------------------------------


def test_suppress_ethane():
    s = hydrogen_suppress(parse_pmg(ETHANE))
    assert len(s.atoms) == 2 and len(s.bonds) == 1
    assert dict(s.hydrogens) == {1: 3, 2: 3}


def test_suppress_h_free_identity():
    text = "PMG 1\nATOM 1 O\nATOM 2 O\nBOND 1 2 2\n"
    g = parse_pmg(text)
    s = hydrogen_suppress(g)
    assert [i for i, _ in s.atoms] == [1, 2]


# -- rank ------------------------------------------------------------------


def profile_rank(vertices, edges) -> int:
    """The rank the descriptors read: `count_profile`'s, on a carbon-only
    suppressed graph with these vertices and single bonds."""
    s = SuppressedGraph(
        atoms=tuple((v, "C") for v in vertices),
        bonds=tuple((u, v, 1) for u, v in edges),
        link_edges=frozenset(),
        connecting=None,
        hydrogens=tuple((v, 0) for v in vertices),
    )
    return decompose(s, 1).profile.rank


def test_rank_examples():
    cyc6 = [(i, (i + 1) % 6) for i in range(6)]
    assert profile_rank(range(6), cyc6) == 1
    path = [(i, i + 1) for i in range(4)]
    assert profile_rank(range(5), path) == 0
    two_triangles = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    assert profile_rank(range(5), two_triangles) == 2
    assert brute_force_rank(list(range(5)), two_triangles) == 2


def test_rank_matches_brute_force_minimal_cut():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(3, 7)
        vertices, edges = random_connected_graph(rng, n, rng.randint(0, 3))
        assert profile_rank(vertices, edges) == brute_force_rank(vertices, edges)


def test_rank_drop_under_nonseparating_removal():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(4, 8)
        vertices, edges = random_connected_graph(rng, n, rng.randint(1, 4))
        r = profile_rank(vertices, edges)
        assert r == brute_force_rank(vertices, edges)
        non_bridges = [e for e in edges if e not in bridges(vertices, edges)]
        for e in non_bridges:
            rest = [f for f in edges if f != e]
            assert profile_rank(vertices, rest) == r - 1


# -- link edges -------------------------------------------------------------


def test_demo_polymer_links_circular():
    g = parse_pmg(demo_polymer_text())
    assert is_circular_set(g.adj, [(u, v) for u, v, _ in g.bonds], g.link_edges)


def test_chord_breaks_circular_set():
    # 4-cycle with chord; cycle edges (0,1),(1,2) plus chord (0,2) marked
    vertices = range(4)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    assert not is_circular_set(vertices, edges, [(0, 1), (1, 2), (0, 2)])
    # two opposite edges of the plain 4-cycle do form a circular set
    assert is_circular_set(vertices, edges[:4], [(0, 1), (2, 3)])


def test_empty_link_set_is_circular():
    assert is_circular_set(range(2), [(0, 1)], [])


def test_parallel_cycles_not_circular():
    # marked edges on two different cycles sharing one vertex
    tri1 = [(0, 1), (1, 2), (2, 0)]
    tri2 = [(0, 3), (3, 4), (4, 0)]
    assert not is_circular_set(range(5), tri1 + tri2, [(0, 1), (0, 3)])


def reference_is_circular_set(vertices, edges, marked) -> bool:
    """Reference circular-set test that checks every pair: every member is
    a non-bridge, every other member is a bridge of G - e for every member
    e, and every member separates the ends of the first one."""
    edges = [tuple(sorted(e)) for e in edges]
    marked = [tuple(sorted(e)) for e in marked]
    if len(set(marked)) != len(marked):
        return False
    if not marked:
        return True
    if any(e not in set(edges) for e in marked):
        return False
    if any(e in bridges(vertices, edges) for e in marked):
        return False
    for e in marked:
        rem_bridges = bridges(vertices, [f for f in edges if f != e])
        if any(f not in rem_bridges for f in marked if f != e):
            return False

    def separates(removed, a, b):
        adj = {v: [] for v in vertices}
        for u, v in edges:
            if (u, v) not in removed:
                adj[u].append(v)
                adj[v].append(u)
        seen, stack = {a}, [a]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return b not in seen

    e0 = marked[0]
    return all(separates({e0, f}, e0[0], e0[1]) for f in marked[1:])


def cut_pair_class(vertices, edges, e0):
    """`e0` and every non-bridge that is a bridge of G - e0."""
    all_bridges = bridges(vertices, edges)
    rem_bridges = bridges(vertices, [f for f in edges if f != e0])
    return [e0] + [f for f in edges if f != e0 and f not in all_bridges and f in rem_bridges]


def test_circular_set_matches_reference():
    rng = random.Random(2109)
    positives = 0
    cases = 4000
    for case in range(cases):
        n = rng.randint(3, 11)
        vertices, edges = random_connected_graph(rng, n, rng.randint(0, 5))
        non_bridges = [e for e in edges if e not in bridges(vertices, edges)]
        if case % 2 and non_bridges:
            pool = cut_pair_class(vertices, edges, rng.choice(non_bridges))
        else:
            pool = edges + [(0, n)]  # (0, n) is no edge of the graph
        marked = rng.sample(pool, rng.randint(0, min(len(pool), 5)))
        if rng.random() < 0.05 and marked:
            marked.append(marked[0])
        if rng.random() < 0.3:
            marked = [(v, u) for u, v in marked]
        expected = reference_is_circular_set(vertices, edges, marked)
        assert is_circular_set(vertices, edges, marked) == expected, (edges, marked)
        positives += expected
    assert cases // 4 < positives < cases - cases // 4


@st.composite
def graphs_with_marked_edges(draw):
    """A random connected graph (a random tree plus chords, now and then a
    parallel copy of an edge) and a marked list that may repeat an edge,
    name a non-edge, reverse an edge or hold bridges; half the time it is
    drawn mostly from one cut-pair class, so that circular sets are
    common."""
    n = draw(st.integers(2, 9))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    edges = list(dict.fromkeys(tuple(sorted(e)) for e in tree + chords if e[0] != e[1]))
    edges += draw(st.lists(st.sampled_from(edges), max_size=1))
    vertices = range(n)
    non_bridges = [e for e in edges if e not in bridges(vertices, edges)]
    pool = edges + [(0, n)]  # (0, n) is no edge of the graph
    if non_bridges and draw(st.booleans()):
        e0 = draw(st.sampled_from(non_bridges))
        pool = cut_pair_class(vertices, edges, e0) + draw(st.lists(st.sampled_from(edges), max_size=2))
    marked = draw(st.lists(st.sampled_from(pool), max_size=5))
    flips = draw(st.lists(st.booleans(), min_size=len(marked), max_size=len(marked)))
    return vertices, edges, [(v, u) if flip else (u, v) for (u, v), flip in zip(marked, flips)]


@settings(max_examples=400, deadline=None)
@given(graphs_with_marked_edges())
# e0 has a parallel copy; removing every copy leaves the graph disconnected
@example((range(4), [(0, 1), (0, 2), (0, 3), (2, 3), (0, 1)], [(0, 1), (0, 2)]))
@example((range(4), [(0, 1), (0, 1), (1, 2), (2, 3), (1, 3)], [(0, 1), (2, 3)]))
def test_circular_set_matches_the_two_pass_test(case):
    vertices, edges, marked = case
    assert is_circular_set(vertices, edges, marked) == two_pass_is_circular_set(vertices, edges, marked)


def test_graph_construction_rejects_bad_links():
    atoms = tuple((i, "C") for i in range(1, 5)) + tuple((i, "H") for i in range(5, 15))
    bonds = [(1, 2, 1), (2, 3, 1), (3, 4, 1)]
    h = 5
    for c, free in ((1, 3), (2, 2), (3, 2), (4, 3)):
        for _ in range(free):
            bonds.append((c, h, 1))
            h += 1
    with pytest.raises(GraphError, match="circular"):
        ChemicalGraph(atoms=atoms, bonds=tuple(bonds), link_edges=frozenset({(1, 2)}))


# -- one lowlink kernel ------------------------------------------------------


ELEMENT_OF_DEGREE = {1: "C", 2: "C", 3: "C", 4: "C", 5: "P(5)", 6: "S(6)"}


@st.composite
def hydrogenated_graphs(draw):
    """Chemical graph records: a connected heavy-atom graph (a random tree
    plus chords, ids 1..n) whose atoms take an element of valence at least
    their heavy degree and fill it with pendant hydrogens, and a link set
    drawn half the time mostly from one cut-pair class of the heavy
    graph, now and then with a hydrogen's bond or a non-bond in it.
    Returns (atoms, bonds, links)."""
    n = draw(st.integers(2, 7))  # a tree on 7 vertices has no degree above 6
    tree = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    chords = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=6))
    heavy: list[tuple[int, int]] = []
    degree = dict.fromkeys(range(1, n + 1), 0)
    for u, v in dict.fromkeys(tuple(sorted(e)) for e in tree + chords if e[0] != e[1]):
        if (u, v) in tree or max(degree[u], degree[v]) < 6:
            heavy.append((u, v))
            degree[u] += 1
            degree[v] += 1
    atoms = [(v, ELEMENT_OF_DEGREE.get(d, "C")) for v, d in degree.items()]
    bonds = [(u, v, 1) for u, v in heavy]
    h = n + 1
    for v, sym in list(atoms):
        for _ in range(valence(sym) - degree[v]):
            atoms.append((h, "H"))
            bonds.append((v, h, 1))
            h += 1
    vertices = range(1, n + 1)
    non_bridges = [e for e in heavy if e not in bridges(vertices, heavy)]
    pool = heavy + [(u, v) for u, v, _ in bonds[len(heavy):]][:2] + [(1, h)]  # (1, h) is no bond
    if non_bridges and draw(st.booleans()):
        pool = cut_pair_class(vertices, heavy, draw(st.sampled_from(non_bridges)))
        pool += draw(st.lists(st.sampled_from(heavy), max_size=1))
    links = list(dict.fromkeys(draw(st.lists(st.sampled_from(pool), max_size=5))))
    return atoms, bonds, links


@settings(max_examples=300, deadline=None)
@given(hydrogenated_graphs(), st.lists(st.integers(0, 100), max_size=2))
def test_the_adjacency_kernel_matches_the_two_pass_test(case, copies):
    atoms, bonds, links = case
    vertices = [i for i, _ in atoms]
    edges = [(u, v) for u, v, _ in bonds]
    adj: dict[int, dict[int, int]] = {i: {} for i in vertices}
    for u, v, m in bonds:
        adj[u][v] = adj[v][u] = m
    want = two_pass_is_circular_set(vertices, edges, links)
    if links and all(v in adj[u] for u, v in links):
        # the kernel on the whole adjacency, pendant hydrogens included
        assert chemgraph._circular_in(adj, links) == want
    # the edge-list form, with parallel copies of drawn edges
    parallel = edges + [edges[k % len(edges)] for k in copies]
    assert is_circular_set(vertices, parallel, links) == two_pass_is_circular_set(vertices, parallel, links)
    # validation runs the kernel on the graph's own adjacency (a link on a
    # hydrogen, a bridge, is refused before it)
    try:
        ChemicalGraph(atoms=tuple(atoms), bonds=tuple(bonds), link_edges=frozenset(links))
    except GraphError:
        accepted = False
    else:
        accepted = True
    assert accepted == want


def pmg_of(atoms, bonds, links, connect=None) -> str:
    """PMG text of the records in the order given, whatever they hold."""
    lines = ["PMG 1"] + [f"ATOM {i} {sym}" for i, sym in atoms]
    lines += [f"BOND {u} {v} {m}" for u, v, m in bonds] + [f"LINK {u} {v}" for u, v in links]
    if connect is not None:
        lines.append(f"CONNECT {connect[0]} {connect[1]}")
    return "\n".join(lines) + "\n"


MUTATIONS = (
    None, "duplicate atom", "unknown element", "self-loop", "unknown atom", "duplicate bond",
    "multiplicity", "valence", "disconnected", "link off the bonds", "connect off the links",
    "connect on a link",
)


@settings(max_examples=300, deadline=None)
@given(hydrogenated_graphs(), st.sampled_from(MUTATIONS), st.data())
def test_construction_and_parsing_reject_the_same_records(case, mutation, data):
    atoms, bonds, links = case
    connect = None
    last = max(i for i, _ in atoms)
    pick = data.draw(st.integers(0, len(bonds) - 1), label="bond")
    u, v, m = bonds[pick]
    if mutation == "duplicate atom":
        atoms = atoms + [(u, "C")]
    elif mutation == "unknown element":
        atoms = [(i, "Xx" if i == u else sym) for i, sym in atoms]
    elif mutation == "self-loop":
        bonds = bonds + [(u, u, 1)]
    elif mutation == "unknown atom":
        bonds = bonds + [(u, last + 1, 1)]
    elif mutation == "duplicate bond":
        bonds = bonds + [(v, u, m)]
    elif mutation == "multiplicity":
        bonds = bonds[:pick] + [(u, v, data.draw(st.sampled_from([0, 2, 4]), label="m"))] + bonds[pick + 1:]
    elif mutation == "valence":
        bonds = bonds[:pick] + bonds[pick + 1:]
    elif mutation == "disconnected":
        atoms = atoms + [(last + 1, "H"), (last + 2, "H")]
        bonds = bonds + [(last + 1, last + 2, 1)]
    elif mutation == "link off the bonds":
        links = links + [(u, last + 1)]
    elif mutation == "connect off the links":
        connect = (v, u)
    elif mutation == "connect on a link" and links:
        connect = links[0][::-1]

    def built():
        return ChemicalGraph(atoms=tuple(atoms), bonds=tuple(bonds), link_edges=frozenset(links),
                             connecting=connect)

    def parsed():
        return parse_pmg(pmg_of(atoms, bonds, links, connect))

    graphs = []
    for make in (built, parsed):
        try:
            graphs.append(make())
        except GraphError:
            graphs.append(None)
    a, b = graphs
    assert (a is None) == (b is None), (mutation, a, b)
    if a is not None:
        assert a == b and a.adj == b.adj and a.labels == b.labels


# -- the order of the lines --------------------------------------------------


def shuffled_pmg(text: str, rng: random.Random) -> str:
    """`text` with its ATOM, BOND and LINK lines each shuffled among
    themselves and the two ends of about half the BOND and LINK lines
    swapped.  The kinds keep their order, so every line still names only
    what the lines before it declare."""
    header, *lines = [line for line in text.splitlines() if line.strip()]
    groups: dict[str, list[str]] = {}
    for line in lines:
        groups.setdefault(line.split()[0], []).append(line)
    out = [header]
    for kind, group in groups.items():
        if kind in ("BOND", "LINK"):
            swapped = []
            for line in group:
                parts = line.split()
                if rng.random() < 0.5:
                    parts[1], parts[2] = parts[2], parts[1]
                swapped.append(" ".join(parts))
            group = swapped
        if kind != "CONNECT":
            rng.shuffle(group)
        out += group
    return "\n".join(out) + "\n"


def read_outputs(g: ChemicalGraph, registry, spec) -> tuple:
    """What the pipeline reads off a graph: its signature, its count
    profile with each family's key order, its feature vector and its
    specification verdict and witness."""
    profile = as_decomposition(g, spec.rho).profile
    families = [
        (name, list(value.items()) if isinstance(value, dict) else value)
        for name, value in vars(profile).items()
    ]
    fv = featurize(g, registry)
    report = check_satisfies(g, spec)
    return canonical_signature(g, spec.rho), families, fv.values.tobytes(), fv.oov, report.passed, report.witness


def test_the_order_of_the_lines_changes_no_output():
    corpus = [text for _, text in synthetic_corpus(random.Random(21), 20)]
    records = tuple(DataRecord(f"g{k}", parse_pmg(text), float(k)) for k, text in enumerate(corpus))
    spec = forcing_spec(SMALL_CATALOG)
    registry = build_registry(Dataset(records), spec.rho)
    texts = corpus + [demo_polymer_text()] + list(itertools.islice(oracle_candidates(), 0, None, 48))
    rng = random.Random(5)
    witnessed = 0
    for text in texts:
        g = parse_pmg(text)
        want = read_outputs(g, registry, spec)
        witnessed += want[-1] is not None
        for _ in range(2):
            h = parse_pmg(shuffled_pmg(text, rng))
            assert (h.atoms, h.bonds, h.link_edges, h.connecting) == (g.atoms, g.bonds, g.link_edges, g.connecting)
            assert h.adj == g.adj and h.labels == g.labels
            assert read_outputs(h, registry, spec) == want
    assert witnessed >= 64
