"""Constrained polymer generation by seed-graph expansion.

Enumerates expansions of a specification's seed graph in a fixed order:
replacement path lengths ascending, then pendant-branch placements, then
bond assignments, then fringe-tree choices in catalog order.  The seed
bounds, catalogs, alphabets, count bounds and declared keys all come from
the specification's plan, the one reading of it the checker uses too.  A
specification that allows pendant trees at a seed vertex is refused with a
`SpecError`: the enumerator never builds them.  The search stays inside the
specification instead of filtering after the fact:

* a skeleton is admitted on its link-vertex count and interior size before
  its bond assignments are expanded, since path lengths fix the first and
  lengths plus branch depths fix the second;
* a fringe choice adds fixed counts to the profile (an element, its
  symbol, its tree's elements, leaf edges and code), and so does an
  interior edge once both its ends are assigned (its edge and adjacency
  configurations, and on a link edge their link counterparts).  One memo
  holds these counts per choice and per edge, and a partial assignment is
  cut as soon as it adds an undeclared key, or passes the upper bound of
  any bounded key or the size bound;
* the same memo also drops what the trained model has no descriptor for
  (its vocabulary): a choice or edge that adds a key of a descriptor
  family the registry lacks;
* a complete assignment is kept only if its tuple of catalog indices is
  lexicographically no greater than its image under every automorphism of
  the skeleton (the lex-leader rule of Crawford, Ginsberg, Luks and Roy,
  KR 1996).  The automorphisms come from the same canonical search that
  signs the graphs.  The enumeration runs in lexicographic order and every
  cut is automorphism-invariant, so the lex-leader is the first member of
  its orbit enumerated, and the graphs emitted are the same as without it.

The cuts only drop candidates the full check would reject or the model
would report as out of vocabulary, and the lex-leader test only drops
graphs isomorphic to one already enumerated; every survivor is still
checked against the full specification's bounds, the vocabulary and the
model's property window before emission.  Isomorphisms that no skeleton
automorphism induces, such as between two skeletons, are suppressed by a
canonical form of the whole monomer graph (interior canonical labeling
plus fringe codes).

Each candidate is built once and carries its own certificates.  The walk
that lays out its atoms also builds its decomposition (the skeleton is
the interior, the fringe trees' heavy atoms the exterior), so it is never
decomposed, and its graph comes from the trusted constructor, so it is
never re-validated: each structural fact is checked once where it
becomes known, the bonds, connectivity and link set per skeleton shape,
each fringe tree's valences per catalog code, and each root's valence
when its fringe is chosen.  What every candidate of one skeleton shares,
its bonds, link set, interior vertex and edge sets, the interior view
the spec check reads and the interior's coding for the canonical search,
is built once per skeleton and held by each candidate as it is.  Every
seed vertex must lie on a cycle of the seed, or the interior would not
be the skeleton; a seed where one does not is refused with a
`SpecError`.  The witness of a candidate is the
seed embedding it was built as: `check_satisfies` is handed it and
certifies it instead of searching, and a candidate that fails its own
embedding is a `RuntimeError`.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property

from .chemgraph import ChemicalGraph, GraphError, SuppressedGraph, is_circular_set, is_connected, valence
from .model import ModelBundle
from .topospec import PlannedEdge, SeedGraph, SpecError, TopologicalSpec, check_satisfies
from .twolayer import (
    CodedAdjacency,
    RootedTree,
    TwoLayeredDecomposition,
    adjacency_str,
    as_decomposition,
    coded_adjacency,
    edge_keys,
    parse_code,
    symbol_str,
)


@dataclass(frozen=True)
class CatalogEntry:
    code: str
    tree: RootedTree
    element: str
    free_valence: int
    height: int
    elements: tuple[tuple[str, int], ...]  # element counts including the root
    heavy_atoms: int
    heavy_children: int  # the root's non-hydrogen children
    leaf_adjacencies: tuple[str, ...]  # ac_lf keys of the tree's leaf edges
    # the atoms below the root as `_materialize` numbers them, from 0, and
    # the bonds to them as (parent, child, multiplicity), the root being -1;
    # the same for the non-hydrogen atoms alone, with each one's hydrogens
    atoms: tuple[tuple[int, str], ...]
    bonds: tuple[tuple[int, int, int], ...]
    heavy: tuple[tuple[int, str], ...]
    heavy_bonds: tuple[tuple[int, int, int], ...]
    hydrogens: tuple[tuple[int, int], ...]
    root_hydrogens: int

    @classmethod
    def build(cls, code: str) -> "CatalogEntry":
        """The entry of a catalog code, with the one check a fringe tree
        needs before it is used: every atom below the root keeps its
        valence and every hydrogen is a leaf (the root's valence is met by
        the skeleton bonds it is placed at).  Raises GraphError."""
        tree = parse_code(code)
        atoms, bonds = _layout(code, tree)
        label = {-1: tree.label, **dict(atoms)}
        h_count = Counter(p for p, k, _ in bonds if label[k] == "H")
        heavy = tuple((k, a) for k, a in atoms if a != "H")
        inner = {p for p, k, _ in bonds if label[k] != "H"}  # atoms with a heavy child
        return cls(
            code=code,
            tree=tree,
            element=tree.label,
            free_valence=valence(tree.label) - tree.root_bond_sum(),
            height=tree.heavy_height(),
            elements=tuple(sorted(Counter(label.values()).items())),
            heavy_atoms=tree.heavy_size(),
            heavy_children=sum(1 for _, c in tree.children if c.label != "H"),
            # a heavy leaf of the suppressed graph, seen from its parent; the
            # root has a skeleton neighbour besides it
            leaf_adjacencies=tuple(
                adjacency_str((label[p], label[k], m)) for p, k, m in bonds if label[k] != "H" and k not in inner
            ),
            atoms=atoms,
            bonds=bonds,
            heavy=heavy,
            heavy_bonds=tuple(b for b in bonds if label[b[1]] != "H"),
            hydrogens=tuple((k, h_count[k]) for k, _ in heavy),
            root_hydrogens=h_count[-1],
        )


def _layout(code: str, tree: RootedTree):
    """The atoms below the root of a fringe tree and the bonds to them, in
    the order `_materialize` numbers them, checking each atom's valence
    and that each hydrogen is a leaf."""
    atoms: list[tuple[int, str]] = []
    bonds: list[tuple[int, int, int]] = []
    stack = [(-1, tree)]
    while stack:
        parent, t = stack.pop()
        if t.label == "H" and t.children:
            raise GraphError(f"catalog tree {code!r}: a hydrogen with children is no leaf")
        for mult, child in t.children:
            bond_sum = mult + child.root_bond_sum()
            if bond_sum != valence(child.label):
                raise GraphError(
                    f"catalog tree {code!r}: valence violation at {child.label} below the root: "
                    f"bond sum {bond_sum} vs valence {valence(child.label)}"
                )
            k = len(atoms)
            atoms.append((k, child.label))
            bonds.append((parent, k, mult))
            stack.append((k, child))
    return tuple(atoms), tuple(bonds)


@dataclass
class GeneratedGraph:
    graph: ChemicalGraph
    prediction: float
    signature: str
    fringe_codes: tuple[str, ...]
    n_interior: int
    n_exterior: int


@dataclass
class GenerationOutcome:
    results: list[GeneratedGraph] = field(default_factory=list)  # filled by run_generation
    status: str = "incomplete"  # or "exhausted" / "limit-candidates" / "limit-seconds"
    candidates_examined: int = 0
    rejected_spec: int = 0
    rejected_by: Counter = field(default_factory=Counter)  # spec failure family -> candidates
    rejected_window: int = 0
    rejected_oov: int = 0
    duplicates: int = 0
    dropped_symmetric: int = 0  # complete assignments that are not their orbit's lex-leader
    # fringe options dropped on the model's vocabulary when a vertex's list is
    # built, plus closed edges cut on it during the search
    cut_vocabulary: int = 0


# ---------------------------------------------------------------------------
# Skeleton enumeration (interior structure before elements and fringes)
#
# Interior counts are read off skeletons, on the premise that every skeleton
# vertex is interior in the materialized graph: seed vertices lie on the
# seed's cycles (`iter_generate` refuses a seed where one does not), path
# vertices on paths between them, and pendant paths end at tips whose
# fringe has full height.  Every fringe tree is at most rho high (the
# specification refuses a taller one), so its atoms are the exterior.


@dataclass(frozen=True)
class Skeleton:
    """Interior graph shape: vertices 1..n_vertices and bonds, before
    chemistry.  `tips` are pendant-path ends, which must carry a
    full-height fringe so they stay interior.  `witness` is the seed
    embedding the skeleton was built as, in the form `check_witness`
    reads: seed vertex i is vertex i, each replaced edge its chain.

    What every candidate built on a skeleton shares is computed once, on
    first read, and kept: its bonds with u < v, sorted, its link set, its
    vertex and edge sets (each candidate's interior), its adjacency with
    multiplicities (each candidate's interior view, which the spec check
    reads), and their coding for the canonical search.  All are
    immutable, so each candidate's graph and decomposition hold them as
    they are.
    """

    n_vertices: int
    edges: tuple[tuple[int, int, int], ...]  # (u, v, multiplicity)
    link_edges: tuple[tuple[int, int], ...]
    tips: frozenset[int]
    allowed_elements: dict[int, frozenset[str]]
    allowed_codes: dict[int, frozenset[str]]  # per-vertex fringe restriction
    witness: dict | None = None

    @cached_property
    def bonds(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(sorted((u, v, m) if u < v else (v, u, m) for u, v, m in self.edges))

    @cached_property
    def link_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) if u < v else (v, u) for u, v in self.link_edges)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(range(1, self.n_vertices + 1))

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) if u < v else (v, u) for u, v, _ in self.edges)

    @cached_property
    def interior_adj(self) -> dict[int, dict[int, int]]:
        """What `TwoLayeredDecomposition.interior_adj` reads for every
        candidate of the skeleton: vertex -> neighbour -> multiplicity."""
        rows: dict[int, dict[int, int]] = {v: {} for v in range(1, self.n_vertices + 1)}
        for u, v, m in self.bonds:
            rows[u][v] = m
            rows[v][u] = m
        return rows

    @cached_property
    def interior_adjacency(self) -> CodedAdjacency:
        """What `TwoLayeredDecomposition.interior_adjacency` reads for every
        candidate of the skeleton: vertex v is at position v - 1."""
        links = self.link_set
        return coded_adjacency(self.n_vertices, [(u - 1, v - 1, m, (u, v) in links) for u, v, m in self.bonds])


def _iter_skeletons(spec: TopologicalSpec):
    """Skeletons in enumeration order whose link-vertex count and interior
    size are within the spec's `n_lnk`, `n_int` and `n` bounds.  Every seed
    bound is read off the spec's plan, as the checker reads it."""
    path_edges = [e for e in spec.plan.edges.values() if not e.exact]
    length_ranges = [range(e.path_len[0], e.path_len[1] + 1) for e in path_edges]
    for lengths in itertools.product(*length_ranges):
        if not spec.n_lnk[0] <= _link_vertices(path_edges, lengths) <= spec.n_lnk[1]:
            continue
        path_size = len(spec.seed.vertices) + sum(length - 1 for length in lengths)
        yield from _iter_branch_layouts(spec, path_edges, lengths, path_size)


def _link_vertices(path_edges: list[PlannedEdge], lengths) -> int:
    """Vertices with two incident link edges (the spec's `n_lnk`): every
    internal vertex of a link path, and seed vertices that end two of them."""
    internal = 0
    ends = Counter()
    for e, length in zip(path_edges, lengths):
        if e.link:
            internal += length - 1
            ends[e.u] += 1
            ends[e.v] += 1
    return internal + sum(1 for c in ends.values() if c == 2)


def _iter_branch_layouts(spec: TopologicalSpec, path_edges, lengths, path_size: int):
    """Pendant-path options per replaced edge: which internal slots carry a
    branch (within the branch-count bounds) and how deep each branch is.
    Each branch vertex is interior, so the depths add to `path_size`."""
    per_edge_options: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
    for e, length in zip(path_edges, lengths):
        lo, hi = e.branch_count
        ch_lo, ch_hi = e.branch_height
        options = []
        for count in range(lo, min(hi, length - 1) + 1):
            for chosen in itertools.combinations(range(length - 1), count):
                depth_low = max(ch_lo, 1)
                for depths in itertools.product(range(depth_low, ch_hi + 1), repeat=count):
                    options.append((chosen, depths))
        per_edge_options.append(options)
    size_lo, size_hi = spec.n_int[0], min(spec.n_int[1], spec.n[1])  # n counts every interior atom
    for combo in itertools.product(*per_edge_options):
        if size_lo <= path_size + sum(sum(depths) for _, depths in combo) <= size_hi:
            yield from _iter_bond_assignments(spec, path_edges, lengths, combo)


def _bond_patterns(edge: PlannedEdge, length: int) -> list[tuple[int, ...]]:
    """Multiplicities along a replaced edge with its bd2/bd3 counts in
    bounds: by double count, triple count, then positions."""
    lo2, hi2, lo3, hi3 = edge.bonds
    patterns = []
    for d2 in range(lo2, min(hi2, length) + 1):
        for d3 in range(lo3, min(hi3, length - d2) + 1):
            for dbl_pos in itertools.combinations(range(length), d2):
                rest = [i for i in range(length) if i not in dbl_pos]
                for trp_pos in itertools.combinations(rest, d3):
                    mults = [1] * length
                    for i in dbl_pos:
                        mults[i] = 2
                    for i in trp_pos:
                        mults[i] = 3
                    patterns.append(tuple(mults))
    return patterns


def _iter_bond_assignments(spec: TopologicalSpec, path_edges: list[PlannedEdge], lengths, branch_combo):
    """Multiplicity choices: kept seed edges by their admissible
    multiplicities, replaced edges by `_bond_patterns`; pendant edges
    single.  The vertices with their restrictions, the link edges, the
    tips and the seed embedding follow from the lengths and branch layout
    alone, so the skeletons yielded here share them, and so does the
    structure every candidate built on them has: it is checked here, once
    (`_check_shape`)."""
    plan = spec.plan
    vertex_id = {name: i for i, name in enumerate(spec.seed.vertices, start=1)}
    allowed = {vertex_id[v.name]: v.allowed for v in plan.vertices}
    codes = {vertex_id[v.name]: v.catalog for v in plan.vertices}
    exact_edges = [e for e in plan.edges.values() if e.exact]
    exact_options = [sorted(e.multiplicities) for e in exact_edges]
    path_options = [_bond_patterns(e, length) for e, length in zip(path_edges, lengths)]

    chains: list[list[int]] = []
    paths: dict[str, list[int]] = {}  # per replaced edge, by name
    pendants: list[list[tuple[int, int, int]]] = []  # per replaced edge
    link_edges: list[tuple[int, int]] = []
    tips: set[int] = set()
    counter = len(vertex_id) + 1
    for e, length, (slots, depths) in zip(path_edges, lengths, branch_combo):
        chain = [vertex_id[e.u]]
        for _ in range(length - 1):
            chain.append(counter)
            allowed[counter] = plan.heavy
            codes[counter] = e.catalog
            counter += 1
        chain.append(vertex_id[e.v])
        chains.append(chain)
        paths[e.name] = chain
        if e.link:
            link_edges += zip(chain, chain[1:])
        branch_edges = []
        for slot, depth in zip(slots, depths):
            prev = chain[slot + 1]
            for _ in range(depth):
                branch_edges.append((prev, counter, 1))
                allowed[counter] = plan.heavy
                codes[counter] = plan.catalog
                prev = counter
                counter += 1
            tips.add(prev)
        pendants.append(branch_edges)

    link_edges, tips = tuple(link_edges), frozenset(tips)
    pairs = [(vertex_id[e.u], vertex_id[e.v]) for e in exact_edges]
    for chain, branch_edges in zip(chains, pendants):
        pairs += zip(chain, chain[1:])
        pairs += [(u, v) for u, v, _ in branch_edges]
    _check_shape(counter - 1, pairs, link_edges)
    witness = {"images": vertex_id, "paths": paths}
    for exact_mults in itertools.product(*exact_options):
        kept = [(vertex_id[e.u], vertex_id[e.v], m) for e, m in zip(exact_edges, exact_mults)]
        for path_mults in itertools.product(*path_options):
            edges = list(kept)
            for chain, mults, branch_edges in zip(chains, path_mults, pendants):
                edges += zip(chain, chain[1:], mults)
                edges += branch_edges
            yield Skeleton(counter - 1, tuple(edges), link_edges, tips, allowed, codes, witness)


def _check_shape(n_vertices: int, pairs: list[tuple[int, int]], link_edges: tuple[tuple[int, int], ...]) -> None:
    """What `ChemicalGraph` would check of a candidate's structure, on the
    skeleton shape all its candidates share (their fringe trees hang off it
    and close no cycle): no self-loop or duplicate bond, connected, and the
    link edges a circular set.  Raises GraphError."""
    seen: set[tuple[int, int]] = set()
    for u, v in pairs:
        if u == v:
            raise GraphError(f"self-loop at atom {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphError(f"duplicate bond {e[0]}-{e[1]}")
        seen.add(e)
    vertices = range(1, n_vertices + 1)
    if not is_connected(vertices, pairs):
        raise GraphError("graph is not connected")
    if not is_circular_set(vertices, pairs, link_edges):
        raise GraphError("link-edge set is not a circular set")


# ---------------------------------------------------------------------------
# Fringe assignment and materialization


_UNKNOWN = "unknown"  # verdict of a choice that adds a key the model lacks


class _Contributions(dict):
    """Memo for one spec, catalog and model vocabulary, keyed by a fringe
    choice `(code, degree)` or an interior edge `(end_u, end_v,
    multiplicity, is_link)`, where an end is `(element, degree)` and every
    degree is taken in the hydrogen-suppressed graph.  The verdict is None
    when the choice adds a key one of the spec's membership tests rejects,
    `_UNKNOWN` when it adds a key of a descriptor family the vocabulary
    lacks, and otherwise the `(row name, count, upper)` of each bounded key
    it adds to the count profile, read off the spec's plan."""

    def __init__(
        self, spec: TopologicalSpec, catalog: list[CatalogEntry], vocabulary: dict[str, frozenset[str]]
    ):
        super().__init__()
        self.plan = spec.plan
        self.entries = {c.code: c for c in catalog}
        self.vocabulary = vocabulary

    def __missing__(self, key):
        if len(key) == 2:
            code, degree = key
            c = self.entries[code]
            adds = {
                "na": dict(c.elements),
                "na_int": {c.element: 1},
                "ns_int": {symbol_str(c.element, degree): 1},
                "ac_lf": Counter(c.leaf_adjacencies),
                "fc": {code: 1},
            }
        else:
            (a, d), (b, dp), m, is_link = key
            ec, ac = edge_keys(a, d, b, dp, m)
            adds = {"ec_int": {ec: 1}, "ac_int": {ac: 1}}
            if is_link:
                adds.update(ec_lnk={ec: 1}, ac_lnk={ac: 1})
        declared, vocabulary = self.plan.declared, self.vocabulary
        if any(not keys.keys() <= declared[f][1] for f, keys in adds.items() if f in declared):
            verdict = None
        elif any(not keys.keys() <= vocabulary[f] for f, keys in adds.items() if f in vocabulary):
            verdict = _UNKNOWN
        else:
            rows = []
            for family, keys in adds.items():
                bounds = self.plan.bounds[family]
                for k, count in keys.items():
                    if k in bounds:
                        name, _, upper = bounds[k]
                        rows.append((name, count, upper))
            verdict = tuple(rows)
        self[key] = verdict
        return verdict


def _automorphisms(sk: Skeleton) -> list[tuple[int, ...]]:
    """Every non-identity automorphism of a skeleton, once each, as a
    permutation of its 0-based vertex positions (`perm[v]` is the image of
    v).

    An automorphism keeps the bonds with their multiplicities and link
    flags, the tips, and each vertex's element and fringe-code
    restrictions, so it maps every candidate of the skeleton onto an
    isomorphic one.  They come from the canonical search: the leaves that
    reach its least encoding are one such leaf composed with each
    automorphism (McKay and Piperno, J. Symb. Comput. 60, 2014).
    """
    n = sk.n_vertices
    colors = [
        (tuple(sorted(sk.allowed_elements[v])), tuple(sorted(sk.allowed_codes[v])), v in sk.tips)
        for v in range(1, n + 1)
    ]
    first, *others = _coded_search(colors, sk.interior_adjacency)[1]
    found: dict[tuple[int, ...], None] = {}
    for order in others:
        perm = [0] * n
        for x, y in zip(first, order):
            perm[x] = y
        found[tuple(perm)] = None
    found.pop(tuple(range(n)), None)
    return list(found)


def _assign_fringes(
    spec: TopologicalSpec,
    sk: Skeleton,
    catalog: list[CatalogEntry],
    memo: _Contributions,
    outcome: GenerationOutcome,
):
    """Fringe choices for vertices 1..n_vertices, in vertex then catalog
    order, cut as soon as a partial assignment breaks an upper bound or
    membership that `check_satisfies` tests on every completion of it, or
    adds a key outside the model's vocabulary, and kept only when the tuple
    of catalog indices is the lex-leader of its orbit under the skeleton's
    automorphisms.  What each choice adds comes from `memo`.  A choice
    whose own keys miss the vocabulary is dropped once, when its vertex's
    options are listed, and a vertex left without options ends the
    skeleton; a closed edge's miss is cut on each visit.  Both kinds of
    vocabulary cut are counted in `outcome.cut_vocabulary`, non-leaders
    in `outcome.dropped_symmetric`."""
    bond_sum = Counter()
    skeleton_degree = Counter()
    links = set(sk.link_edges)
    # each edge is judged when its later end is assigned
    back_edges: list[list[tuple[int, int, bool]]] = [[] for _ in range(sk.n_vertices)]
    for u, v, m in sk.edges:
        bond_sum[u] += m
        bond_sum[v] += m
        skeleton_degree[u] += 1
        skeleton_degree[v] += 1
        first, last = sorted((u, v))
        back_edges[last - 1].append((first - 1, m, (u, v) in links))

    # per vertex: (entry, end, the rows the memo says the entry adds there)
    choices: list[list[tuple[CatalogEntry, tuple[str, int], tuple]]] = []
    for v in range(1, sk.n_vertices + 1):
        opts = []
        for c in catalog:
            if not (
                c.element in sk.allowed_elements[v]
                and c.code in sk.allowed_codes[v]
                and c.free_valence == bond_sum[v]
                and (v not in sk.tips or c.height == spec.rho)
            ):
                continue
            degree = skeleton_degree[v] + c.heavy_children
            verdict = memo[(c.code, degree)]
            if verdict is _UNKNOWN:
                outcome.cut_vocabulary += 1
            elif verdict is not None:
                opts.append((c, (c.element, degree), verdict))
        if not opts:
            return
        choices.append(opts)

    automorphisms: list[tuple[int, ...]] | None = None  # found at the first completion
    position = {c.code: i for i, c in enumerate(catalog)}
    counts = Counter()  # row name -> what the choices so far add to it
    ends: list[tuple[str, int]] = []
    picked: list[CatalogEntry] = []
    heavy = 0

    def fits(rows) -> bool:
        for name, count, upper in rows:
            if counts[name] + count > upper:
                return False
        return True

    def tally(rows, sign: int):
        for name, count, _ in rows:
            counts[name] += sign * count

    def lex_leader() -> bool:
        nonlocal automorphisms
        if automorphisms is None:
            automorphisms = _automorphisms(sk)
        indices = [position[entry.code] for entry in picked]
        return all([indices[p] for p in perm] >= indices for perm in automorphisms)

    def rec(pos: int):
        nonlocal heavy
        if pos == len(choices):
            if lex_leader():
                yield tuple(picked)
            else:
                outcome.dropped_symmetric += 1
            return
        remaining = len(choices) - pos - 1
        for entry, end, rows in choices[pos]:
            if heavy + entry.heavy_atoms + remaining > spec.n[1] or not fits(rows):
                continue
            counted = []  # the closed edges' rows, tallied one edge at a time
            for w, m, is_link in back_edges[pos]:
                edge = memo[(ends[w], end, m, is_link)]
                if edge is _UNKNOWN:
                    outcome.cut_vocabulary += 1
                if edge is None or edge is _UNKNOWN or not fits(edge):
                    break
                tally(edge, 1)
                counted.append(edge)
            else:
                tally(rows, 1)
                picked.append(entry)
                ends.append(end)
                heavy += entry.heavy_atoms
                yield from rec(pos + 1)
                heavy -= entry.heavy_atoms
                ends.pop()
                picked.pop()
                tally(rows, -1)
            for edge in counted:
                tally(edge, -1)

    try:
        yield from rec(0)
    finally:
        # `rec` refers to itself through its closure; emptying that cell
        # breaks the cycle, which would otherwise keep `outcome` and its
        # results alive until the next garbage collection
        del rec


def _materialize(
    sk: Skeleton, assignment: tuple[CatalogEntry, ...], rho: int
) -> tuple[ChemicalGraph, TwoLayeredDecomposition]:
    """A candidate's graph and its decomposition at rho, laid out in one
    walk: each fringe tree's atoms follow the skeleton's, numbered in its
    entry's layout order.  The skeleton is the interior and its edges the
    interior edges, the trees' heavy atoms are the exterior, and each
    vertex's fringe tree is its entry's.  The records every candidate of
    the skeleton shares are the skeleton's own, built once: its sorted
    bonds, link set, interior vertex and edge sets, the interior view the
    spec check reads, and the coded interior adjacency the decomposition
    is handed for its signature.  Nothing is re-checked: the structure was
    checked once per skeleton shape, each tree's valences once per catalog
    entry, and each root's valence when its entry was chosen (its free
    valence is the vertex's skeleton bond sum)."""
    edges = sk.bonds
    core = [(v, entry.element) for v, entry in enumerate(assignment, start=1)]
    atoms, bonds = list(core), list(edges)
    heavy, heavy_bonds = list(core), list(edges)
    hydrogens = [(v, entry.root_hydrogens) for v, entry in enumerate(assignment, start=1)]
    base = sk.n_vertices + 1
    for v, entry in enumerate(assignment, start=1):
        if not entry.atoms:
            continue
        atoms += [(base + k, a) for k, a in entry.atoms]
        bonds += [(v if p < 0 else base + p, base + k, m) for p, k, m in entry.bonds]
        if entry.heavy:  # most trees hold hydrogens only
            heavy += [(base + k, a) for k, a in entry.heavy]
            heavy_bonds += [(v if p < 0 else base + p, base + k, m) for p, k, m in entry.heavy_bonds]
            hydrogens += [(base + k, h) for k, h in entry.hydrogens]
        base += len(entry.atoms)
    link_edges = sk.link_set
    g = ChemicalGraph._from_checked_records(atoms, bonds, link_edges, structure_checked=True)
    suppressed = SuppressedGraph(
        atoms=tuple(heavy),
        bonds=tuple(sorted(heavy_bonds)),
        link_edges=link_edges,
        connecting=None,
        hydrogens=tuple(hydrogens),
    )
    dec = TwoLayeredDecomposition(
        rho=rho,
        suppressed=suppressed,
        interior_vertices=sk.vertex_set,
        exterior_vertices=frozenset(i for i, _ in heavy[sk.n_vertices:]),
        interior_edges=sk.edge_set,
        fringe_trees={v: entry.tree for v, entry in enumerate(assignment, start=1)},
        interior_adj=sk.interior_adj,
    )
    dec.__dict__["interior_adjacency"] = sk.interior_adjacency
    return g, dec


# ---------------------------------------------------------------------------
# Canonical signatures (duplicate suppression)
#
# One individualization-refinement search (McKay and Piperno, J. Symb.
# Comput. 60, 2014) serves the signatures and the skeleton automorphisms.
# It runs on integer codes.  Vertex colors start as the dense ranks of the
# raw colors.  The graph comes coded by `twolayer.coded_adjacency`: a bond
# of multiplicity m is coded (2*m + is_link) * (n + 1), which keeps the
# order of (m, is_link), and a neighbour w across it enters a refinement
# round as one int, code + color[w].  Sorting these ints orders a vertex's
# neighbours as sorting (label, color) pairs would, so every round ranks
# the vertices, and every leaf is reached and encoded, as with the label
# tuples themselves.  A round sorts neighbours only for the vertices of
# cells with more than one member: a singleton's color leads its round
# signature and no other vertex has it, so its rank is fixed by its color
# alone.  Refinement stops at a discrete coloring or at a round that adds
# no cell.  An encoding joins one "position:bond label" token per
# neighbour, read from a table kept per vertex count.  A generated
# candidate's interior is its skeleton, so its decomposition is handed the
# skeleton's coded adjacency; any other decomposition codes its own on
# first read.  The search recurses at module level, with its best encoding
# and leaves passed down as lists, so a signature leaves no reference
# cycle behind for the garbage collector.

# the text of each bond label (multiplicity, is_link) in an encoding, by code
_BOND_LABELS = tuple(f"({code >> 1}, {bool(code & 1)})" for code in range(8))


@cache  # bounded: one table per graph size seen
def _tokens(n: int) -> tuple[str, ...]:
    """The encoding token of a neighbour at position p across a bond of
    code c in a graph of n vertices, "p:label", at index c + p."""
    width = n + 1
    return tuple(f"{i % width}:{_BOND_LABELS[i // width]}" for i in range(8 * width))


def canonical_signature(g: ChemicalGraph | TwoLayeredDecomposition, rho: int) -> str:
    """Isomorphism-invariant encoding: canonical labeling of the interior
    graph with fringe codes as vertex colors, link flags on edges.  A graph
    whose interior is empty, every vertex stripped, is labeled whole: its
    hydrogen-suppressed vertices are colored by element, hydrogen count
    and connecting flag, under a prefix that no interior encoding has (each
    of those starts with a color tuple's "(")."""
    dec = as_decomposition(g, rho)
    s = dec.suppressed
    labels = s.labels
    connecting = set(s.connecting or ())
    if dec.interior_vertices:
        trees = dec.fringe_trees
        colors = [(labels[v], trees[v].code, v in connecting) for v in sorted(dec.interior_vertices)]
        return _coded_search(colors, dec.interior_adjacency)[0]
    vertices = [v for v, _ in s.atoms]
    hydrogens, links = s.h_count, s.link_edges
    colors = [(labels[v], hydrogens.get(v, 0), v in connecting) for v in vertices]
    index = {v: i for i, v in enumerate(vertices)}
    edges = [(index[u], index[v], m, ((u, v) if u < v else (v, u)) in links) for u, v, m in s.bonds]
    return "acyclic:" + _coded_search(colors, coded_adjacency(len(colors), edges))[0]


def _coded_search(raw_colors: list, adj: CodedAdjacency) -> tuple[str, list[list[int]]]:
    """Individualization-refinement over every branch: the least leaf
    encoding, and the vertex order of each leaf that reaches it.  `adj`
    codes the graph over the positions of `raw_colors`; a vertex's row in
    an encoding starts with the repr of its raw color."""
    ranked = {c: (i, repr(c) + ";") for i, c in enumerate(sorted(set(raw_colors)))}
    colors = [ranked[c][0] for c in raw_colors]
    labels = [ranked[c][1] for c in raw_colors]
    best: list[str] = []
    leaves: list[list[int]] = []
    _search(*_refine(colors, len(ranked), adj), adj, labels, best, leaves)
    return best[0], leaves


def _refine(colors: list[int], count: int, adj: CodedAdjacency) -> tuple[list[int], int]:
    """The coarsest equitable refinement of a dense coloring with `count`
    colors, and its number of colors.  Each vertex's signature leads with
    its old color, so a round that adds no cell has ranked every vertex
    by its old color and changed nothing; a vertex alone in its cell has
    nothing after its color, which is unique."""
    n = len(colors)
    while count < n:
        size = [0] * count
        for c in colors:
            size[c] += 1
        sig = [
            (c, tuple(sorted([code + colors[w] for w, code in nbrs]))) if size[c] > 1 else (c,)
            for c, nbrs in zip(colors, adj)
        ]
        distinct = set(sig)
        if len(distinct) == count:
            break
        ranks = {s: i for i, s in enumerate(sorted(distinct))}
        count = len(ranks)
        colors = [ranks[s] for s in sig]
    return colors, count


def _search(
    colors: list[int], count: int, adj: CodedAdjacency, labels: list[str], best: list[str], leaves: list[list[int]]
) -> None:
    """One branch of the canonical search: individualize each vertex of the
    first non-singleton cell in turn, or, at a leaf (a discrete coloring),
    keep its encoding in `best` and its vertex order in `leaves` when it is
    the least so far."""
    n = len(colors)
    if count == n:
        order = [0] * n
        for v, c in enumerate(colors):
            order[c] = v
        cand = _encode(order, colors, adj, labels)
        if not best or cand < best[0]:
            best[:] = [cand]
            leaves.clear()
        if cand == best[0]:
            leaves.append(order)
        return
    cells: list[list[int]] = [[] for _ in range(count)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    cell = next(cell for cell in cells if len(cell) > 1)
    for v in cell:
        branched = list(colors)
        branched[v] = count
        _search(*_refine(branched, count + 1, adj), adj, labels, best, leaves)


def _encode(order: list[int], pos: list[int], adj: CodedAdjacency, labels: list[str]) -> str:
    """The adjacency rows of a graph with its vertices in `order`, where
    `pos` is the inverse of `order`; each row is its vertex's label, which
    ends in ";", and its neighbours' tokens in position order."""
    tokens = _tokens(len(order))
    return "\n".join([
        labels[v] + ",".join([tokens[code + p] for p, code in sorted([(pos[w], code) for w, code in adj[v]])])
        for v in order
    ])


# ---------------------------------------------------------------------------
# Top-level generation


def iter_generate(
    spec: TopologicalSpec,
    model: ModelBundle,
    window: tuple[float, float],
    outcome: GenerationOutcome,
    limit_candidates: int | None = None,
    limit_seconds: float | None = None,
    covariates: dict[str, float] | None = None,
):
    """Yield GeneratedGraph records; status and counts land in `outcome`.

    `outcome.status` stays "incomplete" when the consumer stops early.
    `candidates_examined` counts the complete assignments that survive the
    enumeration's cuts and its lex-leader test, the ones materialized and
    fully checked.

    Each candidate's count profile is measured from its own decomposition,
    though the fringe search's memo has already summed its bounded
    counts: the profile is the input of the certificate, `check_satisfies`,
    that checks the search's own cuts, and read off the memo it would let
    a fault in the memo certify itself.
    """
    if spec.rho != model.registry.rho:
        raise ValueError(
            f"spec rho {spec.rho} differs from the model's {model.registry.rho}"
        )
    for v in spec.plan.vertices:
        if v.branch_count[1] > 0:
            raise SpecError(
                f"seed vertex {v.name!r} admits pendant branches (branch_count_vertex), "
                "which generation does not build"
            )
    on_cycle = _cycle_vertices(spec.seed)
    for name in spec.seed.vertices:
        if name not in on_cycle:
            raise SpecError(
                f"seed vertex {name!r} lies on no cycle of the seed; generation needs "
                "every seed vertex to stay interior"
            )
    if spec.rho < 1:
        raise GraphError("rho must be at least 1")
    catalog = [CatalogEntry.build(code) for code in spec.fringe_catalog]
    memo = _Contributions(spec, catalog, model.registry.vocabulary)
    lo, hi = window
    seen: set[str] = set()
    deadline = None if limit_seconds is None else time.monotonic() + limit_seconds

    def out_of_time() -> bool:
        if deadline is not None and time.monotonic() > deadline:
            outcome.status = "limit-seconds"
            return True
        return False

    for sk in _iter_skeletons(spec):
        # checked per skeleton too: the cuts can leave long runs of
        # skeletons without a single complete assignment
        if out_of_time():
            return
        for assignment in _assign_fringes(spec, sk, catalog, memo, outcome):
            if out_of_time():
                return
            if limit_candidates is not None and outcome.candidates_examined >= limit_candidates:
                outcome.status = "limit-candidates"
                return
            outcome.candidates_examined += 1
            # the construction's decomposition serves every stage below
            g, dec = _materialize(sk, assignment, spec.rho)
            report = check_satisfies(dec, spec, sk.witness)
            if report.witness is None:
                raise RuntimeError(f"candidate {outcome.candidates_examined} fails the witness it was built as")
            if not report.passed:
                outcome.rejected_spec += 1
                outcome.rejected_by.update(report.failed_families())
                continue
            prediction, oov = model.predict_graph(dec, covariates)
            if oov:
                outcome.rejected_oov += 1
                continue
            if not lo <= prediction <= hi:
                outcome.rejected_window += 1
                continue
            sig = canonical_signature(dec, spec.rho)
            if sig in seen:
                outcome.duplicates += 1
                continue
            seen.add(sig)
            result = GeneratedGraph(
                graph=g,
                prediction=prediction,
                signature=sig,
                fringe_codes=tuple(e.code for e in assignment),
                n_interior=len(dec.interior_vertices),
                n_exterior=len(dec.exterior_vertices),
            )
            yield result
    outcome.status = "exhausted"


def _cycle_vertices(seed: SeedGraph) -> set[str]:
    """The seed vertices on a cycle of the seed: the ends of each seed edge
    that is no bridge, that is whose removal leaves the seed connected."""
    on_cycle: set[str] = set()
    pairs = [(e.u, e.v) for e in seed.edges]
    for i, e in enumerate(seed.edges):
        if is_connected(seed.vertices, pairs[:i] + pairs[i + 1:]):
            on_cycle.update((e.u, e.v))
    return on_cycle


def run_generation(
    spec: TopologicalSpec,
    model: ModelBundle,
    window: tuple[float, float],
    limit_candidates: int | None = None,
    limit_seconds: float | None = None,
    covariates: dict[str, float] | None = None,
) -> GenerationOutcome:
    outcome = GenerationOutcome()
    outcome.results.extend(
        iter_generate(spec, model, window, outcome, limit_candidates, limit_seconds, covariates)
    )
    return outcome


# ---------------------------------------------------------------------------
# Round-trip verification


@dataclass(frozen=True)
class RoundtripCheck:
    name: str
    ok: bool
    detail: str


def verify_roundtrip(
    g: ChemicalGraph,
    spec: TopologicalSpec,
    model: ModelBundle,
    window: tuple[float, float],
    covariates: dict[str, float] | None = None,
) -> list[RoundtripCheck]:
    """Recompute decomposition, specification bounds, features and the
    prediction; one named check per stage.  A graph that cannot be
    decomposed (hydrogen only) fails the decomposition check, and no later
    stage runs."""
    try:
        dec = as_decomposition(g, spec.rho)
    except GraphError as exc:
        return [RoundtripCheck("decomposition", False, str(exc))]
    checks = [
        RoundtripCheck(
            "decomposition",
            len(dec.interior_vertices) > 0,
            f"{len(dec.interior_vertices)} interior / {len(dec.exterior_vertices)} exterior",
        )
    ]
    report = check_satisfies(dec, spec)
    passed = report.passed
    checks.append(
        RoundtripCheck(
            "specification",
            passed,
            "pass" if passed else "; ".join(report.failures()[:4]),
        )
    )
    prediction, oov = model.predict_graph(dec, covariates)
    checks.append(
        RoundtripCheck(
            "vocabulary",
            not oov,
            "all configurations known" if not oov else f"unknown: {', '.join(oov[:4])}",
        )
    )
    lo, hi = window
    in_window = lo <= prediction <= hi
    detail = f"prediction {prediction:.6g} vs [{lo:.6g}, {hi:.6g}]"
    if oov:
        detail += " (unreliable: out-of-vocabulary configs)"
    checks.append(RoundtripCheck("window", in_window, detail))
    return checks
