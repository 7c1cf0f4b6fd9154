"""Two-layer decomposition of a monomer graph at a branch parameter.

Vertices of the hydrogen-suppressed graph that are stripped away within
`rho` rounds of leaf removal are exterior; everything else (cycle
vertices, tree vertices of height at least rho, and a vertex that loses
all its neighbours in one round, as neopentane's centre does) is
interior.  `decompose` does the stripping itself: rho rounds on a
degree table over the suppressed graph's adjacency.  Exterior vertices
hang off interior roots as fringe trees, which carry their original
hydrogens and are compared by a canonical parenthesized code.
`decompose` fills in each fringe node's code bottom-up as it builds the
tree, by module-level recursion that leaves no reference cycle behind.
In the same pass over the interior roots it builds the decomposition's
interior view (`interior_adj`: interior vertex -> interior neighbour ->
multiplicity), which `topospec`'s witness search and its certificate
read; a root with no exterior neighbour shares its suppressed-graph row
and takes its bare fringe tree without a walk.  A generated candidate's
decomposition is handed its skeleton's view instead (`generate`).
`as_decomposition` keeps each chemical graph's decomposition on the
graph, per rho, so every stage that is handed the same graph reads one
decomposition, and `count_profile` counts every family into a plain dict
in one pass, with the configuration keys of an edge memoized on its
(element, degree, element, degree, multiplicity).  The interior graph's
integer coding for the canonical search (`coded_adjacency`) is defined
here too, so a decomposition can keep it beside its profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .chemgraph import (
    ChemicalGraph,
    GraphError,
    SuppressedGraph,
    hydrogen_suppress,
    split_symbol,
)

BOND_MARK = {1: "-", 2: "=", 3: "#"}
MARK_BOND = {v: k for k, v in BOND_MARK.items()}


# ---------------------------------------------------------------------------
# Rooted chemical trees and their canonical codes


@dataclass(frozen=True)
class RootedTree:
    """Rooted tree with element labels and bond multiplicities to children."""

    label: str
    children: tuple[tuple[int, "RootedTree"], ...] = ()

    @cached_property
    def code(self) -> str:
        return encode_tree(self)

    def heavy_size(self) -> int:
        own = 0 if self.label == "H" else 1
        return own + sum(c.heavy_size() for _, c in self.children)

    def heavy_height(self) -> int:
        """Depth of the deepest non-hydrogen vertex."""
        depths = [1 + c.heavy_height() for _, c in self.children if c.heavy_size() > 0]
        return max(depths, default=0)

    def root_bond_sum(self) -> int:
        return sum(m for m, _ in self.children)


def encode_tree(t: RootedTree) -> str:
    """Canonical code: element followed by sorted child groups.

    Child groups are `(<mark><code>)` with marks -, =, # for bond
    multiplicities 1..3, sorted by (multiplicity, code); two rooted
    chemical trees get the same string iff they are rooted-isomorphic.
    """
    return _join_code(t.label, [(m, encode_tree(c)) for m, c in t.children])


def _join_code(label: str, groups: list[tuple[int, str]]) -> str:
    """The code of a node from its children's (multiplicity, code) pairs."""
    return label + "".join(f"({BOND_MARK[m]}{code})" for m, code in sorted(groups))


def _coded_tree(label: str, children: tuple[tuple[int, RootedTree], ...]) -> RootedTree:
    """A RootedTree whose `code` is filled in from its children's, the
    string `encode_tree` would compute, without a second recursion."""
    tree = RootedTree(label, children)
    tree.__dict__["code"] = _join_code(label, [(m, c.code) for m, c in children])
    return tree


_HYDROGEN = _coded_tree("H", ())  # the one hydrogen leaf every fringe tree shares


def parse_code(code: str) -> RootedTree:
    """Parse a canonical code back into a RootedTree."""
    tree, pos = _parse_node(code, 0)
    if pos != len(code):
        raise GraphError(f"trailing characters in code {code!r}")
    return tree


def _parse_node(s: str, pos: int) -> tuple[RootedTree, int]:
    start = pos
    while pos < len(s) and (s[pos].isalpha() or s[pos].isdigit()):
        pos += 1
    # a '(digits)' right after the base symbol is a valence suffix, part of
    # the element token (children always start with a bond mark)
    if pos < len(s) and s[pos] == "(" and pos + 1 < len(s) and s[pos + 1].isdigit():
        close = s.index(")", pos)
        pos = close + 1
    label = s[start:pos]
    if not label:
        raise GraphError(f"expected element at position {start} in {s!r}")
    children: list[tuple[int, RootedTree]] = []
    while pos < len(s) and s[pos] == "(":
        mark = s[pos + 1]
        if mark not in MARK_BOND:
            raise GraphError(f"expected bond mark at position {pos + 1} in {s!r}")
        child, pos = _parse_node(s, pos + 2)
        if pos >= len(s) or s[pos] != ")":
            raise GraphError(f"unbalanced parentheses in {s!r}")
        pos += 1
        children.append((MARK_BOND[mark], child))
    return RootedTree(label, tuple(children)), pos


# ---------------------------------------------------------------------------
# Edge and adjacency configurations

EdgeConfig = tuple[str, int, str, int, int]
AdjacencyConfig = tuple[str, str, int]


def _vertex_symbol_key(sym: str, deg: int) -> tuple[tuple[str, int], int]:
    return (split_symbol(sym), deg)


def make_edge_config(a: str, d: int, b: str, dp: int, m: int) -> EdgeConfig:
    if _vertex_symbol_key(a, d) <= _vertex_symbol_key(b, dp):
        return (a, d, b, dp, m)
    return (b, dp, a, d, m)


@cache  # bounded: elements x suppressed degrees (<= 6) x multiplicities
def edge_keys(a: str, d: int, b: str, dp: int, m: int) -> tuple[str, str]:
    """The `ec_int` and `ac_int` keys of an interior edge between an (a, d)
    and a (b, dp) vertex with multiplicity m."""
    cfg = make_edge_config(a, d, b, dp, m)
    return config_str(cfg), adjacency_str(adjacency_of(cfg))


def make_adjacency_config(a: str, b: str, m: int) -> AdjacencyConfig:
    if split_symbol(a) <= split_symbol(b):
        return (a, b, m)
    return (b, a, m)


def adjacency_of(cfg: EdgeConfig) -> AdjacencyConfig:
    a, _, b, _, m = cfg
    return make_adjacency_config(a, b, m)


def config_str(cfg: EdgeConfig) -> str:
    a, d, b, dp, m = cfg
    return f"({a}{d},{b}{dp},{m})"


def adjacency_str(cfg: AdjacencyConfig) -> str:
    a, b, m = cfg
    return f"({a},{b},{m})"


def symbol_str(a: str, d: int) -> str:
    """Key of a vertex symbol: element and hydrogen-suppressed degree."""
    return f"({a},{d})"


# ---------------------------------------------------------------------------
# Decomposition


@dataclass(frozen=True)
class TwoLayeredDecomposition:
    rho: int
    suppressed: SuppressedGraph
    interior_vertices: frozenset[int]
    exterior_vertices: frozenset[int]
    interior_edges: frozenset[tuple[int, int]]
    fringe_trees: dict[int, RootedTree]  # per interior root, hydrogens included
    # interior vertex -> interior neighbour -> multiplicity, rows in
    # ascending vertex order; read-only, a row may be the suppressed graph's
    interior_adj: dict[int, dict[int, int]]

    @cached_property
    def profile(self) -> "CountProfile":
        """The count profile, computed on first read and kept, so every
        stage that reads one decomposition shares one profile."""
        return count_profile(self)

    @cached_property
    def interior_adjacency(self) -> "CodedAdjacency":
        """The interior graph as the canonical search reads it, over the
        positions of the sorted interior vertices (`coded_adjacency`),
        computed on first read and kept.  A generated candidate is handed
        its skeleton's instead."""
        index = {v: i for i, v in enumerate(sorted(self.interior_vertices))}
        adj, links = self.suppressed.adj, self.suppressed.link_edges
        return coded_adjacency(
            len(index), [(index[u], index[v], adj[u][v], (u, v) in links) for u, v in sorted(self.interior_edges)]
        )


# row u: (v, bond code) per neighbour v, in ascending v when the edges come
# sorted; the bond code of multiplicity m and link flag f is (2m + f)(n + 1)
CodedAdjacency = tuple[tuple[tuple[int, int], ...], ...]


def coded_adjacency(n: int, edges) -> CodedAdjacency:
    """The integer coding of a graph on positions 0..n-1 that the canonical
    search runs on, from its edges (u, v, multiplicity, is_link): each
    bond is coded (2 * multiplicity + is_link) * (n + 1), so a neighbour
    of color c adds one int, code + c, that sorts as the pair (bond label,
    c) does.  Edges given sorted, with u < v, give rows in ascending
    neighbour order, the same rows for every numbering with that order."""
    width = n + 1
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, m, is_link in edges:
        code = (2 * m + is_link) * width
        rows[u].append((v, code))
        rows[v].append((u, code))
    return tuple(map(tuple, rows))


def as_decomposition(g: ChemicalGraph | TwoLayeredDecomposition, rho: int) -> TwoLayeredDecomposition:
    """`g` itself when it is already decomposed at rho, else its decomposition.

    A chemical graph keeps its decomposition per rho in its
    `decompositions`, so a graph is decomposed once however many stages
    read it, whether they are passed the graph or the decomposition.
    """
    if isinstance(g, TwoLayeredDecomposition):
        return g if g.rho == rho else decompose(g.suppressed, rho)
    kept = g.decompositions
    dec = kept.get(rho)
    if dec is None:
        dec = kept[rho] = decompose(g, rho)
    return dec


def decompose(g: ChemicalGraph | SuppressedGraph, rho: int) -> TwoLayeredDecomposition:
    """Partition the hydrogen-suppressed graph at branch parameter rho.

    Exactly rho rounds of leaf removal run on a degree table over the
    suppressed graph's adjacency: each round removes the vertices of
    degree 1 left by the rounds before it, so round i removes the vertices
    of height i, and the removed ones are the exterior.  One pass over the
    interior roots then builds the interior view and the fringe trees: a
    root with no exterior neighbour shares its suppressed-graph row and
    takes its bare tree, and any other gets its row without the exterior
    and its tree built bottom-up, with its canonical code filled in as it
    goes and every hydrogen in it one shared leaf."""
    if rho < 1:
        raise GraphError("rho must be at least 1")
    s = hydrogen_suppress(g) if isinstance(g, ChemicalGraph) else g
    adj = s.adj
    degree = {v: len(nbrs) for v, nbrs in adj.items()}
    exterior: frozenset[int] = frozenset()
    leaves = {v for v, d in degree.items() if d == 1}
    for _ in range(rho):
        exterior |= leaves
        for v in leaves:
            for w in adj[v]:
                degree[w] -= 1
        # only a vertex that lost a neighbour can have become a leaf
        leaves = {w for v in leaves for w in adj[v] if degree[w] == 1 and w not in exterior}
    interior = frozenset(adj) - exterior
    labels, hydrogens = s.labels, s.h_count
    inner: dict[int, dict[int, int]] = {}
    trees: dict[int, RootedTree] = {}
    for u in sorted(interior):
        row = adj[u]
        if exterior.isdisjoint(row):  # a root without a fringe below it
            inner[u] = row
            trees[u] = _bare_tree(labels[u], hydrogens.get(u, 0))
        else:
            inner[u] = {w: m for w, m in row.items() if w not in exterior}
            trees[u] = _build_fringe(s, u, None, exterior)

    return TwoLayeredDecomposition(
        rho=rho,
        suppressed=s,
        interior_vertices=interior,
        exterior_vertices=exterior,
        interior_edges=frozenset(
            (u, v) for u, v, _ in s.bonds if u not in exterior and v not in exterior
        ),
        fringe_trees=trees,
        interior_adj=inner,
    )


def _build_fringe(
    s: SuppressedGraph, v: int, parent: int | None, exterior: frozenset[int]
) -> RootedTree:
    """The fringe tree at v: its hydrogens and the exterior vertices below
    it away from `parent`, built bottom-up by plain recursion."""
    below = [(w, m) for w, m in s.adj[v].items() if w != parent and w in exterior]
    hydrogens = s.h_count.get(v, 0)
    if not below:
        return _bare_tree(s.labels[v], hydrogens)
    children = [(1, _HYDROGEN)] * hydrogens
    children += [(m, _build_fringe(s, w, v, exterior)) for w, m in sorted(below)]
    return _coded_tree(s.labels[v], tuple(children))


@cache  # bounded: elements x hydrogen counts (<= 6)
def _bare_tree(label: str, hydrogens: int) -> RootedTree:
    """The fringe tree of a vertex that carries only hydrogens."""
    return _coded_tree(label, ((1, _HYDROGEN),) * hydrogens)


def edge_config(dec: TwoLayeredDecomposition, e: tuple[int, int]) -> EdgeConfig:
    """Edge configuration (a d, b d', m) of an interior edge, degrees taken
    in the hydrogen-suppressed graph."""
    u, v = e
    key = (u, v) if u <= v else (v, u)
    if key not in dec.interior_edges:
        raise GraphError(f"edge {e} is not interior")
    adj, labels = dec.suppressed.adj, dec.suppressed.labels
    return make_edge_config(labels[u], len(adj[u]), labels[v], len(adj[v]), adj[u][v])


def leaf_edge_adjacency_configs(s: SuppressedGraph) -> list[AdjacencyConfig]:
    """Adjacency configurations of leaf edges, oriented inner-to-leaf.

    A leaf edge is incident to a degree-1 vertex of the suppressed graph;
    the non-leaf endpoint comes first (canonical order when both ends are
    leaves).
    """
    adj, labels = s.adj, s.labels
    out: list[AdjacencyConfig] = []
    for u, v, m in s.bonds:
        du, dv = len(adj[u]), len(adj[v])
        if du != 1 and dv != 1:
            continue
        if du == 1 and dv == 1:
            out.append(make_adjacency_config(labels[u], labels[v], m))
        elif dv == 1:
            out.append((labels[u], labels[v], m))
        else:
            out.append((labels[v], labels[u], m))
    return sorted(out)


# ---------------------------------------------------------------------------
# Count profile


@dataclass(frozen=True)
class CountProfile:
    """Every count that the descriptors and the specification bounds read
    off one decomposition; count families are keyed by their string forms.

    Two link counts are kept apart: the descriptor `n_lnk` is the number of
    link edges, the specification's `n_lnk` the number of vertices with two
    incident link edges.
    """

    n: int  # non-hydrogen atoms
    rank: int
    n_int: int
    link_edges: int
    link_vertices: int
    na: dict[str, int]  # per element, hydrogens included
    na_int: dict[str, int]  # per interior element
    ns_int: dict[str, int]  # per interior "(element,degree)"
    ns_cnt: dict[str, int]  # per connecting-vertex "(element,degree)"
    ec_int: dict[str, int]  # interior edge configurations, link edges included
    ec_lnk: dict[str, int]
    ac_int: dict[str, int]
    ac_lnk: dict[str, int]
    ac_lf: dict[str, int]  # leaf-edge adjacency configurations
    fc: dict[str, int]  # fringe-tree codes


def count_profile(dec: TwoLayeredDecomposition) -> CountProfile:
    """All counts of one decomposition, each family counted into a plain
    dict in one pass over the vertices, edges or trees it reads.  A key
    enters its dict where it first occurs in that pass.  The rank is
    |E| - |V| + 1: the suppressed graph of a validated (connected) chemical
    graph is connected."""
    s = dec.suppressed
    adj, labels = s.adj, s.labels
    na: dict[str, int] = {}
    for _, a in s.atoms:
        na[a] = na.get(a, 0) + 1
    hydrogens = sum(h for _, h in s.hydrogens)
    if hydrogens:
        na["H"] = hydrogens
    interior = dec.interior_vertices
    na_int: dict[str, int] = {}
    ns_int: dict[str, int] = {}
    for v in interior:
        a = labels[v]
        na_int[a] = na_int.get(a, 0) + 1
        key = symbol_str(a, len(adj[v]))
        ns_int[key] = ns_int.get(key, 0) + 1
    ns_cnt: dict[str, int] = {}
    for v in s.connecting or ():
        key = symbol_str(labels[v], len(adj[v]))
        ns_cnt[key] = ns_cnt.get(key, 0) + 1
    keys: dict[tuple[int, int], tuple[str, str]] = {}  # interior edge -> (ec key, ac key)
    ec_int: dict[str, int] = {}
    ac_int: dict[str, int] = {}
    for e in dec.interior_edges:
        u, v = e
        nu, nv = adj[u], adj[v]
        ec, ac = keys[e] = edge_keys(labels[u], len(nu), labels[v], len(nv), nu[v])
        ec_int[ec] = ec_int.get(ec, 0) + 1
        ac_int[ac] = ac_int.get(ac, 0) + 1
    ec_lnk: dict[str, int] = {}
    ac_lnk: dict[str, int] = {}
    link_degree: dict[int, int] = {}
    for e in s.link_edges:
        ec, ac = keys[e]  # link edges lie on a cycle: interior
        ec_lnk[ec] = ec_lnk.get(ec, 0) + 1
        ac_lnk[ac] = ac_lnk.get(ac, 0) + 1
        for v in e:
            link_degree[v] = link_degree.get(v, 0) + 1
    ac_lf: dict[str, int] = {}
    for c in leaf_edge_adjacency_configs(s):
        key = adjacency_str(c)
        ac_lf[key] = ac_lf.get(key, 0) + 1
    fc: dict[str, int] = {}
    for ft in dec.fringe_trees.values():
        code = ft.code
        fc[code] = fc.get(code, 0) + 1
    return CountProfile(
        n=len(s.atoms),
        rank=len(s.bonds) - len(s.atoms) + 1,
        n_int=len(interior),
        link_edges=len(s.link_edges),
        link_vertices=sum(1 for c in link_degree.values() if c == 2),
        na=na,
        na_int=na_int,
        ns_int=ns_int,
        ns_cnt=ns_cnt,
        ec_int=ec_int,
        ec_lnk=ec_lnk,
        ac_int=ac_int,
        ac_lnk=ac_lnk,
        ac_lf=ac_lf,
        fc=fc,
    )
