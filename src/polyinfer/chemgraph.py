"""Chemical graph data model for polymers in monomer representation.

A polymer repeating unit is stored as a single connected graph whose two
connecting-edges have been merged into one edge; the edges that every
path between the former connecting-edges must traverse are marked as
link-edges and always form a circular set (one common cycle such that
removing any member turns the rest into bridges).

A graph is read through two dicts, `labels` (id -> element) and `adj`
(id -> neighbour -> multiplicity), each built once: `parse_pmg` fills
them as it reads the lines, `hydrogen_suppress` fills the suppressed
graph's in its one bond loop, and any other graph builds them on first
read.  Validation reads that one adjacency: connectivity, valences and
the link set are checked off `adj`, and the circular-set test is one
lowlink DFS of it without the first link edge (`_circular_in`), which
never enters a hydrogen.  `is_circular_set` is the edge-list form of the
same test, for graphs with parallel edges.  Every graph is built by
`ChemicalGraph(...)`, which checks everything, or by the one trusted
constructor `ChemicalGraph._from_checked_records`, whose caller has
checked the records: `parse_pmg` checks them line by line and leaves
only the structural part to the graph, and the generator, which builds
each graph as an expansion of a seed, checks each structural fact once
where it becomes known and leaves nothing to the graph.  A graph keeps
its two-layer decompositions, one per rho, in `decompositions`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property


class GraphError(ValueError):
    pass


class PmgParseError(GraphError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Elements

# token -> (valence, mass).  A suffixed token like S(2) is a distinct symbol
# whose valence equals its suffix; every valence lies in [1, 6].
ELEMENTS: dict[str, tuple[int, float]] = {
    "H": (1, 1.008),
    "C": (4, 12.011),
    "N": (3, 14.007),
    "O": (2, 15.999),
    "O(1)": (1, 15.999),
    "O(2)": (2, 15.999),
    "F": (1, 18.998),
    "Si(4)": (4, 28.085),
    "P(5)": (5, 30.974),
    "S(2)": (2, 32.06),
    "S(4)": (4, 32.06),
    "S(6)": (6, 32.06),
    "Cl": (1, 35.45),
}


def valence(symbol: str) -> int:
    try:
        return ELEMENTS[symbol][0]
    except KeyError:
        raise GraphError(f"unknown element symbol {symbol!r}") from None


def split_symbol(symbol: str) -> tuple[str, int]:
    """Split an element token into (base, valence suffix); suffix 0 if absent."""
    if "(" in symbol:
        base, _, rest = symbol.partition("(")
        if not rest.endswith(")") or not rest[:-1].isdigit():
            raise GraphError(f"malformed element token {symbol!r}")
        return base, int(rest[:-1])
    return symbol, 0


# ---------------------------------------------------------------------------
# Plain-graph helpers (work on explicit vertex/edge collections)

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


def is_connected(vertices, edges) -> bool:
    vertices = list(vertices)
    if not vertices:
        return True
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {vertices[0]}
    queue = deque([vertices[0]])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(vertices)


def is_circular_set(vertices, edges, marked) -> bool:
    """Whether `marked` edges all lie on one cycle that removing any one of
    them turns the rest into bridges.

    The edge-list form of `_circular_in`, for graphs that may have
    parallel edges.  "G - e0" drops every copy of the first member e0, so
    only one copy of it is kept; any other parallel copy becomes a path
    through a fresh vertex, which keeps every cycle and every bridge.
    """
    edges = [_norm_edge(u, v) for u, v in edges]
    marked = [_norm_edge(u, v) for u, v in marked]
    if len(set(marked)) != len(marked):
        return False
    if not marked:
        return True
    e0 = marked[0]
    adj: dict = {v: [] for v in vertices}
    seen: set[Edge] = set()
    for idx, e in enumerate(edges):
        u, v = e
        if e not in seen:
            seen.add(e)
            adj[u].append(v)
            adj[v].append(u)
        elif e != e0:
            x = ("copy", idx)
            adj[x] = [u, v]
            adj[u].append(x)
            adj[v].append(x)
        elif len(marked) == 1:
            return True  # e0 and a copy of it make a cycle
    if any(e not in seen for e in marked):
        return False
    return _circular_in(adj, marked)


def _circular_in(adj, marked: list[Edge]) -> bool:
    """Whether the distinct edges `marked`, all edges of the simple graph
    `adj` (vertex -> neighbours), form a circular set.

    For non-bridges e and f, "f is a bridge of G - e" holds exactly when
    every cycle through e passes through f; that relation is symmetric and
    transitive, so testing every member against the first one, e0 = (a, b),
    settles all pairs.  One lowlink DFS of G - e0 from a decides it: b must
    be reached (e0 is no bridge of G), and every other member f must be a
    tree-edge bridge of G - e0 whose child side holds b, so that e0 crosses
    f's cut (f is then no bridge of G either).  A pendant vertex (every
    hydrogen of a chemical graph is one) lies on no cycle, so the walk
    never enters it, and a member that ends there is no tree edge.
    """
    a, b = marked[0]
    order = {a: 0}
    low = {a: 0}
    end: dict = {}  # one past the last discovery index in the subtree
    parent: dict = {}
    counter = 1
    # iterative DFS; (vertex, its parent, neighbour iterator); e0 is left
    # out of the neighbours of a and b
    stack = [(a, None, iter([w for w in adj[a] if w != b]))]
    while stack:
        u, p, it = stack[-1]
        for w in it:
            if w not in order:
                nbrs = adj[w]
                if len(nbrs) == 1:
                    continue
                order[w] = low[w] = counter
                counter += 1
                parent[w] = u
                stack.append((w, u, iter([x for x in nbrs if x != a] if w == b else nbrs)))
                break
            if w != p and order[w] < low[u]:
                low[u] = order[w]
        else:
            stack.pop()
            end[u] = counter
            if stack:
                q = stack[-1][0]
                if low[u] < low[q]:
                    low[q] = low[u]
    if b not in order:
        return False  # e0 is a bridge of G
    at_b = order[b]
    for x, y in marked[1:]:
        if parent.get(y) == x:
            child = y
        elif parent.get(x) == y:
            child = x
        else:
            return False  # no tree edge, so no bridge of G - e0
        if low[child] <= order[parent[child]]:
            return False
        if not order[child] <= at_b < end[child]:
            return False  # e0 does not cross f's cut: f is a bridge of G
    return True


# ---------------------------------------------------------------------------
# Chemical graph


class _AtomBondGraph:
    """Accessors shared by ChemicalGraph and SuppressedGraph, read off their
    `atoms` ((id, element), ...) and `bonds` ((u, v, multiplicity), ...)."""

    atoms: tuple[tuple[int, str], ...]
    bonds: tuple[tuple[int, int, int], ...]

    @cached_property
    def labels(self) -> dict[int, str]:
        """Element of each atom, by id."""
        return dict(self.atoms)

    @cached_property
    def adj(self) -> dict[int, dict[int, int]]:
        """Neighbours of each atom, by id, mapped to bond multiplicity."""
        adj: dict[int, dict[int, int]] = {i: {} for i, _ in self.atoms}
        for u, v, m in self.bonds:
            adj[u][v] = m
            adj[v][u] = m
        return adj

    def mass_average(self) -> float:
        heavy = [ELEMENTS[s][1] for _, s in self.atoms if s != "H"]
        if not heavy:
            raise GraphError("no non-hydrogen atom")
        return sum(heavy) / len(heavy)


@dataclass(frozen=True)
class ChemicalGraph(_AtomBondGraph):
    """Connected simple graph with element labels and bond multiplicities.

    `atoms` is ((id, element), ...) in ascending id; `bonds` is
    ((u, v, multiplicity), ...) with u < v.  Immutable after construction;
    all invariants are checked eagerly.
    """

    atoms: tuple[tuple[int, str], ...]
    bonds: tuple[tuple[int, int, int], ...]
    link_edges: frozenset[Edge] = frozenset()
    connecting: tuple[int, int] | None = None
    max_abs_charge: int = 0

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(sorted(self.atoms)))
        object.__setattr__(
            self, "bonds", tuple(sorted((_norm_edge(u, v) + (m,)) for u, v, m in self.bonds))
        )
        object.__setattr__(  # built sorted, to iterate as a parsed graph's does
            self, "link_edges", frozenset(sorted(_norm_edge(u, v) for u, v in self.link_edges))
        )
        if self.connecting is not None:
            object.__setattr__(self, "connecting", _norm_edge(*self.connecting))
        self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        ids = [i for i, _ in self.atoms]
        if len(set(ids)) != len(ids):
            raise GraphError("duplicate atom id")
        if not ids:
            raise GraphError("empty graph")
        id_set = set(ids)
        seen_edges: set[Edge] = set()
        for u, v, m in self.bonds:
            if u == v:
                raise GraphError(f"self-loop at atom {u}")
            if u not in id_set or v not in id_set:
                raise GraphError(f"bond references unknown atom: {u}-{v}")
            if (u, v) in seen_edges:
                raise GraphError(f"duplicate bond {u}-{v}")
            if m not in (1, 2, 3):
                raise GraphError(f"bond multiplicity {m} outside [1,3]")
            seen_edges.add((u, v))
        for sym in (s for _, s in self.atoms):
            if sym not in ELEMENTS:
                raise GraphError(f"unknown element symbol {sym!r}")
        self._validate_structure()

    def _validate_structure(self) -> None:
        """The checks on a nonempty graph whose atom ids are distinct, whose
        elements are known and whose bonds are distinct, ordered pairs of
        known atoms with multiplicity 1..3: connectivity, valences and the
        link edges, all read off `adj`."""
        adj = self.adj
        labels = self.labels
        start = self.atoms[0][0]
        seen = {start}
        queue = [start]
        for u in queue:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != len(adj):
            raise GraphError("graph is not connected")
        for i, sym in self.atoms:
            nbrs = adj[i]
            if sym == "H" and len(nbrs) > 1:
                raise GraphError(f"hydrogen {i} has {len(nbrs)} neighbors, not 1")
            bond_sum = sum(nbrs.values())
            val = ELEMENTS[sym][0]
            if abs(bond_sum - val) > self.max_abs_charge:
                raise GraphError(
                    f"valence violation at atom {i} ({sym}): bond sum "
                    f"{bond_sum} vs valence {val}"
                )
        if self.link_edges:
            if any(v not in adj.get(u, ()) for u, v in self.link_edges):
                raise GraphError("link edge is not an existing bond")
            if any(labels[u] == "H" or labels[v] == "H" for u, v in self.link_edges):
                raise GraphError("link edge touches a hydrogen")
            # hydrogens have one neighbor (checked above), so the walk
            # stays on the heavy part of `adj`
            if not _circular_in(adj, list(self.link_edges)):
                raise GraphError("link-edge set is not a circular set")
        if self.connecting is not None:
            if self.connecting not in self.link_edges:
                raise GraphError("connecting vertices must span a link edge")

    @classmethod
    def _from_checked_records(
        cls,
        atoms: list[tuple[int, str]],
        bonds: list[tuple[int, int, int]],
        link_edges: frozenset[Edge],
        connecting: Edge | None = None,
        max_abs_charge: int = 0,
        structure_checked: bool = False,
        labels: dict[int, str] | None = None,
        adj: dict[int, dict[int, int]] | None = None,
    ) -> "ChemicalGraph":
        """The one trusted constructor: a graph from records that already
        hold what `_validate` checks before `_validate_structure`: at least
        one atom, distinct ids, known elements, and distinct bonds (u < v,
        multiplicity 1..3) between known atoms; link edges and `connecting`
        normalized.  A caller that built `labels` and `adj` of these
        records passes them on, and the graph keeps them.  The structure is
        checked too, unless the caller built the records so that it holds
        and says so with `structure_checked`; then nothing is checked."""
        g = object.__new__(cls)
        if labels is not None:
            g.__dict__.update(labels=labels, adj=adj)
        for name, value in (
            ("atoms", tuple(sorted(atoms))),
            ("bonds", tuple(sorted(bonds))),
            ("link_edges", link_edges),
            ("connecting", connecting),
            ("max_abs_charge", max_abs_charge),
        ):
            object.__setattr__(g, name, value)
        if not structure_checked:
            g._validate_structure()
        return g

    # -- basic accessors ----------------------------------------------------

    @cached_property
    def decompositions(self) -> dict:
        """rho -> the graph's two-layer decomposition, filled and read by
        `twolayer.as_decomposition`."""
        return {}

    def non_hydrogen_count(self) -> int:
        return sum(1 for _, s in self.atoms if s != "H")

    def heavy_neighbor_count(self, v: int) -> int:
        return sum(1 for w in self.adj[v] if self.labels[w] != "H")


@dataclass(frozen=True)
class SuppressedGraph(_AtomBondGraph):
    """Hydrogen-suppressed view of a ChemicalGraph.

    Keeps original ids for the remaining vertices; `hydrogens` records how
    many H atoms were removed from each of them, so the original graph can
    be rebuilt up to isomorphism.
    """

    atoms: tuple[tuple[int, str], ...]
    bonds: tuple[tuple[int, int, int], ...]
    link_edges: frozenset[Edge]
    connecting: tuple[int, int] | None
    hydrogens: tuple[tuple[int, int], ...]  # (vertex id, removed H count)

    @cached_property
    def h_count(self) -> dict[int, int]:
        return dict(self.hydrogens)


def hydrogen_suppress(g: ChemicalGraph) -> SuppressedGraph:
    """Remove all H vertices, recording how many were attached where.  The
    one bond loop also fills the suppressed graph's `adj`, and its `labels`
    and `h_count` come with it."""
    labels = g.labels
    keep = [(i, s) for i, s in g.atoms if s != "H"]
    if not keep:
        raise GraphError("hydrogen-only graph has no suppressed form")
    kept = dict(keep)
    adj: dict[int, dict[int, int]] = {i: {} for i in kept}
    h_count = dict.fromkeys(kept, 0)
    bonds = []
    for u, v, m in g.bonds:
        if labels[v] == "H":
            if labels[u] != "H":
                h_count[u] += 1
        elif labels[u] == "H":
            h_count[v] += 1
        else:
            bonds.append((u, v, m))
            adj[u][v] = m
            adj[v][u] = m
    s = SuppressedGraph(
        atoms=tuple(keep),
        bonds=tuple(bonds),
        link_edges=g.link_edges,
        connecting=g.connecting,
        hydrogens=tuple(h_count.items()),  # ascending, as `atoms`
    )
    s.__dict__.update(labels=kept, adj=adj, h_count=h_count)
    return s


# ---------------------------------------------------------------------------
# PMG text format

PMG_HEADER = "PMG 1"


def parse_pmg(text: str, max_abs_charge: int = 0) -> ChemicalGraph:
    """Parse the line-oriented PMG format into a validated ChemicalGraph.

    The line checks establish every record-level invariant (ids, elements,
    bonds, LINK and CONNECT names) with its line number, so the graph is
    built from the records with only its structure left to check.  The
    graph's `labels` and `adj` are filled as the lines are read, in file
    order, and the duplicate checks read them.  The link set is built from
    the sorted link edges, so it iterates in one order, and the count
    profile's link keys come in one order, whatever the order of the LINK
    lines.
    """
    atoms: list[tuple[int, str]] = []
    bonds: list[tuple[int, int, int]] = []
    links: list[Edge] = []
    connect: tuple[int, int] | None = None
    labels: dict[int, str] = {}
    adj: dict[int, dict[int, int]] = {}
    header_seen = False

    def want_int(token: str, lineno: int, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise PmgParseError(f"{what} is not an integer: {token!r}", lineno) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0] if "#" in raw else raw
        parts = line.split()
        if not parts:
            continue
        if not header_seen:
            if line.strip() != PMG_HEADER:
                raise PmgParseError(f"expected {PMG_HEADER!r} header", lineno)
            header_seen = True
            continue
        kind = parts[0]
        if kind == "ATOM":
            if len(parts) != 3:
                raise PmgParseError("ATOM needs <id> <element>", lineno)
            try:
                i = int(parts[1])
            except ValueError:
                i = want_int(parts[1], lineno, "atom id")
            sym = parts[2]
            if i in labels:
                raise PmgParseError(f"duplicate atom id {i}", lineno)
            if sym not in ELEMENTS:
                raise PmgParseError(f"unknown element symbol {sym!r}", lineno)
            labels[i] = sym
            adj[i] = {}
            atoms.append((i, sym))
        elif kind == "BOND":
            if len(parts) != 4:
                raise PmgParseError("BOND needs <id1> <id2> <mult>", lineno)
            try:
                u, v, m = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:  # name the first token that is no integer
                u = want_int(parts[1], lineno, "atom id")
                v = want_int(parts[2], lineno, "atom id")
                m = want_int(parts[3], lineno, "multiplicity")
            if u == v:
                raise PmgParseError("self-loop bond", lineno)
            if u not in labels or v not in labels:
                raise PmgParseError(f"bond references undeclared atom {u}-{v}", lineno)
            if m not in (1, 2, 3):
                raise PmgParseError(f"multiplicity {m} outside 1..3", lineno)
            nbrs = adj[u]
            if v in nbrs:
                raise PmgParseError(f"duplicate bond {u}-{v}", lineno)
            nbrs[v] = m
            adj[v][u] = m
            bonds.append((u, v, m) if u < v else (v, u, m))
        elif kind == "LINK":
            if len(parts) != 3:
                raise PmgParseError("LINK needs <id1> <id2>", lineno)
            u = want_int(parts[1], lineno, "atom id")
            v = want_int(parts[2], lineno, "atom id")
            if v not in adj.get(u, ()):
                raise PmgParseError(f"LINK names a nonexistent bond {u}-{v}", lineno)
            e = _norm_edge(u, v)
            if e in links:
                raise PmgParseError(f"duplicate LINK {u}-{v}", lineno)
            links.append(e)
        elif kind == "CONNECT":
            if len(parts) != 3:
                raise PmgParseError("CONNECT needs <id1> <id2>", lineno)
            u = want_int(parts[1], lineno, "atom id")
            v = want_int(parts[2], lineno, "atom id")
            if connect is not None:
                raise PmgParseError("duplicate CONNECT", lineno)
            e = _norm_edge(u, v)
            if e not in links:
                raise PmgParseError(f"CONNECT must name a LINK edge {u}-{v}", lineno)
            connect = e
        else:
            raise PmgParseError(f"unknown directive {kind!r}", lineno)

    if not header_seen:
        raise PmgParseError("missing PMG header")
    if not atoms:
        raise PmgParseError("empty graph")
    try:
        return ChemicalGraph._from_checked_records(
            atoms, bonds, frozenset(sorted(links)), connect, max_abs_charge, labels=labels, adj=adj
        )
    except GraphError as exc:
        raise PmgParseError(str(exc)) from exc


def serialize_pmg(g: ChemicalGraph) -> str:
    """Emit PMG text: atoms ascending, bonds and links lexicographic."""
    out = [PMG_HEADER]
    for i, sym in g.atoms:
        out.append(f"ATOM {i} {sym}")
    for u, v, m in g.bonds:
        out.append(f"BOND {u} {v} {m}")
    for u, v in sorted(g.link_edges):
        out.append(f"LINK {u} {v}")
    if g.connecting is not None:
        out.append(f"CONNECT {g.connecting[0]} {g.connecting[1]}")
    return "\n".join(out) + "\n"
