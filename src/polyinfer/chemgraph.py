"""Chemical graph data model for polymers in monomer representation.

A polymer repeating unit is stored as a single connected graph whose two
connecting-edges have been merged into one edge; the edges that every
path between the former connecting-edges must traverse are marked as
link-edges and always form a circular set (one common cycle such that
removing any member turns the rest into bridges).

A graph is read through two cached dicts, `labels` (id -> element) and
`adj` (id -> neighbour -> multiplicity).  Validation reads one
adjacency: connectivity, valences and the link set are checked off
`adj`, and the circular-set test is one lowlink DFS of the graph
without the first link edge.  Every graph is built by `ChemicalGraph(...)`,
which checks everything, or by the one trusted constructor
`ChemicalGraph._from_checked_records`, whose caller has checked the
records: `parse_pmg` checks them line by line and leaves only the
structural part to the graph, and the generator, which builds each graph
as an expansion of a seed, checks each structural fact once where it
becomes known and leaves nothing to the graph.
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

    For non-bridges e and f, "f is a bridge of G - e" holds exactly when
    every cycle through e passes through f; that relation is symmetric and
    transitive, so testing every member against the first one, e0 = (a, b),
    settles all pairs.  One lowlink DFS of G - e0 from a decides it: b must
    be reached (e0 is no bridge of G), and every other member f must be a
    tree-edge bridge of G - e0 whose child side holds b, so that e0 crosses
    f's cut (f is then no bridge of G either).
    """
    edges = [_norm_edge(u, v) for u, v in edges]
    marked = [_norm_edge(u, v) for u, v in marked]
    if len(set(marked)) != len(marked):
        return False
    if not marked:
        return True
    edge_set = set(edges)
    if any(e not in edge_set for e in marked):
        return False
    e0 = marked[0]
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
    for idx, e in enumerate(edges):
        if e != e0:  # every copy of e0 goes
            u, v = e
            adj[u].append((v, idx))
            adj[v].append((u, idx))
    a, b = e0
    order = {a: 0}
    low = {a: 0}
    end: dict[int, int] = {}  # one past the last discovery index in the subtree
    parent: dict[int, int] = {}
    counter = 1
    # iterative DFS; (vertex, incoming edge index, neighbor iterator)
    stack = [(a, -1, iter(adj[a]))]
    while stack:
        u, in_idx, it = stack[-1]
        for w, idx in it:
            if idx == in_idx:
                continue
            if w not in order:
                order[w] = low[w] = counter
                counter += 1
                parent[w] = u
                stack.append((w, idx, iter(adj[w])))
                break
            if order[w] < low[u]:
                low[u] = order[w]
        else:
            stack.pop()
            end[u] = counter
            if stack:
                p = stack[-1][0]
                if low[u] < low[p]:
                    low[p] = low[u]
    if b not in order:
        # e0 is a bridge of G, or a parallel copy of it keeps it on a
        # cycle that no other member can share
        return len(marked) == 1 and edges.count(e0) > 1
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
        object.__setattr__(
            self, "link_edges", frozenset(_norm_edge(u, v) for u, v in self.link_edges)
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
            # hydrogens have one neighbor (checked above) and lie on no
            # cycle; dropping them changes no bridge among heavy edges
            heavy = [i for i, s in self.atoms if s != "H"]
            heavy_edges = [
                (u, v) for u, v, _ in self.bonds if labels[u] != "H" and labels[v] != "H"
            ]
            if not is_circular_set(heavy, heavy_edges, self.link_edges):
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
    ) -> "ChemicalGraph":
        """The one trusted constructor: a graph from records that already
        hold what `_validate` checks before `_validate_structure`: at least
        one atom, distinct ids, known elements, and distinct bonds (u < v,
        multiplicity 1..3) between known atoms; link edges and `connecting`
        normalized.  The structure is checked too, unless the caller built
        the records so that it holds and says so with `structure_checked`;
        then nothing is checked."""
        g = object.__new__(cls)
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
    """Remove all H vertices, recording how many were attached where."""
    labels = g.labels
    keep = [(i, s) for i, s in g.atoms if s != "H"]
    if not keep:
        raise GraphError("hydrogen-only graph has no suppressed form")
    h_counts = {i: 0 for i, _ in keep}
    bonds = []
    for u, v, m in g.bonds:
        if labels[v] == "H":
            if labels[u] != "H":
                h_counts[u] += 1
        elif labels[u] == "H":
            h_counts[v] += 1
        else:
            bonds.append((u, v, m))
    return SuppressedGraph(
        atoms=tuple(keep),
        bonds=tuple(bonds),
        link_edges=g.link_edges,
        connecting=g.connecting,
        hydrogens=tuple(h_counts.items()),  # ascending, as `atoms`
    )


# ---------------------------------------------------------------------------
# PMG text format

PMG_HEADER = "PMG 1"


def parse_pmg(text: str, max_abs_charge: int = 0) -> ChemicalGraph:
    """Parse the line-oriented PMG format into a validated ChemicalGraph.

    The line checks establish every record-level invariant (ids, elements,
    bonds, LINK and CONNECT names) with its line number, so the graph is
    built from the records with only its structure left to check.
    """
    atoms: list[tuple[int, str]] = []
    bonds: list[tuple[int, int, int]] = []
    links: list[Edge] = []
    connect: tuple[int, int] | None = None
    atom_ids: set[int] = set()
    bond_set: set[Edge] = set()
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
            if i in atom_ids:
                raise PmgParseError(f"duplicate atom id {i}", lineno)
            if sym not in ELEMENTS:
                raise PmgParseError(f"unknown element symbol {sym!r}", lineno)
            atom_ids.add(i)
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
            if u not in atom_ids or v not in atom_ids:
                raise PmgParseError(f"bond references undeclared atom {u}-{v}", lineno)
            if m not in (1, 2, 3):
                raise PmgParseError(f"multiplicity {m} outside 1..3", lineno)
            e = (u, v) if u < v else (v, u)
            if e in bond_set:
                raise PmgParseError(f"duplicate bond {u}-{v}", lineno)
            bond_set.add(e)
            bonds.append((e[0], e[1], m))
        elif kind == "LINK":
            if len(parts) != 3:
                raise PmgParseError("LINK needs <id1> <id2>", lineno)
            u = want_int(parts[1], lineno, "atom id")
            v = want_int(parts[2], lineno, "atom id")
            e = _norm_edge(u, v)
            if e not in bond_set:
                raise PmgParseError(f"LINK names a nonexistent bond {u}-{v}", lineno)
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
            atoms, bonds, frozenset(links), connect, max_abs_charge
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
