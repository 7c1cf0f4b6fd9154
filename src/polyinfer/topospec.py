"""Topological specifications: seed graph, counting bounds, and a checker.

A specification describes admissible polymers as expansions of a seed
graph: designated seed edges are replaced by paths, the other seed edges
are kept, pendant interior trees may hang off path vertices, and every
interior vertex carries a fringe tree from a fixed catalog.  Counting
bounds constrain elements, symbols, edge configurations and fringe-tree
usage.  `check_satisfies` measures every bound on a concrete graph in one
pass, building the per-bound rows of its report only when they are read.
Its expansion witness is the embedding a caller hands over (the generator
hands over the one it built), certified by `check_witness`, or else one
`find_expansion_witness` searches for; both apply the same module-level
predicates for images, kept edges, paths and pendant trees, both read
the interior from the decomposition's one interior view (`interior_adj`,
built by `twolayer.decompose` or, for a generated candidate, handed over
from its skeleton), and the report holds either as one record of images,
paths and pendant attachments.  The search frees itself on return (its
recursive closures are deleted in a `finally`, and the path enumeration
keeps an explicit stack), so checking a graph leaves no reference cycles
for the garbage collector.  Everything either reads off a specification
is compiled once per specification object into its plan
(`TopologicalSpec.plan`) and kept on it: the count bounds as rows by
family and key and as the table the count check walks, the declared keys
each membership test admits, and the one reading of the seed structure,
that is each seed vertex's element and catalog filters and each seed
edge's multiplicities, bond, path-length, catalog and branch bounds, with
an absent bound read one way.  The checker and the search in `generate`
both take their bounds from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .chemgraph import ChemicalGraph, is_connected, parse_pmg
from .data import example_polymer_text, fringe_catalog_text
from .twolayer import (
    CountProfile,
    TwoLayeredDecomposition,
    as_decomposition,
    decompose,
    parse_code,
)


class SpecError(ValueError):
    pass


Bounds = tuple[int, int]


# ---------------------------------------------------------------------------
# Seed graph


@dataclass(frozen=True)
class SeedEdge:
    name: str
    u: str
    v: str
    kind: str  # "path" = replaceable by a path; "exact" = kept as one edge
    link: bool = False

    def __post_init__(self):
        if self.kind not in ("path", "exact"):
            raise SpecError(f"unknown seed edge kind {self.kind!r}")


@dataclass(frozen=True)
class SeedGraph:
    vertices: tuple[str, ...]
    edges: tuple[SeedEdge, ...]

    def __post_init__(self):
        names = [e.name for e in self.edges]
        if len(set(names)) != len(names):
            raise SpecError("duplicate seed edge name")
        if len(set(self.vertices)) != len(self.vertices):
            raise SpecError("duplicate seed vertex")
        known = set(self.vertices)
        for e in self.edges:
            if e.u not in known or e.v not in known:
                raise SpecError(f"seed edge {e.name} references unknown vertex")
            if e.u == e.v:
                raise SpecError(f"seed edge {e.name} is a self-loop")
            if e.link and e.kind != "path":
                raise SpecError(f"link seed edge {e.name} must be replaceable")
        index = {v: i for i, v in enumerate(self.vertices)}
        if not is_connected(range(len(self.vertices)), [(index[e.u], index[e.v]) for e in self.edges]):
            raise SpecError("seed graph is not connected")

    def degree(self, vertex: str) -> int:
        return sum(1 for e in self.edges if vertex in (e.u, e.v))


# ---------------------------------------------------------------------------
# Specification

SCALAR_BOUNDS = ("n", "n_int", "n_lnk")
# per-key bound tables: seed-structure ones, then the count families that
# `check_satisfies` measures with the same names on the count profile
STRUCTURE_BOUNDS = (
    "path_len", "branch_count_edge", "branch_height_edge", "branch_count_vertex",
    "branch_height_vertex", "double_bonds", "triple_bonds",
)
CONFIG_BOUNDS = ("ec_int", "ec_lnk", "ac_int", "ac_lnk", "ac_lf")  # keys declare the admissible configs
COUNT_BOUNDS = ("na", "na_int", "ns_int", "ns_cnt", *CONFIG_BOUNDS, "fc")
CATALOG_RESTRICTIONS = ("fringe_vertex", "fringe_edge")


@dataclass(frozen=True)
class TopologicalSpec:
    seed: SeedGraph
    rho: int
    elements: tuple[str, ...]  # admissible element alphabet (H included)
    vertex_elements: dict[str, tuple[str, ...]]  # per seed vertex
    fringe_catalog: tuple[str, ...]  # canonical codes, index order matters
    n: Bounds
    n_int: Bounds
    n_lnk: Bounds  # count of vertices with two incident link edges
    path_len: dict[str, Bounds]  # per replaceable seed edge
    branch_count_edge: dict[str, Bounds]  # bl per replaceable edge
    branch_height_edge: dict[str, Bounds]  # ch per replaceable edge
    branch_count_vertex: dict[str, Bounds]
    branch_height_vertex: dict[str, Bounds]
    double_bonds: dict[str, Bounds]  # bd2 per seed edge
    triple_bonds: dict[str, Bounds]  # bd3 per seed edge
    na: dict[str, Bounds]  # element counts, hydrogens included
    na_int: dict[str, Bounds]
    ns_int: dict[str, Bounds]  # per "(element,degree)"
    ns_cnt: dict[str, Bounds]  # connecting-vertex symbols
    ec_int: dict[str, Bounds]  # keys declare the admissible interior configs
    ec_lnk: dict[str, Bounds]
    ac_int: dict[str, Bounds]
    ac_lnk: dict[str, Bounds]
    ac_lf: dict[str, Bounds]
    fc: dict[str, Bounds]  # per catalog code
    # optional restrictions of the catalog: per seed vertex and, for the
    # internal vertices of a replaced edge, per seed edge
    fringe_vertex: dict[str, tuple[str, ...]] = field(default_factory=dict)
    fringe_edge: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for name, (lo, hi) in self._all_bounds():
            if lo > hi:
                raise SpecError(f"bound {name} has lower {lo} > upper {hi}")
        for code in self.fc:
            if code not in self.fringe_catalog:
                raise SpecError(f"fc bound references unknown fringe tree {code!r}")
        for i, code in enumerate(self.fringe_catalog):
            if code in self.fringe_catalog[:i]:
                raise SpecError(f"catalog code {code!r} is repeated")
            tree = parse_code(code)
            if tree.code != code:
                raise SpecError(f"catalog code {code!r} is not canonical")
            if tree.heavy_height() > self.rho:
                raise SpecError(f"catalog tree {code!r} taller than rho")
        # a table keyed by a vertex or edge the seed lacks would bound nothing
        seed_vertices = set(self.seed.vertices)
        for attr in ("vertex_elements", "branch_count_vertex", "branch_height_vertex", "fringe_vertex"):
            for v in getattr(self, attr):
                if v not in seed_vertices:
                    raise SpecError(f"{attr} references unknown vertex {v!r}")
        edge_names = {e.name for e in self.seed.edges}
        for attr in (
            "path_len", "branch_count_edge", "branch_height_edge", "double_bonds",
            "triple_bonds", "fringe_edge",
        ):
            for name in getattr(self, attr):
                if name not in edge_names:
                    raise SpecError(f"{attr} references unknown edge {name!r}")
        for v, codes in self.fringe_vertex.items():
            if any(code not in self.fringe_catalog for code in codes):
                raise SpecError(f"fringe_vertex[{v}] outside the catalog")
        for e in self.seed.edges:
            if e.kind == "path" and e.name not in self.path_len:
                raise SpecError(f"replaceable seed edge {e.name!r} has no path_len bound")
        for name, codes in self.fringe_edge.items():
            if any(code not in self.fringe_catalog for code in codes):
                raise SpecError(f"fringe_edge[{name}] outside the catalog")

    # Worked out on first use and kept on this object, so that it lives
    # exactly as long as the specification it describes.
    @cached_property
    def plan(self) -> "SpecPlan":
        return _build_plan(self)

    def vertex_catalog(self, vertex: str) -> tuple[str, ...]:
        return self.fringe_vertex.get(vertex, self.fringe_catalog)

    def edge_catalog(self, edge_name: str) -> tuple[str, ...]:
        return self.fringe_edge.get(edge_name, self.fringe_catalog)

    def _all_bounds(self):
        for attr in SCALAR_BOUNDS:
            yield attr, getattr(self, attr)
        for attr in STRUCTURE_BOUNDS + COUNT_BOUNDS:
            for key, bounds in getattr(self, attr).items():
                yield f"{attr}[{key}]", bounds

    def to_json(self) -> str:
        payload = {
            "seed": {
                "vertices": list(self.seed.vertices),
                "edges": [
                    {"name": e.name, "u": e.u, "v": e.v, "kind": e.kind, "link": e.link}
                    for e in self.seed.edges
                ],
            },
            "rho": self.rho,
            "elements": list(self.elements),
            "vertex_elements": {k: list(v) for k, v in self.vertex_elements.items()},
            "fringe_catalog": list(self.fringe_catalog),
        }
        for attr in SCALAR_BOUNDS:
            payload[attr] = list(getattr(self, attr))
        for attr in STRUCTURE_BOUNDS + COUNT_BOUNDS + CATALOG_RESTRICTIONS:
            payload[attr] = {k: list(v) for k, v in sorted(getattr(self, attr).items())}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TopologicalSpec":
        d = json.loads(text)
        # (key, conversion) in file order; a missing key or a wrongly typed
        # value is reported by the key it sits under
        fields = [
            ("seed", lambda v: SeedGraph(
                vertices=tuple(v["vertices"]),
                edges=tuple(_seed_edge(e) for e in v["edges"]),
            )),
            ("rho", int),
            ("elements", tuple),
            ("vertex_elements", _name_lists),
            ("fringe_catalog", tuple),
            *((attr, _bounds) for attr in SCALAR_BOUNDS),
            *((attr, _bounds_table) for attr in STRUCTURE_BOUNDS + COUNT_BOUNDS),
        ]
        kwargs = {key: _spec_value(d, key, convert) for key, convert in fields}
        for attr in CATALOG_RESTRICTIONS:  # optional in older files
            if attr in d:
                kwargs[attr] = _spec_value(d, attr, _name_lists)
        return cls(**kwargs)


def _spec_value(d: dict, key: str, convert):
    """`convert(d[key])`, with a missing key or a value of the wrong type or
    shape raised as a SpecError that names the key."""
    try:
        return convert(d[key])
    except SpecError:
        raise
    except KeyError as exc:
        missing = key if exc.args[0] == key else f"{key}.{exc.args[0]}"
        raise SpecError(f"spec file lacks key {missing!r}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise SpecError(f"spec file key {key!r} has a malformed value: {exc}") from None


def _name_lists(value: dict) -> dict[str, tuple[str, ...]]:
    return {k: tuple(names) for k, names in value.items()}


def _bounds_table(value: dict) -> dict[str, Bounds]:
    return {k: _bounds(b) for k, b in value.items()}


def _bounds(value) -> Bounds:
    """A [lower, upper] pair of integers."""
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) for x in value)
    ):
        raise TypeError(f"expected a [lower, upper] pair of integers, got {value!r}")
    return tuple(value)


def _seed_edge(e: dict) -> SeedEdge:
    try:
        return SeedEdge(**e)
    except TypeError as exc:  # a missing or unknown key
        raise SpecError(f"seed edge {e!r}: {exc}") from None


def load_fringe_catalog(text: str) -> tuple[str, ...]:
    """Catalog file: one canonical code per line, '#' comments allowed."""
    codes: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            codes.append(parse_code(line).code)
    if not codes:
        raise SpecError("empty fringe catalog")
    return tuple(codes)


# ---------------------------------------------------------------------------
# Element sets per property


PROPERTY_ELEMENTS: dict[str, tuple[str, ...]] = {
    "AmD": ("H", "C", "N", "O", "Cl", "S(2)"),
    "HcL": ("H", "C", "O", "N", "Cl", "S(2)", "S(6)"),
    "Tg": ("H", "C", "O", "N", "Cl", "S(2)", "S(6)"),
    "RfId": ("H", "C", "O(1)", "O(2)", "N", "Cl", "Si(4)", "F"),
    "Prm": ("H", "C", "O", "N", "Cl"),
}


def element_set(pi: str) -> tuple[str, ...]:
    try:
        return PROPERTY_ELEMENTS[pi]
    except KeyError:
        raise SpecError(f"unknown property tag {pi!r}") from None


# ---------------------------------------------------------------------------
# Instance builder


def two_ring_seed() -> SeedGraph:
    """Two six-cycles joined by two replaceable link edges at para positions."""
    vertices = tuple(f"b{i}" for i in range(1, 13))
    ring1 = [(f"b{i}", f"b{i % 6 + 1}") for i in range(1, 7)]
    ring2 = [(f"b{i + 6}", f"b{(i % 6) + 7}") for i in range(1, 7)]
    edges = [
        SeedEdge("a1", "b1", "b7", kind="path", link=True),
        SeedEdge("a2", "b4", "b10", kind="path", link=True),
    ]
    for i, (u, v) in enumerate(ring1 + ring2, start=3):
        edges.append(SeedEdge(f"a{i}", u, v, kind="exact"))
    return SeedGraph(vertices, tuple(edges))


def build_instance_Ib(pi: str, n_lb: int, rho: int = 2) -> TopologicalSpec:
    """Parameterized two-ring instance.

    All bounds are the published growth formulas in n_lb, with max(.,0)
    guards so that values at or below 15 reduce to the base case.  The
    admissible edge configurations are taken from the reference example
    polymers and the fringe catalog is the shipped 17-tree catalog.
    """
    if n_lb < 1:
        raise SpecError("n_lb must be positive")
    elements = element_set(pi)
    fringe_catalog = load_fringe_catalog(fringe_catalog_text())
    examples = tuple(parse_pmg(example_polymer_text(i)) for i in (1, 2, 3, 4))

    grow = max(n_lb - 15, 0)
    quarter = max((n_lb - 15) // 4, 0)
    half = max((n_lb - 15) // 2, 0)
    n_star = n_lb + 10
    ell_lb = 2 + quarter

    seed = two_ring_seed()
    # the examples' configurations are the admissible ones
    config_keys: dict[str, set[str]] = {attr: set() for attr in CONFIG_BOUNDS}
    for g in examples:
        profile = decompose(g, rho).profile
        for attr, keys in config_keys.items():
            keys.update(getattr(profile, attr))

    fc: dict[str, Bounds] = {}
    for idx, code in enumerate(fringe_catalog, start=1):
        if idx <= 4:
            ub = 12 + grow
        elif idx <= 12:
            ub = 8 + half
        else:
            ub = 5 + quarter
        fc[code] = (0, ub)

    na: dict[str, Bounds] = {}
    for a in elements:
        if a in ("H", "C"):
            na[a] = (0, n_star)
        elif a in ("O", "N"):
            na[a] = (0, 5 + grow)
        else:
            na[a] = (0, 2 + quarter)

    heavy = [a for a in elements if a != "H"]
    symbol_keys = [f"({a},{d})" for a in elements for d in range(1, 5)]
    return TopologicalSpec(
        seed=seed,
        rho=rho,
        elements=elements,
        vertex_elements={v: ("C",) for v in seed.vertices},
        fringe_catalog=fringe_catalog,
        n=(n_lb, n_star),
        n_int=(14, n_star),
        n_lnk=(2, 2 + grow),
        path_len={"a1": (ell_lb, ell_lb + 5), "a2": (ell_lb, ell_lb + 5)},
        branch_count_edge={"a1": (0, 3), "a2": (0, 3)},
        branch_height_edge={"a1": (0, 5), "a2": (0, 5)},
        branch_count_vertex={v: (0, 0) for v in seed.vertices},
        branch_height_vertex={v: (0, 0) for v in seed.vertices},
        double_bonds={
            "a1": (0, ell_lb // 3),
            "a2": (0, ell_lb // 3),
            **{f"a{i}": (0, 0) for i in (3, 5, 7, 9, 11, 13)},
            **{f"a{i}": (1, 1) for i in (4, 6, 8, 10, 12, 14)},
        },
        triple_bonds={e.name: (0, 0) for e in seed.edges},
        na=na,
        na_int={a: (0, n_star) for a in heavy},
        ns_int={k: (0, n_star) for k in symbol_keys},
        ns_cnt={k: (0, 2) for k in symbol_keys},
        **{attr: {k: (0, n_star) for k in sorted(keys)} for attr, keys in config_keys.items()},
        fc=fc,
    )


# ---------------------------------------------------------------------------
# Satisfaction checking


class BoundCheck(NamedTuple):
    name: str
    lower: float
    upper: float
    measured: float

    @property
    def ok(self) -> bool:
        return self.lower <= self.measured <= self.upper


@dataclass(frozen=True)
class SpecReport:
    """The outcome of `check_satisfies`.  `passed` is decided when the
    report is made; the bound rows (`checks`) and the named membership
    conditions (`memberships`) are built from the profile and the
    specification's plan on first read and kept, so a caller that only asks
    whether a graph passed never builds them."""

    spec: TopologicalSpec = field(repr=False, compare=False)
    profile: CountProfile = field(repr=False, compare=False)
    passed: bool
    witness: dict | None  # `_witness_record` shape, searched or certified
    witness_message: str

    @cached_property
    def checks(self) -> tuple[BoundCheck, ...]:
        spec, profile = self.spec, self.profile
        checks = [
            BoundCheck("n", *spec.n, profile.n),
            BoundCheck("n_int", *spec.n_int, profile.n_int),
            BoundCheck("n_lnk", *spec.n_lnk, profile.link_vertices),  # not the link-edge count
        ]
        new = tuple.__new__  # what BoundCheck(...) runs, without its argument binding
        for attr, rows in spec.plan.bounds.items():
            counts = getattr(profile, attr)
            checks += [
                new(BoundCheck, (name, lo, hi, counts.get(key, 0))) for key, (name, lo, hi) in rows.items()
            ]
        return tuple(checks)

    @cached_property
    def memberships(self) -> tuple[tuple[str, bool], ...]:
        """(name, holds) per membership condition, in the plan's order."""
        return tuple(
            (name, getattr(self.profile, attr).keys() <= keys)
            for attr, (name, keys) in self.spec.plan.declared.items()
        )

    def failures(self) -> list[str]:
        out = [f"{c.name}: {c.measured} outside [{c.lower},{c.upper}]" for c in self.checks if not c.ok]
        out += [name for name, ok in self.memberships if not ok]
        if self.witness is None:
            out.append(f"witness: {self.witness_message}")
        return out

    def failed_families(self) -> list[str]:
        """The distinct families of `failures()`, sorted: a failed bound
        names its count family, its name up to any '[' ("ec_int", "n"), a
        failed membership test its own name, and a witness that was not
        found or not certified "witness"."""
        out = {c.name.partition("[")[0] for c in self.checks if not c.ok}
        out.update(name for name, ok in self.memberships if not ok)
        if self.witness is None:
            out.add("witness")
        return sorted(out)


def check_satisfies(
    g: ChemicalGraph | TwoLayeredDecomposition,
    spec: TopologicalSpec,
    witness: dict | None = None,
) -> SpecReport:
    """Measure every bound of the specification on a graph (or its
    decomposition) and find its seed-expansion witness: `check_witness`
    certifies the embedding a caller that built the graph hands over, and
    otherwise `find_expansion_witness` searches for one.  Either way the
    report's witness is one record (`_witness_record`); a certified one
    holds the caller's images and paths as they were handed over.
    Whether the counts pass is decided in one pass over the plan's bound
    rows and declared-key sets, stopping at the first failure; the report
    builds its rows only when they are read."""
    dec = as_decomposition(g, spec.rho)
    profile = dec.profile
    if witness is None:
        witness, message = find_expansion_witness(dec, spec)
    else:
        attach_at = check_witness(dec, spec, witness)
        if attach_at is None:
            witness, message = None, "the given embedding is not a seed expansion"
        else:
            witness, message = _witness_record(witness["images"], witness["paths"], attach_at), "witness certified"
    return SpecReport(
        spec=spec,
        profile=profile,
        passed=witness is not None and _counts_pass(profile, spec),
        witness=witness,
        witness_message=message,
    )


def _counts_pass(profile: CountProfile, spec: TopologicalSpec) -> bool:
    """Whether every row of `SpecReport.checks` and every membership holds,
    read off the plan's `tallies`: each key the profile holds is looked up
    once, and a bounded key it lacks counts 0, so only the keys whose
    bounds exclude 0 are looked for."""
    if not (
        spec.n[0] <= profile.n <= spec.n[1]
        and spec.n_int[0] <= profile.n_int <= spec.n_int[1]
        and spec.n_lnk[0] <= profile.link_vertices <= spec.n_lnk[1]
    ):
        return False
    for attr, table, other, needed in spec.plan.tallies:
        counts = getattr(profile, attr)
        for key, count in counts.items():
            lo, hi = table.get(key, other)
            if not lo <= count <= hi:
                return False
        if needed and not counts.keys() >= needed:
            return False
    return True


# ---------------------------------------------------------------------------
# Specification plan: the one reading of a specification


@dataclass(frozen=True)
class PlannedEdge:
    """A seed edge with its bounds, absent ones read as `SpecPlan` says."""

    name: str
    u: str
    v: str
    exact: bool
    link: bool
    multiplicities: frozenset[int]  # exact edges: the admissible ones
    bonds: tuple[float, float, float, float]  # bd2 lower, upper, bd3 lower, upper
    path_len: Bounds | None  # declared for every replaceable edge
    catalog: frozenset[str]  # fringe codes of a replaced edge's internal vertices
    branch_count: Bounds
    branch_height: Bounds

    def bonds_ok(self, mults: list[int]) -> bool:
        lo2, hi2, lo3, hi3 = self.bonds
        return lo2 <= mults.count(2) <= hi2 and lo3 <= mults.count(3) <= hi3


@dataclass(frozen=True)
class PlannedVertex:
    """A seed vertex in placement order with its candidate filters."""

    name: str
    allowed: frozenset[str]  # elements of its image
    catalog: frozenset[str]  # fringe codes of its image
    degree: int  # seed degree
    anchor: str | None  # an earlier vertex joined to it by a kept edge
    ready: tuple[PlannedEdge, ...]  # edges to earlier vertices, seed.edges order
    branch_count: Bounds
    branch_height: Bounds


@dataclass(frozen=True)
class SpecPlan:
    """What the checker, the witness search and the generator read off a
    specification, worked out once per specification: the seed vertices in
    placement order, the seed edges by name in seed order, the alphabet
    without hydrogen, the full catalog, the count bounds and the declared
    keys.  `bounds` maps each count family, in the order `check_satisfies`
    reports them, to `key -> (row name, lower, upper)` with keys sorted;
    `declared` maps each profile family whose keys must be declared to its
    membership test's name and the keys it admits.  `tallies` compiles both
    for `_counts_pass`, one entry per count family: the bounds a key's
    count must meet (those of its row; none for a declared key without a
    row; none met for an undeclared one, row or not), the bounds of a key
    the table lacks (none met where the family's keys must be declared,
    none otherwise), and the keys whose row fails at a count of 0.
    `bare` is whether an embedding without pendant trees meets every seed
    vertex's and replaceable edge's branch bounds: with it
    `_pendant_attachments` settles an embedding that uses every vertex of
    the decomposition's interior view (`interior_adj`, built by `decompose`
    or handed over by `generate`) without walking that view.

    Absent bounds read one way: a seed vertex without `vertex_elements`
    takes the heavy alphabet, an edge without a bd2 or bd3 bound admits any
    count up to its path length, and an edge or vertex without a branch
    bound admits no branch.  `path_len` is never absent on a replaceable
    edge: the specification rejects that."""

    vertices: tuple[PlannedVertex, ...]
    edges: dict[str, PlannedEdge]
    heavy: frozenset[str]
    catalog: frozenset[str]
    bounds: dict[str, dict[str, tuple[str, int, int]]]
    declared: dict[str, tuple[str, frozenset[str]]]
    tallies: tuple[tuple[str, dict[str, tuple[float, float]], tuple[float, float], frozenset[str]], ...]
    bare: bool


# the bounds of a key no row bounds, and of one that no count may have
_UNBOUNDED = (-math.inf, math.inf)
_REFUSED = (math.inf, -math.inf)


def _zero_fits(bounds: Bounds) -> bool:
    return bounds[0] <= 0 <= bounds[1]


def _build_plan(spec: TopologicalSpec) -> SpecPlan:
    seed = spec.seed
    heavy = frozenset(a for a in spec.elements if a != "H")
    catalog = frozenset(spec.fringe_catalog)
    edges: dict[str, PlannedEdge] = {}
    for e in seed.edges:
        lo2, hi2 = spec.double_bonds.get(e.name, (0, math.inf))
        lo3, hi3 = spec.triple_bonds.get(e.name, (0, math.inf))
        edges[e.name] = PlannedEdge(
            name=e.name,
            u=e.u,
            v=e.v,
            exact=e.kind == "exact",
            link=e.link,
            multiplicities=frozenset(
                m for m in (1, 2, 3) if lo2 <= (m == 2) <= hi2 and lo3 <= (m == 3) <= hi3
            ),
            bonds=(lo2, hi2, lo3, hi3),
            path_len=spec.path_len.get(e.name),
            catalog=frozenset(spec.edge_catalog(e.name)),
            branch_count=spec.branch_count_edge.get(e.name, (0, 0)),
            branch_height=spec.branch_height_edge.get(e.name, (0, 0)),
        )
    vertices = []
    placed: set[str] = set()
    for sv in _seed_order(seed):
        placed.add(sv)
        ready = tuple(
            edges[e.name] for e in seed.edges
            if sv in (e.u, e.v) and e.u in placed and e.v in placed
        )
        anchor = next((e.u if e.v == sv else e.v for e in ready if e.exact), None)
        vertices.append(PlannedVertex(
            name=sv,
            allowed=frozenset(spec.vertex_elements.get(sv, heavy)),
            catalog=frozenset(spec.vertex_catalog(sv)),
            degree=seed.degree(sv),
            anchor=anchor,
            ready=ready,
            branch_count=spec.branch_count_vertex.get(sv, (0, 0)),
            branch_height=spec.branch_height_vertex.get(sv, (0, 0)),
        ))
    bounds = {
        attr: {key: (f"{attr}[{key}]", lo, hi) for key, (lo, hi) in sorted(getattr(spec, attr).items())}
        for attr in COUNT_BOUNDS
    }
    declared = {
        "na": ("elements within alphabet", frozenset(spec.elements)),
        "ns_int": ("interior symbols declared", frozenset(spec.ns_int)),
        **{attr: (f"{attr} configs declared", frozenset(getattr(spec, attr))) for attr in CONFIG_BOUNDS},
        "fc": ("fringe trees in catalog", catalog),
    }
    tallies = []
    for attr, rows in bounds.items():
        table = {key: (lo, hi) for key, (_, lo, hi) in rows.items()}
        needed = frozenset(key for key, b in table.items() if not _zero_fits(b))
        if attr not in declared:
            tallies.append((attr, table, _UNBOUNDED, needed))
            continue
        keys = declared[attr][1]
        table = {key: table[key] if key in keys else _REFUSED for key in table}
        table.update((key, _UNBOUNDED) for key in keys - table.keys())
        tallies.append((attr, table, _REFUSED, needed))
    bare = all(
        _zero_fits(x.branch_count) and _zero_fits(x.branch_height)
        for x in (*vertices, *(e for e in edges.values() if not e.exact))
    )
    return SpecPlan(tuple(vertices), edges, heavy, catalog, bounds, declared, tuple(tallies), bare)


# ---------------------------------------------------------------------------
# Expansion witness search


def find_expansion_witness(
    dec: TwoLayeredDecomposition, spec: TopologicalSpec
) -> tuple[dict | None, str]:
    """Backtracking embedding of the seed graph into the interior.

    Seed vertices map to distinct interior vertices respecting their
    element restriction; kept edges map to interior edges, replaceable
    edges to vertex-disjoint paths within their length bounds, and the
    remaining interior vertices must hang as pendant trees from allowed
    attachment points within the branch-count and branch-height bounds.

    The placement order, each seed vertex's filters and the seed edges
    that become ready as it is placed come from the plan kept on the
    specification; the interior's vertices, neighbours, degrees and bond
    multiplicities come from the decomposition's interior view
    (`interior_adj`, built by `decompose` or handed over by `generate`).
    A seed vertex joined by a kept edge to an earlier one is tried only at
    the interior neighbors of that vertex's image, in ascending id: every
    other candidate fails the kept edge, so the search takes the same
    successful branches in the same order.
    """
    plan = spec.plan
    order = plan.vertices
    s = dec.suppressed
    interior = sorted(dec.interior_vertices)
    if len(interior) < len(order):
        return None, "interior smaller than seed"
    adj = dec.interior_adj
    labels, link_edges, trees = s.labels, s.link_edges, dec.fringe_trees
    images: dict[str, int] = {}
    used: set[int] = set()
    path_of: dict[str, list[int]] = {}
    used_edges: set[tuple[int, int]] = set()

    def try_place(pos: int) -> bool:
        nonlocal witness
        if pos == len(order):
            # everything up to here was checked as it was placed
            attach_at = _pendant_attachments(dec, plan, images, path_of, used, used_edges)
            if attach_at is None:
                return False
            witness = _witness_record(dict(images), {k: list(v) for k, v in path_of.items()}, attach_at)
            return True
        sv = order[pos]
        pool = interior if sv.anchor is None else sorted(adj[images[sv.anchor]])
        for v in pool:
            if v in used or not _image_fits(sv, labels[v], trees[v].code, len(adj[v])):
                continue
            images[sv.name] = v
            used.add(v)
            if place_edges(sv.ready, 0, pos):
                return True
            used.discard(v)
            del images[sv.name]
        return False

    def place_edges(pending: tuple[PlannedEdge, ...], i: int, pos: int) -> bool:
        if i == len(pending):
            return try_place(pos + 1)
        edge = pending[i]
        a, b = images[edge.u], images[edge.v]
        if edge.exact:
            if not _kept_edge_fits(edge, adj, a, b, used_edges, link_edges):
                return False
            e = (a, b) if a <= b else (b, a)
            used_edges.add(e)
            if place_edges(pending, i + 1, pos):
                return True
            used_edges.discard(e)
            return False
        lo, hi = edge.path_len
        for path in _paths_between(adj, a, b, lo, hi, used, used_edges):
            if not _path_fits(edge, adj, trees, link_edges, path):
                continue
            internals = path[1:-1]
            path_edges = {(x, y) if x <= y else (y, x) for x, y in zip(path, path[1:])}
            used.update(internals)
            used_edges.update(path_edges)
            path_of[edge.name] = list(path)
            if place_edges(pending, i + 1, pos):
                return True
            del path_of[edge.name]
            used_edges.difference_update(path_edges)
            used.difference_update(internals)
        return False

    witness: dict | None = None
    try:
        found = try_place(0)
    finally:
        # the two closures reach each other through their cells; emptying
        # those cells breaks the cycle, so the search is freed on return
        # instead of at the next garbage collection
        del try_place, place_edges
    if not found:
        return None, "no seed-expansion embedding found"
    return witness, "witness found"


def check_witness(
    dec: TwoLayeredDecomposition, spec: TopologicalSpec, witness: dict
) -> dict[int, list[int]] | None:
    """The pendant attachments of `witness` (anchor -> heights of the trees
    hanging there) when it embeds the seed in the interior of `dec` as
    `find_expansion_witness` requires, checked instead of searched for;
    None when it does not.

    The witness maps each seed vertex name to an interior vertex
    ("images") and each replaceable seed edge name to its path, a vertex
    list from the image of the edge's `u` to that of its `v` ("paths");
    the pendant trees (its "attachments", if any) are derived, not read.
    Besides the search's image, kept-edge, path and pendant-tree tests, it
    tests what the search's candidate pools guarantee: the images are
    distinct interior vertices, each path runs between its edge's images
    within its length bounds and shares no vertex or edge with anything
    else embedded, and no path is given for a kept edge or one the seed
    lacks.  Like the search it reads the decomposition's interior view
    (`interior_adj`): an image's interior degree is its row's length."""
    plan = spec.plan
    s = dec.suppressed
    inside = dec.interior_vertices
    adj, labels, links, trees = dec.interior_adj, s.labels, s.link_edges, dec.fringe_trees
    images, paths = witness["images"], witness["paths"]
    if len(images) != len(plan.vertices):
        return None
    used: set[int] = set()
    for sv in plan.vertices:
        v = images.get(sv.name)
        if v not in inside or v in used:
            return None
        if not _image_fits(sv, labels[v], trees[v].code, len(adj[v])):
            return None
        used.add(v)
    used_edges: set[tuple[int, int]] = set()
    placed = 0
    for edge in plan.edges.values():
        a, b = images[edge.u], images[edge.v]
        if edge.exact:
            if not _kept_edge_fits(edge, adj, a, b, used_edges, links):
                return None
            used_edges.add((a, b) if a <= b else (b, a))
            continue
        path = paths.get(edge.name)
        lo, hi = edge.path_len
        if not path or path[0] != a or path[-1] != b or not lo <= len(path) - 1 <= hi:
            return None
        for v in path[1:-1]:
            if v not in inside or v in used:
                return None
            used.add(v)
        # a simple path, so its edges are distinct
        path_edges = {(x, y) if x <= y else (y, x) for x, y in zip(path, path[1:])}
        if not path_edges.isdisjoint(used_edges) or not _path_fits(edge, adj, trees, links, path):
            return None
        used_edges |= path_edges
        placed += 1
    if placed != len(paths):
        return None  # a path for an edge that is kept or not in the seed
    return _pendant_attachments(dec, plan, images, paths, used, used_edges)


def _witness_record(images: dict[str, int], paths: dict[str, list[int]], attach_at: dict[int, list[int]]) -> dict:
    """A seed embedding as a report holds it, searched or certified: its
    images, its paths, and the heights of the pendant trees at each anchor,
    keyed by the anchor as a string, in ascending anchor order."""
    return {"images": images, "paths": paths, "attachments": {str(k): v for k, v in sorted(attach_at.items())}}


# The embedding rules the witness search and `check_witness` share; `adj`
# is the decomposition's interior view, and every vertex passed is interior.


def _image_fits(sv: PlannedVertex, label: str, code: str, degree: int) -> bool:
    """Whether an interior vertex of this element, fringe code and interior
    degree may be the image of seed vertex `sv`: each incident seed edge
    takes one interior edge there, and only pendant branches, where `sv`
    admits them, may take more."""
    return label in sv.allowed and code in sv.catalog and (
        degree == sv.degree or (degree > sv.degree and sv.branch_count[1] > 0))


def _kept_edge_fits(edge: PlannedEdge, adj, a: int, b: int, used_edges, links) -> bool:
    """Whether the interior edge a-b may be the image of kept seed edge
    `edge`: it exists, is unused, is no link edge and has an admissible
    multiplicity."""
    e = (a, b) if a <= b else (b, a)
    return adj[a].get(b) in edge.multiplicities and e not in used_edges and e not in links


def _path_fits(edge: PlannedEdge, adj, trees, links, path: list[int]) -> bool:
    """Whether `path` may replace seed edge `edge`: consecutive vertices
    are bonded, each bond is a link edge exactly when `edge` is one, the
    double and triple bonds are within the edge's bounds, and the internal
    vertices' fringe codes are in its catalog."""
    mults = []
    for x, y in zip(path, path[1:]):
        m = adj[x].get(y)
        if m is None or (((x, y) if x <= y else (y, x)) in links) != edge.link:
            return False
        mults.append(m)
    return edge.bonds_ok(mults) and all(trees[v].code in edge.catalog for v in path[1:-1])


def _pendant_attachments(
    dec: TwoLayeredDecomposition,
    plan: SpecPlan,
    images: dict[str, int],
    paths: dict[str, list[int]],
    used: set[int],
    used_edges: set[tuple[int, int]],
) -> dict[int, list[int]] | None:
    """The last test of a seed embedding, at the leaves of the witness
    search and in `check_witness`: the interior vertices it leaves unused
    must form pendant trees, each hanging from exactly one image or path
    vertex by exactly one edge, within the branch-count and branch-height
    bounds there, and with the embedded edges they must cover every
    interior edge.  Returns the heights of the trees hanging at each
    anchor, or None.  `paths` names every replaceable seed edge, as both
    callers ensure.

    An embedding that uses every interior vertex leaves no pendant tree:
    it holds when its edges are the interior edges and the plan admits
    no branch anywhere (`SpecPlan.bare`).  Otherwise the unused vertices
    are walked in the decomposition's interior view (`interior_adj`)."""
    inside = dec.interior_vertices
    if len(used) == len(inside):  # `used` holds interior vertices only
        return {} if plan.bare and used_edges == dec.interior_edges else None
    adj = dec.interior_adj
    leftover = inside - used
    attach_at: dict[int, list[int]] = {}  # anchor -> heights of blocks
    covered = set(used_edges)
    seen: set[int] = set()
    for v0 in sorted(leftover):
        if v0 in seen:
            continue
        comp = {v0}
        seen.add(v0)
        queue = [v0]
        anchor_edges: list[tuple[int, int]] = []
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y in leftover:
                    if y not in seen:
                        seen.add(y)
                        comp.add(y)
                        queue.append(y)
                else:
                    anchor_edges.append((y, x))
        if len(anchor_edges) != 1:
            return None  # pendant component must hang by one edge
        anchor, first = anchor_edges[0]
        inner = {(x, y) if x <= y else (y, x) for x in comp for y in adj[x] if y in comp}
        if len(inner) != len(comp) - 1:
            return None  # pendant component must be a tree
        covered |= inner
        covered.add((anchor, first) if anchor <= first else (first, anchor))
        attach_at.setdefault(anchor, []).append(_component_height(adj, anchor, comp))
    if covered != dec.interior_edges:  # both hold (u, v) with u < v
        return None  # an interior edge escaped the expansion

    for sv in plan.vertices:
        heights = attach_at.get(images[sv.name], [])
        lo, hi = sv.branch_count
        if not lo <= len(heights) <= hi:
            return None
        ch_lo, ch_hi = sv.branch_height
        if not ch_lo <= max(heights, default=0) <= ch_hi:
            return None
    consumed = set(images.values())
    for name, path in paths.items():
        edge = plan.edges[name]
        internals = path[1:-1]
        branched = [v for v in internals if attach_at.get(v)]
        lo, hi = edge.branch_count
        if not lo <= len(branched) <= hi:
            return None
        ch_lo, ch_hi = edge.branch_height
        height = max((h for v in internals for h in attach_at.get(v, [])), default=0)
        if not ch_lo <= height <= ch_hi:
            return None
        consumed.update(internals)
    if any(anchor not in consumed for anchor in attach_at):
        return None
    return attach_at


def _seed_order(seed: SeedGraph) -> list[str]:
    """Place vertices so each one is adjacent to an earlier one via a kept
    edge when possible; path edges anchor new components."""
    exact_adj: dict[str, set[str]] = {v: set() for v in seed.vertices}
    any_adj: dict[str, set[str]] = {v: set() for v in seed.vertices}
    for e in seed.edges:
        any_adj[e.u].add(e.v)
        any_adj[e.v].add(e.u)
        if e.kind == "exact":
            exact_adj[e.u].add(e.v)
            exact_adj[e.v].add(e.u)
    order: list[str] = []
    placed: set[str] = set()
    while len(order) < len(seed.vertices):
        nxt = None
        for v in seed.vertices:
            if v in placed:
                continue
            if exact_adj[v] & placed:
                nxt = v
                break
        if nxt is None:
            for v in seed.vertices:
                if v not in placed and (not placed or any_adj[v] & placed):
                    nxt = v
                    break
        if nxt is None:
            nxt = next(v for v in seed.vertices if v not in placed)
        order.append(nxt)
        placed.add(nxt)
    return order


def _paths_between(adj, a: int, b: int, lo: int, hi: int, used: set[int], used_edges):
    """Simple a-b paths of length lo..hi whose internal vertices are free,
    depth first with neighbors in ascending order.  `used` and `used_edges`
    are read as each neighbor is tried, so the caller may change them
    between paths and restore them before asking for the next."""
    path = [a]
    on_path = {a}
    pending = [iter(sorted(adj[a]))]  # per vertex on the path, its untried neighbors
    while pending:
        current = path[-1]
        length = len(path) - 1
        for w in pending[-1]:
            if ((current, w) if current <= w else (w, current)) in used_edges:
                continue
            if w == b:
                if lo <= length + 1 <= hi:
                    yield path + [b]
                continue
            if w in on_path or w in used or length + 1 >= hi:
                continue
            path.append(w)
            on_path.add(w)
            pending.append(iter(sorted(adj[w])))
            break
        else:
            pending.pop()
            on_path.discard(path.pop())


def _component_height(adj, anchor: int, comp: set[int]) -> int:
    """Longest distance from the anchor into its pendant component."""
    best = 0
    stack = [(anchor, 0, {anchor})]
    while stack:
        v, d, seen = stack.pop()
        for w in adj[v]:
            if w in comp and w not in seen:
                best = max(best, d + 1)
                stack.append((w, d + 1, seen | {w}))
    return best
