"""Earlier implementations of the per-graph checks, kept as references.

`find_expansion_witness` scanned every interior vertex for every seed
vertex and rebuilt the seed order and filters on each call, and
`check_witness` wrote out each embedding rule the search also tests;
both ended each embedding with a walk over the interior vertices it left
unused, on an interior adjacency filtered from the suppressed graph's,
whether any were left or not;
`is_circular_set` made two bridge passes (`bridges` here is the finder
they and the circular-set oracles use); fringe trees were built with
their codes left to `encode_tree`; `count_profile` read every edge's
configuration through `edge_config` and took the rank after a
connectivity pass; `featurize` looked each descriptor up on the profile by
name and collected the out-of-vocabulary keys in a second loop;
`verify_assignment` multiplied out every term of every row, zero values
included, and `predicted_value` summed the weighted standardized value of
every descriptor, zero weights included; `solve_inverse` reduced each
block and ran its branch and bound in `Fraction` arithmetic, node by
node, on window right-hand sides rounded through `Fraction`s;
`check_satisfies` built every bound row and membership pair of its
report up front and derived the verdict, the failures and the failed families from them; the canonical
search refined and encoded with tuples of (bond label, color) pairs,
sorted anew each round, and ran one more round to see that a discrete
coloring was stable.  `lasso_path` stacked each knot's right-hand side
with `np.column_stack`, indexed the active Gram block with `np.ix_` and
found the event times one sign at a time; `kkt_violation` appended the
bias to the gradient and the weights; `_cv_path` scored every path point
with `r_squared`, which recomputed the held-out fold's mean and total sum
of squares, and learnt that a fold could not be scored only when it
scored it.  The equivalence tests require the current code to return
what these do.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction
import statistics
from typing import NamedTuple

import numpy as np

from polyinfer.chemgraph import ChemicalGraph, Edge, GraphError, SuppressedGraph, _norm_edge, is_connected
from polyinfer.features import DescriptorRegistry, FeatureError, FeatureVector
from polyinfer.milp import (
    InverseProblemSpec,
    MilpError,
    MilpModel,
    MilpSolution,
    _Block,
    verify_inverse,
)
from polyinfer.regress import (
    _DEPENDENT,
    _KNOT_TIE,
    CvReport,
    Hyperplane,
    RegressError,
    _fold_indices,
    _training_data,
    r_squared,
)
from polyinfer.topospec import CONFIG_BOUNDS, COUNT_BOUNDS, BoundCheck, SeedEdge, SeedGraph, TopologicalSpec
from polyinfer.twolayer import (
    AdjacencyConfig,
    CountProfile,
    RootedTree,
    TwoLayeredDecomposition,
    adjacency_of,
    adjacency_str,
    as_decomposition,
    config_str,
    edge_config,
    encode_tree,
    make_adjacency_config,
    symbol_str,
)


def bridges(vertices, edges) -> set[Edge]:
    """All bridges, by a recursive lowlink DFS from every unvisited vertex.
    A parallel copy of an edge is a back edge, since the walk skips only the
    edge index it came in by."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
    for idx, (u, v) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    out: set[Edge] = set()

    def visit(u: int, in_idx: int) -> None:
        order[u] = low[u] = len(order)
        for w, idx in adj[u]:
            if idx == in_idx:
                continue
            if w in order:
                low[u] = min(low[u], order[w])
            else:
                visit(w, idx)
                low[u] = min(low[u], low[w])
                if low[w] > order[u]:
                    out.add(_norm_edge(u, w))

    for v in adj:
        if v not in order:
            visit(v, -1)
    return out


def two_pass_is_circular_set(vertices, edges, marked) -> bool:
    """Whether `marked` edges all lie on one cycle that removing any one of
    them turns the rest into bridges.

    For non-bridges e and f, "f is a bridge of G - e" holds exactly when
    every cycle through e passes through f; that relation is symmetric and
    transitive, so testing every member against the first one settles all
    pairs: two bridge passes in all.
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
    all_bridges = bridges(vertices, edges)
    if any(e in all_bridges for e in marked):
        return False  # a bridge is on no cycle
    e0 = marked[0]
    rem_bridges = bridges(vertices, [f for f in edges if f != e0])
    return all(f in rem_bridges for f in marked[1:])


def reference_build_fringe(s: SuppressedGraph, root: int, exterior: frozenset[int]) -> RootedTree:
    def build(v: int, parent: int | None) -> RootedTree:
        children: list[tuple[int, RootedTree]] = []
        for _ in range(s.h_count.get(v, 0)):
            children.append((1, RootedTree("H")))
        for w, m in sorted(s.adj[v].items()):
            if w == parent or w not in exterior:
                continue
            children.append((m, build(w, v)))
        return RootedTree(s.labels[v], tuple(children))

    return build(root, None)


def reference_leaf_edge_adjacency_configs(s: SuppressedGraph) -> list[AdjacencyConfig]:
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


def reference_count_profile(dec: TwoLayeredDecomposition) -> CountProfile:
    s = dec.suppressed
    na = Counter(sym for _, sym in s.atoms)
    hydrogens = sum(h for _, h in s.hydrogens)
    if hydrogens:
        na["H"] = hydrogens

    def symbol(v: int) -> str:
        return symbol_str(s.labels[v], len(s.adj[v]))

    if not is_connected(s.adj, ((u, v) for u, v, _ in s.bonds)):
        raise GraphError("rank undefined for disconnected graph")

    configs = {e: edge_config(dec, e) for e in dec.interior_edges}
    link = [configs[e] for e in s.link_edges]  # link edges lie on a cycle: interior
    link_degree = Counter(v for e in s.link_edges for v in e)
    return CountProfile(
        n=len(s.atoms),
        rank=len(s.bonds) - len(s.atoms) + 1,
        n_int=len(dec.interior_vertices),
        link_edges=len(s.link_edges),
        link_vertices=sum(1 for c in link_degree.values() if c == 2),
        na=na,
        na_int=Counter(s.labels[v] for v in dec.interior_vertices),
        ns_int=Counter(symbol(v) for v in dec.interior_vertices),
        ns_cnt=Counter(symbol(v) for v in s.connecting or ()),
        ec_int=Counter(config_str(c) for c in configs.values()),
        ec_lnk=Counter(config_str(c) for c in link),
        ac_int=Counter(adjacency_str(adjacency_of(c)) for c in configs.values()),
        ac_lnk=Counter(adjacency_str(adjacency_of(c)) for c in link),
        ac_lf=Counter(adjacency_str(c) for c in reference_leaf_edge_adjacency_configs(s)),
        fc=Counter(encode_tree(ft) for ft in dec.fringe_trees.values()),
    )


def reference_featurize(g, registry: DescriptorRegistry, covariates=None) -> FeatureVector:
    """Every descriptor read off the profile by name, in registry order,
    then the out-of-vocabulary keys from a second pass over the families."""
    dec = as_decomposition(g, registry.rho)
    profile = dec.profile
    scalars = {
        "n": profile.n,
        "rank": profile.rank,
        "n_int": profile.n_int,
        "ms_avg": dec.suppressed.mass_average(),
        "n_lnk": profile.link_edges,
    }
    values = np.zeros(len(registry), dtype=float)
    for j, d in enumerate(registry.descriptors):
        if d.kind in scalars:
            values[j] = scalars[d.kind]
        elif d.kind == "cov":
            if covariates is None or d.key not in covariates:
                raise FeatureError(f"missing covariate {d.key!r}")
            values[j] = covariates[d.key]
        else:
            values[j] = getattr(profile, d.kind).get(d.key, 0)

    oov: list[str] = []
    for kind in ("na", "ns_int", "ec_int", "ec_lnk", "ac_lf", "fc"):
        known = set(registry.keys_of(kind))
        for key in getattr(profile, kind):
            if key not in known:
                oov.append(f"{kind}:{key}")
    return FeatureVector(values=values, oov=tuple(sorted(oov)))


class ReferenceReport(NamedTuple):
    checks: tuple[BoundCheck, ...]
    memberships: tuple[tuple[str, bool], ...]
    passed: bool
    failures: list[str]
    failed_families: list[str]


def reference_spec_report(
    dec: TwoLayeredDecomposition, spec: TopologicalSpec, witness: dict | None = None
) -> ReferenceReport:
    """Every bound row and membership pair built eagerly from the spec's
    own tables, not from its plan, in the order the report gives them, and
    the verdict, failures and failed families read off them; a given
    witness is certified by `reference_check_witness`, and otherwise one is
    searched for."""
    profile = dec.profile
    checks = [
        BoundCheck("n", *spec.n, profile.n),
        BoundCheck("n_int", *spec.n_int, profile.n_int),
        BoundCheck("n_lnk", *spec.n_lnk, profile.link_vertices),
    ]
    for attr in COUNT_BOUNDS:
        counts = getattr(profile, attr)
        checks += [
            BoundCheck(f"{attr}[{key}]", lo, hi, counts.get(key, 0))
            for key, (lo, hi) in sorted(getattr(spec, attr).items())
        ]
    declared = [
        ("na", "elements within alphabet", spec.elements),
        ("ns_int", "interior symbols declared", spec.ns_int),
        *((attr, f"{attr} configs declared", getattr(spec, attr)) for attr in CONFIG_BOUNDS),
        ("fc", "fringe trees in catalog", spec.fringe_catalog),
    ]
    memberships = tuple((name, all(key in keys for key in getattr(profile, attr))) for attr, name, keys in declared)
    if witness is None:
        witness, message = reference_find_expansion_witness(dec, spec)
    elif not reference_check_witness(dec, spec, witness):
        witness, message = None, "the given embedding is not a seed expansion"
    witness_failed = witness is None
    failures = [f"{c.name}: {c.measured} outside [{c.lower},{c.upper}]" for c in checks if not c.ok]
    failures += [name for name, ok in memberships if not ok]
    families = {c.name.partition("[")[0] for c in checks if not c.ok}
    families.update(name for name, ok in memberships if not ok)
    if witness_failed:
        failures.append(f"witness: {message}")
        families.add("witness")
    return ReferenceReport(
        checks=tuple(checks),
        memberships=memberships,
        passed=all(c.ok for c in checks) and all(ok for _, ok in memberships) and not witness_failed,
        failures=failures,
        failed_families=sorted(families),
    )


def reference_find_expansion_witness(
    dec: TwoLayeredDecomposition, spec: TopologicalSpec
) -> tuple[dict | None, str]:
    """Backtracking embedding of the seed graph into the interior.

    Seed vertices map to distinct interior vertices respecting their
    element restriction; kept edges map to interior edges, replaceable
    edges to vertex-disjoint paths within their length bounds, and the
    remaining interior vertices must hang as pendant trees from allowed
    attachment points within the branch-count and branch-height bounds.
    """
    s = dec.suppressed
    interior = sorted(dec.interior_vertices)
    adj: dict[int, dict[int, int]] = {
        v: {w: m for w, m in s.adj[v].items() if w in dec.interior_vertices}
        for v in interior
    }
    seed = spec.seed
    order = _seed_order(seed)
    images: dict[str, int] = {}
    used: set[int] = set()
    path_of: dict[str, list[int]] = {}
    used_edges: set[tuple[int, int]] = set()

    def norm(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u <= v else (v, u)

    def candidates(sv: str) -> list[int]:
        allowed = spec.vertex_elements.get(sv, tuple(a for a in spec.elements if a != "H"))
        seed_deg = seed.degree(sv)
        may_attach = spec.branch_count_vertex.get(sv, (0, 0))[1] > 0
        catalog = spec.vertex_catalog(sv)
        out = []
        for v in interior:
            if v in used or s.labels[v] not in allowed:
                continue
            if dec.fringe_trees[v].code not in catalog:
                continue
            deg = len(adj[v])
            # each incident seed edge consumes one interior edge at the image;
            # only attachments may account for extra interior degree
            if deg < seed_deg or (not may_attach and deg != seed_deg):
                continue
            out.append(v)
        return out

    def bond_profile_ok(edge: SeedEdge, mults: list[int]) -> bool:
        d2 = sum(1 for m in mults if m == 2)
        d3 = sum(1 for m in mults if m == 3)
        lo2, hi2 = spec.double_bonds.get(edge.name, (0, len(mults)))
        lo3, hi3 = spec.triple_bonds.get(edge.name, (0, len(mults)))
        return lo2 <= d2 <= hi2 and lo3 <= d3 <= hi3

    def edges_ready(sv: str) -> list[SeedEdge]:
        return [
            e
            for e in seed.edges
            if sv in (e.u, e.v)
            and e.u in images
            and e.v in images
            and e.name not in path_of
            and not (e.kind == "exact" and e.name in exact_done)
        ]

    exact_done: set[str] = set()

    def try_place(pos: int) -> bool:
        if pos == len(order):
            return finish()
        sv = order[pos]
        for v in candidates(sv):
            images[sv] = v
            used.add(v)
            if place_edges(edges_ready(sv), pos):
                return True
            used.discard(v)
            del images[sv]
        return False

    def place_edges(pending: list[SeedEdge], pos: int) -> bool:
        if not pending:
            return try_place(pos + 1)
        edge, rest = pending[0], pending[1:]
        a, b = images[edge.u], images[edge.v]
        if edge.kind == "exact":
            m = adj[a].get(b)
            if m is None or norm(a, b) in used_edges:
                return False
            if not bond_profile_ok(edge, [m]):
                return False
            if norm(a, b) in s.link_edges:  # kept seed edges are never link-edges
                return False
            used_edges.add(norm(a, b))
            exact_done.add(edge.name)
            if place_edges(rest, pos):
                return True
            exact_done.discard(edge.name)
            used_edges.discard(norm(a, b))
            return False
        lo, hi = spec.path_len.get(edge.name, (1, len(interior)))
        edge_catalog = spec.edge_catalog(edge.name)
        for path in _paths_between(adj, a, b, lo, hi, used, used_edges):
            mults = [adj[path[i]][path[i + 1]] for i in range(len(path) - 1)]
            if not bond_profile_ok(edge, mults):
                continue
            if any(dec.fringe_trees[v].code not in edge_catalog for v in path[1:-1]):
                continue
            path_edges = {norm(path[i], path[i + 1]) for i in range(len(path) - 1)}
            if edge.link and not all(e in s.link_edges for e in path_edges):
                continue
            if not edge.link and any(e in s.link_edges for e in path_edges):
                continue
            internals = path[1:-1]
            used.update(internals)
            used_edges.update(path_edges)
            path_of[edge.name] = list(path)
            if place_edges(rest, pos):
                return True
            del path_of[edge.name]
            used_edges.difference_update(path_edges)
            used.difference_update(internals)
        return False

    def finish() -> bool:
        attach_at = _reference_pendant_attachments(dec, spec, adj, images, path_of, used, used_edges)
        if attach_at is None:
            return False
        nonlocal witness
        witness = {
            "images": dict(images),
            "paths": {k: list(v) for k, v in path_of.items()},
            "attachments": {str(k): v for k, v in sorted(attach_at.items())},
        }
        return True

    witness: dict | None = None
    if len(interior) < len(seed.vertices):
        return None, "interior smaller than seed"
    ok = try_place(0)
    if not ok:
        return None, "no seed-expansion embedding found"
    return witness, "witness found"


def _reference_pendant_attachments(
    dec: TwoLayeredDecomposition,
    spec: TopologicalSpec,
    adj: dict[int, dict[int, int]],
    images: dict[str, int],
    paths: dict[str, list[int]],
    used: set[int],
    used_edges: set[tuple[int, int]],
) -> dict[int, list[int]] | None:
    """The pendant-tree test of a seed embedding, written out as one walk
    over the unused interior vertices whether there are any or not: they
    must form pendant trees, each hanging from exactly one used vertex by
    exactly one edge, and together with the seed-edge images they must
    cover every interior edge.  `adj` lists interior neighbours only.
    The heights of the trees at each anchor, or None."""
    def norm(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u <= v else (v, u)

    leftover = {v for v in sorted(dec.interior_vertices) if v not in used}
    attach_at: dict[int, list[int]] = {}  # anchor -> heights of blocks
    covered: set[tuple[int, int]] = set(used_edges)
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
        inner = {norm(x, y) for x in comp for y in adj[x] if y in comp}
        if len(inner) != len(comp) - 1:
            return None  # pendant component must be a tree
        covered |= inner
        covered.add(norm(anchor, first))
        attach_at.setdefault(anchor, []).append(_component_height(adj, anchor, comp))
    if covered != {norm(u, v) for u, v in dec.interior_edges}:
        return None  # an interior edge escaped the expansion

    for sv, img in images.items():
        heights = attach_at.get(img, [])
        lo, hi = spec.branch_count_vertex.get(sv, (0, 0))
        if not lo <= len(heights) <= hi:
            return None
        ch_lo, ch_hi = spec.branch_height_vertex.get(sv, (0, 0))
        if not ch_lo <= max(heights, default=0) <= ch_hi:
            return None
    consumed = set(images.values())
    for name, path in paths.items():
        internals = path[1:-1]
        branched = [v for v in internals if attach_at.get(v)]
        lo, hi = spec.branch_count_edge.get(name, (0, 0))
        if not lo <= len(branched) <= hi:
            return None
        ch_lo, ch_hi = spec.branch_height_edge.get(name, (0, 0))
        height = max((h for v in internals for h in attach_at.get(v, [])), default=0)
        if not ch_lo <= height <= ch_hi:
            return None
        consumed.update(internals)
    if any(anchor not in consumed for anchor in attach_at):
        return None
    return attach_at


def reference_check_witness(dec: TwoLayeredDecomposition, spec: TopologicalSpec, witness: dict) -> bool:
    """Whether `witness` embeds the seed in the interior of `dec`, each
    test written out in one linear pass: each image is distinct, with an
    admissible element, fringe code and interior degree; each kept edge is
    a non-link interior edge of an admissible multiplicity; each path has
    a length, bond counts, internal fringe codes and link flags within its
    edge's bounds, and no path shares a vertex or an edge with an image,
    a kept edge or another path; and the rest of the interior hangs in
    pendant trees within the branch bounds that, with the seed's images,
    cover every interior edge."""
    plan = spec.plan
    s = dec.suppressed
    inside = dec.interior_vertices
    adj, labels, links = s.adj, s.labels, s.link_edges
    trees = dec.fringe_trees
    images, paths = witness["images"], witness["paths"]
    if len(images) != len(plan.vertices):
        return False
    used: set[int] = set()
    for sv in plan.vertices:
        v = images.get(sv.name)
        if v not in inside or v in used:
            return False
        if labels[v] not in sv.allowed or trees[v].code not in sv.catalog:
            return False
        deg = len(adj[v].keys() & inside)
        if deg < sv.degree or (sv.branch_count[1] == 0 and deg != sv.degree):
            return False
        used.add(v)
    used_edges: set[tuple[int, int]] = set()
    placed = 0
    for edge in plan.edges.values():
        a, b = images[edge.u], images[edge.v]
        if edge.exact:
            m = adj[a].get(b)
            e = (a, b) if a <= b else (b, a)
            if m is None or m not in edge.multiplicities or e in used_edges or e in links:
                return False
            used_edges.add(e)
            continue
        path = paths.get(edge.name)
        if not path or path[0] != a or path[-1] != b:
            return False
        lo, hi = edge.path_len
        if not lo <= len(path) - 1 <= hi:
            return False
        for v in path[1:-1]:
            if v not in inside or v in used or trees[v].code not in edge.catalog:
                return False
            used.add(v)
        mults = []
        for x, y in zip(path, path[1:]):
            m = adj[x].get(y)
            e = (x, y) if x <= y else (y, x)
            if m is None or e in used_edges or (e in links) != edge.link:
                return False
            used_edges.add(e)
            mults.append(m)
        if not edge.bonds_ok(mults):
            return False
        placed += 1
    if placed != len(paths):
        return False  # a path for an edge that is kept or not in the seed
    inner = {v: {w: m for w, m in adj[v].items() if w in inside} for v in inside}
    return _reference_pendant_attachments(dec, spec, inner, images, paths, used, used_edges) is not None


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
    """Simple a-b paths of length lo..hi whose internal vertices are free."""
    def norm(u, v):
        return (u, v) if u <= v else (v, u)

    path = [a]
    on_path = {a}

    def extend(current: int, length: int):
        for w in sorted(adj[current]):
            e = norm(current, w)
            if e in used_edges:
                continue
            if w == b:
                if lo <= length + 1 <= hi:
                    yield path + [b]
                continue
            if w in on_path or w in used or length + 1 >= hi:
                continue
            path.append(w)
            on_path.add(w)
            yield from extend(w, length + 1)
            on_path.discard(w)
            path.pop()

    yield from extend(a, 0)


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


def reference_verify_assignment(model: MilpModel, assignment: dict[str, Fraction]) -> list[str]:
    """Violated bounds and rows, each row's left side summed over all its
    terms."""
    bad: list[str] = []
    for v in model.variables:
        val = assignment[v.name]
        if val < Fraction(v.lower) or val > Fraction(v.upper):
            bad.append(f"bounds:{v.name}")
        if v.integer and val.denominator != 1:
            bad.append(f"integrality:{v.name}")
    for c in model.constraints:
        lhs = sum((Fraction(coef) * assignment[var] for var, coef in c.coeffs), Fraction(0))
        rhs = Fraction(c.rhs)
        ok = lhs <= rhs if c.sense == "<=" else lhs >= rhs if c.sense == ">=" else lhs == rhs
        if not ok:
            bad.append(f"constraint:{c.name}")
    return bad


def reference_predicted_value(spec: InverseProblemSpec, assignment: dict[str, Fraction]) -> float:
    """b plus the exact sum, over every descriptor, of its weight times its
    raw value standardized by the float span (0 for a constant one)."""
    total = Fraction(0)
    for j in range(spec.k):
        mn, mx = float(spec.feat_min[j]), float(spec.feat_max[j])
        xh = Fraction(0) if mx <= mn else (assignment[f"x_{j + 1}"] - Fraction(mn)) / Fraction(mx - mn)
        total += Fraction(float(spec.hyperplane.w[j])) * xh
    return float(total) + spec.hyperplane.b


def reference_window_rhs(spec: InverseProblemSpec) -> tuple[float, float]:
    """Right-hand sides of the window rows on sum(w*xh): y_lo - b and
    y_hi - b rounded inward, so a window sum between them puts sum + b
    inside [y_lo, y_hi] in exact arithmetic."""
    b = Fraction(float(spec.hyperplane.b))
    lo, hi = Fraction(float(spec.y_lo)) - b, Fraction(float(spec.y_hi)) - b
    lo_rhs, hi_rhs = float(lo), float(hi)
    if lo_rhs < lo:
        lo_rhs = math.nextafter(lo_rhs, math.inf)
    if hi_rhs > hi:
        hi_rhs = math.nextafter(hi_rhs, -math.inf)
    return lo_rhs, hi_rhs


class _FractionBlock:
    """A non-constant descriptor's block in exact arithmetic.

    Its rows and xh box give xh in [low(x), high(x)], with
    low(x) = max(h_lo, a1*x + b1) and high(x) = min(h_hi, a2*x + b2); both
    ends are nondecreasing in x (a1, a2 > 0 for 0 < eps < 1).  The box
    [lo, hi] is the data range cut to where low(x) <= high(x), rounded
    inward when x is integer.  For x >= min, the outward rounding of the
    right-hand sides already gives h_lo = 0 <= a2*x + b2 and
    a1*x + b1 <= a2*x + b2, so only a1*x + b1 <= h_hi can cut the range.
    """

    __slots__ = ("integer", "h_lo", "h_hi", "a1", "b1", "a2", "b2", "lo", "hi")

    def __init__(self, block: _Block, integer: bool):
        span = Fraction(block.span)
        self.integer = integer
        self.h_lo, self.h_hi = Fraction(block.h_lo), Fraction(block.h_hi)
        self.a1, self.b1 = Fraction(block.lo_coef) / span, -Fraction(block.lo_rhs) / span
        self.a2, self.b2 = Fraction(block.hi_coef) / span, Fraction(block.hi_rhs) / span
        lo = Fraction(block.mn)
        hi = min(Fraction(block.mx), (self.h_hi - self.b1) / self.a1)
        self.lo, self.hi = (math.ceil(lo), math.floor(hi)) if integer else (lo, hi)

    def low(self, x) -> Fraction:
        return max(self.h_lo, self.a1 * x + self.b1)

    def high(self, x) -> Fraction:
        return min(self.h_hi, self.a2 * x + self.b2)


class _FractionReduction:
    """The inverse model reduced exactly to its support.

    Blocks off the support (zero weight or constant descriptor) sit at
    x = min, xh = 0, which meets their rows exactly.  On the support,
    block i adds w_i*xh_i to the window sum.  At fixed x that term ranges
    over [lower(i, x), upper(i, x)]; over a box [a, b] of x it ranges over
    [lower(i, start), upper(i, finish)], where the start is the box end at
    which the term is least (a for w > 0, b for w < 0) and the finish the
    other.  Summing those ends gives the LP relaxation of the full model
    on the box.  Both ends are memoized per x value.
    """

    def __init__(self, spec: InverseProblemSpec):
        w = spec.hyperplane.w
        self.mins = [float(v) for v in spec.feat_min]
        self.support = [j for j, block in enumerate(spec.blocks) if w[j] != 0.0 and block.span]
        self.blocks = [_FractionBlock(spec.blocks[j], j in spec.integer_indices) for j in self.support]
        self.w = [Fraction(float(w[j])) for j in self.support]
        self.rising = [wi > 0 for wi in self.w]
        lo, hi = reference_window_rhs(spec)
        self.w_lo, self.w_hi = Fraction(lo), Fraction(hi)
        self._lower: list[dict] = [{} for _ in self.support]
        self._upper: list[dict] = [{} for _ in self.support]

    def lower(self, i: int, x) -> Fraction:
        memo = self._lower[i]
        if x not in memo:
            b = self.blocks[i]
            memo[x] = self.w[i] * (b.low(x) if self.rising[i] else b.high(x))
        return memo[x]

    def upper(self, i: int, x) -> Fraction:
        memo = self._upper[i]
        if x not in memo:
            b = self.blocks[i]
            memo[x] = self.w[i] * (b.high(x) if self.rising[i] else b.low(x))
        return memo[x]

    def box(self, i: int, a, b) -> tuple:
        """(a, b, least term, greatest term) of block i over [a, b]."""
        if self.rising[i]:
            return a, b, self.lower(i, a), self.upper(i, b)
        return a, b, self.lower(i, b), self.upper(i, a)

    def reach(self, i: int, a, b, target: Fraction):
        """The x in [a, b] nearest the start at which block i's term can
        reach `target`, given that it can at the finish."""
        blk, w = self.blocks[i], self.w[i]
        if self.rising[i]:  # high(x) >= target/w
            return max(a, (target / w - blk.b2) / blk.a2)
        return min(b, (target / w - blk.b1) / blk.a1)  # low(x) <= target/w

    def lift(self, x: list) -> dict[str, Fraction | int]:
        """Every variable: the support at `x`, each term raised from its
        least in support order until the sum meets the window's lower end.
        A block off the support is written in ints where it can be: x at
        its minimum (a `Fraction` only for a non-integral one), xh = 0."""
        assignment: dict[str, Fraction | int] = {}
        for j, mn in enumerate(self.mins):
            assignment[f"x_{j + 1}"] = int(mn) if mn.is_integer() else Fraction(mn)
            assignment[f"xh_{j + 1}"] = 0
        lows = [self.lower(i, xi) for i, xi in enumerate(x)]
        deficit = self.w_lo - sum(lows, Fraction(0))
        for i, j in enumerate(self.support):
            term = lows[i]
            if deficit > 0:
                term = min(lows[i] + deficit, self.upper(i, x[i]))
                deficit -= term - lows[i]
            assignment[f"x_{j + 1}"] = Fraction(x[i])
            assignment[f"xh_{j + 1}"] = term / self.w[i]
        return assignment


def reference_solve_inverse(
    spec: InverseProblemSpec,
    max_nodes: int = 200_000,
    max_seconds: float = 120.0,
) -> MilpSolution:
    """First feasible point of `build_inverse_milp(spec)` by depth-first
    branch and bound on its reduced form (`_FractionReduction`).

    A node is a box on the support's x; its bound, the interval of
    reachable window sums, is updated from the parent's in O(1).  Its
    point is the fractional-knapsack one: every block at the start of its
    box, then blocks raised to the finish in support order until the sum
    meets the window's lower end.  Only the last raised block can stop
    short.  If its x is fractional and rounding it towards the finish
    overshoots the window, the node branches at its floor and ceiling;
    continuous descriptors never branch.  An answer is accepted only
    through `verify_inverse`, on every bound and row of the full model;
    the `MilpModel` itself is never built here.  `nodes`
    counts the interval relaxations evaluated; no simplex runs, so `pivots`
    reads 0.
    """
    red = _FractionReduction(spec)
    w_lo, w_hi = red.w_lo, red.w_hi
    root = [red.box(i, b.lo, b.hi) for i, b in enumerate(red.blocks)]
    stack = [(root, sum((e[2] for e in root), Fraction(0)), sum((e[3] for e in root), Fraction(0)))]
    deadline = time.monotonic() + max_seconds
    nodes = 0
    while stack:
        if nodes >= max_nodes or time.monotonic() > deadline:
            return MilpSolution(status="bound-limit", nodes=nodes, open_nodes=len(stack))
        boxes, least, most = stack.pop()
        nodes += 1
        if most < w_lo or least > w_hi:
            continue
        x = [a if up else b for (a, b, _, _), up in zip(boxes, red.rising)]
        total, i = least, 0
        while total < w_lo and total - boxes[i][2] + boxes[i][3] < w_lo:
            a, b, lo_i, hi_i = boxes[i]
            x[i] = b if red.rising[i] else a
            total += hi_i - lo_i
            i += 1
        if total < w_lo:  # block i stops short of its finish
            a, b, lo_i, hi_i = boxes[i]
            x[i] = red.reach(i, a, b, w_lo - total + lo_i)
            if red.blocks[i].integer and x[i].denominator != 1:
                ahead = math.ceil(x[i]) if red.rising[i] else math.floor(x[i])
                if total - lo_i + red.lower(i, ahead) > w_hi:
                    floor_v = math.floor(x[i])
                    for part in ((a, floor_v), (floor_v + 1, b)):  # the ceiling side first
                        child = list(boxes)
                        child[i] = red.box(i, *part)
                        stack.append((child, least - lo_i + child[i][2], most - hi_i + child[i][3]))
                    continue
                x[i] = ahead
        assignment = red.lift(x)
        violated = verify_inverse(spec, assignment)
        if violated:  # pragma: no cover - exact arithmetic should not land here
            raise MilpError(f"solver produced invalid point: {violated}")
        return MilpSolution(status="feasible", assignment=assignment, nodes=nodes)
    return MilpSolution(status="infeasible", nodes=nodes)


def reference_canonical_signature(g: ChemicalGraph | TwoLayeredDecomposition, rho: int) -> str:
    """The canonical signature on the tuple-based search: the interior with
    fringe codes, or, for an empty interior, the whole hydrogen-suppressed
    graph with element, hydrogen count and connecting flag as vertex
    colors, under the prefix "acyclic:"."""
    dec = as_decomposition(g, rho)
    s = dec.suppressed
    connecting = set(s.connecting or ())
    vertices = sorted(dec.interior_vertices)
    if vertices:
        prefix, pairs = "", dec.interior_edges
        colors = [(s.labels[v], dec.fringe_trees[v].code, v in connecting) for v in vertices]
    else:
        prefix, pairs = "acyclic:", [(u, v) for u, v, _ in s.bonds]
        vertices = sorted(s.labels)
        colors = [(s.labels[v], s.h_count.get(v, 0), v in connecting) for v in vertices]
    index = {v: i for i, v in enumerate(vertices)}
    adj: list[list[tuple[int, tuple[int, bool]]]] = [[] for _ in vertices]
    for u, v in pairs:
        lab = (s.adj[u][v], _norm_edge(u, v) in s.link_edges)
        adj[index[u]].append((index[v], lab))
        adj[index[v]].append((index[u], lab))
    return prefix + reference_canonical_search(colors, adj)[0]


def reference_canonical_search(raw_colors, adj) -> tuple[str, list[list[int]]]:
    """The least leaf encoding and the vertex order of each leaf reaching
    it; `adj[v]` lists (neighbour, (multiplicity, is_link))."""
    base = {c: i for i, c in enumerate(sorted(set(raw_colors)))}
    start = _reference_refine([base[c] for c in raw_colors], adj)
    label_of = [repr(c) for c in raw_colors]
    best: list[str] = []
    leaves: list[list[int]] = []
    _reference_search(start, adj, label_of, best, leaves)
    return best[0], leaves


def _reference_refine(colors: list[int], adj) -> list[int]:
    n = len(colors)
    while True:
        sig = [
            (colors[v], tuple(sorted((lab, colors[w]) for w, lab in adj[v])))
            for v in range(n)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranks[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def _reference_search(colors: list[int], adj, label_of: list[str], best: list[str], leaves: list[list[int]]) -> None:
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, []).append(v)
    cell = None
    for c in sorted(groups):
        if len(groups[c]) > 1:
            cell = groups[c]
            break
    if cell is None:
        order = sorted(range(len(colors)), key=colors.__getitem__)
        cand = _reference_encode(order, adj, label_of)
        if not best or cand < best[0]:
            best[:] = [cand]
            leaves.clear()
        if cand == best[0]:
            leaves.append(order)
        return
    mark = max(colors) + 1
    for v in cell:
        branched = list(colors)
        branched[v] = mark
        _reference_search(_reference_refine(branched, adj), adj, label_of, best, leaves)


def _reference_encode(order: list[int], adj, label_of: list[str]) -> str:
    pos = {v: i for i, v in enumerate(order)}
    rows = []
    for v in order:
        edges = sorted((pos[w], lab) for w, lab in adj[v])
        rows.append(label_of[v] + ";" + ",".join(f"{p}:{lab}" for p, lab in edges))
    return "\n".join(rows)


def reference_path_kkt_violation(X: np.ndarray, y: np.ndarray, h: Hyperplane, lam: float, penalize_bias: bool = True) -> float:
    """Largest violation of the soft-threshold stationarity conditions on the
    columns Z = [X, 1] and the weights (w, b)."""
    r = y - X @ h.w - h.b
    grad = np.append(X.T @ r, np.sum(r)) / len(y)
    coef = np.append(h.w, h.b)
    viol = np.where(coef != 0.0, np.abs(grad - lam * np.sign(coef)), np.abs(grad) - lam)
    if not penalize_bias:
        viol[-1] = abs(grad[-1])
    return max(0.0, float(viol.max()))


def reference_lasso_path(X: np.ndarray, y: np.ndarray, lams: list[float], penalize_bias: bool = True) -> list[Hyperplane]:
    """The Lasso solution at each penalty in `lams`, in the order given,
    from one LARS-Lasso homotopy on the Gram matrix of Z = [X, 1]; each
    knot stacks its right-hand side and takes the events of one sign at a
    time."""
    X, y = _training_data(X, y, lams)
    n, k = X.shape
    Z = np.hstack([X, np.ones((n, 1))])
    gram = Z.T @ Z / n
    corr = Z.T @ y / n
    diag = gram.diagonal()
    penalized = np.ones(k + 1, dtype=bool)
    penalized[k] = penalize_bias
    active = ~penalized
    sign = np.zeros(k + 1)
    pending = sorted(range(len(lams)), key=lambda i: lams[i], reverse=True)
    points: list[Hyperplane | None] = [None] * len(lams)
    knot = np.inf
    joined, left, left_sign = -1, -1, 0.0
    max_steps = 10 * (k + 1)
    for steps in range(max_steps + 1):
        A = np.flatnonzero(active)
        gram_A = gram[A]
        sol = np.linalg.solve(gram[np.ix_(A, A)], np.column_stack([corr[A], sign[A], gram_A]))
        u, v = sol[:, 0], sol[:, 1]
        a = corr - gram_A.T @ u
        d = gram_A.T @ v
        schur = diag - np.einsum("ij,ij->j", gram_A, sol[:, 2:])

        # an inactive correlation a + lam*d meets s*lam, as lam falls, at s*a / (1 - s*d)
        event = np.full(k + 1, -np.inf)
        event_sign = np.zeros(k + 1)
        free = ~active & penalized & (schur > _DEPENDENT * diag)
        for s in (1.0, -1.0):
            slope = 1.0 - s * d
            meets = free & (slope > 0.0)
            if s == left_sign:
                meets[left] = False
            at = np.full(k + 1, -np.inf)
            at[meets] = s * a[meets] / slope[meets]
            event_sign[at > event] = s
            event = np.maximum(event, at)
        # an active weight u - lam*v that moves against its sign reaches zero at u/v
        shrinks = sign[A] * v < 0.0
        shrinks[A == joined] = False
        event[A[shrinks]] = u[shrinks] / v[shrinks]
        np.minimum(event, knot, out=event)

        nxt = float(event.max())
        last = nxt <= 0.0 or steps == max_steps
        while pending and (last or lams[pending[0]] >= nxt):
            i = pending.pop(0)
            coef = np.zeros(k + 1)
            coef[A] = u - lams[i] * v
            # an active weight of the other sign is rounding noise around zero;
            # at a zero penalty no sign is read, and the weight stays as it is
            if lams[i] > 0.0:
                coef[A[sign[A] * coef[A] < 0.0]] = 0.0
            points[i] = Hyperplane(coef[:k].copy(), float(coef[k]), steps=steps)
        if not pending:
            break
        j = int(np.flatnonzero(event >= nxt * (1.0 - _KNOT_TIE))[0])  # ties: the lower column index
        if active[j]:
            joined, left, left_sign = -1, j, sign[j]
            active[j], sign[j] = False, 0.0
        else:
            joined, left_sign = j, 0.0
            active[j], sign[j] = True, event_sign[j]
        knot = nxt
    return points


def reference_cv_path(
    X: np.ndarray,
    y: np.ndarray,
    lams: list[float],
    runs: int,
    folds: int,
    seed: int,
    penalize_bias: bool,
) -> dict[float, CvReport]:
    """Cross-validate every penalty in `lams` on the same `runs` random fold
    partitions.  Each trial trains on the other folds, following one path
    through the distinct penalties and certifying each of its points, and
    reports test R^2 on the held-out fold from `r_squared`."""
    if folds < 2:
        raise RegressError(f"CV needs at least 2 folds, got {folds}")
    if runs < 1:
        raise RegressError(f"CV needs at least 1 run, got {runs}")
    if not lams:
        raise RegressError("CV needs at least one penalty")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < folds:
        raise RegressError(f"need at least {folds} records for {folds}-fold CV")
    path = sorted(set(lams), reverse=True)
    fits: dict[float, list[tuple[float, Hyperplane]]] = {lam: [] for lam in path}
    rng = np.random.default_rng(seed)
    for _ in range(runs):
        for test_idx in _fold_indices(n, folds, rng):
            mask = np.zeros(n, dtype=bool)
            mask[test_idx] = True
            X_train, y_train = X[~mask], y[~mask]
            for lam, start in zip(path, reference_lasso_path(X_train, y_train, path, penalize_bias)):
                # what `lasso_fit(X_train, y_train, lam, start=start)` returned
                h = Hyperplane(start.w, start.b,
                               reference_path_kkt_violation(X_train, y_train, start, lam, penalize_bias), start.steps)
                fits[lam].append((r_squared(h, X[mask], y[mask]), h))
    reports = {}
    for lam, trials in fits.items():
        r2s = tuple(r2 for r2, _ in trials)
        reports[lam] = CvReport(
            lam=lam,
            r2_values=r2s,
            median_r2=float(statistics.median(r2s)),
            mean_selected=float(np.mean([len(h.support()) for _, h in trials])),
            kkt_max=max(h.kkt for _, h in trials),
            unconverged=sum(not h.converged for _, h in trials),
        )
    return reports
