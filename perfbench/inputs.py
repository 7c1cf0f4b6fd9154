"""Seeded workload inputs, kept apart from the test suite.

The two-ring corpus builder, the two synthetic value functions and the
forcing specification with its oracle enumerator live here so that the
benchmark's inputs change only when this directory changes.  One seed
always yields byte-identical PMG texts, values CSVs and specifications.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

VALENCE = {"H": 1, "C": 4, "N": 3, "O": 2, "Cl": 1, "S(2)": 2}

RING1 = list(range(1, 7))
RING2 = list(range(7, 13))
FREE_POSITIONS = [2, 3, 5, 6, 8, 9, 11, 12]


def make_polymer(
    bridge_a: tuple[str, ...] = ("C",),
    bridge_b: tuple[str, ...] = ("C",),
    subst: dict[int, tuple[str, ...]] | None = None,
) -> str:
    """PMG text for two benzene rings joined at para positions by two
    bridges (the link edges), with pendant chains on free ring positions."""
    subst = subst or {}
    atoms: list[tuple[int, str]] = [(i, "C") for i in RING1 + RING2]
    bonds: list[tuple[int, int, int]] = []
    links: list[tuple[int, int]] = []
    for ring in (RING1, RING2):
        for k in range(6):
            u, v = ring[k], ring[(k + 1) % 6]
            bonds.append((u, v, 1 if k % 2 == 0 else 2))
    nxt = 13
    for (start, end), chain in (((1, 7), bridge_a), ((4, 10), bridge_b)):
        prev = start
        for sym in chain:
            atoms.append((nxt, sym))
            bonds.append((prev, nxt, 1))
            links.append((prev, nxt))
            prev = nxt
            nxt += 1
        bonds.append((prev, end, 1))
        links.append((prev, end))
    for pos, chain in sorted(subst.items()):
        prev = pos
        for sym in chain:
            atoms.append((nxt, sym))
            bonds.append((prev, nxt, 1))
            prev = nxt
            nxt += 1
    bond_sum: dict[int, int] = {i: 0 for i, _ in atoms}
    for u, v, m in bonds:
        bond_sum[u] += m
        bond_sum[v] += m
    for i, sym in list(atoms):
        need = VALENCE[sym] - bond_sum[i]
        if need < 0:
            raise ValueError(f"over-bonded atom {i} ({sym})")
        for _ in range(need):
            atoms.append((nxt, "H"))
            bonds.append((i, nxt, 1))
            nxt += 1
    out = ["PMG 1"]
    out += [f"ATOM {i} {s}" for i, s in sorted(atoms)]
    out += [f"BOND {u} {v} {m}" for u, v, m in sorted((min(u, v), max(u, v), m) for u, v, m in bonds)]
    out += [f"LINK {u} {v}" for u, v in sorted((min(u, v), max(u, v)) for u, v in links)]
    return "\n".join(out) + "\n"


BRIDGE_CHOICES: list[tuple[str, ...]] = [
    ("C",), ("O",), ("C", "C"), ("C", "O"), ("S(2)",), ("C", "C", "C"), ("N",),
]
SUBST_CHOICES: list[tuple[str, ...]] = [("C",), ("Cl",), ("O",), ("C", "C"), ("N",)]


def random_polymer(rng: random.Random) -> str:
    subst = {}
    for pos in FREE_POSITIONS:
        if rng.random() < 0.35:
            subst[pos] = rng.choice(SUBST_CHOICES)
    return make_polymer(
        bridge_a=rng.choice(BRIDGE_CHOICES),
        bridge_b=rng.choice(BRIDGE_CHOICES),
        subst=subst,
    )


def synthetic_corpus(rng: random.Random, size: int) -> list[tuple[str, str]]:
    """Distinct (id, pmg text) pairs."""
    seen: set[str] = set()
    out: list[tuple[str, str]] = []
    while len(out) < size:
        text = random_polymer(rng)
        if text in seen:
            continue
        seen.add(text)
        out.append((f"p{len(out):03d}", text))
    return out


def _element_counts(text: str) -> tuple[int, int, int]:
    """(#O, #Cl, #non-hydrogen atoms) read straight from PMG ATOM lines."""
    symbols = [line.split()[2] for line in text.splitlines() if line.startswith("ATOM ")]
    return symbols.count("O"), symbols.count("Cl"), sum(1 for s in symbols if s != "H")


def design_value(text: str) -> float:
    """Value function of the desk-scale end-to-end corpus."""
    o, cl, n = _element_counts(text)
    return 1.0 + 0.3 * o + 0.2 * cl + 0.05 * n


def forcing_value(text: str) -> float:
    """Value function of the forcing-space corpus."""
    o, cl, n = _element_counts(text)
    return 1.0 + 0.35 * o + 0.22 * cl + 0.11 * n


def write_corpus(
    directory: Path,
    corpus: list[tuple[str, str]],
    value,
    value_format: str,
) -> tuple[Path, Path]:
    """Write <id>.pmg files and a values CSV; returns (graphs dir, CSV)."""
    graphs = directory / "graphs"
    graphs.mkdir(parents=True, exist_ok=True)
    rows = ["id,value"]
    for rid, text in corpus:
        (graphs / f"{rid}.pmg").write_text(text)
        rows.append(f"{rid},{format(value(text), value_format)}")
    values = directory / "values.csv"
    values.write_text("\n".join(rows) + "\n")
    return graphs, values


# ---------------------------------------------------------------------------
# Closed forcing space over the two-ring seed

SMALL_CATALOG = ("C", "C(-H)", "C(-H)(-H)", "C(-Cl)", "O")

REFERENCE_KWARGS = [
    dict(bridge_a=("C",), bridge_b=("C",)),
    dict(bridge_a=("O",), bridge_b=("O",)),
    dict(bridge_a=("C",), bridge_b=("C", "C")),
    dict(bridge_a=("O",), bridge_b=("C", "O")),
    dict(bridge_a=("C",), bridge_b=("O", "O")),
    dict(bridge_a=("C",), bridge_b=("C",), subst={2: ("Cl",)}),
    dict(bridge_a=("O",), bridge_b=("C",), subst={2: ("Cl",), 3: ("Cl",)}),
    dict(bridge_a=("C",), bridge_b=("C", "C"), subst={2: ("Cl",), 5: ("Cl",), 8: ("Cl",)}),
    dict(bridge_a=("C",), bridge_b=("O",), subst={2: ("Cl",), 6: ("Cl",), 9: ("Cl",), 11: ("Cl",)}),
    dict(bridge_a=("O",), bridge_b=("O", "C"), subst={3: ("Cl",), 5: ("Cl",), 12: ("Cl",)}),
]

POSITION_TO_SEED = {2: "b2", 3: "b3", 5: "b5", 6: "b6", 8: "b8", 9: "b9", 11: "b11", 12: "b12"}


def forcing_spec(
    catalog: tuple[str, ...] = SMALL_CATALOG,
    a2_max_len: int = 3,
    cl_positions: tuple[int, ...] = tuple(FREE_POSITIONS),
):
    """Closed search space over the two-ring seed: bridges are C/O chains
    and the free ring positions carry H or Cl; positions outside
    `cl_positions` are pinned to a plain CH fringe."""
    from polyinfer.chemgraph import parse_pmg
    from polyinfer.topospec import TopologicalSpec, two_ring_seed
    from polyinfer.twolayer import (
        adjacency_of,
        adjacency_str,
        config_str,
        decompose,
        edge_config,
        leaf_edge_adjacency_configs,
    )

    seed = two_ring_seed()
    ec_int, ec_lnk, ac_int, ac_lnk, ac_lf = set(), set(), set(), set(), set()
    for kwargs in REFERENCE_KWARGS:
        dec = decompose(parse_pmg(make_polymer(**kwargs)), 2)
        for e in sorted(dec.interior_edges):
            cfg = edge_config(dec, e)
            ec_int.add(config_str(cfg))
            ac_int.add(adjacency_str(adjacency_of(cfg)))
        for e in sorted(dec.suppressed.link_edges):
            cfg = edge_config(dec, e)
            ec_lnk.add(config_str(cfg))
            ac_lnk.add(adjacency_str(adjacency_of(cfg)))
        for cfg in leaf_edge_adjacency_configs(dec.suppressed):
            ac_lf.add(adjacency_str(cfg))
    big = 40
    pinned = {
        POSITION_TO_SEED[p]: ("C(-H)",)
        for p in FREE_POSITIONS
        if p not in cl_positions and "C(-H)" in catalog
    }
    return TopologicalSpec(
        seed=seed,
        rho=2,
        elements=("H", "C", "O", "Cl"),
        vertex_elements={v: ("C",) for v in seed.vertices},
        fringe_catalog=catalog,
        n=(14, 24),
        n_int=(14, 16),
        n_lnk=(2, 3),
        path_len={"a1": (2, 2), "a2": (2, a2_max_len)},
        branch_count_edge={"a1": (0, 0), "a2": (0, 0)},
        branch_height_edge={"a1": (0, 0), "a2": (0, 0)},
        branch_count_vertex={v: (0, 0) for v in seed.vertices},
        branch_height_vertex={v: (0, 0) for v in seed.vertices},
        double_bonds={
            "a1": (0, 0),
            "a2": (0, 0),
            **{f"a{i}": (0, 0) for i in (3, 5, 7, 9, 11, 13)},
            **{f"a{i}": (1, 1) for i in (4, 6, 8, 10, 12, 14)},
        },
        triple_bonds={e.name: (0, 0) for e in seed.edges},
        na={"H": (0, big), "C": (0, big), "O": (0, 6), "Cl": (0, 8)},
        na_int={"C": (0, big), "O": (0, big), "Cl": (0, big)},
        ns_int={f"({a},{d})": (0, big) for a in ("C", "O", "Cl") for d in range(1, 5)},
        ns_cnt={f"({a},{d})": (0, 2) for a in ("C", "O", "Cl") for d in range(1, 5)},
        ec_int={k: (0, big) for k in sorted(ec_int)},
        ec_lnk={k: (0, big) for k in sorted(ec_lnk)},
        ac_int={k: (0, big) for k in sorted(ac_int)},
        ac_lnk={k: (0, big) for k in sorted(ac_lnk)},
        ac_lf={k: (0, big) for k in sorted(ac_lf)},
        fc={code: (0, big) for code in catalog},
        fringe_vertex=pinned,
    )


def oracle_candidates(
    cl_positions: tuple[int, ...] = tuple(FREE_POSITIONS), a2_max_len: int = 3
):
    """Every member of the forcing space as PMG text, built without the
    generator: bridge contents times Cl patterns on the allowed positions."""
    bridge_choices = [("C",), ("O",)]
    bridge2_choices = [("C",), ("O",)]
    if a2_max_len >= 3:
        bridge2_choices += [("C", "C"), ("C", "O"), ("O", "C"), ("O", "O")]
    for b1 in bridge_choices:
        for b2 in bridge2_choices:
            for pattern in itertools.product([False, True], repeat=len(cl_positions)):
                subst = {pos: ("Cl",) for pos, bit in zip(cl_positions, pattern) if bit}
                yield make_polymer(bridge_a=b1, bridge_b=b2, subst=subst)
