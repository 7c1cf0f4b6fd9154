"""Shared forcing-spec machinery for generator tests.

The forcing space lives over the two-ring seed: bridges are C/O chains and
the free ring positions carry H or Cl, so the whole space can be
enumerated independently of the generator.
"""

from __future__ import annotations

import itertools

from corpus import make_polymer
from polyinfer.chemgraph import parse_pmg
from polyinfer.features import DataRecord, Dataset, build_registry, standardize
from polyinfer.model import ModelBundle
from polyinfer.regress import lasso_fit
from polyinfer.topospec import CONFIG_BOUNDS, TopologicalSpec, two_ring_seed
from polyinfer.twolayer import count_profile, decompose

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

FREE_POSITIONS = [2, 3, 5, 6, 8, 9, 11, 12]
POSITION_TO_SEED = {2: "b2", 3: "b3", 5: "b5", 6: "b6", 8: "b8", 9: "b9", 11: "b11", 12: "b12"}


def train_model(texts: list[str]) -> ModelBundle:
    """Linear property: exact function of counts, so the fit is sharp."""
    records = []
    for k, text in enumerate(texts):
        g = parse_pmg(text)
        value = (
            1.0
            + 0.35 * sum(1 for _, s in g.atoms if s == "O")
            + 0.22 * sum(1 for _, s in g.atoms if s == "Cl")
            + 0.11 * g.non_hydrogen_count()
        )
        records.append(DataRecord(f"t{k}", g, value, {}))
    ds = Dataset(tuple(records))
    reg = build_registry(ds, 2)
    std, Xs, ys = standardize(ds, reg)
    return ModelBundle(reg, std, lasso_fit(Xs, ys, 1e-6), 1e-6)


def forcing_spec(
    catalog: tuple[str, ...],
    a2_max_len: int = 3,
    cl_positions: tuple[int, ...] = tuple(FREE_POSITIONS),
) -> TopologicalSpec:
    """Closed search space over the two-ring seed; ring positions outside
    `cl_positions` are pinned to a plain CH fringe."""
    seed = two_ring_seed()
    config_keys: dict[str, set[str]] = {attr: set() for attr in CONFIG_BOUNDS}
    for kwargs in REFERENCE_KWARGS:
        profile = count_profile(decompose(parse_pmg(make_polymer(**kwargs)), 2))
        for attr, keys in config_keys.items():
            keys.update(getattr(profile, attr))
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
        **{attr: {k: (0, big) for k in sorted(keys)} for attr, keys in config_keys.items()},
        fc={code: (0, big) for code in catalog},
        fringe_vertex=pinned,
    )


def oracle_candidates(cl_positions: tuple[int, ...] = tuple(FREE_POSITIONS), a2_max_len: int = 3):
    """Every graph in the forcing space, built independently of the
    generator: bridge contents x Cl patterns on the allowed positions."""
    bridge_choices = [("C",), ("O",)]
    bridge2_choices = [("C",), ("O",)]
    if a2_max_len >= 3:
        bridge2_choices += [("C", "C"), ("C", "O"), ("O", "C"), ("O", "O")]
    for b1 in bridge_choices:
        for b2 in bridge2_choices:
            for pattern in itertools.product([False, True], repeat=len(cl_positions)):
                subst = {pos: ("Cl",) for pos, bit in zip(cl_positions, pattern) if bit}
                yield make_polymer(bridge_a=b1, bridge_b=b2, subst=subst)
