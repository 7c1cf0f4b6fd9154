from __future__ import annotations

import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import make_polymer, synthetic_corpus
from polyinfer.chemgraph import ChemicalGraph, PmgParseError, parse_pmg
from polyinfer.data import demo_polymer_text
from polyinfer.features import (
    DataRecord,
    Dataset,
    Descriptor,
    DescriptorRegistry,
    FeatureError,
    build_registry,
    feature_matrix,
    featurize,
    load_dataset,
    stage1_reason,
    standardize,
)
from polyinfer.generate import canonical_signature
from polyinfer.topospec import check_satisfies
from polyinfer.twolayer import decompose
from reference_checks import reference_featurize
from spechelpers import SMALL_CATALOG, forcing_spec


def dataset_from_texts(texts, values=None, covariates=None):
    records = []
    for k, text in enumerate(texts):
        g = parse_pmg(text)
        records.append(
            DataRecord(
                id=f"g{k}",
                graph=g,
                value=values[k] if values else float(k),
                covariates=dict(covariates[k]) if covariates else {},
            )
        )
    names = tuple(covariates[0].keys()) if covariates else ()
    return Dataset(tuple(records), names)


def relabel(g: ChemicalGraph, rng: random.Random) -> ChemicalGraph:
    ids = list(g.labels)
    new = list(ids)
    rng.shuffle(new)
    mapping = dict(zip(ids, new))
    return ChemicalGraph(
        atoms=tuple((mapping[i], s) for i, s in g.atoms),
        bonds=tuple((mapping[u], mapping[v], m) for u, v, m in g.bonds),
        link_edges=frozenset((mapping[u], mapping[v]) for u, v in g.link_edges),
        connecting=None
        if g.connecting is None
        else (mapping[g.connecting[0]], mapping[g.connecting[1]]),
    )


# -- registry ----------------------------------------------------------------


def test_registry_contains_observed_configs_only():
    ds = dataset_from_texts([make_polymer(subst={2: ("Cl",)})])
    reg = build_registry(ds, rho=2)
    kinds = {d.kind for d in reg.descriptors}
    assert kinds == {"n", "rank", "n_int", "ms_avg", "na", "ns_int", "ec_int", "ec_lnk", "ac_lf", "fc", "n_lnk"}
    assert "H" in reg.keys_of("na") and "C" in reg.keys_of("na")
    assert "O" not in reg.keys_of("na")
    assert reg.keys_of("ac_lf") == ["(C,Cl,1)"]


def test_registry_deterministic_under_shuffle():
    rng = random.Random(1)
    texts = [t for _, t in synthetic_corpus(rng, 8)]
    reg1 = build_registry(dataset_from_texts(texts), rho=2)
    shuffled = list(texts)
    rng.shuffle(shuffled)
    reg2 = build_registry(dataset_from_texts(shuffled), rho=2)
    assert reg1.to_json() == reg2.to_json()
    assert reg1.digest() == reg2.digest()


def test_registry_roundtrip_json():
    reg = build_registry(dataset_from_texts([make_polymer()]), rho=2)
    assert DescriptorRegistry.from_dict(json.loads(reg.to_json())) == reg


def test_registry_covariates_declared():
    ds = dataset_from_texts([make_polymer()], covariates=[{"fq": 60.0}])
    reg = build_registry(ds, rho=2)
    assert reg.keys_of("cov") == ["fq"]
    assert len(reg.integer_indices()) == len(reg) - 2  # ms_avg and fq are real


# -- featurize ---------------------------------------------------------------


def test_featurize_self_consistency():
    rng = random.Random(2)
    texts = [t for _, t in synthetic_corpus(rng, 6)]
    ds = dataset_from_texts(texts)
    reg = build_registry(ds, rho=2)
    X, oovs = feature_matrix(ds, reg)
    assert all(not o for o in oovs)
    # counts are non-negative integers on integer descriptors
    for j in reg.integer_indices():
        col = X[:, j]
        assert np.all(col >= 0) and np.allclose(col, np.round(col))


def test_featurize_demo_polymer_fringe_count():
    g = parse_pmg(demo_polymer_text())
    ds = Dataset((DataRecord("r", g, 1.0, {}),))
    reg = build_registry(ds, rho=2)
    fv = featurize(g, reg)
    j = reg.names.index("fc:C(-H)")
    assert fv.values[j] == 5.0


def test_demo_polymer_registry_distinct_interior_configs():
    # nine distinct interior edge-configurations, enumerated by hand
    g = parse_pmg(demo_polymer_text())
    reg = build_registry(Dataset((DataRecord("r", g, 1.0, {}),)), rho=2)
    assert len(reg.keys_of("ec_int")) == 9


def test_featurize_isomorphism_invariant():
    rng = random.Random(3)
    g = parse_pmg(make_polymer(bridge_a=("C", "O"), subst={2: ("Cl",)}))
    ds = Dataset((DataRecord("g", g, 1.0, {}),))
    reg = build_registry(ds, rho=2)
    base = featurize(g, reg).values
    for _ in range(5):
        other = relabel(g, rng)
        assert np.array_equal(featurize(other, reg).values, base)


def test_featurize_sums_match_structure():
    g = parse_pmg(demo_polymer_text())
    ds = Dataset((DataRecord("r", g, 1.0, {}),))
    reg = build_registry(ds, rho=2)
    fv = featurize(g, reg)
    dec = decompose(g, 2)
    ec_total = sum(fv.values[j] for j, d in enumerate(reg.descriptors) if d.kind == "ec_int")
    fc_total = sum(fv.values[j] for j, d in enumerate(reg.descriptors) if d.kind == "fc")
    assert ec_total == len(dec.interior_edges)
    assert fc_total == len(dec.interior_vertices)


def test_featurize_reports_oov():
    reg = build_registry(dataset_from_texts([make_polymer()]), rho=2)
    other = parse_pmg(make_polymer(bridge_a=("O",), subst={2: ("Cl",)}))
    fv = featurize(other, reg)
    assert fv.oov  # O bridge and Cl substituent configs are unknown
    assert any(item.startswith("na:") for item in fv.oov)


def test_featurize_missing_covariate_fails():
    ds = dataset_from_texts([make_polymer()], covariates=[{"fq": 50.0}])
    reg = build_registry(ds, rho=2)
    with pytest.raises(FeatureError, match="covariate"):
        featurize(ds.records[0].graph, reg)


def test_featurize_rejects_unknown_or_repeated_descriptors():
    g = parse_pmg(make_polymer())
    for descriptors in (
        (Descriptor("n"), Descriptor("fc", "C(-H)"), Descriptor("fc", "C(-H)")),
        (Descriptor("n"), Descriptor("ac_int", "(C,C,1)")),
    ):
        with pytest.raises(FeatureError, match="unknown or repeated"):
            featurize(g, DescriptorRegistry(2, descriptors))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_featurize_matches_the_reference_on_drawn_corpora(data):
    # the registry comes from a drawn sub-corpus, so the other graphs carry
    # out-of-vocabulary keys; each graph is featurized as a graph, as its
    # decomposition at the registry's rho and as one at another rho
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    texts = [t for _, t in synthetic_corpus(rng, data.draw(st.integers(2, 10), label="size"))]
    names = data.draw(st.sampled_from([(), ("fq",), ("fq", "temp")]), label="covariates")
    covs = [{c: rng.uniform(-50.0, 50.0) for c in names} for _ in texts]
    train = data.draw(st.integers(1, len(texts)), label="train")
    rho = data.draw(st.integers(1, 3), label="rho")
    other_rho = data.draw(st.sampled_from([r for r in (1, 2, 3, 4) if r != rho]), label="other_rho")
    ds = dataset_from_texts(texts[:train], covariates=covs[:train] if names else None)
    reg = build_registry(ds, rho)
    for text, cov in zip(texts, covs):
        g = parse_pmg(text)
        for arg in (g, decompose(g, rho), decompose(g, other_rho)):
            got, want = featurize(arg, reg, cov), reference_featurize(arg, reg, cov)
            assert got.values.tobytes() == want.values.tobytes()
            assert got.oov == want.oov
        if names:
            missing = dict(cov)
            del missing[data.draw(st.sampled_from(names), label="dropped")]
            for f in (featurize, reference_featurize):
                with pytest.raises(FeatureError, match="missing covariate"):
                    f(g, reg, missing)


def test_registry_and_standardize_decompose_each_record_once(decompose_calls):
    texts = [t for _, t in synthetic_corpus(random.Random(8), 12)]
    ds = dataset_from_texts(texts, values=[float(k % 5) for k in range(len(texts))])
    calls = decompose_calls
    reg = build_registry(ds, rho=2)
    standardize(ds, reg)
    assert sorted(id(g) for g, _ in calls) == sorted(id(rec.graph) for rec in ds.records)
    # another rho is one more decomposition per record, kept beside the first
    feature_matrix(ds, build_registry(ds, rho=3))
    feature_matrix(ds, reg)
    assert len(calls) == 2 * len(ds)


def test_one_graph_is_decomposed_once_per_rho(decompose_calls):
    # signatures, features and the spec check each take the graph itself
    texts = [t for _, t in synthetic_corpus(random.Random(8), 6)]
    registries = {rho: build_registry(dataset_from_texts(texts), rho) for rho in (2, 3)}
    spec = forcing_spec(SMALL_CATALOG)
    g = parse_pmg(make_polymer(bridge_b=("C", "C")))
    decompose_calls.clear()
    for rho in (2, 3):
        canonical_signature(g, rho)
        featurize(g, registries[rho])
        check_satisfies(g, dataclasses.replace(spec, rho=rho))
        canonical_signature(g, rho)
    assert [(h is g, rho) for h, rho in decompose_calls] == [(True, 2), (True, 3)]


# -- stage-1 elimination -----------------------------------------------------


def test_stage1_accepts_demo_polymer():
    assert stage1_reason(parse_pmg(demo_polymer_text())) is None


def test_stage1_rejects_five_heavy_neighbors():
    # neopentane-like centre with a fifth heavy neighbor via P(5)
    text = "PMG 1\nATOM 1 P(5)\n"
    for i in range(2, 7):
        text += f"ATOM {i} C\n"
        text += f"BOND 1 {i} 1\n"
    h = 7
    for i in range(2, 7):
        for _ in range(3):
            text += f"ATOM {h} H\nBOND {i} {h} 1\n"
            h += 1
    g = parse_pmg(text)
    assert "non-hydrogen neighbors" in stage1_reason(g)


def test_stage1_rejects_missing_links():
    text = make_polymer()
    stripped = "\n".join(l for l in text.splitlines() if not l.startswith("LINK")) + "\n"
    g = parse_pmg(stripped)
    assert "link-edge" in stage1_reason(g)


def test_load_dataset_roundtrip(tmp_path):
    rng = random.Random(4)
    corpus = synthetic_corpus(rng, 5)
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    lines = ["id,value"]
    for rid, text in corpus:
        (gdir / f"{rid}.pmg").write_text(text)
        lines.append(f"{rid},{rng.uniform(0, 2):.4f}")
    csv_path = tmp_path / "values.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    ds, report = load_dataset(gdir, csv_path)
    assert len(ds) == 5 and not report.eliminated


def test_load_dataset_eliminates_and_reports(tmp_path):
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    (gdir / "ok.pmg").write_text(make_polymer())
    bad = "\n".join(
        l for l in make_polymer().splitlines() if not l.startswith("LINK")
    ) + "\n"
    (gdir / "bad.pmg").write_text(bad)
    (tmp_path / "v.csv").write_text("id,value\nok,1.0\nbad,2.0\n")
    ds, report = load_dataset(gdir, tmp_path / "v.csv")
    assert [r.id for r in ds.records] == ["ok"]
    assert report.eliminated[0][0] == "bad"


def test_load_dataset_eliminates_bridging_hydrogen(tmp_path):
    # H 7 bonds to both carbons: every valence is within max_abs_charge=1,
    # but a hydrogen with two neighbors cannot be suppressed and counted
    bridged = (
        "PMG 1\nATOM 1 C\nATOM 2 C\n"
        + "".join(f"ATOM {i} H\n" for i in range(3, 8))
        + "BOND 1 2 1\nBOND 1 3 1\nBOND 1 4 1\nBOND 2 5 1\nBOND 2 6 1\n"
        + "BOND 1 7 1\nBOND 2 7 1\n"
    )
    with pytest.raises(PmgParseError, match="hydrogen 7 has 2 neighbors"):
        parse_pmg(bridged, max_abs_charge=1)
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    (gdir / "ok.pmg").write_text(make_polymer())
    (gdir / "bridged.pmg").write_text(bridged)
    (tmp_path / "v.csv").write_text("id,value\nok,1.0\nbridged,2.0\n")
    ds, report = load_dataset(gdir, tmp_path / "v.csv", max_abs_charge=1)
    assert [r.id for r in ds.records] == ["ok"]
    (rid, reason), = report.eliminated
    assert rid == "bridged" and "hydrogen 7 has 2 neighbors" in reason


def test_load_dataset_allow_charge(tmp_path):
    text = make_polymer()
    # strip one hydrogen: the bearing atom now misses a valence unit
    lines = text.splitlines()
    h_bond = next(l for l in lines if l.startswith("BOND 13 "))
    h_id = h_bond.split()[2]
    charged = "\n".join(
        l for l in lines if l not in (h_bond, f"ATOM {h_id} H")
    ) + "\n"
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    (gdir / "ion.pmg").write_text(charged)
    (tmp_path / "v.csv").write_text("id,value\nion,1.0\n")
    with pytest.raises(FeatureError, match="no record survived"):
        load_dataset(gdir, tmp_path / "v.csv")
    ds, report = load_dataset(gdir, tmp_path / "v.csv", max_abs_charge=1)
    assert len(ds) == 1 and not report.eliminated


def test_load_dataset_missing_file(tmp_path):
    (tmp_path / "v.csv").write_text("id,value\nnope,1.0\n")
    with pytest.raises(FeatureError, match="missing graph file"):
        load_dataset(tmp_path, tmp_path / "v.csv")


def test_load_dataset_empty_csv(tmp_path):
    (tmp_path / "v.csv").write_text("id,value\n")
    with pytest.raises(FeatureError, match="no records"):
        load_dataset(tmp_path, tmp_path / "v.csv")


# -- standardization ---------------------------------------------------------


def test_standardize_min_max_map():
    rng = random.Random(5)
    texts = [t for _, t in synthetic_corpus(rng, 8)]
    ds = dataset_from_texts(texts, values=[rng.uniform(1, 3) for _ in texts])
    reg = build_registry(ds, rho=2)
    std, Xs, ys = standardize(ds, reg)
    nonconst = ~std.constant_mask
    assert np.allclose(Xs[:, nonconst].min(axis=0), 0.0)
    assert np.allclose(Xs[:, nonconst].max(axis=0), 1.0)
    assert np.all(Xs[:, std.constant_mask] == 0.0)
    assert ys.min() == 0.0 and ys.max() == 1.0
    # the whole matrix maps exactly as each row does alone
    X, _ = feature_matrix(ds, reg)
    assert np.array_equal(Xs, np.vstack([std.transform(row) for row in X]))


def test_standardize_value_roundtrip():
    std, _, _ = standardize(
        dataset_from_texts([make_polymer(), make_polymer(bridge_a=("C", "C"))], values=[1.0, 3.0]),
        build_registry(dataset_from_texts([make_polymer()]), rho=2),
    )
    for a in (1.0, 1.7, 2.9999):
        assert abs(std.inverse_value(std.transform_value(a)) - a) < 1e-12
