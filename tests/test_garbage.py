"""The per-graph path frees what it makes by reference counting alone.

Each test runs one stage with the cyclic garbage collector switched off and
then asks the collector for what it finds: a stage that builds a reference
cycle per call (a recursive closure, say) leaves it as garbage, and the
collector has to run every few hundred candidates to free it.
"""

from __future__ import annotations

import gc
import itertools
import random
from contextlib import contextmanager

import pytest

from corpus import make_polymer, synthetic_corpus
from polyinfer import generate
from polyinfer.chemgraph import parse_pmg
from polyinfer.cli import build_parser, main
from polyinfer.data import example_polymer_text
from polyinfer.features import build_registry, load_dataset, standardize
from polyinfer.generate import GenerationOutcome, canonical_signature, iter_generate, verify_roundtrip
from polyinfer.topospec import build_instance_Ib, check_satisfies
from polyinfer.twolayer import decompose
from spechelpers import SMALL_CATALOG, forcing_spec, oracle_candidates, train_model

OPEN = (-1e9, 1e9)


@contextmanager
def collector_off():
    """Run the body with the collector disabled after a full collection;
    the collector is on again afterwards, whatever the body does."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def assert_no_cyclic_garbage(run) -> None:
    with collector_off():
        run()
        assert gc.collect() == 0


@pytest.fixture(scope="module")
def model():
    return train_model([t for _, t in synthetic_corpus(random.Random(3), 25)]
                       + [make_polymer(subst={2: ("Cl",)})])


@pytest.fixture(scope="module")
def spec_full():
    return forcing_spec(SMALL_CATALOG)


def forcing_members() -> list[str]:
    return list(itertools.islice(oracle_candidates(), 0, None, 97))


def ib_cases() -> list[tuple[str, object]]:
    """Example polymers with the instance Ib each fits, and one without a
    witness under its instance."""
    cases = [(example_polymer_text(i), build_instance_Ib("HcL", n_lb))
             for i, n_lb in ((1, 14), (2, 16), (3, 16), (4, 17))]
    cases.append((make_polymer(bridge_a=("C", "C"), subst={2: ("C", "C", "C")}), build_instance_Ib("AmD", 16)))
    return cases


@pytest.fixture(scope="module")
def cases(spec_full):
    return [(parse_pmg(text), spec_full) for text in forcing_members()] + [
        (parse_pmg(text), spec) for text, spec in ib_cases()
    ]


def test_decompose_leaves_no_cyclic_garbage(cases):
    assert_no_cyclic_garbage(lambda: [decompose(g, spec.rho) for g, spec in cases])


def test_check_with_witness_search_leaves_no_cyclic_garbage(cases):
    reports = []
    assert_no_cyclic_garbage(lambda: reports.extend(check_satisfies(g, spec) for g, spec in cases))
    assert any(r.passed for r in reports) and any(r.witness is None for r in reports)


def test_signature_leaves_no_cyclic_garbage(cases):
    assert_no_cyclic_garbage(lambda: [canonical_signature(g, spec.rho) for g, spec in cases])


def test_verify_roundtrip_leaves_no_cyclic_garbage(cases, model):
    assert_no_cyclic_garbage(lambda: [verify_roundtrip(g, spec, model, OPEN) for g, spec in cases])


def test_automorphisms_leave_no_cyclic_garbage(spec_full):
    skeletons = [
        sk
        for spec in (spec_full, build_instance_Ib("AmD", 14))
        for sk in itertools.islice(generate._iter_skeletons(spec), 40)
    ]
    found = []
    assert_no_cyclic_garbage(lambda: found.extend(generate._automorphisms(sk) for sk in skeletons))
    assert any(found)


def test_generation_to_exhaustion_leaves_no_cyclic_garbage(spec_full, model):
    outcome = GenerationOutcome()
    results = []
    assert_no_cyclic_garbage(lambda: results.extend(iter_generate(spec_full, model, OPEN, outcome)))
    assert outcome.status == "exhausted" and results


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """The CLI tests' corpus: 40 synthetic polymers, a linear property."""
    root = tmp_path_factory.mktemp("corpus")
    (root / "graphs").mkdir()
    rows = ["id,value"]
    for rid, text in synthetic_corpus(random.Random(21), 40):
        (root / "graphs" / f"{rid}.pmg").write_text(text)
        atoms = [line.split()[2] for line in text.splitlines() if line.startswith("ATOM")]
        rows.append(f"{rid},{1.0 + 0.3 * atoms.count('O') + 0.05 * sum(a != 'H' for a in atoms):.6f}")
    (root / "values.csv").write_text("\n".join(rows) + "\n")
    return root


def test_featurization_stages_leave_no_cyclic_garbage(corpus_dir):
    loaded = []
    assert_no_cyclic_garbage(lambda: loaded.append(load_dataset(corpus_dir / "graphs", corpus_dir / "values.csv")))
    dataset = loaded[0][0]
    assert len(dataset.records) == 40
    registry = []
    assert_no_cyclic_garbage(lambda: registry.append(build_registry(dataset, 2)))
    assert_no_cyclic_garbage(lambda: standardize(dataset, registry[0]))


def test_cli_verify_leaves_no_cyclic_garbage(spec_full, model, tmp_path, capsys):
    (tmp_path / "model.json").write_text(model.to_json())
    (tmp_path / "spec.json").write_text(spec_full.to_json())
    files = []
    for i, text in enumerate(forcing_members()[:8]):
        files.append(tmp_path / f"g{i}.pmg")
        files[-1].write_text(text)
    argv = ["verify", "--model", str(tmp_path / "model.json"), "--spec", str(tmp_path / "spec.json"),
            "--window=-1e9,1e9", *map(str, files)]
    # the parser is built once per process and kept; argparse leaves cycles
    # of help formatters behind while it builds one
    build_parser()
    codes = []
    assert_no_cyclic_garbage(lambda: codes.append(main(argv)))
    assert codes == [0]
    assert capsys.readouterr().out.count("PASS") == len(files)
