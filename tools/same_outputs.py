"""Check that two checkouts featurize, train, infer, generate, verify and check alike.

    python3 tools/same_outputs.py PARENT CHANGE [--work DIR]

Builds the inputs once, with PARENT's code: the generator tests' two
models (`model_with_cl` and the Cl-free `model_without_cl` in
`tests/test_generate.py`), the tests' forcing spec over the small catalog,
and the two-ring instance Ib for AmD, HcL, Tg, RfId and Prm at n_lb 14 and
for AmD at n_lb 17.  The forcing spec runs with both models, so the
vocabulary cuts and symmetric drops in the manifest are compared too; the
Ib specs run with `model_with_cl`.  For each case it then runs
`python -m polyinfer.cli generate` in each checkout, as a subprocess with
that checkout's `src/` on PYTHONPATH, with an open window and no budget,
and compares the two output directories file by file, `manifest.jsonl`
included.  On identical directories it also compares the stdout of
`verify` over every generated file and of `check --verbose` on up to 16 of
them, first under the case's own spec, where every graph passes, and then
under instance Ib for AmD at n_lb 28, whose size bound every generated
graph misses, so that the failure rows, membership names and `witness:`
lines of failing reports are compared byte for byte too; each `verify`
line says how many graphs passed.  No embedding of a generated graph
leaves a pendant tree, so a pendant stage runs `verify` and `check
--verbose` the same way on forcing-space members with and without a
C-C-C chain at ring position 2 (which leaves one interior carbon hanging
at b2), under the forcing spec with b2 admitting one pendant tree of
height at most 1 (`branch_count_vertex` and `branch_height_vertex` b2 =
(0, 1)) and with the chain's fringe code, configurations and interior
size declared, so that the chained members pass it too.  When every
graph file and every per-graph manifest record are identical and only
the summary line differs, it names the summary keys that moved (parent
-> change) and still compares `verify` and `check`.
A featurize stage runs `featurize` in each checkout on the CLI
tests' synthetic corpus plus the demo polymer at rho 1 to 4 and compares
`registry.json` and the matrix CSV byte for byte.  A train stage runs, on
the same corpus, `train` with `--lambda` and without it (the penalty then
chosen by cross-validation) and `cv` with its penalty chosen the same
way, and compares the model files and the cv report byte for byte; when
one differs, it names the key paths that moved with both values
(`fit.sweeps: 0 -> absent`).  An infer stage runs `infer --emit-lp --out`
and `infer --out` in each checkout with the parent's two `train
--lambda`/`train` model files, on windows of +-0.02, +-1e-4 and +-1e-6
around the predictions of a few corpus members and on windows beyond
b + sum|w| on either side (infeasible), and compares the exit codes, both
`--out` JSON files and the LP text byte for byte, one line per window
with the search's node count from `solution.json`; the narrow windows
make the search branch, so that searches of tens to hundreds of nodes
are compared, and the run without `--emit-lp` is the one that builds no
`MilpModel`.  A
signature stage runs `canonical_signature` in each checkout, in one
process, over every graph of the tests'
forcing-space oracle (`oracle_candidates` in `tests/spechelpers.py`,
3,072 graphs) and the corpus at rho 1 to 3, prints one line per graph
and rho with the signature's repr, and compares the two outputs line by
line.  It prints one line per case and stage and
reports the first file that differs.  The exit status is 0 when every
output is identical and 1 otherwise.  Neither checkout is written to; everything goes under
`--work` (a temporary directory by default).
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

IB_CASES = [(tag, 14) for tag in ("AmD", "HcL", "Tg", "RfId", "Prm")] + [("AmD", 17)]
OPEN_WINDOW = "--window=-1e9,1e9"
CHECKED_FILES = 16  # `check` starts one process per graph, so it samples
# the instance every generated graph fails: its size bound starts above the
# forcing spec's upper bound (24) and every case's n_lb + 10 (at most 27)
FOREIGN = ("AmD", 28)
FEATURIZE_RHOS = (1, 2, 3, 4)
# (command, options, output flag, output file): the train stage's runs
TRAIN_RUNS = (
    ("train", ("--lambda", "1e-6"), "--out-model", "model-lambda.json"),
    ("train", (), "--out-model", "model-selected.json"),
    ("cv", ("--runs", "3"), "--out-report", "cv.json"),
)

INPUTS = "inputs"  # under --work: the models, specs, corpus and oracle graphs, rebuilt on every run
SIGNATURE_RHOS = (1, 2, 3)
INFER_MEMBERS = 4  # corpus members whose predictions centre the +-0.02, +-1e-4 and +-1e-6 infer windows
INFER_WINDOWS = """
import sys
from polyinfer.chemgraph import parse_pmg
from polyinfer.model import ModelBundle

bundle = ModelBundle.from_json(open(sys.argv[1]).read())
preds = [bundle.predict_graph(parse_pmg(open(path).read()))[0] for path in sys.argv[2:]]
for half_width in (0.02, 1e-4, 1e-6):
    for pred in preds:
        print(repr(pred - half_width), repr(pred + half_width))
h, std = bundle.hyperplane, bundle.standardizer
reach = float(sum(abs(h.w))) * 1.001 + 0.05
for side in (1, -1):
    lo, hi = sorted((h.b + side * reach, h.b + side * (reach + 0.05)))
    print(repr(std.inverse_value(lo)), repr(std.inverse_value(hi)))
"""

# one line per graph and rho: name, rho and the signature's repr
SIGNATURES = """
import json, sys
from pathlib import Path
from polyinfer.chemgraph import parse_pmg
from polyinfer.generate import canonical_signature

inputs, rhos = Path(sys.argv[1]), [int(r) for r in sys.argv[2:]]
named = [(f"oracle-{i:04d}", t) for i, t in enumerate(json.loads((inputs / "oracle.json").read_text()))]
named += [(p.stem, p.read_text()) for p in sorted((inputs / "corpus" / "graphs").glob("*.pmg"))]
for name, text in named:
    g = parse_pmg(text)
    for rho in rhos:
        print(name, rho, repr(canonical_signature(g, rho)))
"""

# mirrors the `model_with_cl` and `model_without_cl` fixtures, the
# `spec_full` forcing spec and the CLI tests' `corpus_dir`, with the demo
# polymer added to the corpus; the forcing-space oracle's graphs go to
# oracle.json as one list of PMG texts, and the pendant stage's members
# and spec to pendant/ and forcing-b2-branch.json
BUILD_INPUTS = """
import dataclasses, json, os, random, sys
from corpus import make_polymer, synthetic_corpus
from polyinfer.chemgraph import parse_pmg
from polyinfer.data import demo_polymer_text
from polyinfer.topospec import CONFIG_BOUNDS
from polyinfer.twolayer import decompose
from spechelpers import SMALL_CATALOG, forcing_spec, oracle_candidates, train_model

out = sys.argv[1]
model = train_model([t for _, t in synthetic_corpus(random.Random(3), 25)]
                    + [make_polymer(subst={2: ("Cl",)})])
open(f"{out}/model.json", "w").write(model.to_json())
model = train_model([make_polymer(), make_polymer(bridge_a=("O",)),
                     make_polymer(bridge_b=("C", "C")), make_polymer(bridge_a=("O",), bridge_b=("C", "O"))])
open(f"{out}/model-without-cl.json", "w").write(model.to_json())
open(f"{out}/forcing.json", "w").write(forcing_spec(SMALL_CATALOG).to_json())
os.makedirs(f"{out}/corpus/graphs")
rows = ["id,value"]
for rid, text in synthetic_corpus(random.Random(21), 40) + [("demo", demo_polymer_text())]:
    open(f"{out}/corpus/graphs/{rid}.pmg", "w").write(text)
    atoms = [l.split()[2] for l in text.splitlines() if l.startswith("ATOM")]
    rows.append(f"{rid},{1.0 + 0.3 * atoms.count('O') + 0.05 * sum(a != 'H' for a in atoms):.6f}")
open(f"{out}/corpus/values.csv", "w").write("\\n".join(rows) + "\\n")
json.dump(list(oracle_candidates()), open(f"{out}/oracle.json", "w"))

os.makedirs(f"{out}/pendant")
plain = [make_polymer(), make_polymer(bridge_b=("C", "C"), subst={5: ("Cl",)})]
chained = [make_polymer(subst={2: ("C", "C", "C")}),
           make_polymer(bridge_b=("C", "C"), subst={2: ("C", "C", "C"), 5: ("Cl",)})]
for i, text in enumerate(plain + chained):
    open(f"{out}/pendant/member-{i}.pmg", "w").write(text)
spec = forcing_spec(SMALL_CATALOG)
profiles = [decompose(parse_pmg(text), 2).profile for text in chained]
catalog = spec.fringe_catalog + tuple(sorted({c for p in profiles for c in p.fc} - set(spec.fringe_catalog)))
spec = dataclasses.replace(
    spec, fringe_catalog=catalog, n_int=(14, 17), fc={c: (0, 40) for c in catalog},
    branch_count_vertex={**spec.branch_count_vertex, "b2": (0, 1)},
    branch_height_vertex={**spec.branch_height_vertex, "b2": (0, 1)},
    **{attr: {**getattr(spec, attr), **{k: (0, 40) for p in profiles for k in getattr(p, attr)}}
       for attr in CONFIG_BOUNDS},
)
open(f"{out}/forcing-b2-branch.json", "w").write(spec.to_json())
"""


def run_python(checkout: Path, args: list[str], extra_path: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    paths = [str(checkout / "src"), *(str(checkout / p) for p in extra_path)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=False)


def polyinfer(checkout: Path, *args) -> subprocess.CompletedProcess:
    return run_python(checkout, ["-m", "polyinfer.cli", *map(str, args)])


def build_inputs(parent: Path, work: Path) -> tuple[dict[str, tuple[Path, Path]], Path]:
    """(spec file, model file) by case name, and the FOREIGN spec file.
    The inputs are built afresh into an emptied directory, so a rerun with
    the same `--work` starts from nothing an earlier run left."""
    inputs = work / INPUTS
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    proc = run_python(parent, ["-c", BUILD_INPUTS, str(inputs)], extra_path=("tests",))
    if proc.returncode != 0:
        raise SystemExit(f"building the inputs failed:\n{proc.stderr}")
    model = inputs / "model.json"
    cases = {
        "forcing": (inputs / "forcing.json", model),
        "forcing-without-cl": (inputs / "forcing.json", inputs / "model-without-cl.json"),
    }
    ib = {}
    for tag, n_lb in IB_CASES + [FOREIGN]:
        path = ib[tag, n_lb] = inputs / f"Ib-{tag}-{n_lb}.json"
        proc = polyinfer(parent, "spec-ib", "--property", tag, "--n-lb", n_lb, "--out", path)
        if proc.returncode != 0:
            raise SystemExit(f"spec-ib {tag} {n_lb} failed:\n{proc.stderr}")
    cases.update((ib[case].stem, (ib[case], model)) for case in IB_CASES)
    return cases, ib[FOREIGN]


def differences(left: Path, right: Path) -> list[str]:
    """The file names, in sorted order, that are missing on one side or
    whose bytes differ; empty when the directories hold the same files."""
    names = sorted({p.name for p in left.iterdir()} | {p.name for p in right.iterdir()})
    return [
        name for name in names
        if not ((left / name).exists() and (right / name).exists()
                and filecmp.cmp(left / name, right / name, shallow=False))
    ]


ABSENT = "absent"


def json_moves(a: dict, b: dict, prefix: str = "") -> dict[str, tuple]:
    """The key paths (`fit.kkt`) whose values differ between two JSON
    objects, as (a, b), with ABSENT for a key one side lacks; nested
    objects are followed key by key."""
    moves = {}
    for k in sorted(a.keys() | b.keys()):
        left, right = a.get(k, ABSENT), b.get(k, ABSENT)
        if isinstance(left, dict) and isinstance(right, dict):
            moves.update(json_moves(left, right, f"{prefix}{k}."))
        elif left != right:
            moves[prefix + k] = (left, right)
    return moves


def summary_moves(left: Path, right: Path) -> dict[str, tuple] | None:
    """The summary keys whose values differ, as (left, right), when two
    manifests differ only in their summary; None otherwise."""
    (*records_l, last_l), (*records_r, last_r) = (
        (d / "manifest.jsonl").read_text().splitlines() for d in (left, right)
    )
    if records_l != records_r:
        return None
    return json_moves(json.loads(last_l)["summary"], json.loads(last_r)["summary"]) or None


def infer_windows(parent: Path, model: Path, members: list[Path]) -> list[tuple[str, str]]:
    """(lo, hi) as text: +-0.02, then +-1e-4, then +-1e-6 around each
    member's prediction, then one window beyond b + sum|w| above and one
    below, computed with PARENT's code."""
    proc = run_python(parent, ["-c", INFER_WINDOWS, str(model), *map(str, members)])
    if proc.returncode != 0:
        raise SystemExit(f"computing the infer windows failed:\n{proc.stderr}")
    return [tuple(line.split()) for line in proc.stdout.splitlines()]


def compare_infer(sides: dict[str, Path], work: Path) -> bool:
    graphs = sorted((work / INPUTS / "corpus" / "graphs").glob("*.pmg"))
    members = graphs[::max(len(graphs) // INFER_MEMBERS, 1)][:INFER_MEMBERS]
    models = [out_name for command, _, _, out_name in TRAIN_RUNS if command == "train"]
    same = True
    for out_name in models:
        model = work / "parent" / "train" / out_name
        if not model.exists():
            print(f"infer {out_name}: no model file from the train stage")
            return False
        for i, (lo, hi) in enumerate(infer_windows(sides["parent"], model, members)):
            name = f"infer {out_name} window {i} [{lo}, {hi}]"
            outs = {side: work / side / "infer" / f"{model.stem}-{i}" for side in sides}
            codes = {}
            for side, checkout in sides.items():
                shutil.rmtree(outs[side], ignore_errors=True)
                outs[side].mkdir(parents=True)
                common = ("infer", "--model", model, f"--window={lo},{hi}")
                codes[side] = (
                    polyinfer(checkout, *common, "--emit-lp", outs[side] / "model.lp",
                              "--out", outs[side] / "solution.json").returncode,
                    polyinfer(checkout, *common, "--out", outs[side] / "solution-no-lp.json").returncode,
                )
            if codes["parent"] != codes["change"]:
                print(f"{name}: exit {codes['parent']} -> {codes['change']} (with, without --emit-lp)")
                same = False
                continue
            differing = differences(*outs.values())
            if differing:
                print(f"{name}: exit {codes['parent'][0]} on both; differs first at {differing[0]}")
                same = False
            else:
                nodes = json.loads((outs["parent"] / "solution.json").read_text())["nodes"]
                print(f"{name}: exit {codes['parent'][0]}, {nodes} nodes, solution.json, "
                      "solution-no-lp.json and model.lp identical")
    return same


def compare_case(name: str, spec: Path, model: Path, foreign: Path, sides: dict[str, Path], work: Path) -> bool:
    out_dirs = {side: work / side / name for side in sides}
    for side, checkout in sides.items():
        shutil.rmtree(out_dirs[side], ignore_errors=True)
        proc = polyinfer(checkout, "generate", "--model", model, "--spec", spec, OPEN_WINDOW,
                         "--out-dir", out_dirs[side])
        if proc.returncode != 0:
            print(f"{name}: generate failed in {side}:\n{proc.stderr}")
            return False
    differing = differences(*out_dirs.values())
    moved = summary_moves(*out_dirs.values()) if differing == ["manifest.jsonl"] else None
    if differing and not moved:
        print(f"{name}: generate output differs first at {differing[0]}")
        return False
    graphs = sorted(p.name for p in out_dirs["parent"].glob("*.pmg"))
    if moved:
        print(f"{name}: generate identical ({len(graphs)} graphs and their manifest records); "
              "summary differs: " + ", ".join(f"{k} {a} -> {b}" for k, (a, b) in moved.items()))
    else:
        print(f"{name}: generate identical ({len(graphs)} graphs and manifest.jsonl)")
    if not graphs:
        return not moved
    # the same file names on both sides, so the printed paths match
    files = [out_dirs["parent"] / g for g in graphs]
    same = compare_reports(name, spec, model, files, sides)
    same = same and compare_reports(f"{name} against {foreign.stem}", foreign, model, files, sides)
    return same and not moved


def compare_reports(name: str, spec: Path, model: Path, files: list[Path], sides: dict[str, Path]) -> bool:
    """Compare the stdout of `verify` over every file and of `check
    --verbose` on up to CHECKED_FILES of them, under `spec`."""
    verify = {
        side: polyinfer(checkout, "verify", "--model", model, "--spec", spec, OPEN_WINDOW, *files).stdout
        for side, checkout in sides.items()
    }
    if verify["parent"] != verify["change"]:
        print(f"{name}: verify stdout differs")
        return False
    passed = sum(line.endswith(": PASS") for line in verify["parent"].splitlines())
    print(f"{name}: verify stdout identical ({passed} of {len(files)} graphs pass)")

    sample = files[::max(len(files) // CHECKED_FILES, 1)][:CHECKED_FILES]
    for path in sample:
        check = {
            side: polyinfer(checkout, "check", "--verbose", "--spec", spec, "--graph", path).stdout
            for side, checkout in sides.items()
        }
        if check["parent"] != check["change"]:
            print(f"{name}: check --verbose output differs on {path.name}")
            return False
    print(f"{name}: check --verbose identical on {len(sample)} graphs")
    return True


def compare_pendant(sides: dict[str, Path], work: Path) -> bool:
    """`verify` and `check --verbose` on the members with and without a
    pendant tree, under the forcing spec that admits one at b2."""
    inputs = work / INPUTS
    files = sorted((inputs / "pendant").glob("*.pmg"))
    return compare_reports("pendant", inputs / "forcing-b2-branch.json", inputs / "model.json", files, sides)


def compare_featurize(sides: dict[str, Path], work: Path) -> bool:
    corpus = work / INPUTS / "corpus"
    same = True
    for rho in FEATURIZE_RHOS:
        out_dirs = {side: work / side / f"featurize-rho{rho}" for side in sides}
        for side, checkout in sides.items():
            shutil.rmtree(out_dirs[side], ignore_errors=True)
            proc = polyinfer(checkout, "featurize", "--graphs", corpus / "graphs",
                             "--values", corpus / "values.csv", "--rho", rho,
                             "--out-registry", out_dirs[side] / "registry.json",
                             "--out-matrix", out_dirs[side] / "matrix.csv")
            if proc.returncode != 0:
                print(f"featurize rho={rho}: failed in {side}:\n{proc.stderr}")
                return False
        differing = differences(*out_dirs.values())
        if differing:
            print(f"featurize rho={rho}: output differs first at {differing[0]}")
            same = False
        else:
            print(f"featurize rho={rho}: registry.json and matrix.csv identical")
    return same


def compare_signatures(sides: dict[str, Path], work: Path) -> bool:
    lines = {}
    for side, checkout in sides.items():
        proc = run_python(checkout, ["-c", SIGNATURES, str(work / INPUTS), *map(str, SIGNATURE_RHOS)])
        if proc.returncode != 0:
            print(f"signatures: failed in {side}:\n{proc.stderr}")
            return False
        lines[side] = proc.stdout.splitlines()
    parent, change = lines["parent"], lines["change"]
    if len(parent) != len(change):
        print(f"signatures: {len(parent)} lines -> {len(change)}")
        return False
    differing = [i for i, (a, b) in enumerate(zip(parent, change)) if a != b]
    if differing:
        name, rho, _ = parent[differing[0]].split(" ", 2)
        print(f"signatures: {len(differing)} of {len(parent)} lines differ, first {name} at rho {rho}")
        return False
    print(f"signatures: {len(parent)} lines (graphs x rho {SIGNATURE_RHOS}) identical")
    return True


def compare_train(sides: dict[str, Path], work: Path) -> bool:
    corpus = work / INPUTS / "corpus"
    same = True
    for command, options, out_flag, out_name in TRAIN_RUNS:
        name = " ".join((command, *options))
        outs = {side: work / side / "train" / out_name for side in sides}
        for side, checkout in sides.items():
            outs[side].unlink(missing_ok=True)
            proc = polyinfer(checkout, command, "--graphs", corpus / "graphs",
                             "--values", corpus / "values.csv", *options, out_flag, outs[side])
            if proc.returncode != 0:
                print(f"{name}: failed in {side}:\n{proc.stderr}")
                return False
        if outs["parent"].read_bytes() == outs["change"].read_bytes():
            print(f"{name}: {out_name} identical")
        else:
            moved = json_moves(*(json.loads(outs[side].read_text()) for side in ("parent", "change")))
            print(f"{name}: {out_name} differs: "
                  + (", ".join(f"{k}: {a} -> {b}" for k, (a, b) in moved.items()) or "same values, other bytes"))
            same = False
    return same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--work", type=Path, help="directory for inputs and outputs")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        work = (args.work or Path(tmp)).resolve()
        work.mkdir(parents=True, exist_ok=True)
        cases, foreign = build_inputs(sides["parent"], work)
        same = [compare_featurize(sides, work), compare_train(sides, work), compare_infer(sides, work),
                compare_signatures(sides, work), compare_pendant(sides, work)]
        same += [compare_case(name, spec, model, foreign, sides, work) for name, (spec, model) in cases.items()]
    print("identical" if all(same) else "DIFFERENT")
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
