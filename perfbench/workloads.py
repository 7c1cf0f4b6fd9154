"""The benchmark's workloads.

Every workload runs the whole pipeline once per pass: penalty selection,
`polyinfer train`, `polyinfer infer`, generation and `polyinfer verify`.
The workloads differ in which stage carries the weight:

* design      - Lasso selection and fit, and exact MILP inversion;
* gen-exhaust - generation to exhaustion of a closed space (emission-heavy);
* gen-ib      - generation on instance Ib until k distinct graphs
                (rejection-heavy).

An operation is one CLI command, one `select_lambda` call or one per-tag
generation.  It fails on an unexpected exit code, an exception, or a
correctness check; checks run after its timed region closes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import re
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import inputs
from clock import Clock, Region

STAGES = ("select", "train", "infer", "generate", "verify")
KKT_BOUND = 1e-5  # largest stationarity violation accepted from any Lasso fit
MAX_STAGE_REPS = 50
OPEN_WINDOW = (-1e9, 1e9)  # admits every prediction


@dataclass(frozen=True)
class Sizes:
    corpus: int  # two-ring graphs drawn for the fixed training corpus
    select_min_lambda: float  # grid values of lambda_grid() at or above this
    select_folds: int
    train_lambda: float
    feasible_windows: int  # +-0.02 around the prediction of a corpus member
    infeasible_windows: int  # beyond b + sum|w|, must exit 3
    space_a2: int  # forcing space: longest a2 bridge
    space_cl: tuple[int, ...]  # forcing space: ring positions that may carry Cl
    ib_k: dict = field(default_factory=dict)  # gen-ib: tag -> distinct graphs wanted
    ib_cap: int = 20_000  # gen-ib: candidates after which a tag fails


ALL_CL = tuple(inputs.FREE_POSITIONS)
IB_K = {"AmD": 15, "HcL": 15, "Tg": 15, "Prm": 15, "RfId": 4}

SIZES = {
    "design": Sizes(60, 1e-4, 5, 1e-5, 6, 2, 3, (2, 3, 8, 9)),
    "gen-exhaust": Sizes(25, 1e-3, 5, 1e-4, 0, 2, 3, ALL_CL),
    "gen-ib": Sizes(60, 1e-3, 5, 1e-4, 0, 2, 3, (), IB_K),
}

# Reduced sizes for the benchmark's own tests: same code paths, seconds.
SMOKE_SIZES = {
    "design": Sizes(20, 1e-1, 3, 1e-3, 1, 1, 2, (2, 3)),
    "gen-exhaust": Sizes(12, 1e-1, 3, 1e-3, 0, 1, 2, (2, 3)),
    "gen-ib": Sizes(20, 1e-1, 3, 1e-3, 0, 1, 2, (), {"AmD": 1, "RfId": 1}),
}

# Training corpora and the cross-validation partition are fixed, because
# Lasso's cost swings two- to threefold between random corpora of this
# family and by a third between partitions of one corpus.  The run seed
# draws the inverse-design targets.
CV_SEED = 0  # the default of `polyinfer train --seed`
DESIGN_CORPUS_SEED = 101  # the desk-scale end-to-end corpus
FORCING_CORPUS_SEED = 3  # the forcing-space corpus
DESIGN_HOLDOUT = inputs.make_polymer(bridge_a=("O",), bridge_b=("C", "C"))


def training_corpus(name: str, size: int) -> list[tuple[str, str]]:
    if name == "gen-exhaust":
        corpus = inputs.synthetic_corpus(random.Random(FORCING_CORPUS_SEED), size)
        return corpus + [("cl1", inputs.make_polymer(subst={2: ("Cl",)}))]
    drawn = inputs.synthetic_corpus(random.Random(DESIGN_CORPUS_SEED), size + 10)
    return [(rid, text) for rid, text in drawn if text != DESIGN_HOLDOUT][:size]


# ---------------------------------------------------------------------------
# Operation accounting


class Ops:
    """Times one pass's operations and counts the ones that fail.

    Each repetition of a stage is one cycle: the list of the timed regions
    it ran.  The tracer, when there is one, records only inside timed
    regions, so correctness checks never show up in per-layer metrics.
    """

    def __init__(self, clock: Clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.cycles: dict[str, list[list[Region]]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self._errors: list[str] = []
        self._label = ""

    @contextlib.contextmanager
    def op(self, label: str):
        """One operation; an exception inside it marks it failed."""
        self.attempted += 1
        self._errors, self._label = [], label
        try:
            yield self
        except Exception:
            self._errors.append(traceback.format_exc(limit=4))
        if self._errors:
            self.failed += 1
            for err in self._errors:
                print(f"FAILED {label}: {err}", file=sys.stderr)

    @contextlib.contextmanager
    def timed(self, stage: str):
        """A timed region of the current cycle of `stage`."""
        recording = self.tracer.recording(self._label) if self.tracer else contextlib.nullcontext()
        with recording, self.clock.region() as region:
            self.cycles[stage][-1].append(region)
            yield

    def require(self, ok: bool, what: str) -> bool:
        if not ok:
            self._errors.append(what)
        return ok

    def cycle_seconds(self, stage: str) -> list[float]:
        return [sum(r.seconds for r in cycle) for cycle in self.cycles[stage]]

    def total_seconds(self) -> float:
        return sum(sum(self.cycle_seconds(stage)) for stage in self.cycles)


@dataclass
class Capture:
    """Return values captured at the program's bindings.

    Lasso fits are captured in every run, for the KKT check; the rest only
    in a traced run, for per-layer counts.
    """

    fits: list = field(default_factory=list)  # (X, y, lam, penalize_bias, hyperplane)
    select: list = field(default_factory=list)  # (lambda, {lambda: CvReport})
    outcomes: list = field(default_factory=list)  # GenerationOutcome
    counts: defaultdict = field(default_factory=lambda: defaultdict(int))
    kkt_max: float = 0.0

    def observers(self) -> dict:
        def lasso(args, kwargs, h):
            X, y, lam = args[:3]
            self.fits.append((X, y, lam, kwargs.get("penalize_bias", True), h))

        def solve(args, kwargs, sol):
            self.counts["solve.nodes"] += sol.nodes

        def check(args, kwargs, report):
            if report.passed:
                self.counts["check.passed"] += 1
                return
            for family in {failure_family(f) for f in report.failures()}:
                self.counts[f"rejected_by.{family}"] += 1

        return {
            "regress.lasso_fit": Observer(lasso, always=True),
            "milp.solve": Observer(solve),
            "topospec.check_satisfies": Observer(check),
            "generate.run_generation": Observer(lambda a, k, outcome: self.outcomes.append(outcome)),
        }

    def check_new_fits(self, since: int) -> float:
        """Largest KKT violation among the fits captured since `since`;
        the checked fits are dropped so that memory stays flat."""
        from polyinfer.regress import kkt_violation

        worst = max(
            (kkt_violation(X, y, h, lam, pb) for X, y, lam, pb, h in self.fits[since:]),
            default=0.0,
        )
        del self.fits[since:]
        self.kkt_max = max(self.kkt_max, worst)
        return worst


@dataclass
class Observer:
    fn: object
    always: bool = False

    def __call__(self, args, kwargs, result):
        self.fn(args, kwargs, result)


BOUND_FAMILIES = (
    "n", "n_int", "n_lnk", "na", "na_int", "ns_int", "ns_cnt",
    "ec_int", "ec_lnk", "ac_int", "ac_lnk", "ac_lf", "fc",
)
MEMBERSHIP_FAMILIES = {
    "elements within alphabet": "alphabet",
    "interior symbols declared": "ns_int-declared",
    **{f"{k} configs declared": f"{k}-declared" for k in ("ec_int", "ec_lnk", "ac_int", "ac_lnk", "ac_lf")},
    "fringe trees in catalog": "catalog",
}
FAMILIES = BOUND_FAMILIES + tuple(MEMBERSHIP_FAMILIES.values()) + ("witness", "other")


def failure_family(failure: str) -> str:
    """Family of one `SpecReport.failures()` entry."""
    if failure in MEMBERSHIP_FAMILIES:
        return MEMBERSHIP_FAMILIES[failure]
    if failure.startswith("witness:"):
        return "witness"
    head = re.split(r"[\[:]", failure, maxsplit=1)[0]
    return head if head in BOUND_FAMILIES else "other"


def _cli(argv: list[str]) -> int:
    from polyinfer import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _window_arg(lo: float, hi: float) -> str:
    return f"--window={lo!r},{hi!r}"


# ---------------------------------------------------------------------------
# Set-up


@dataclass
class Setup:
    sizes: Sizes
    graphs: Path
    values: Path
    members: list[str]  # corpus texts whose predictions centre the feasible windows
    specs: dict[str, Path]  # tag -> spec JSON
    oracle: frozenset[str] = frozenset()  # sha256 of the signatures of the closed space


def make_setup(name: str, seed: int, directory: Path, sizes: Sizes) -> Setup:
    """Write the inputs and build the oracle of any closed space."""
    from polyinfer.topospec import build_instance_Ib

    directory.mkdir(parents=True, exist_ok=True)
    corpus = training_corpus(name, sizes.corpus)
    if name == "gen-exhaust":
        graphs, values = inputs.write_corpus(directory, corpus, inputs.forcing_value, ".17g")
    else:
        graphs, values = inputs.write_corpus(directory, corpus, inputs.design_value, ".8f")
    members = [text for _, text in random.Random(seed).sample(corpus, sizes.feasible_windows)]

    specs: dict[str, Path] = {}
    oracle: frozenset[str] = frozenset()
    if sizes.ib_k:
        for tag in sizes.ib_k:
            specs[tag] = directory / f"spec-{tag}.json"
            specs[tag].write_text(build_instance_Ib(tag, 14).to_json())
    else:
        spec = inputs.forcing_spec(a2_max_len=sizes.space_a2, cl_positions=sizes.space_cl)
        specs["space"] = directory / "spec-space.json"
        specs["space"].write_text(spec.to_json())
        oracle = closed_space_oracle(graphs, values, sizes)
    return Setup(sizes, graphs, values, members, specs, oracle)


def closed_space_oracle(graphs: Path, values: Path, sizes: Sizes) -> frozenset[str]:
    """Signatures of every in-vocabulary member of the forcing space, built
    from the enumerator, not the generator.  With an open window these are
    exactly the graphs generation must emit."""
    from polyinfer.chemgraph import parse_pmg
    from polyinfer.features import build_registry, featurize, load_dataset
    from polyinfer.generate import canonical_signature

    dataset, _ = load_dataset(graphs, values)
    registry = build_registry(dataset, 2)
    in_vocabulary: dict[str, bool] = {}  # vocabulary is an isomorphism invariant
    for text in inputs.oracle_candidates(sizes.space_cl, sizes.space_a2):
        g = parse_pmg(text)
        sig = canonical_signature(g, 2)
        if sig not in in_vocabulary:
            in_vocabulary[sig] = not featurize(g, registry).oov
    return frozenset(_sha(sig) for sig, ok in in_vocabulary.items() if ok)


# ---------------------------------------------------------------------------
# Stages


def stage_select(ops: Ops, cap: Capture, s: Setup) -> None:
    from polyinfer import features, regress

    grid = [lam for lam in regress.lambda_grid() if lam >= s.sizes.select_min_lambda]
    first_fit = len(cap.fits)
    with ops.op("select"):
        with ops.timed("select"):
            dataset, _ = features.load_dataset(s.graphs, s.values)
            registry = features.build_registry(dataset, 2)
            _, Xs, ys = features.standardize(dataset, registry)
            chosen, reports = regress.select_lambda(
                Xs, ys, grid=grid, runs=1, folds=s.sizes.select_folds, seed=CV_SEED
            )
        cap.select.append((chosen, reports))
        ops.require(len(cap.fits) - first_fit == len(grid) * s.sizes.select_folds, "fit count")
        kkt = cap.check_new_fits(first_fit)
        ops.require(kkt < KKT_BOUND, f"select: KKT violation {kkt:.3g} >= {KKT_BOUND:g}")


def stage_train(ops: Ops, cap: Capture, s: Setup, model: Path) -> None:
    first_fit = len(cap.fits)
    with ops.op("train"):
        with ops.timed("train"):
            rc = _cli([
                "train", "--graphs", str(s.graphs), "--values", str(s.values),
                "--lambda", repr(s.sizes.train_lambda), "--out-model", str(model),
            ])
        ops.require(rc == 0, f"train exit {rc}")
        kkt = cap.check_new_fits(first_fit)
        ops.require(kkt < KKT_BOUND, f"train: KKT violation {kkt:.3g} >= {KKT_BOUND:g}")


def infer_windows(s: Setup, model: Path) -> list[tuple[float, float, bool]]:
    """(lo, hi, feasible): windows around members' predictions, which the
    member's own descriptor vector witnesses, and windows beyond b + sum|w|."""
    from polyinfer.chemgraph import parse_pmg
    from polyinfer.model import ModelBundle

    bundle = ModelBundle.from_json(model.read_text())
    windows = []
    for text in s.members:
        pred, _ = bundle.predict_graph(parse_pmg(text))
        windows.append((pred - 0.02, pred + 0.02, True))
    h, std = bundle.hyperplane, bundle.standardizer
    reach = float(sum(abs(h.w))) * 1.001 + 0.05
    for i in range(s.sizes.infeasible_windows):
        side = 1 if i % 2 == 0 else -1
        lo_std, hi_std = sorted((h.b + side * reach, h.b + side * (reach + 0.05)))
        windows.append((std.inverse_value(lo_std), std.inverse_value(hi_std), False))
    return windows


def check_inference(ops: Ops, model: Path, out: Path, window: tuple[float, float]) -> None:
    """Integer counts inside the data box, prediction inside the window
    widened by epsilon * sum|w| (standardized units)."""
    from polyinfer.model import ModelBundle

    bundle = ModelBundle.from_json(model.read_text())
    payload = json.loads(out.read_text())
    if not ops.require(payload.get("status") == "feasible", f"status {payload.get('status')}"):
        return
    x = payload["x"]
    reg, std = bundle.registry, bundle.standardizer
    ints = set(reg.integer_indices())
    for j, value in enumerate(x):
        if j in ints and not ops.require(Fraction(value).denominator == 1, f"x[{j}]={value} not integer"):
            return
        if not ops.require(std.feature_min[j] <= value <= std.feature_max[j], f"x[{j}]={value} outside data box"):
            return
    slack = payload["epsilon"] * float(sum(abs(bundle.hyperplane.w)))
    y = payload["predicted_standardized"]
    lo, hi = std.transform_value(window[0]), std.transform_value(window[1])
    ops.require(lo - slack <= y <= hi + slack, f"prediction {y} outside [{lo}, {hi}] +- {slack}")


def infer_one(ops: Ops, model: Path, window_of, out: Path, label: str) -> None:
    """One `polyinfer infer`; `window_of()` gives (lo, hi, feasible)."""
    with ops.op(label):
        lo, hi, feasible = window_of()
        with ops.timed("infer"):
            rc = _cli(["infer", "--model", str(model), _window_arg(lo, hi),
                       "--emit-lp", str(out.with_suffix(".lp")), "--out", str(out)])
        if feasible:
            if ops.require(rc == 0, f"infer exit {rc}, expected 0"):
                check_inference(ops, model, out, (lo, hi))
        else:
            ops.require(rc == 3, f"infer exit {rc}, expected 3 (infeasible)")


def stage_generate_space(ops: Ops, s: Setup, model: Path, out_dir: Path) -> list[str]:
    """`polyinfer generate` to exhaustion; the output must equal the oracle."""
    files: list[str] = []
    with ops.op("generate"):
        with ops.timed("generate"):
            rc = _cli(["generate", "--model", str(model), "--spec", str(s.specs["space"]),
                       _window_arg(*OPEN_WINDOW), "--out-dir", str(out_dir)])
        if ops.require(rc == 0, f"generate exit {rc}"):
            manifest = [json.loads(line) for line in (out_dir / "manifest.jsonl").read_text().splitlines()]
            emitted = [m for m in manifest if "file" in m]
            files = [str(out_dir / m["file"]) for m in emitted]
            ops.require(manifest[-1]["summary"]["status"] == "exhausted", "generation not exhausted")
            got = {m["signature_sha"] for m in emitted}
            ops.require(
                got == s.oracle and len(got) == len(emitted),
                f"emitted {len(emitted)} ({len(got)} distinct), oracle {len(s.oracle)}, "
                f"missing {len(s.oracle - got)}, extra {len(got - s.oracle)}",
            )
    return files


def generate_ib_tag(ops: Ops, cap: Capture, s: Setup, model: Path, tag: str, out_dir: Path) -> list[str]:
    """Drive the generator on one tag until its k-th distinct graph."""
    from polyinfer import generate
    from polyinfer.chemgraph import serialize_pmg
    from polyinfer.model import ModelBundle
    from polyinfer.topospec import TopologicalSpec

    k = s.sizes.ib_k[tag]
    outcome = generate.GenerationOutcome()
    results = []
    files: list[str] = []
    with ops.op(f"generate-{tag}"):
        bundle = ModelBundle.from_json(model.read_text())
        spec = TopologicalSpec.from_json(s.specs[tag].read_text())
        with ops.timed("generate"):
            stream = generate.iter_generate(
                spec, bundle, OPEN_WINDOW, outcome, limit_candidates=s.sizes.ib_cap
            )
            try:
                for result in stream:
                    results.append(result)
                    if len(results) == k:
                        break
            finally:
                stream.close()
        cap.outcomes.append(outcome)
        distinct = {r.signature for r in results}
        ops.require(
            len(distinct) == k,
            f"{tag}: {len(distinct)} distinct graphs of {k} after "
            f"{outcome.candidates_examined} candidates ({outcome.status})",
        )
        tag_dir = out_dir / tag
        tag_dir.mkdir(parents=True, exist_ok=True)
        for i, r in enumerate(results):
            path = tag_dir / f"gen{i:04d}.pmg"
            path.write_text(serialize_pmg(r.graph))
            files.append(str(path))
    return files


def stage_verify(ops: Ops, model: Path, spec: Path, files: list[str], label: str) -> None:
    if not files:
        with ops.op(label):
            ops.require(False, "nothing to verify")
        return
    with ops.op(label):
        with ops.timed("verify"):
            rc = _cli(["verify", "--model", str(model), "--spec", str(spec),
                       _window_arg(*OPEN_WINDOW), *files])
        ops.require(rc == 0, f"verify exit {rc}")


def run_pass(ops: Ops, cap: Capture, s: Setup, work: Path, min_stage_s: float = 0.0) -> None:
    """One pass: the five stages in pipeline order.

    A stage repeats until its cycles have taken `min_stage_s`, at most
    MAX_STAGE_REPS times, and stops repeating once a cycle times nothing."""
    work.mkdir(parents=True, exist_ok=True)
    model = work / "model.json"
    windows = functools.cache(lambda: infer_windows(s, model))
    generated: dict[str, list[str]] = {}  # spec key -> emitted files

    def infer() -> None:
        for i in range(s.sizes.feasible_windows + s.sizes.infeasible_windows):
            infer_one(ops, model, lambda: windows()[i], work / f"infer{i}.json", f"infer{i}")

    def generate() -> None:
        if s.sizes.ib_k:
            for tag in s.sizes.ib_k:
                generated[tag] = generate_ib_tag(ops, cap, s, model, tag, work / "generated")
        else:
            generated["space"] = stage_generate_space(ops, s, model, work / "generated")

    def verify() -> None:
        for key, files in generated.items():
            stage_verify(ops, model, s.specs[key], files, f"verify-{key}")

    stages = {
        "select": lambda: stage_select(ops, cap, s),
        "train": lambda: stage_train(ops, cap, s, model),
        "infer": infer,
        "generate": generate,
        "verify": verify,
    }
    for name in STAGES:
        cycles = ops.cycles[name]
        while True:
            cycles.append([])
            stages[name]()
            spent = sum(r.wall for cycle in cycles for r in cycle)
            if not cycles[-1] or spent >= min_stage_s or len(cycles) >= MAX_STAGE_REPS:
                break
