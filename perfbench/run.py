"""polyinfer benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with no tracing.  The
`--seconds` budget starts with the run.  Set-up runs at least
SETUP_REPEATS times and reports its median.  Whole passes of the pipeline
then run until another would overrun the budget (at least one).  Within
a pass the stages run in order, a short stage repeats until it has taken
STAGE_MIN_S, and each stage reports the median time of its repetitions.
Times are read on a `clock.Clock`, which scales them to the machine's
least contended speed during the run.  `--trace 1` runs one untraced
pass, then one pass with spans around every layer entry point, each stage
once and on plain wall time, and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Every run is
single-process with BLAS threads pinned to 1; all files go under
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3  # at least; set-up also repeats until SETUP_MIN_S has passed
SETUP_MIN_S = 1.0
STAGE_MIN_S = 3.0  # untraced runs repeat each stage until it has taken this long
MAX_SETUP_REPEATS = 50
WORKLOADS = ("design", "gen-exhaust", "gen-ib")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, cap, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    from tracing import aggregate
    from workloads import FAMILIES

    agg = aggregate(tracer.spans)

    def get(name: str, what: str) -> float:
        stats = agg.get(name)
        return getattr(stats, what) if stats else 0

    by_id = {s.id: s for s in tracer.spans}

    def in_generation(span) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != "generate.iter_generate":
            parent = by_id.get(parent.parent)
        return parent is not None

    generation_s = sum(s.end - s.start for s in tracer.spans if s.name == "generate.iter_generate")
    decompose_in_generation = sum(
        1 for s in tracer.spans if s.name == "twolayer.decompose" and in_generation(s)
    )
    outcomes = cap.outcomes
    candidates = sum(o.candidates_examined for o in outcomes)
    results = sum(len(o.results) for o in outcomes)
    checks = get("topospec.check_satisfies", "calls")
    nodes = cap.counts["solve.nodes"]
    chosen, reports = cap.select[-1] if cap.select else (0.0, {0.0: None})

    m: dict[str, tuple[float, str]] = {}
    for c in ("train", "infer", "generate", "verify"):
        m[f"cli.{c}.self_s"] = (get(f"cli.cmd_{c}", "self_s"), "s")
    for name in ("chemgraph.parse_pmg", "chemgraph.is_circular_set", "twolayer.decompose",
                 "features.featurize", "regress.lasso_fit", "milp.solve",
                 "topospec.check_satisfies", "topospec.find_expansion_witness",
                 "generate.canonical_signature", "model.predict_graph"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
    for name in ("chemgraph.parse_pmg", "chemgraph.serialize_pmg", "chemgraph.is_circular_set",
                 "twolayer.decompose", "features.load_dataset", "features.build_registry",
                 "features.featurize", "regress.lasso_fit", "milp.build_inverse_milp",
                 "milp.solve", "milp.verify_assignment", "milp.emit_lp",
                 "topospec.check_satisfies", "topospec.find_expansion_witness",
                 "generate.canonical_signature", "generate.verify_roundtrip",
                 "model.predict_graph"):
        m[f"{name}.s"] = (get(name, "s"), "s")
    m["twolayer.decompose.per_candidate"] = (_ratio(decompose_in_generation, candidates), "count")
    m["regress.lasso_fit.max_s"] = (get("regress.lasso_fit", "max_s"), "s")
    m["regress.kkt_max"] = (
        cap.kkt_max, "1"
    )
    m["regress.selected_lambda"] = (chosen, "1")
    m["regress.median_r2"] = (reports[chosen].median_r2 if reports[chosen] else 0.0, "1")
    m["milp.solve.nodes"] = (nodes, "count")
    m["milp.solve.s_per_node"] = (_ratio(get("milp.solve", "s"), nodes), "s")
    m["topospec.check_satisfies.pass_ratio"] = (_ratio(cap.counts["check.passed"], checks), "ratio")
    for family in FAMILIES:
        m[f"topospec.rejected_by.{family}"] = (cap.counts[f"rejected_by.{family}"], "count")
    m["generate.candidates"] = (candidates, "count")
    m["generate.results"] = (results, "count")
    for counter in ("rejected_spec", "rejected_window", "rejected_oov", "duplicates"):
        m[f"generate.{counter}"] = (sum(getattr(o, counter) for o in outcomes), "count")
    m["generate.useful_ratio"] = (_ratio(results, candidates), "ratio")
    m["generate.candidates_per_s"] = (_ratio(candidates, generation_s), "1/s")
    m["generate.self_s"] = (
        get("generate.run_generation", "self_s") + get("generate.iter_generate", "self_s"), "s"
    )
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.overhead_ratio"] = (_ratio(traced_s - untraced_s, untraced_s), "ratio")
    return m


def _import_program():
    """Put the checkout's src/ first on the path and import polyinfer from it."""
    src = ROOT / "src"
    if not (src / "polyinfer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polyinfer sources under {src}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import polyinfer

    if Path(polyinfer.__file__).resolve().parent != (src / "polyinfer").resolve():
        raise SystemExit(f"perfbench: polyinfer imported from {polyinfer.__file__}, not {src}")


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object.  Working files go
    under `out`/work and are removed; spans are written to `out`/traces."""
    work = out / "work" / f"{workload}-seed{seed}-{os.getpid()}"
    try:
        return _measure(workload, seed, seconds, trace, out, work, smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, seed, seconds, trace, out, work, smoke) -> dict:
    import tracing
    import workloads as wl
    from clock import Clock

    clock = Clock(scaled=not trace)
    deadline = time.perf_counter() + seconds
    sizes = (wl.SMOKE_SIZES if smoke else wl.SIZES)[workload]
    setups = []
    while len(setups) < SETUP_REPEATS or (
        sum(r.wall for r in setups) < SETUP_MIN_S and len(setups) < MAX_SETUP_REPEATS
    ):
        with clock.region() as region:
            setup = wl.make_setup(workload, seed, work / f"setup{len(setups)}", sizes)
        setups.append(region)

    min_stage_s = 0.0 if trace or smoke else STAGE_MIN_S
    cap = wl.Capture()
    passes: list[wl.Ops] = []
    with tracing.instrument(None, cap.observers()):
        while True:
            start = time.perf_counter()
            ops = wl.Ops(clock)
            wl.run_pass(ops, cap, setup, work / f"pass{len(passes)}", min_stage_s)
            passes.append(ops)
            took = time.perf_counter() - start
            if trace or time.perf_counter() + took > deadline:
                break

    metrics: dict[str, dict] = {}
    if trace:
        tracer = tracing.Tracer()
        tcap = wl.Capture()
        with tracing.instrument(tracer, tcap.observers()):
            ops = wl.Ops(clock, tracer)
            wl.run_pass(ops, tcap, setup, work / "traced")
        passes.append(ops)
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{workload}-seed{seed}.jsonl")
        untraced_s, traced_s = passes[0].total_seconds(), ops.total_seconds()
        for name, (value, unit) in layer_metrics(tracer, tcap, untraced_s, traced_s).items():
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics["setup_s"] = {"value": statistics.median(r.seconds for r in setups), "unit": "s"}
        for stage in wl.STAGES:
            cycles = [t for p in passes for t in p.cycle_seconds(stage)]
            # a stage left unrun by an earlier failure reads 0; the run is then incorrect
            metrics[f"{stage}_s"] = {"value": statistics.median(cycles) if cycles else 0.0, "unit": "s"}
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    _import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
