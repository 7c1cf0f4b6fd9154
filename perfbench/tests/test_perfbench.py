"""Tests of the benchmark itself: span arithmetic, input determinism,
binding restoration and a reduced-size run of every workload."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import clock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_hand_built_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 4.0, 0, "r"),
        Span(2, "a1", 2.0, 3.0, 1, "r"),
        Span(3, "b", 5.0, 7.0, 0, "r"),
        Span(4, "b", 5.5, 6.5, 3, "r"),  # nested under a span of its own name
        Span(5, "c", 7.0, 9.0, 0, "r"),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 2.0}
    agg = tracing.aggregate(spans)
    assert agg["b"].calls == 2
    assert agg["b"].s == 2.0  # the inner b lies inside the outer one
    assert agg["b"].self_s == 2.0
    assert agg["b"].max_s == 2.0
    assert agg["root"].s == 10.0 and agg["root"].self_s == 3.0


def test_tracer_parents_and_out_of_order_close():
    tracer = tracing.Tracer()
    with tracer.recording("op"):
        outer = tracer.open("outer")
        gen = tracer.open("gen")  # a generator span left open by its consumer
        inner = tracer.open("inner")
        tracer.close(inner)
        tracer.close(outer)
        tracer.close(gen)
    assert [s.parent for s in tracer.spans] == [None, outer.id, gen.id]
    assert {s.run for s in tracer.spans} == {"op"}
    assert not tracer._stack


def test_instrument_restores_every_binding():
    from polyinfer import cli, generate, model, topospec

    before = {
        (mod.__name__, name): obj
        for mod in (cli, generate, topospec)
        for name, obj in vars(mod).items()
        if callable(obj)
    }
    predict = model.ModelBundle.predict_graph
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, {}):
        assert generate.check_satisfies is not before[("polyinfer.generate", "check_satisfies")]
        assert topospec.decompose is not before[("polyinfer.topospec", "decompose")]
        assert cli.solve is not before[("polyinfer.cli", "solve")]
        assert model.ModelBundle.predict_graph is not predict
    after = {
        (mod.__name__, name): obj
        for mod in (cli, generate, topospec)
        for name, obj in vars(mod).items()
        if callable(obj)
    }
    assert after == before
    assert model.ModelBundle.predict_graph is predict


def test_scaled_clock_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    c = clock.Clock()
    with c.region() as region:
        time.sleep(0.05)
        busy = time.perf_counter() + 0.05
        while time.perf_counter() < busy:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.09 < region.wall < 0.5
    assert region.seconds > 0 and region.seconds != region.wall
    plain = clock.Clock(scaled=False)
    with plain.region() as region:
        time.sleep(0.01)
    assert region.seconds == region.wall >= 0.01


def test_failure_families():
    assert workloads.failure_family("n_int: 17 outside [14,16]") == "n_int"
    assert workloads.failure_family("ec_int[(C2,C3,1)]: 2 outside [0,1]") == "ec_int"
    assert workloads.failure_family("ec_int configs declared") == "ec_int-declared"
    assert workloads.failure_family("fringe trees in catalog") == "catalog"
    assert workloads.failure_family("witness: no embedding") == "witness"


def _tree_bytes(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_are_deterministic_per_seed(tmp_path, name):
    sizes = workloads.SMOKE_SIZES[name]
    a = workloads.make_setup(name, 5, tmp_path / "a", sizes)
    b = workloads.make_setup(name, 5, tmp_path / "b", sizes)
    c = workloads.make_setup(name, 6, tmp_path / "c", sizes)
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert a.members == b.members and a.oracle == b.oracle
    assert c.specs.keys() == a.specs.keys()
    if sizes.feasible_windows:
        assert a.members != c.members


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(tmp_path, name, trace):
    result = run.run(name, 3, 0.1, trace, tmp_path, smoke=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())


def test_benchmark_json_names_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
