"""Spans around polyinfer's layer entry points, recorded from outside the
program.

`instrument` rebinds each target function at every module attribute that
holds it (the binding its caller looks up at call time), so the program
itself is unchanged.  Spans carry a name, start, end, parent and run id,
stay in memory and are written out once the run ends.  Recording happens
only while the tracer is enabled, which the benchmark limits to its timed
regions; every binding is restored when `instrument` exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("chemgraph", "twolayer", "features", "regress", "milp", "topospec", "generate", "model", "cli")

# (module, attribute): the layer entry points that get a span.  Helpers
# called many times per candidate are left out so that tracing stays cheap.
TARGETS = (
    ("chemgraph", "parse_pmg"),
    ("chemgraph", "serialize_pmg"),
    ("chemgraph", "is_circular_set"),
    ("twolayer", "decompose"),
    ("features", "load_dataset"),
    ("features", "build_registry"),
    ("features", "feature_matrix"),
    ("features", "standardize"),
    ("features", "featurize"),
    ("regress", "lasso_fit"),
    ("regress", "cross_validate"),
    ("regress", "select_lambda"),
    ("milp", "build_inverse_milp"),
    ("milp", "solve"),
    ("milp", "verify_assignment"),
    ("milp", "emit_lp"),
    ("topospec", "build_instance_Ib"),
    ("topospec", "check_satisfies"),
    ("topospec", "find_expansion_witness"),
    ("generate", "iter_generate"),
    ("generate", "run_generation"),
    ("generate", "canonical_signature"),
    ("generate", "verify_roundtrip"),
    ("model", "ModelBundle.predict_graph"),
    ("cli", "cmd_train"),
    ("cli", "cmd_infer"),
    ("cli", "cmd_generate"),
    ("cli", "cmd_verify"),
)

OBSERVE_SPAN = "trace.observe"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    run: str


@dataclass
class Tracer:
    """In-memory span recorder; a stack gives each span its parent."""

    spans: list[Span] = field(default_factory=list)
    enabled: bool = False
    run: str = ""
    _stack: list[Span] = field(default_factory=list)

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, perf_counter(), None, parent, self.run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        # a generator's span can close out of order when its consumer stops
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            self._stack.remove(span)

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    @contextmanager
    def recording(self, run: str):
        """Record spans under run id `run` for the duration of the block."""
        self.enabled, self.run = True, run
        try:
            yield
        finally:
            self.enabled = False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "run": s.run}
                ) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0  # inclusive time, nested same-name spans counted once
    self_s: float = 0.0
    max_s: float = 0.0


def aggregate(spans: list[Span]) -> dict[str, LayerStats]:
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    for s in spans:
        st = stats[s.name]
        duration = s.end - s.start
        st.calls += 1
        st.self_s += own[s.id]
        st.max_s = max(st.max_s, duration)
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            st.s += duration
    return stats


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _wrap(fn, name: str, tracer: Tracer, observe):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            if not tracer.enabled:
                return (yield from fn(*args, **kwargs))
            span = tracer.open(name)
            try:
                return (yield from fn(*args, **kwargs))
            finally:
                tracer.close(span)

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            result = fn(*args, **kwargs)
            if observe is not None and observe.always:
                observe(args, kwargs, result)
            return result
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if observe is not None:
            with tracer.span(OBSERVE_SPAN):
                observe(args, kwargs, result)
        return result

    return traced


def _resolve(module, attr: str):
    owner = module
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


@contextmanager
def instrument(tracer: Tracer | None, observers: dict):
    """Wrap the entry points, or with no tracer only the observed ones.

    `observers` maps a span name to a callable `(args, kwargs, result)`
    run after the call; one with `always` set also runs while tracing is
    off.  Every rebinding is undone on exit.
    """
    modules = {m: importlib.import_module(f"polyinfer.{m}") for m in LAYERS}
    quiet = tracer or Tracer()
    replaced: list[tuple[object, str, object]] = []
    try:
        for module, attr in TARGETS:
            name = _span_name(module, attr)
            observe = observers.get(name)
            if tracer is None and not (observe is not None and observe.always):
                continue
            owner, last = _resolve(modules[module], attr)
            original = getattr(owner, last)
            wrapped = _wrap(original, name, quiet, observe)
            holders = [owner] if owner is not modules[module] else list(modules.values())
            for holder in holders:
                if vars(holder).get(last) is original:
                    replaced.append((holder, last, original))
                    setattr(holder, last, wrapped)
        yield
    finally:
        for holder, last, original in reversed(replaced):
            setattr(holder, last, original)
