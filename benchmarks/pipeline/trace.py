"""Span tracing of the pipeline's layers, from the benchmark's side.

The program has no nesting spans of its own yet (ROADMAP item 5), so a
traced run wraps a fixed table of public entry points (:data:`TARGETS`)
— one span per call, named ``<layer>.<operation>`` — and rebinds the
``from … import`` aliases already-imported modules hold, restoring
everything on :meth:`Tracer.uninstall`.  Spans are kept in memory as
``(id, parent, name, start, end, pass)`` and turned into numbers only
after the run:

- a layer's *self time* is its spans' duration minus the part their
  direct children cover, so self times over one pass add up to the
  pass's wall time;
- counts are recorded at the same boundaries (packets a replay saw,
  LP solves, rules a compile emitted), so ratios are measured where
  the work happens.

Wrapped calls made while no harness stage is open — the correctness
checks, which run with the clock stopped — pass straight through and
leave no span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
import weakref
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

SETUP_PASS = -1


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    pass_index: int


NameFn = Callable[["Tracer", tuple, dict], Optional[str]]
Capture = Callable[["Tracer", tuple, dict, Any], None]


class Target(NamedTuple):
    """One wrapped entry point: ``module``'s ``qualname`` (a function or
    ``Class.method``), the span name (or a function choosing it per
    call; ``None`` means no span for this call), and an optional
    capture recording counts from the call's arguments and result."""

    module: str
    qualname: str
    name: Union[str, NameFn]
    capture: Optional[Capture] = None
    generator: bool = False


# -- per-call span names and counts ----------------------------------------


def _budget_of(args: tuple, kwargs: dict, position: int) -> Any:
    if "budget" in kwargs:
        return kwargs["budget"]
    return args[position] if len(args) > position else None


def _configs_name(tracer: "Tracer", args: tuple,
                  kwargs: dict) -> str:
    # The exact lowering is the controller's config compile; a rule
    # budget makes the same function the TCAM lowering.
    if _budget_of(args, kwargs, 2) is None:
        return "shim.config.compile"
    return "shim.budget.lower"


def _ranges_name(tracer: "Tracer", args: tuple,
                 kwargs: dict) -> Optional[str]:
    if _budget_of(args, kwargs, 1) is None:
        return None  # unbudgeted pass-through: the caller's self time
    tracer.count("shim.budget.calls")
    return "shim.budget.ranges"


def _plan_name(tracer: "Tracer", args: tuple, kwargs: dict) -> str:
    planner = args[0]
    if planner in tracer.warm_planners:
        return "core.controller.plan_warm"
    tracer.warm_planners.add(planner)
    return "core.controller.plan_cold"


def _cap_generate(tracer: "Tracer", args: tuple, kwargs: dict,
                  batch: Any) -> None:
    tracer.count("simulation.tracegen.packets", batch.num_packets)
    tracer.count("simulation.tracegen.sessions",
                 batch.sessions.num_sessions)


def _cap_pack(tracer: "Tracer", args: tuple, kwargs: dict,
              store: Any) -> None:
    tracer.count("simulation.tracestore.pack_bytes",
                 sum(entry.stat().st_size
                     for entry in store.path.iterdir()))


def _cap_replay(tracer: "Tracer", args: tuple, kwargs: dict,
                report: Any) -> None:
    tracer.count("simulation.emulation.packets", report.packets_total)
    tracer.count("simulation.emulation.chunks", args[1].num_chunks)
    tracer.count("simulation.emulation.work_units",
                 sum(report.work_units.values()))
    tracer.count("simulation.emulation.alerts", report.alerts)


def _cap_decide(tracer: "Tracer", args: tuple, kwargs: dict,
                result: Any) -> None:
    tracer.count("shim.batch.decide_calls")
    tracer.peak("shim.batch.tables", args[0].num_tables)


def _cap_update(tracer: "Tracer", args: tuple, kwargs: dict,
                result: Any) -> None:
    keys = args[1] if len(args) > 1 else kwargs["keys"]
    first = keys[0] if isinstance(keys, (tuple, list)) else keys
    tracer.count("sketch.update_keys", len(first))


def _cap_merge(tracer: "Tracer", args: tuple, kwargs: dict,
               merged: Any) -> None:
    tracer.peak("sketch.state_bytes", merged.state_bytes)


def _cap_consume(tracer: "Tracer", args: tuple, kwargs: dict,
                 result: Any) -> None:
    tracer.count("ingest.chunks")
    tracer.peak("ingest.max_resident_bytes",
                args[0].stats.max_resident_bytes)


def _cap_snapshot(tracer: "Tracer", args: tuple, kwargs: dict,
                  snapshot: Any) -> None:
    tracer.peak("ingest.max_resident_bytes",
                args[0].stats.max_resident_bytes)


def _cap_build(tracer: "Tracer", args: tuple, kwargs: dict,
               model: Any) -> None:
    tracer.peak("core.replication.variables", model.num_variables)
    tracer.peak("core.replication.constraints", model.num_constraints)


def _cap_solve(tracer: "Tracer", args: tuple, kwargs: dict,
               solution: Any) -> None:
    tracer.count("lpsolve.solves")
    tracer.count("lpsolve.solve_s", solution.solve_seconds)
    tracer.count("lpsolve.iterations", solution.iterations or 0)
    compiled = args[0].compiled
    if compiled is not None:
        tracer.peak("lpsolve.nnz", sum(
            matrix.nnz for matrix in (compiled.a_ub, compiled.a_eq)
            if matrix is not None))


def _cap_sharded(tracer: "Tracer", args: tuple, kwargs: dict,
                 outcome: Any) -> None:
    tracer.count("core.controller.sharded_rounds", args[0].last_rounds)


def _cap_configs(tracer: "Tracer", args: tuple, kwargs: dict,
                 configs: Any) -> None:
    if _budget_of(args, kwargs, 2) is not None:
        return  # the harness reads the lowering's own error report
    per_node = [config.num_rules for config in configs.values()]
    tracer.count("shim.config.rules", sum(per_node))
    tracer.peak("shim.config.max_rules_per_node",
                max(per_node, default=0))


def _cap_diff(tracer: "Tracer", args: tuple, kwargs: dict,
              deltas: Any) -> None:
    tracer.count("shim.diff.delta_rules",
                 sum(delta.num_rules for delta in deltas.values()))
    new = args[1] if len(args) > 1 else kwargs["new"]
    tracer.count("shim.diff.full_rules",
                 sum(config.num_rules for config in new.values()))


def _cap_coverage(tracer: "Tracer", args: tuple, kwargs: dict,
                  report: Any) -> None:
    tracer.count("runtime.rollout.coverage_report_calls")


def _cap_events(tracer: "Tracer", args: tuple, kwargs: dict,
                fired: Any) -> None:
    tracer.count("runtime.events.events_fired", fired)


TARGETS: Tuple[Target, ...] = (
    Target("repro.experiments.common", "setup_topology",
           "core.inputs.setup"),
    Target("repro.simulation.tracegen", "TraceGenerator.__init__",
           "simulation.tracegen.init"),
    Target("repro.simulation.tracegen", "TraceGenerator.generate_batch",
           "simulation.tracegen.generate", _cap_generate),
    Target("repro.simulation.tracestore", "TraceStore.pack",
           "simulation.tracestore.pack", _cap_pack),
    Target("repro.simulation.tracestore", "TraceStore.open",
           "simulation.tracestore.open"),
    Target("repro.simulation.tracestore", "TraceStore.verify",
           "simulation.tracestore.verify"),
    Target("repro.simulation.tracestore", "ChunkedReplay.__init__",
           "simulation.tracestore.chunk"),
    Target("repro.simulation.tracestore", "ChunkedReplay.__iter__",
           "simulation.tracestore.chunk", generator=True),
    Target("repro.simulation.emulation", "Emulation.__init__",
           "simulation.emulation.init"),
    Target("repro.simulation.emulation",
           "Emulation.run_signature_chunked",
           "simulation.emulation.replay", _cap_replay),
    Target("repro.shim.batch", "BatchShimKernel.decide",
           "shim.batch.decide", _cap_decide),
    Target("repro.sketch.countmin", "CountMinSketch.update",
           "sketch.update", _cap_update),
    Target("repro.sketch.volume", "ClassVolumeSketch.merge",
           "sketch.merge", _cap_merge),
    Target("repro.ingest.daemon", "IngestDaemon.consume",
           "ingest.consume", _cap_consume),
    Target("repro.ingest.daemon", "IngestDaemon.snapshot",
           "ingest.snapshot", _cap_snapshot),
    Target("repro.ingest.daemon", "IngestDaemon.estimated_classes",
           "ingest.estimate"),
    Target("repro.core.formulation", "Formulation.build_model",
           "core.replication.build", _cap_build),
    Target("repro.core.controller.sharded",
           "RegionalReplicationProblem.build_model",
           "core.replication.build"),
    Target("repro.core.formulation", "Formulation.resolve_traffic",
           "core.formulation.resolve"),
    Target("repro.core.controller.sharded",
           "RegionalReplicationProblem.resolve_traffic",
           "core.formulation.resolve"),
    Target("repro.lpsolve.model", "Model.solve", "lpsolve.solve",
           _cap_solve),
    Target("repro.core.controller.planner", "GlobalPlanner.plan",
           _plan_name),
    Target("repro.core.controller.sharded", "ShardedPlanner.plan",
           _plan_name, _cap_sharded),
    Target("repro.core.controller.base", "NIDSController.refresh",
           "core.controller.refresh"),
    Target("repro.core.validation", "validate_replication",
           "core.validation.validate"),
    Target("repro.shim.config", "build_replication_configs",
           _configs_name, _cap_configs),
    Target("repro.shim.budget", "budgeted_hash_ranges", _ranges_name),
    Target("repro.shim.diff", "diff_configs", "shim.diff.diff",
           _cap_diff),
    Target("repro.runtime.rollout", "coverage_report",
           "runtime.rollout.coverage_report", _cap_coverage),
    Target("repro.runtime.rollout", "RolloutDriver.start",
           "runtime.rollout.start"),
    Target("repro.runtime.daemon", "ControllerDaemon.step",
           "runtime.daemon.step"),
    Target("repro.runtime.events", "EventLoop.run_until",
           "runtime.events.run", _cap_events),
    Target("repro.runtime.agents", "NodeAgent.effective_config",
           "runtime.agents.effective_config"),
    Target("repro.runtime.scenario", "run_scenario",
           "runtime.scenario.run"),
)

#: harness stages open spans under this layer; their self time is what
#: no wrapped entry point accounts for
HARNESS_LAYER = "pipeline"

#: ``*_s`` per-layer metric -> the span names whose self time it sums
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "simulation.tracegen.generate_s": ("simulation.tracegen.init",
                                       "simulation.tracegen.generate"),
    "simulation.tracestore.pack_s": ("simulation.tracestore.pack",),
    "simulation.tracestore.open_s": ("simulation.tracestore.open",),
    "simulation.tracestore.verify_s": ("simulation.tracestore.verify",),
    "simulation.tracestore.chunk_s": ("simulation.tracestore.chunk",),
    "simulation.emulation.replay_s": ("simulation.emulation.init",
                                      "simulation.emulation.replay"),
    "shim.batch.decide_s": ("shim.batch.decide",),
    "sketch.update_s": ("sketch.update",),
    "sketch.merge_s": ("sketch.merge",),
    "ingest.consume_s": ("ingest.consume",),
    "ingest.snapshot_s": ("ingest.snapshot",),
    "ingest.estimate_s": ("ingest.estimate",),
    "core.replication.build_s": ("core.replication.build",),
    "core.formulation.resolve_s": ("core.formulation.resolve",),
    "core.controller.plan_cold_s": ("core.controller.plan_cold",),
    "core.controller.plan_warm_s": ("core.controller.plan_warm",),
    "core.controller.refresh_self_s": ("core.controller.refresh",),
    "core.validation.validate_s": ("core.validation.validate",),
    "shim.config.compile_s": ("shim.config.compile",),
    "shim.budget.lower_s": ("shim.budget.lower", "shim.budget.ranges"),
    "shim.diff.diff_s": ("shim.diff.diff",),
    "runtime.rollout.coverage_report_s":
        ("runtime.rollout.coverage_report",),
    "runtime.rollout.start_s": ("runtime.rollout.start",),
    "runtime.daemon.step_s": ("runtime.daemon.step",),
    "runtime.events.run_s": ("runtime.events.run",),
    "runtime.agents.effective_config_s":
        ("runtime.agents.effective_config",),
    "runtime.scenario.self_s": ("runtime.scenario.run",),
}


def layer_of(span_name: str) -> str:
    """``simulation.tracegen.generate`` -> ``simulation.tracegen``."""
    return span_name.rpartition(".")[0]


class Tracer:
    """In-memory span and count recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.current: Optional[int] = None
        self.pass_index = SETUP_PASS
        self.counts: Dict[Tuple[int, str], float] = {}
        self.peaks: Dict[Tuple[int, str], float] = {}
        self.warm_planners: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, start: Optional[float] = None) -> int:
        index = len(self.spans)
        self.spans.append(Span(
            index, self.current, name,
            time.perf_counter() if start is None else start,
            float("nan"), self.pass_index))
        self.current = index
        return index

    def end(self, index: int, end: Optional[float] = None) -> None:
        span = self.spans[index]
        assert span is not None
        self.spans[index] = span._replace(
            end=time.perf_counter() if end is None else end)
        self.current = span.parent

    def count(self, name: str, value: float = 1) -> None:
        key = (self.pass_index, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, name: str, value: float) -> None:
        key = (self.pass_index, name)
        if value > self.peaks.get(key, float("-inf")):
            self.peaks[key] = value

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        name, capture = target.name, target.capture
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.current is None:  # clock stopped: a check
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else \
                name(tracer, args, kwargs)
            if span_name is None:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = tracer.current
            spans.append(None)
            tracer.current = index
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = Span(index, parent, span_name, start,
                                    time.perf_counter(),
                                    tracer.pass_index)
                tracer.current = parent
            if capture is not None:
                capture(tracer, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, target: Target, fn: Callable) -> Callable:
        """One span per item the generator produces (the time spent
        inside the generator, not in its consumer)."""
        tracer = self
        assert isinstance(target.name, str)
        name = target.name

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = fn(*args, **kwargs)
            while True:
                if tracer.current is None:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                else:
                    index = tracer.begin(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(index)
                    tracer.count("simulation.tracestore.chunks")
                yield item

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrappers in place for the block, all removed after it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
            yield
        finally:
            self.uninstall()

    def _install(self) -> None:
        """Wrap every target and rebind aliases other modules hold."""
        functions: Dict[int, Tuple[Any, Callable]] = {}
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[attr]
            make = self._wrap_generator if target.generator else \
                self._wrap
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(make(target, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(make(target, raw.__func__))
            else:
                wrapped = make(target, raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            if not owner_name:
                functions[id(raw)] = (raw, wrapped)
        # ``from module import function`` left the original bound in
        # the importing module; point those names at the wrapper too.
        for module in list(sys.modules.values()):
            if not isinstance(module, types.ModuleType):
                continue
            for attr, value in list(vars(module).items()):
                found = functions.get(id(value))
                if found is not None and value is found[0]:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, found[1])

    def uninstall(self) -> None:
        """Put every wrapped attribute and alias back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def closed_spans(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def self_times(self, pass_index: int) -> Dict[str, float]:
        """Self time per span name over one pass."""
        covered: Dict[int, float] = {}
        chosen = [span for span in self.closed_spans()
                  if span.pass_index == pass_index]
        for span in chosen:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + \
                    (span.end - span.start)
        totals: Dict[str, float] = {}
        for span in chosen:
            own = (span.end - span.start) - covered.get(span.id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def inclusive_times(self, pass_index: int) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span in self.closed_spans():
            if span.pass_index == pass_index:
                totals[span.name] = totals.get(span.name, 0.0) + \
                    (span.end - span.start)
        return totals

    def layer_shares(self, pass_index: int,
                     pass_seconds: float) -> Dict[str, float]:
        """Each layer's self time as a share of the pass."""
        layers: Dict[str, float] = {}
        for name, seconds in self.self_times(pass_index).items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + seconds
        return {layer: seconds / pass_seconds
                for layer, seconds in sorted(layers.items())}

    def value(self, pass_index: int, name: str) -> float:
        key = (pass_index, name)
        if key in self.peaks:
            return self.peaks[key]
        return self.counts.get(key, 0)

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (one row per pass)."""
        spans = self.closed_spans()
        origin = min((span.start for span in spans), default=0.0)
        return {"displayTimeUnit": "ms", "traceEvents": [
            {"name": span.name, "cat": layer_of(span.name), "ph": "X",
             "ts": (span.start - origin) * 1e6,
             "dur": (span.end - span.start) * 1e6,
             "pid": 0, "tid": span.pass_index,
             "args": {"id": span.id, "parent": span.parent}}
            for span in spans]}


def pass_layer_metrics(tracer: Tracer, pass_index: int,
                       pass_seconds: float,
                       registry_counters: Dict[str, float]
                       ) -> Dict[str, float]:
    """Every per-pass per-layer metric of one traced pass."""
    own = tracer.self_times(pass_index)
    inclusive = tracer.inclusive_times(pass_index)
    out = {metric: sum(own.get(name, 0.0) for name in names)
           for metric, names in SELF_TIME_METRICS.items()}

    def value(name: str) -> float:
        return tracer.value(pass_index, name)

    for name in (
            "simulation.tracegen.packets", "simulation.tracegen.sessions",
            "simulation.tracestore.pack_bytes",
            "simulation.tracestore.chunks",
            "simulation.emulation.packets",
            "simulation.emulation.work_units",
            "simulation.emulation.alerts",
            "shim.batch.decide_calls", "shim.batch.tables",
            "sketch.update_keys", "sketch.state_bytes",
            "ingest.chunks", "ingest.max_resident_bytes",
            "core.replication.variables",
            "core.replication.constraints",
            "lpsolve.solves", "lpsolve.iterations", "lpsolve.nnz",
            "core.controller.sharded_rounds",
            "shim.config.rules", "shim.config.max_rules_per_node",
            "shim.budget.calls", "shim.budget.error_linf",
            "shim.budget.max_table_rules",
            "shim.diff.delta_rules",
            "runtime.rollout.coverage_report_calls",
            "runtime.rollout.sim_latency_s",
            "runtime.events.events_fired"):
        out[name] = value(name)

    chunks = value("simulation.emulation.chunks")
    replay = inclusive.get("simulation.emulation.replay", 0.0)
    out["simulation.emulation.us_per_chunk"] = \
        replay / chunks * 1e6 if chunks else 0.0
    # Model.solve's span holds compile and backend time; the backend
    # reports its own share, the rest is the (cached or not) compile.
    solve = value("lpsolve.solve_s")
    out["lpsolve.solve_s"] = solve
    out["lpsolve.compile_s"] = max(
        0.0, own.get("lpsolve.solve", 0.0) - solve)
    solves = registry_counters.get("lp.solves", 0.0)
    out["core.formulation.warm_ratio"] = \
        registry_counters.get("lp.compile_cache.hits", 0.0) / solves \
        if solves else 0.0
    out["core.controller.sharded_solves"] = \
        registry_counters.get("controller.shard.solves", 0.0)
    out["runtime.rollout.retransmits"] = \
        registry_counters.get("runtime.channel.retransmits", 0.0)
    full = value("shim.diff.full_rules")
    out["shim.diff.delta_fraction"] = \
        value("shim.diff.delta_rules") / full if full else 0.0
    unattributed = sum(seconds for name, seconds in own.items()
                       if layer_of(name) == HARNESS_LAYER)
    unattributed += own.get("runtime.scenario.run", 0.0)
    out["pipeline.unattributed_share"] = unattributed / pass_seconds
    return out


def nesting_errors(spans: Sequence[Span]) -> List[str]:
    """Spans that do not sit inside their parent (expected: none)."""
    by_id = {span.id: span for span in spans}
    errors = []
    for span in spans:
        if span.end < span.start:
            errors.append(f"span {span.id} {span.name} ends before "
                          f"it starts")
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            errors.append(f"span {span.id} {span.name} has no parent "
                          f"{span.parent}")
        elif not (parent.start <= span.start and
                  span.end <= parent.end and
                  parent.pass_index == span.pass_index):
            errors.append(f"span {span.id} {span.name} escapes its "
                          f"parent {parent.name}")
    return errors
