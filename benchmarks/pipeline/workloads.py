"""The five pipeline workloads, their passes, checks and metrics.

Every workload drives the program through public functions only and
times each call from outside (:class:`PassClock`); correctness checks
run between the timed stages with the clock stopped, and a failed
check is counted, never raised.  ``README.md`` says why each workload
exists and which optimisation it should and should not reward.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.core.controller import (
    GlobalPlanner,
    NIDSController,
    ShardedPlanner,
)
from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.core.validation import validate_replication
from repro.experiments.common import setup_topology
from repro.ingest import IngestDaemon, chunk_resident_bytes
from repro.obs import MetricsRegistry, use_registry
from repro.runtime.rollout import coverage_report
from repro.runtime.scenario import run_scenario, sketch_estimator_scenario
from repro.shim.config import build_replication_configs
from repro.shim.diff import diff_configs
from repro.simulation.emulation import Emulation
from repro.simulation.tracegen import TraceGenerator, TraceSpec
from repro.simulation.tracestore import (
    ChunkedReplay,
    TraceStore,
    trace_fingerprint,
)
from repro.traffic.variability import TrafficVariabilityModel

from trace import SETUP_PASS, Tracer, pass_layer_metrics

#: default ``--seconds``: warm-up and timed passes together fill it
RUN_SECONDS = 35
#: never fewer timed passes than this, whatever ``--seconds`` says
MIN_TIMED_PASSES = 5
#: a control pass takes its drift draw from a cycle this long, so every
#: run, however many passes fit into it, times the same set of draws
DRIFT_DRAWS = MIN_TIMED_PASSES
#: traced runs time this many passes untraced, then as many traced
TRACE_PASSES = 2
#: wall / CPU above this marks a pass as descheduled (reported, kept)
DESCHEDULED_RATIO = 1.15
MAX_LINK_LOAD = 0.4
DC_CAPACITY_FACTOR = 10.0
RULE_BUDGET = 4
DRIFT_SIGMA = 0.35  # the steady-drift scenario's

#: all five run under ``run.py`` and ``compare``; ``BENCHMARK.json``
#: hands the driver the three its time limit leaves room for at a
#: steady run length (README, "Noise")
WORKLOADS: Dict[str, str] = {
    "stream_bulk": "800k-packet trace in 64k-packet chunks on "
                   "internet2: per-packet data-plane cost dominates, "
                   "the LP is outside the timed region",
    "stream_fine": "synthesis, store, chunked replay and sketch ingest "
                   "of 500k packets on tinet in 1024-packet chunks: the "
                   "data plane does all the work, per-chunk fixed cost "
                   "and 1640 classes of rule tables included",
    "control_global": "cold and warm controller refreshes of the "
                      "global LP on ntt (70 PoPs), no packets: model "
                      "build vs HiGHS solve vs warm patching",
    "control_sharded": "the same controller over four regional LPs "
                       "with Jacobi coordination rounds on tinet: "
                       "many small solves instead of one big one",
    "loop_sketch": "the closed sketch-estimator loop on geant: every "
                   "layer in the proportions the loop really uses, "
                   "including the runtime glue",
}

#: sizes per scale.  ``default`` is the issue's sizing cut to fit the
#: driver's time cap (see README) and times as many passes as fit into
#: ``--seconds``; ``smoke`` is a functional check with a fixed count.
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "default": {
        "stream_bulk": dict(topology="internet2", sessions=200_000,
                            chunk_packets=65536, warmup=1),
        "stream_fine": dict(topology="tinet", sessions=125_000,
                            chunk_packets=1024, warmup=1),
        "control_global": dict(topology="ntt", regions=None,
                               warm_refreshes=1, warmup=0),
        "control_sharded": dict(topology="tinet", regions=4,
                                warm_refreshes=1, warmup=1),
        "loop_sketch": dict(topology="geant", epochs=6,
                            sessions_per_epoch=5000,
                            chunk_packets=1024, warmup=1),
    },
    "smoke": {
        "stream_bulk": dict(topology="internet2", sessions=20_000,
                            chunk_packets=8192, warmup=1, timed=2),
        "stream_fine": dict(topology="geant", sessions=12_000,
                            chunk_packets=512, warmup=1, timed=2),
        "control_global": dict(topology="geant", regions=None,
                               warm_refreshes=1, warmup=1, timed=2),
        "control_sharded": dict(topology="geant", regions=3,
                                warm_refreshes=1, warmup=1, timed=2),
        "loop_sketch": dict(topology="internet2", epochs=3,
                            sessions_per_epoch=1500,
                            chunk_packets=512, warmup=1, timed=2),
    },
}


@dataclass(frozen=True)
class Metric:
    """An end-to-end metric.  ``bound`` is the relative amount by
    which it may get worse; ``0.0`` means it must repeat exactly."""

    name: str
    unit: str
    better: str
    bound: float


#: On a shared host identical passes differ by up to 20 % and whole
#: minutes run 30-100 % slow (README, "Noise"), so timings get the
#: widest bound the driver allows and read the fastest sample.
TIMING_BOUND = 0.25
MEMORY_BOUND = 0.10
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", TIMING_BOUND),
    Metric("pass_s", "s", "lower", TIMING_BOUND),
    Metric("synth_pkts_per_s", "packets/s", "higher", TIMING_BOUND),
    Metric("stream_pkts_per_s", "packets/s", "higher", TIMING_BOUND),
    Metric("refresh_cold_s", "s", "lower", TIMING_BOUND),
    Metric("refresh_warm_s", "s", "lower", TIMING_BOUND),
    Metric("peak_rss_bytes", "bytes", "lower", MEMORY_BOUND),
    Metric("load_cost", "ratio", "lower", 1e-6),
    Metric("rules_installed", "count", "lower", 0.0),
    Metric("estimate_l1_rel", "ratio", "lower", 1e-6),
    Metric("failed_share", "ratio", "lower", 0.0),
)
END_TO_END_BY_NAME = {metric.name: metric for metric in END_TO_END}

#: per-layer metric -> (unit, better, end-to-end metric it should move)
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "core.inputs.setup_s": ("s", "lower", "setup_s"),
    "topology.nodes": ("count", "lower", "setup_s"),
    "traffic.classes": ("count", "lower", "setup_s"),
    "simulation.tracegen.generate_s":
        ("s", "lower", "synth_pkts_per_s, pass_s"),
    "simulation.tracegen.packets": ("count", "higher", "synth_pkts_per_s"),
    "simulation.tracegen.sessions": ("count", "higher", "synth_pkts_per_s"),
    "simulation.tracestore.pack_s": ("s", "lower", "synth_pkts_per_s"),
    "simulation.tracestore.pack_bytes":
        ("bytes", "lower", "synth_pkts_per_s"),
    "simulation.tracestore.open_s": ("s", "lower", "stream_pkts_per_s"),
    "simulation.tracestore.verify_s": ("s", "lower", "stream_pkts_per_s"),
    "simulation.tracestore.chunk_s": ("s", "lower", "stream_pkts_per_s"),
    "simulation.tracestore.chunks": ("count", "lower", "stream_pkts_per_s"),
    "simulation.emulation.replay_s": ("s", "lower", "stream_pkts_per_s"),
    "simulation.emulation.packets":
        ("count", "higher", "stream_pkts_per_s"),
    "simulation.emulation.us_per_chunk":
        ("us", "lower", "stream_pkts_per_s"),
    "simulation.emulation.work_units":
        ("count", "lower", "stream_pkts_per_s"),
    "simulation.emulation.alerts": ("count", "higher", "stream_pkts_per_s"),
    "shim.batch.decide_s": ("s", "lower", "stream_pkts_per_s"),
    "shim.batch.decide_calls": ("count", "lower", "stream_pkts_per_s"),
    "shim.batch.tables": ("count", "lower", "stream_pkts_per_s"),
    "sketch.update_s": ("s", "lower", "stream_pkts_per_s"),
    "sketch.update_keys": ("count", "lower", "stream_pkts_per_s"),
    "sketch.merge_s": ("s", "lower", "stream_pkts_per_s"),
    "sketch.state_bytes": ("bytes", "lower", "peak_rss_bytes"),
    "ingest.consume_s": ("s", "lower", "stream_pkts_per_s"),
    "ingest.chunks": ("count", "lower", "stream_pkts_per_s"),
    "ingest.snapshot_s": ("s", "lower", "stream_pkts_per_s"),
    "ingest.estimate_s": ("s", "lower", "stream_pkts_per_s"),
    "ingest.max_resident_bytes": ("bytes", "lower", "peak_rss_bytes"),
    "core.replication.build_s": ("s", "lower", "refresh_cold_s"),
    "core.replication.variables": ("count", "lower", "refresh_cold_s"),
    "core.replication.constraints": ("count", "lower", "refresh_cold_s"),
    "lpsolve.compile_s": ("s", "lower", "refresh_cold_s"),
    "lpsolve.solve_s": ("s", "lower", "refresh_cold_s, refresh_warm_s"),
    "lpsolve.solves": ("count", "lower", "refresh_cold_s, refresh_warm_s"),
    "lpsolve.iterations":
        ("count", "lower", "refresh_cold_s, refresh_warm_s"),
    "lpsolve.nnz": ("count", "lower", "refresh_cold_s"),
    "core.formulation.resolve_s": ("s", "lower", "refresh_warm_s"),
    "core.formulation.warm_ratio": ("ratio", "higher", "refresh_warm_s"),
    "core.controller.plan_cold_s": ("s", "lower", "refresh_cold_s"),
    "core.controller.plan_warm_s": ("s", "lower", "refresh_warm_s"),
    "core.controller.refresh_self_s":
        ("s", "lower", "refresh_cold_s, refresh_warm_s"),
    "core.controller.sharded_rounds":
        ("count", "lower", "refresh_cold_s, refresh_warm_s"),
    "core.controller.sharded_solves":
        ("count", "lower", "refresh_cold_s, refresh_warm_s"),
    "core.validation.validate_s":
        ("s", "lower", "refresh_cold_s, refresh_warm_s"),
    "shim.config.compile_s":
        ("s", "lower", "refresh_cold_s, refresh_warm_s"),
    "shim.config.rules": ("count", "lower", "rules_installed"),
    "shim.config.max_rules_per_node":
        ("count", "lower", "rules_installed"),
    "shim.budget.lower_s": ("s", "lower", "pass_s"),
    "shim.budget.calls": ("count", "lower", "pass_s"),
    "shim.budget.error_linf": ("ratio", "lower", "pass_s"),
    "shim.budget.max_table_rules": ("count", "lower", "pass_s"),
    "shim.diff.diff_s": ("s", "lower", "refresh_warm_s"),
    "shim.diff.delta_rules": ("count", "lower", "rules_installed"),
    "shim.diff.delta_fraction": ("ratio", "lower", "rules_installed"),
    "runtime.rollout.coverage_report_s": ("s", "lower", "pass_s"),
    "runtime.rollout.coverage_report_calls": ("count", "lower", "pass_s"),
    "runtime.rollout.start_s": ("s", "lower", "pass_s"),
    "runtime.rollout.sim_latency_s": ("s", "lower", "pass_s"),
    "runtime.rollout.retransmits": ("count", "lower", "pass_s"),
    "runtime.daemon.step_s": ("s", "lower", "pass_s"),
    "runtime.events.run_s": ("s", "lower", "pass_s"),
    "runtime.events.events_fired": ("count", "lower", "pass_s"),
    "runtime.agents.effective_config_s": ("s", "lower", "pass_s"),
    "runtime.scenario.self_s": ("s", "lower", "pass_s"),
    "pipeline.unattributed_share": ("ratio", "lower", "pass_s"),
    "obs.trace_overhead_ratio": ("ratio", "lower", "-"),
}


def summarize(samples: Sequence[float],
              better: str = "lower") -> Dict[str, float]:
    """The best sample as ``value``, with the median, quartiles,
    extremes and the sample count beside it.

    A neighbour on the host only ever slows a pass down, so the
    fastest pass of a run is the steadiest estimate of what the
    program itself costs: over runs of 8-12 passes it spreads half as
    wide as their median (README, "Noise").
    """
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"value": ordered[0] if better == "lower" else ordered[-1],
            "median": statistics.median(ordered), "q1": q1, "q3": q3,
            "min": ordered[0], "max": ordered[-1], "n": len(ordered)}


class Checks:
    """Attempted and failed output checks of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return bool(ok)


@dataclass
class Stage:
    seconds: float = 0.0


class PassClock:
    """Wall and CPU time of one pass's stages.

    Only time inside :meth:`stage` counts toward ``pass_s``.  With a
    tracer attached every stage is also a span carrying the same two
    timestamps, so span self times over a pass add up to its
    ``pass_s`` exactly.
    """

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.wall: Dict[str, float] = {}
        self.cpu = 0.0

    @contextmanager
    def stage(self, name: str) -> Iterator[Stage]:
        timing = Stage()
        cpu_start = time.process_time()
        start = time.perf_counter()
        span = None if self.tracer is None else \
            self.tracer.begin(f"pipeline.{name}", start)
        try:
            yield timing
        finally:
            end = time.perf_counter()
            if span is not None:
                assert self.tracer is not None
                self.tracer.end(span, end)
            self.cpu += time.process_time() - cpu_start
            timing.seconds = end - start
            self.wall[name] = self.wall.get(name, 0.0) + timing.seconds

    @property
    def seconds(self) -> float:
        return sum(self.wall.values())


@dataclass
class PassResult:
    """What one pass measured: timing samples per end-to-end metric,
    the values that must repeat exactly on every pass, and the pass's
    deterministic end-to-end outputs (fixed by seed and ordinal)."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    repeats: Dict[str, Any] = field(default_factory=dict)
    outputs: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Set-up plus one repeatable pass; subclasses are the workloads."""

    def __init__(self, sizes: Dict[str, Any], seed: int,
                 workdir: Path, checks: Checks) -> None:
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.checks = checks
        self.tracer: Optional[Tracer] = None

    def setup(self) -> None:
        # The first solve of a process loads HiGHS; keep that out of
        # every pass (and out of control_global's first cold refresh).
        ReplicationProblem(
            setup_topology("internet2",
                           dc_capacity_factor=DC_CAPACITY_FACTOR).state
        ).solve()
        self.state = setup_topology(
            self.sizes["topology"],
            dc_capacity_factor=DC_CAPACITY_FACTOR).state

    def run_pass(self, clock: PassClock, index: int,
                 ordinal: int) -> PassResult:
        """One pass.  ``index`` numbers every pass of the run;
        ``ordinal`` counts within the warm-up, timed or traced set, so
        the k-th traced pass gets the k-th timed pass's inputs."""
        raise NotImplementedError

    def note(self, name: str, value: float, peak: bool = False) -> None:
        """A harness-side count for the traced run's per-layer table."""
        if self.tracer is not None:
            (self.tracer.peak if peak else self.tracer.count)(name, value)


class StreamWorkload(Workload):
    """generate -> pack -> open + verify -> chunked replay -> ingest."""

    #: test hook: called with the packed store's directory, clock
    #: stopped, before the store is reopened
    after_pack: Optional[Callable[[Path], None]] = None

    def setup(self) -> None:
        super().setup()
        result = ReplicationProblem(
            self.state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=MAX_LINK_LOAD).solve()
        self.configs = build_replication_configs(self.state, result)
        self.oracle: Optional[Dict[str, Any]] = None

    def run_pass(self, clock: PassClock, index: int,
                 ordinal: int) -> PassResult:
        store_dir = self.workdir / f"store{index}"
        try:
            return self._run_pass(clock, store_dir)
        except Exception as exc:  # counted, never aborts the run
            self.checks.expect("pass completes", False,
                               f"{type(exc).__name__}: {exc}")
            return PassResult()
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def _run_pass(self, clock: PassClock, store_dir: Path) -> PassResult:
        state, sizes, checks = self.state, self.sizes, self.checks
        with clock.stage("generate"):
            generator = TraceGenerator(
                state.topology.nodes, state.classes,
                spec=TraceSpec(total_sessions=sizes["sessions"]),
                seed=self.seed)
            batch = generator.generate_batch(
                state.nids_nodes, with_payloads=True, direct=True)
        with clock.stage("pack"):
            TraceStore.pack(batch, store_dir)

        packets = int(batch.num_packets)
        class_id = np.asarray(batch.sessions.class_id)
        exact = dict(zip(
            batch.sessions.class_names,
            np.bincount(class_id[class_id >= 0],
                        minlength=len(batch.sessions.class_names)
                        ).astype(float)))
        if self.oracle is None:
            # Once per run: the in-memory oracle the streamed results
            # of every pass are compared against.
            self.oracle = {
                "fingerprint": trace_fingerprint(batch),
                "report": Emulation(
                    state, self.configs, generator.classifier
                ).run_signature(batch, fast=True),
                "chunk_bytes": max(
                    chunk_resident_bytes(chunk) for chunk in
                    ChunkedReplay(batch, sizes["chunk_packets"])),
            }
        oracle = self.oracle
        assert oracle is not None
        del batch  # from here on only memmap-backed slabs are resident
        if self.after_pack is not None:
            self.after_pack(store_dir)

        with clock.stage("open"):
            store = TraceStore.open(store_dir)
        with clock.stage("verify"):
            verified = store.verify()
        checks.expect("store.verify", verified)
        checks.expect("store.fingerprint",
                      store.fingerprint == oracle["fingerprint"])

        with clock.stage("replay"):
            emulation = Emulation(state, self.configs,
                                  generator.classifier)
            report = emulation.run_signature_chunked(
                ChunkedReplay(store.batch(), sizes["chunk_packets"]))
        checks.expect("chunked replay == in-memory replay",
                      report == oracle["report"])

        with clock.stage("ingest"):
            daemon = IngestDaemon(
                [cls.name for cls in state.classes], width=2048,
                depth=4, seed=self.seed * 49999 + 3, workers=2)
            for chunk in ChunkedReplay(store.batch(),
                                       sizes["chunk_packets"]):
                daemon.consume(chunk)
        with clock.stage("estimate"):
            daemon.estimated_classes(state.classes)

        snapshot = daemon.snapshot()
        checks.expect("ingest saw every packet",
                      daemon.stats.packets == packets,
                      f"{daemon.stats.packets} != {packets}")
        resident_cap = daemon.sketch_bytes + max(
            snapshot.state_bytes, oracle["chunk_bytes"])
        checks.expect("ingest resident <= sketches + one chunk",
                      daemon.stats.max_resident_bytes <= resident_cap,
                      f"{daemon.stats.max_resident_bytes} > "
                      f"{resident_cap}")
        l1_rel = snapshot.estimate_errors(exact)["l1_rel"]

        wall = clock.wall
        synth = wall["generate"] + wall["pack"]
        stream = clock.seconds - synth
        return PassResult(
            samples={"synth_pkts_per_s": [packets / synth],
                     "stream_pkts_per_s": [packets / stream]},
            repeats={"fingerprint": store.fingerprint,
                     "packets": packets,
                     "alerts": report.alerts,
                     "work_units": sum(report.work_units.values())},
            outputs={"estimate_l1_rel": l1_rel})


class ControlWorkload(Workload):
    """A fresh controller: one cold refresh, then warm refreshes on
    seeded drift, each diffed against the previous configuration and
    lowered once more under a TCAM rule budget.

    The cold refresh sees the same baseline traffic in every pass.
    How long a warm re-solve takes depends on the drawn matrix by some
    +-15 %, so a run cycles through ``DRIFT_DRAWS`` draws (from seed
    and ordinal) and one unlucky draw does not decide it.
    """

    def setup(self) -> None:
        super().setup()
        self.drift = TrafficVariabilityModel.default(sigma=DRIFT_SIGMA)

    def _planner(self) -> Any:
        policy = MirrorPolicy.datacenter()
        if self.sizes["regions"] is None:
            return GlobalPlanner(self.state, mirror_policy=policy,
                                 max_link_load=MAX_LINK_LOAD)
        return ShardedPlanner(self.state, mirror_policy=policy,
                              max_link_load=MAX_LINK_LOAD,
                              num_regions=self.sizes["regions"],
                              seed=0, jobs=1)

    def run_pass(self, clock: PassClock, index: int,
                 ordinal: int) -> PassResult:
        state, checks = self.state, self.checks
        rng = np.random.default_rng([self.seed, ordinal % DRIFT_DRAWS])
        with clock.stage("controller"):
            controller = NIDSController(
                state, mirror_policy=MirrorPolicy.datacenter(),
                max_link_load=MAX_LINK_LOAD, planner=self._planner())
        result = PassResult(samples={"refresh_cold_s": [],
                                     "refresh_warm_s": []})
        installed = 0
        previous = None
        load_cost = float("nan")
        for refresh in range(1 + self.sizes["warm_refreshes"]):
            classes = list(state.classes) if refresh == 0 else [
                cls.scaled(self.drift.sample_factor(rng))
                for cls in state.classes]
            try:
                with clock.stage("refresh_cold" if previous is None
                                 else "refresh_warm") as refreshed:
                    rollout = controller.refresh(classes)
            except Exception as exc:  # counted, never aborts the run
                checks.expect("refresh completes", False,
                              f"{type(exc).__name__}: {exc}")
                break
            if previous is None:
                result.samples["refresh_cold_s"].append(
                    refreshed.seconds)
                installed += sum(config.num_rules for config in
                                 rollout.configs.values())
                result.repeats = {
                    "cold_load_cost": rollout.result.load_cost,
                    "cold_rules": installed}
            else:
                with clock.stage("diff") as diffed:
                    deltas = diff_configs(previous, rollout.configs)
                result.samples["refresh_warm_s"].append(
                    refreshed.seconds + diffed.seconds)
                installed += sum(len(delta.installs)
                                 for delta in deltas.values())
            previous = rollout.configs
            load_cost = rollout.result.load_cost

            # The controller path never lowers under a rule budget;
            # this is the only place shim.budget is timed.
            current = state.with_traffic(classes)
            lowerings: Dict[str, Any] = {}
            with clock.stage("lower"):
                budgeted = build_replication_configs(
                    current, rollout.result, budget=RULE_BUDGET,
                    lowerings=lowerings)
            self.note("shim.budget.error_linf", max(
                lowering.error_linf for lowering in lowerings.values()),
                peak=True)
            self.note("shim.budget.max_table_rules", max(
                len(rules) for config in budgeted.values()
                for rules in config.rules.values()), peak=True)

            problems = validate_replication(current, rollout.result)
            checks.expect("validate_replication", not problems,
                          "; ".join(problems[:2]))
            coverage = coverage_report(classes, rollout.configs).coverage
            checks.expect("coverage == 1.0",
                          abs(coverage - 1.0) <= 1e-9, f"{coverage!r}")
        result.outputs = {"load_cost": load_cost,
                          "rules_installed": installed}
        return result


class LoopWorkload(Workload):
    """The canned sketch-estimator scenario, end to end."""

    def run_pass(self, clock: PassClock, index: int,
                 ordinal: int) -> PassResult:
        sizes, checks = self.sizes, self.checks
        scenario = replace(
            sketch_estimator_scenario(sizes["topology"],
                                      epochs=sizes["epochs"],
                                      seed=self.seed),
            sessions_per_epoch=sizes["sessions_per_epoch"],
            chunk_packets=sizes["chunk_packets"])
        trace_dir = self.workdir / f"loop{index}"
        try:
            with clock.stage("scenario"):
                report = run_scenario(scenario, workdir=trace_dir)
        except Exception as exc:  # counted, never aborts the run
            checks.expect("scenario completes", False,
                          f"{type(exc).__name__}: {exc}")
            return PassResult()
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)
        records = report.records
        failed_epochs = [r.epoch for r in records if not r.solve_ok]
        checks.expect("every epoch solves", not failed_epochs,
                      f"epochs {failed_epochs}")
        checks.expect("final coverage == 1.0",
                      records[-1].coverage_end == 1.0,
                      f"{records[-1].coverage_end!r}")
        summary = report.summary()
        self.note("runtime.rollout.sim_latency_s",
                  summary["mean_rollout_latency"] or 0.0)
        errors = [r.estimate_l1_rel for r in records
                  if r.estimate_l1_rel is not None]
        return PassResult(
            samples={"refresh_warm_s": [
                r.solve_wall_seconds for r in records[1:]
                if r.solve_wall_seconds is not None]},
            repeats={"fingerprint": report.fingerprint()},
            outputs={"load_cost": summary["final_lp_load_cost"],
                     "rules_installed": summary["rules_installed"],
                     "estimate_l1_rel": statistics.fmean(errors)})


_KINDS = {"stream_bulk": StreamWorkload, "stream_fine": StreamWorkload,
          "control_global": ControlWorkload,
          "control_sharded": ControlWorkload,
          "loop_sketch": LoopWorkload}


def make_workload(name: str, scale: str, seed: int, workdir: Path,
                  checks: Checks) -> Workload:
    return _KINDS[name](SCALES[scale][name], seed, workdir, checks)


def _run_one_pass(workload: Workload, index: int, ordinal: int,
                  tracer: Optional[Tracer]
                  ) -> Tuple[PassClock, PassResult, Dict[str, float]]:
    """One pass with the collector off; a traced pass also runs under
    a recording metrics registry, whose counters it returns."""
    clock = PassClock(tracer)
    workload.tracer = tracer
    registry = MetricsRegistry()
    gc.collect()
    gc.disable()
    if tracer is not None:
        tracer.pass_index = index
    try:
        with use_registry(registry) if tracer else nullcontext():
            result = workload.run_pass(clock, index, ordinal)
    finally:
        gc.enable()
        workload.tracer = None
    return clock, result, dict(registry.counters)


def run_workload(name: str, *, seed: int = 7,
                 seconds: float = RUN_SECONDS, trace: bool = False,
                 scale: str = "default", workdir: Path,
                 process_start: Optional[float] = None,
                 setup_only: bool = False,
                 after_pack: Optional[Callable[[Path], None]] = None
                 ) -> Tuple[Dict[str, Any], Optional[Tracer]]:
    """Run one workload in this process; returns its report and, for
    a traced run, the tracer holding the spans.

    ``process_start`` is the ``time.perf_counter()`` reading taken when
    the process began (``setup_s`` runs from there to the first pass).
    """
    if process_start is None:
        process_start = time.perf_counter()
    checks = Checks()
    sizes = SCALES[scale][name]
    workdir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(name, scale, seed, workdir, checks)
    if after_pack is not None:
        assert isinstance(workload, StreamWorkload)
        workload.after_pack = after_pack

    tracer = Tracer() if trace else None
    with tracer.installed() if tracer else nullcontext():
        with PassClock(tracer).stage("setup"):
            workload.setup()
    setup_s = time.perf_counter() - process_start
    if setup_only:
        return {"setup_s": setup_s}, None

    # Warm-up and timed passes together fill ``seconds``: a run stops
    # when one more pass as long as its longest would overrun, so it
    # takes the same wall time on a slow machine as on a fast one.
    # Traced and smoke runs time a fixed count.
    warmup = max(int(sizes["warmup"]), 1 if trace else 0)
    fixed = TRACE_PASSES if trace else sizes.get("timed")
    deadline = time.perf_counter() + seconds
    for ordinal in range(warmup):
        _run_one_pass(workload, ordinal, ordinal, None)
    passes: List[Tuple[PassClock, PassResult, Dict[str, float]]] = []
    longest = 0.0

    def room_for_a_pass() -> bool:
        if fixed is not None:
            return len(passes) < fixed
        return len(passes) < MIN_TIMED_PASSES or \
            time.perf_counter() + longest <= deadline

    while room_for_a_pass():
        started = time.perf_counter()
        passes.append(_run_one_pass(workload, warmup + len(passes),
                                    len(passes), None))
        longest = max(longest, time.perf_counter() - started)
    timed = len(passes)

    traced: List[Tuple[int, PassClock, Dict[str, float]]] = []
    if tracer is not None:
        with tracer.installed():
            for ordinal in range(TRACE_PASSES):
                number = warmup + timed + ordinal
                clock, result, counters = _run_one_pass(
                    workload, number, ordinal, tracer)
                passes.append((clock, result, counters))
                traced.append((number, clock, counters))

    reference = passes[0][1].repeats
    for _, result, _ in passes[1:]:
        checks.expect("passes repeat exactly",
                      result.repeats == reference,
                      f"{result.repeats} != {reference}")
    for (_, earlier, _), (_, later, _) in zip(passes[:timed],
                                              passes[DRIFT_DRAWS:timed]):
        checks.expect("outputs repeat with the drift cycle",
                      later.outputs == earlier.outputs,
                      f"{later.outputs} != {earlier.outputs}")

    untraced = passes[:timed]
    samples: Dict[str, List[float]] = {
        "pass_s": [clock.seconds for clock, _, _ in untraced]}
    for _, result, _ in untraced:
        for metric, values in result.samples.items():
            samples.setdefault(metric, []).extend(values)
    end_to_end: Dict[str, Dict[str, Any]] = {
        "setup_s": {"value": setup_s, "n": 1}}
    for metric, values in samples.items():
        if values:
            end_to_end[metric] = summarize(
                values, END_TO_END_BY_NAME[metric].better)
    end_to_end["peak_rss_bytes"] = {"value": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss * 1024, "n": 1}
    # one drift cycle: the same passes however many the run timed
    outputs = [result.outputs for _, result, _ in untraced[:DRIFT_DRAWS]]
    for metric in sorted({name for row in outputs for name in row}):
        values = [row[metric] for row in outputs if metric in row]
        end_to_end[metric] = {"value": statistics.fmean(values),
                              "n": len(values)}
    end_to_end["failed_share"] = {
        "value": len(checks.failures) / max(checks.attempted, 1),
        "n": 1}
    for metric, entry in end_to_end.items():
        entry["unit"] = END_TO_END_BY_NAME[metric].unit

    report: Dict[str, Any] = {
        "workload": name, "seed": seed, "scale": scale,
        "trace": int(trace), "sizes": sizes,
        "passes": {"warmup": warmup, "timed": timed,
                   "traced": len(traced)},
        "end_to_end": end_to_end,
        "stages_s": {stage: statistics.median(
            clock.wall.get(stage, 0.0) for clock, _, _ in untraced)
            for stage in untraced[0][0].wall},
        "deterministic": {"repeats": reference, "outputs": outputs},
        "checks": {"attempted": checks.attempted,
                   "failed": len(checks.failures),
                   "failures": checks.failures[:20]},
        "descheduled_passes": [
            {"pass": index, "wall_s": clock.seconds, "cpu_s": clock.cpu}
            for index, (clock, _, _) in enumerate(passes)
            if clock.cpu > 0 and
            clock.seconds / clock.cpu > DESCHEDULED_RATIO],
    }
    if tracer is not None:
        report.update(_layer_report(
            workload, tracer, traced, min(samples["pass_s"])))
    return report, tracer


def _layer_report(workload: Workload, tracer: Tracer,
                  traced: Sequence[Tuple[int, PassClock,
                                         Dict[str, float]]],
                  untraced_pass_s: float) -> Dict[str, Any]:
    """Per-layer metrics (mean over the traced passes) and each
    layer's self-time share of the traced ``pass_s``."""
    per_pass = [pass_layer_metrics(tracer, number, clock.seconds,
                                   counters)
                for number, clock, counters in traced]
    per_layer = {metric: statistics.fmean(row[metric] for row in per_pass)
                 for metric in per_pass[0]}
    per_layer["core.inputs.setup_s"] = tracer.self_times(
        SETUP_PASS).get("core.inputs.setup", 0.0)
    per_layer["topology.nodes"] = len(workload.state.nids_nodes)
    per_layer["traffic.classes"] = len(workload.state.classes)
    traced_pass_s = statistics.median(
        clock.seconds for _, clock, _ in traced)
    per_layer["obs.trace_overhead_ratio"] = min(
        clock.seconds for _, clock, _ in traced) / untraced_pass_s
    shares = [tracer.layer_shares(number, clock.seconds)
              for number, clock, _ in traced]
    layers = sorted({layer for row in shares for layer in row})
    return {
        "per_layer": {
            metric: {"value": per_layer[metric], "unit": unit}
            for metric, (unit, _, _) in PER_LAYER.items()},
        "layer_shares": {
            layer: statistics.fmean(row.get(layer, 0.0)
                                    for row in shares)
            for layer in layers},
        "traced_pass_s": traced_pass_s,
        "traced_passes": [{"pass": number, "pass_s": clock.seconds}
                          for number, clock, _ in traced],
    }
