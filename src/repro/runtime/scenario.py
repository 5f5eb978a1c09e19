"""Scenario specs, the staged multi-epoch runner, and timeline reports.

A :class:`Scenario` declares everything about a closed-loop run — the
topology, traffic-drift model, channel characteristics, rollout
strategy, fault schedule, and epoch horizon — and :func:`run_scenario`
plays it on a :class:`ScenarioRun`, five stages an epoch: inject the
due faults; *feed* the epoch's traffic (per-entry factors drawn from
the Section 8.2 variability model) and its synthetic trace; let the
:class:`~repro.runtime.daemon.ControllerDaemon` *decide* whether to
re-optimize; *settle* the event loop (config deliveries, acks,
retransmissions), tracking hash-space coverage after *every* event;
and *observe* — replay the trace chunk by chunk as ground truth
against whatever configurations the agents are actually running.

Everything is derived from ``Scenario.seed``; two runs of the same
scenario produce bit-identical :class:`ScenarioReport` timelines. The
only nondeterministic quantity — wall-clock solve latency — is kept in
a field explicitly excluded from :meth:`ScenarioReport.fingerprint`.

Five canned scenarios (see :data:`CANNED_SCENARIOS`) exercise the
regimes the paper's Section 9 sketches — steady-state traffic drift,
a flash-crowd surge, a cascading node failure with recovery — plus a
regional controller failover under the sharded planner and the closed
loop on sketch estimates.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.controller import ShardedPlanner
from repro.core.inputs import NetworkState
from repro.core.mirrors import MIRROR_POLICIES
from repro.lpsolve.errors import LPError
from repro.obs import get_registry
from repro.runtime.agents import build_agents
from repro.runtime.daemon import ControllerDaemon, RefreshRecord
from repro.runtime.events import EventLoop
from repro.runtime.faults import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    NetworkFaultState,
    cascading_failure_schedule,
    flash_crowd_schedule,
)
from repro.runtime.rollout import (
    ChannelSpec,
    ConfigChannel,
    CoverageTracker,
    RolloutDriver,
)
from repro.shim.config import ShimConfig
from repro.simulation.emulation import Emulation
from repro.simulation.tracegen import TraceGenerator, TraceSpec
from repro.simulation.tracestore import ChunkedReplay, TraceStore
from repro.traffic.variability import TrafficVariabilityModel

@dataclass
class Scenario:
    """Declarative spec of one closed-loop control-plane run."""

    name: str
    topology: str = "internet2"
    seed: int = 7
    epochs: int = 8
    epoch_seconds: float = 300.0
    mirror: str = "dc"
    dc_capacity_factor: Optional[float] = 10.0
    max_link_load: float = 0.4
    drift_threshold: float = 0.2
    refresh_period_epochs: Optional[int] = 3
    strategy: str = "overlap"
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    drift_sigma: float = 0.0
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    sessions_per_epoch: int = 300
    rule_capacity: Optional[int] = None
    planner: str = "global"
    regions: int = 2
    estimator: Optional[str] = None
    sketch_width: int = 1024
    sketch_depth: int = 4
    chunk_packets: int = 256
    ingest_workers: int = 2

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if self.mirror not in MIRROR_POLICIES:
            raise ValueError(f"unknown mirror {self.mirror!r}")
        if self.drift_sigma < 0:
            raise ValueError("drift_sigma must be non-negative")
        if self.planner not in ("global", "sharded"):
            raise ValueError(f"unknown planner {self.planner!r}")
        if self.regions < 1:
            raise ValueError("regions must be >= 1")
        if self.estimator not in (None, "sketch"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.sketch_width < 1 or self.sketch_depth < 1:
            raise ValueError("sketch shape must be >= 1x1")
        if self.chunk_packets < 1:
            raise ValueError("chunk_packets must be >= 1")
        if self.ingest_workers < 1:
            raise ValueError("ingest_workers must be >= 1")
        for fault in self.faults.events:
            if fault.kind is FaultKind.CONTROLLER_DOWN:
                if self.planner != "sharded":
                    raise ValueError(
                        "controller-down faults need the sharded "
                        "planner")
                if fault.epoch < 1:
                    raise ValueError(
                        "controller-down faults must fire after the "
                        "bootstrap epoch")

    @property
    def refresh_period(self) -> Optional[float]:
        if self.refresh_period_epochs is None:
            return None
        return self.refresh_period_epochs * self.epoch_seconds

    def to_dict(self) -> Dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["channel"] = asdict(self.channel)
        out["faults"] = [{**asdict(fault), "kind": fault.kind.value}
                         for fault in self.faults.events]
        return out


@dataclass
class EpochRecord:
    """One epoch's row in the scenario timeline.

    All fields except ``solve_wall_seconds`` are pure functions of the
    scenario (deterministic across runs); wall-clock solve latency is
    reported for operators but excluded from the fingerprint.
    """

    epoch: int
    sim_time: float
    faults: List[str]
    refresh_reason: Optional[str]
    solve_ok: bool
    solve_error: Optional[str]
    lp_load_cost: Optional[float]
    coverage_min: float
    coverage_end: float
    duplication_max: float
    miss_rate: float
    rollout_latency: Optional[float]
    emulated_max_work: float
    emulated_alerts: int
    events_fired: int
    solve_wall_seconds: Optional[float] = None
    rules_shipped: Optional[int] = None
    rules_installed: Optional[int] = None
    # Estimator-mode fields (None when estimator is off). Byte and
    # chunk counts are pure functions of the seeded trace, so they
    # belong to the deterministic fingerprint.
    estimate_l1_rel: Optional[float] = None
    estimator_state_bytes: Optional[int] = None
    ingest_chunks: Optional[int] = None
    ingest_max_resident_bytes: Optional[int] = None

    def deterministic_dict(self) -> Dict:
        """Every field but the wall clock — what the fingerprint
        hashes, so a new field is fingerprinted by default."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "solve_wall_seconds"}
        out["faults"] = list(self.faults)
        return out

    def to_dict(self) -> Dict:
        out = self.deterministic_dict()
        out["solve_wall_seconds"] = self.solve_wall_seconds
        return out


@dataclass
class ScenarioReport:
    """The outcome timeline of one scenario run."""

    scenario: Scenario
    records: List[EpochRecord]

    def summary(self) -> Dict:
        refreshes: Dict[str, int] = {}
        for record in self.records:
            if record.refresh_reason:
                refreshes[record.refresh_reason] = \
                    refreshes.get(record.refresh_reason, 0) + 1
        latencies = [r.rollout_latency for r in self.records
                     if r.rollout_latency is not None]
        return {
            "epochs": len(self.records),
            "refreshes": refreshes,
            "faults_injected": sum(len(r.faults)
                                   for r in self.records),
            "min_coverage": min((r.coverage_min
                                 for r in self.records), default=1.0),
            "max_coverage_gap": max((1.0 - r.coverage_min
                                     for r in self.records),
                                    default=0.0),
            "max_duplication": max((r.duplication_max
                                    for r in self.records),
                                   default=0.0),
            "mean_rollout_latency": (sum(latencies) / len(latencies)
                                     if latencies else None),
            "rules_shipped": sum(r.rules_shipped for r in self.records
                                 if r.rules_shipped is not None),
            "rules_installed": sum(r.rules_installed
                                   for r in self.records
                                   if r.rules_installed is not None),
            "final_lp_load_cost": next(
                (r.lp_load_cost for r in reversed(self.records)
                 if r.lp_load_cost is not None), None),
        }

    def fingerprint(self) -> str:
        """SHA-256 over the deterministic timeline — identical for two
        runs of the same scenario (the bit-reproducibility check)."""
        payload = json.dumps(
            [r.deterministic_dict() for r in self.records],
            sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict:
        return {
            "schema": 1,
            "scenario": self.scenario.to_dict(),
            "epochs": [r.to_dict() for r in self.records],
            "summary": self.summary(),
            "fingerprint": self.fingerprint(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent,
                          sort_keys=True)

    def timeline_rows(self) -> List[Dict]:
        """Per-epoch metric rows for the JSONL timeline export
        (:func:`repro.obs.export.write_timeline_jsonl`)."""
        rows = []
        for record in self.records:
            metrics = {
                k: v for k, v in record.deterministic_dict().items()
                if isinstance(v, (int, float)) and
                not isinstance(v, bool) and k not in ("epoch",
                                                      "sim_time")
            }
            metrics["faults"] = len(record.faults)
            metrics["refreshed"] = 1 if record.refresh_reason else 0
            rows.append({"epoch": record.epoch,
                         "t": record.sim_time, "metrics": metrics})
        return rows


@dataclass
class EpochFeed:
    """What the feed stage hands the rest of an epoch: the faults that
    opened it, the faulted, drifted network, its trace chunked for
    replay and, in estimator mode, the packed store the chunks map."""

    epoch: int
    fired: List[FaultEvent]
    state: NetworkState
    classifier: Callable
    replay: Optional[ChunkedReplay]
    store_dir: Optional[Path] = None

    def close(self) -> None:
        """Drop the trace (and its memmaps), then the store on disk."""
        self.replay = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir)


class Decision(NamedTuple):
    """The decide stage's outcome; ``error`` names a failed solve."""

    refresh: Optional[RefreshRecord]
    error: Optional[str] = None


class ScenarioRun:
    """One closed-loop run, steppable epoch by epoch and stage by stage.

    The constructor wires the loop; :meth:`step` plays one epoch as
    five stages — :meth:`inject_faults`, :meth:`feed`, :meth:`decide`,
    :meth:`settle`, :meth:`observe` — which a test that needs a solver
    failure or an empty window calls itself, perturbing the run
    between two of them; :meth:`report` closes the timeline.

    Both modes share one trace path, ``generate_batch(direct=True)`` →
    ``ChunkedReplay`` → ``Emulation.run_signature_chunked``; estimator
    mode packs the batch into a store under ``workdir`` first (needed
    in that mode only) and streams the same chunks through the ingest
    daemon.
    """

    def __init__(self, scenario: Scenario,
                 workdir: Optional[Path] = None,
                 loop_factory: Optional[Callable[[], EventLoop]] = None
                 ) -> None:
        from repro.experiments.common import setup_topology

        self.scenario = scenario
        self.workdir = None if workdir is None else Path(workdir)
        mirror_policy = MIRROR_POLICIES[scenario.mirror]
        self.baseline = setup_topology(
            scenario.topology,
            dc_capacity_factor=scenario.dc_capacity_factor
            if mirror_policy.needs_datacenter else None).state
        self.loop = (loop_factory or EventLoop)()
        channel = ConfigChannel(scenario.channel,
                                seed=scenario.seed * 7919 + 1)
        planner_factory = None
        if scenario.planner == "sharded":
            # jobs=1: deterministic replay stays single-threaded
            planner_factory = partial(
                ShardedPlanner, mirror_policy=mirror_policy,
                max_link_load=scenario.max_link_load,
                num_regions=scenario.regions, seed=scenario.seed,
                jobs=1)
        self.ingest, estimator_scale = None, 1.0
        if scenario.estimator == "sketch":
            from repro.ingest import IngestDaemon

            self.workdir.mkdir(parents=True, exist_ok=True)
            classes = self.baseline.classes
            # Fixed sampling-rate calibration: the tap sees a bounded
            # session budget per epoch, so observed counts scale to
            # |T_c| units by the baseline rate. Relative drift between
            # classes stays visible to the trigger; a uniform surge
            # beyond the budget does not (honest fixed-budget sampling).
            estimator_scale = (sum(cls.num_sessions for cls in classes)
                               / scenario.sessions_per_epoch)
            self.ingest = IngestDaemon(
                [cls.name for cls in classes],
                width=scenario.sketch_width, depth=scenario.sketch_depth,
                seed=scenario.seed * 49999 + 3,
                workers=scenario.ingest_workers)
        self.daemon = ControllerDaemon(
            self.baseline, RolloutDriver(channel, scenario.strategy),
            mirror_policy=mirror_policy,
            max_link_load=scenario.max_link_load,
            drift_threshold=scenario.drift_threshold,
            refresh_period=scenario.refresh_period,
            planner_factory=planner_factory,
            estimator=self.ingest,
            estimator_scale=estimator_scale)
        self.agents = build_agents(self.baseline.node_capacity,
                                   rule_capacity=scenario.rule_capacity)
        self.drift_model = (TrafficVariabilityModel.default(
            sigma=scenario.drift_sigma) if scenario.drift_sigma > 0
            else None)
        self.drift_rng = np.random.default_rng(scenario.seed * 104729 + 2)
        self.fault_state = NetworkFaultState()
        self._signature = self.fault_state.structural_signature()
        self.records: List[EpochRecord] = []
        self._refreshes: List[Tuple[EpochRecord, RefreshRecord]] = []

    def installed_configs(self, state: NetworkState
                          ) -> Dict[str, Optional[ShimConfig]]:
        """What each surviving node's shim enforces right now."""
        return {node: self.agents[node].effective_config()
                for node in state.nids_nodes}

    def inject_faults(self, epoch: int) -> List[FaultEvent]:
        """Stage 1: fold the faults due at this epoch boundary into
        the fault state and kill or revive the agents they name."""
        self.fault_state.expire(epoch)
        fired = self.scenario.faults.at_epoch(epoch)
        for fault in fired:
            self.fault_state.apply(fault, self.baseline)
            get_registry().inc("runtime.faults.injected")
        for node, agent in self.agents.items():
            if node in self.fault_state.dead_nodes:
                if agent.alive:
                    agent.fail()
            elif not agent.alive:
                agent.recover()
        return fired

    def feed(self, epoch: int, fired: List[FaultEvent]) -> EpochFeed:
        """Stage 2: this epoch's traffic (variability-model drift x
        surges, folded over the surviving topology) and its trace."""
        scenario = self.scenario
        classes = list(self.baseline.classes)
        if self.drift_model is not None:
            factors = self.drift_model.draw(self.drift_rng, len(classes))
            classes = [cls.scaled(factor) for cls, factor in
                       zip(classes, factors.tolist())]
        state, _impacts = self.fault_state.materialize(
            self.baseline.with_traffic(
                self.fault_state.scale_classes(classes)))
        generator = TraceGenerator(
            state.topology.nodes, state.classes,
            spec=TraceSpec(total_sessions=scenario.sessions_per_epoch),
            seed=scenario.seed * 100003 + epoch)
        batch = generator.generate_batch(
            state.nids_nodes, with_payloads=True, direct=True)
        if self.ingest is None:
            return EpochFeed(
                epoch, fired, state, generator.classifier,
                ChunkedReplay(batch, scenario.chunk_packets))
        # Estimator mode: only memmap-backed slabs stay resident, and
        # the ingest daemon sees the same chunks over the first half
        # of the epoch — the decision then runs on its estimates.
        store_dir = self.workdir / f"epoch{epoch:03d}"
        batch = TraceStore.pack(batch, store_dir).batch()
        replay = ChunkedReplay(batch, scenario.chunk_packets)
        start = epoch * scenario.epoch_seconds
        window = scenario.epoch_seconds / 2.0
        self.ingest.begin_window()
        self.ingest.stream(self.loop, iter(replay), start=start,
                           interval=window / max(replay.num_chunks, 1))
        self.loop.run_until(start + window)
        return EpochFeed(epoch, fired, state, generator.classifier,
                         replay, store_dir)

    def decide(self, feed: EpochFeed) -> Decision:
        """Stage 3: the daemon's control decision. A failed solve is
        counted (``runtime.solve.failures``), never raised: whatever
        the agents run stays installed and the next epoch retries."""
        signature = self.fault_state.structural_signature()
        structural = signature != self._signature
        self._signature = signature
        try:
            for fault in feed.fired:
                if fault.kind is FaultKind.CONTROLLER_DOWN:
                    self.daemon.fail_region(fault.target)
            if structural:
                self.daemon.replace_state(feed.state)
            return Decision(self.daemon.step(
                self.loop, self.agents, feed.state.classes))
        except (LPError, RuntimeError, ValueError) as exc:
            get_registry().inc("runtime.solve.failures")
            return Decision(None, f"{type(exc).__name__}: {exc}")

    def settle(self, feed: EpochFeed) -> Dict[str, float]:
        """Stage 4: drain the epoch's events, tracking coverage after
        each delivery/ack instant (the tracker re-derives only what an
        event changed); returns the record fields it measured."""
        epoch_end = (feed.epoch + 1) * self.scenario.epoch_seconds
        tracker = CoverageTracker(feed.state.classes)
        cov = tracker.update(self.installed_configs(feed.state))
        coverage_min, duplication_max = cov.coverage, cov.duplication
        events_fired = 0
        while True:
            next_time = self.loop.queue.peek_time()
            if next_time is None or next_time > epoch_end + 1e-12:
                break
            events_fired += self.loop.run_until(next_time)
            cov = tracker.update(self.installed_configs(feed.state))
            coverage_min = min(coverage_min, cov.coverage)
            duplication_max = max(duplication_max, cov.duplication)
        self.loop.run_until(epoch_end)
        metrics = get_registry()
        metrics.observe("runtime.coverage_gap", 1.0 - coverage_min)
        metrics.gauge("runtime.coverage", cov.coverage)
        return dict(coverage_min=coverage_min, coverage_end=cov.coverage,
                    duplication_max=duplication_max, events_fired=events_fired)

    def _estimator_fields(self, feed: EpochFeed) -> Dict:
        """Estimate error against this epoch's exact per-class counts,
        sketch state, and the resident high-water mark (the
        O(sketch + chunk) evidence); empty when the estimator is off."""
        if self.ingest is None:
            return {}
        exact = feed.replay.batch.sessions.class_counts()
        snapshot = self.ingest.snapshot()
        errors = snapshot.estimate_errors(
            {name: exact.get(name, 0.0)
             for name in self.ingest.class_names})
        get_registry().gauge("sketch.estimate.l1_rel", errors["l1_rel"])
        stats = self.ingest.stats
        return dict(estimate_l1_rel=errors["l1_rel"],
                    estimator_state_bytes=snapshot.state_bytes,
                    ingest_chunks=stats.chunks,
                    ingest_max_resident_bytes=stats.max_resident_bytes)

    def observe(self, feed: EpochFeed, decision: Decision,
                settled: Dict[str, float]) -> EpochRecord:
        """Stage 5: ground truth — the epoch's trace replayed against
        what the agents actually run (a dead node, or one with nothing
        installed, runs an empty shim) — and the timeline row. Closes
        the feed: the epoch's store does not outlive its replay."""
        state, refresh = feed.state, decision.refresh
        configs = {
            node: config if config is not None
            else ShimConfig(node=node, rules={})
            for node, config in self.installed_configs(state).items()}
        replay = Emulation(state, configs, feed.classifier
                           ).run_signature_chunked(feed.replay)
        estimator_fields = self._estimator_fields(feed)
        feed.close()
        result = self.daemon.controller.current_result
        record = EpochRecord(
            epoch=feed.epoch,
            sim_time=feed.epoch * self.scenario.epoch_seconds,
            faults=[f.describe() for f in feed.fired],
            refresh_reason=(refresh.reason if refresh is not None
                            else None),
            solve_ok=decision.error is None,
            solve_error=decision.error,
            lp_load_cost=(result.load_cost if result is not None and
                          decision.error is None else None),
            miss_rate=1.0 - settled["coverage_end"],
            rollout_latency=None,  # known once the session completes
            emulated_max_work=replay.max_work(
                exclude=[state.dc_node] if state.dc_node else []),
            emulated_alerts=replay.alerts,
            solve_wall_seconds=(refresh.solve_wall_seconds
                                if refresh is not None else None),
            **settled, **estimator_fields)
        self.records.append(record)
        if refresh is not None:
            self._refreshes.append((record, refresh))
        return record

    def step(self, epoch: int) -> EpochRecord:
        """Play one epoch: the five stages in order."""
        get_registry().inc("runtime.epochs")
        fired = self.inject_faults(epoch)
        feed = self.feed(epoch, fired)
        decision = self.decide(feed)
        settled = self.settle(feed)
        return self.observe(feed, decision, settled)

    def report(self) -> ScenarioReport:
        """The timeline so far; rollout latencies and rule counts are
        filled in here (a slow rollout completes epochs later)."""
        for record, refresh in self._refreshes:
            record.rollout_latency = refresh.session.latency
            record.rules_shipped = refresh.session.rules_shipped
            record.rules_installed = refresh.session.rules_installed
        return ScenarioReport(self.scenario, self.records)


def run_scenario(scenario: Scenario,
                 workdir: Optional[Path] = None,
                 loop_factory: Optional[Callable[[], EventLoop]] = None
                 ) -> ScenarioReport:
    """Play a scenario over simulated time; returns the timeline.

    The run is seeded end to end: traffic drift, channel latency/loss
    draws, and epoch traces all derive from ``scenario.seed``.

    ``loop_factory`` substitutes the event loop — the schedule
    perturbation verifier (``repro racecheck``) passes a
    :class:`~repro.runtime.events.PerturbedEventLoop` builder here to
    replay the same scenario under permuted same-instant event orders.

    In estimator mode (``scenario.estimator == "sketch"``) each
    epoch's trace is packed into a zero-copy
    :class:`~repro.simulation.tracestore.TraceStore` under ``workdir``
    (a temporary directory by default) and streamed through an
    :class:`~repro.ingest.daemon.IngestDaemon` in bounded slabs:
    resident trace/traffic state stays O(sketch + chunk), and disk
    holds one epoch — a store is removed once it has been replayed.
    """
    holder = (tempfile.TemporaryDirectory(prefix="repro-estimator-")
              if scenario.estimator is not None and workdir is None
              else nullcontext(workdir))
    with holder as trace_dir:
        run = ScenarioRun(scenario, trace_dir, loop_factory)
        for epoch in range(scenario.epochs):
            run.step(epoch)
        return run.report()


# -- canned scenarios ------------------------------------------------------


def _busiest_source(topology_name: str) -> str:
    """The PoP originating the most gravity traffic (deterministic)."""
    from repro.experiments.common import setup_topology

    setup = setup_topology(topology_name)
    volumes: Dict[str, float] = {}
    for cls in setup.classes:
        volumes[cls.source] = volumes.get(cls.source, 0.0) + \
            cls.num_sessions
    return max(sorted(volumes), key=lambda pop: volumes[pop])


def _safe_failing_nodes(topology_name: str, count: int,
                        dc_capacity_factor: Optional[float] = 10.0
                        ) -> List[str]:
    """``count`` nodes whose sequential failure keeps every surviving
    class routable — and the datacenter reachable — chosen
    deterministically, busiest-first, on the DC-attached state the
    scenario solves over (killing the DC's anchor PoP strands the
    mirror though no *class* is disconnected).
    """
    from repro.core.failures import fail_node
    from repro.experiments.common import setup_topology

    setup = setup_topology(topology_name,
                           dc_capacity_factor=dc_capacity_factor)
    state = setup.state
    by_traffic = sorted(
        (n for n in state.topology.nodes if n != state.dc_node),
        key=lambda node: -sum(cls.num_sessions
                              for cls in state.classes
                              if node in cls.path))
    chosen: List[str] = []
    for node in by_traffic:
        if len(chosen) == count:
            break
        try:
            candidate_state, impact = fail_node(state, node)
        except ValueError:
            continue
        if impact.dropped_datacenter is not None:
            continue  # failure strands the mirror target
        chosen.append(node)
        state = candidate_state
    if len(chosen) < count:
        raise ValueError(
            f"{topology_name} cannot absorb {count} sequential "
            f"failures")
    return chosen


def steady_drift_scenario(topology: str = "internet2",
                          epochs: int = 10,
                          seed: int = 7) -> Scenario:
    """Steady state: heavy-tailed per-epoch drift, periodic + drift
    triggers, a lossy jittery channel, overlap rollouts."""
    return Scenario(
        name="steady-drift", topology=topology, seed=seed,
        epochs=epochs, drift_sigma=0.35, drift_threshold=0.25,
        refresh_period_epochs=3,
        channel=ChannelSpec(base_delay=2.0, jitter=3.0, loss=0.1,
                            retransmit_timeout=8.0),
        strategy="overlap")


def flash_crowd_scenario(topology: str = "internet2",
                         epochs: int = 8,
                         seed: int = 11) -> Scenario:
    """A 4x surge on the busiest ingress's classes for three epochs —
    the sudden-shift case the Section 9 slack discussion targets."""
    prefix = f"{_busiest_source(topology)}->"
    return Scenario(
        name="flash-crowd", topology=topology, seed=seed,
        epochs=epochs, drift_sigma=0.15, drift_threshold=0.2,
        refresh_period_epochs=4,
        channel=ChannelSpec(base_delay=2.0, jitter=2.0, loss=0.05,
                            retransmit_timeout=8.0),
        strategy="overlap",
        faults=flash_crowd_schedule(prefix, factor=4.0,
                                    start_epoch=2,
                                    duration_epochs=3))


def cascading_failure_scenario(topology: str = "internet2",
                               epochs: int = 10,
                               seed: int = 13) -> Scenario:
    """Two busy nodes die in sequence, then both recover; every
    topology change forces a structural re-solve and direct rollout."""
    victims = _safe_failing_nodes(topology, 2)
    return Scenario(
        name="cascading-failure", topology=topology, seed=seed,
        epochs=epochs, drift_sigma=0.1, drift_threshold=0.3,
        refresh_period_epochs=None,
        channel=ChannelSpec(base_delay=2.0, jitter=2.0, loss=0.05,
                            retransmit_timeout=8.0),
        strategy="overlap",
        faults=cascading_failure_schedule(victims, start_epoch=2,
                                          spacing=2,
                                          recover_epoch=7))


def regional_failover_scenario(topology: str = "internet2",
                               epochs: int = 8,
                               seed: int = 17,
                               regions: int = 2) -> Scenario:
    """Sharded control plane under a regional controller failure: the
    busiest PoP's controller dies mid-run, its neighbor adopts the
    shard, and the re-solved assignment rolls out coverage-safely
    (the node universe is unchanged, so overlap applies)."""
    victim = _busiest_source(topology)
    return Scenario(
        name="regional-failover", topology=topology, seed=seed,
        epochs=epochs, drift_sigma=0.1, drift_threshold=0.3,
        refresh_period_epochs=None,
        channel=ChannelSpec(base_delay=2.0, jitter=2.0, loss=0.05,
                            retransmit_timeout=8.0),
        strategy="overlap",
        planner="sharded", regions=regions,
        faults=FaultSchedule([FaultEvent(
            3, FaultKind.CONTROLLER_DOWN, victim)]))


def sketch_estimator_scenario(topology: str = "tinet",
                              epochs: int = 6,
                              seed: int = 23) -> Scenario:
    """Closed loop on *estimates*: every epoch's trace streams
    through the ingest daemon in bounded slabs and the controller
    optimizes against the sketch's view — no exact matrix is ever
    fed to it. The periodic trigger is off, so every post-bootstrap
    refresh is sketch-driven drift."""
    return Scenario(
        name="sketch-estimator", topology=topology, seed=seed,
        epochs=epochs, drift_sigma=0.35, drift_threshold=0.2,
        refresh_period_epochs=None,
        channel=ChannelSpec(base_delay=2.0, jitter=2.0, loss=0.05,
                            retransmit_timeout=8.0),
        strategy="overlap",
        estimator="sketch", sketch_width=2048, sketch_depth=4,
        chunk_packets=256, ingest_workers=2,
        sessions_per_epoch=1500)


CANNED_SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "steady-drift": steady_drift_scenario,
    "flash-crowd": flash_crowd_scenario,
    "cascading-failure": cascading_failure_scenario,
    "regional-failover": regional_failover_scenario,
    "sketch-estimator": sketch_estimator_scenario,
}
