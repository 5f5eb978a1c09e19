"""Scenario specs, the multi-epoch runner, and timeline reports.

A :class:`Scenario` declares everything about a closed-loop run — the
topology, traffic-drift model, channel characteristics, rollout
strategy, fault schedule, and epoch horizon — and
:func:`run_scenario` plays it: every epoch it injects due faults,
evolves traffic (per-entry factors drawn from the Section 8.2
variability model), lets the :class:`~repro.runtime.daemon.ControllerDaemon`
decide whether to re-optimize, drains the event loop (config
deliveries, acks, retransmissions) while tracking hash-space coverage
after *every* event, and replays a synthetic epoch trace through the
fast batch emulation as ground truth against whatever configurations
the agents are actually running.

Everything is derived from ``Scenario.seed``; two runs of the same
scenario produce bit-identical :class:`ScenarioReport` timelines. The
only nondeterministic quantity — wall-clock solve latency — is kept in
a field explicitly excluded from :meth:`ScenarioReport.fingerprint`.

Three canned scenarios (see :data:`CANNED_SCENARIOS`) exercise the
regimes the paper's Section 9 sketches: steady-state traffic drift,
a flash-crowd surge, and a cascading node failure with recovery.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mirrors import MIRROR_POLICIES
from repro.lpsolve.errors import LPError
from repro.obs import get_registry
from repro.runtime.agents import NodeAgent, build_agents
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
        return {
            "name": self.name,
            "topology": self.topology,
            "seed": self.seed,
            "epochs": self.epochs,
            "epoch_seconds": self.epoch_seconds,
            "mirror": self.mirror,
            "dc_capacity_factor": self.dc_capacity_factor,
            "max_link_load": self.max_link_load,
            "drift_threshold": self.drift_threshold,
            "refresh_period_epochs": self.refresh_period_epochs,
            "strategy": self.strategy,
            "channel": {
                "base_delay": self.channel.base_delay,
                "jitter": self.channel.jitter,
                "loss": self.channel.loss,
                "retransmit_timeout": self.channel.retransmit_timeout,
                "max_retries": self.channel.max_retries,
            },
            "drift_sigma": self.drift_sigma,
            "faults": [
                {"epoch": f.epoch, "kind": f.kind.value,
                 "target": f.target, "factor": f.factor,
                 "duration_epochs": f.duration_epochs}
                for f in self.faults.events
            ],
            "sessions_per_epoch": self.sessions_per_epoch,
            "rule_capacity": self.rule_capacity,
            "planner": self.planner,
            "regions": self.regions,
            "estimator": self.estimator,
            "sketch_width": self.sketch_width,
            "sketch_depth": self.sketch_depth,
            "chunk_packets": self.chunk_packets,
            "ingest_workers": self.ingest_workers,
        }


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


def _effective_configs(state_nodes: Sequence[str],
                       agents: Dict[str, NodeAgent]
                       ) -> Dict[str, Optional[ShimConfig]]:
    return {node: agents[node].effective_config()
            for node in state_nodes if node in agents}


def _emulation_configs(state_nodes: Sequence[str],
                       agents: Dict[str, NodeAgent]
                       ) -> Dict[str, ShimConfig]:
    """Installed configs for the replay; nodes with nothing installed
    (or dead) run an empty shim that ignores everything."""
    configs = {}
    for node in state_nodes:
        config = None
        if node in agents:
            config = agents[node].effective_config()
        configs[node] = config if config is not None else \
            ShimConfig(node=node, rules={})
    return configs


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
    :class:`~repro.simulation.tracestore.TraceStore` under
    ``workdir`` (a temporary directory by default, cleaned up on
    return) and streamed through an
    :class:`~repro.ingest.daemon.IngestDaemon` in bounded slabs, so
    resident trace/traffic state stays O(sketch + chunk).
    """
    if scenario.estimator is None:
        return _run_scenario(scenario, None, loop_factory)
    if workdir is not None:
        path = Path(workdir)
        path.mkdir(parents=True, exist_ok=True)
        return _run_scenario(scenario, path, loop_factory)
    with tempfile.TemporaryDirectory(
            prefix="repro-estimator-") as tmp:
        return _run_scenario(scenario, Path(tmp), loop_factory)


def _run_scenario(scenario: Scenario,
                  trace_dir: Optional[Path],
                  loop_factory: Optional[Callable[[], EventLoop]] = None
                  ) -> ScenarioReport:
    from repro.experiments.common import setup_topology
    from repro.simulation.emulation import Emulation
    from repro.simulation.tracegen import TraceGenerator, TraceSpec
    from repro.simulation.tracestore import ChunkedReplay, TraceStore

    metrics = get_registry()
    mirror_policy = MIRROR_POLICIES[scenario.mirror]
    setup = setup_topology(scenario.topology,
                           dc_capacity_factor=scenario.dc_capacity_factor
                           if mirror_policy.needs_datacenter else None)
    baseline_state = setup.state
    baseline_classes = list(baseline_state.classes)

    loop = EventLoop() if loop_factory is None else loop_factory()
    channel = ConfigChannel(scenario.channel,
                            seed=scenario.seed * 7919 + 1)
    driver = RolloutDriver(channel, scenario.strategy)
    planner_factory = None
    if scenario.planner == "sharded":
        from repro.core.controller import ShardedPlanner

        def planner_factory(state):
            return ShardedPlanner(
                state,
                mirror_policy=mirror_policy,
                max_link_load=scenario.max_link_load,
                num_regions=scenario.regions,
                seed=scenario.seed,
                jobs=1)  # deterministic replay stays single-threaded
    ingest = None
    estimator_scale = 1.0
    if scenario.estimator == "sketch":
        from repro.ingest import IngestDaemon

        # Fixed sampling-rate calibration: the tap sees a bounded
        # session budget per epoch, so observed counts scale to
        # |T_c| units by the baseline rate. Relative drift between
        # classes stays visible to the trigger; a uniform surge
        # beyond the budget does not (honest fixed-budget sampling).
        baseline_total = sum(cls.num_sessions
                             for cls in baseline_classes)
        estimator_scale = (baseline_total /
                           scenario.sessions_per_epoch)
        ingest = IngestDaemon(
            [cls.name for cls in baseline_classes],
            width=scenario.sketch_width,
            depth=scenario.sketch_depth,
            seed=scenario.seed * 49999 + 3,
            workers=scenario.ingest_workers)
    daemon = ControllerDaemon(
        baseline_state, driver,
        mirror_policy=mirror_policy,
        max_link_load=scenario.max_link_load,
        drift_threshold=scenario.drift_threshold,
        refresh_period=scenario.refresh_period,
        planner_factory=planner_factory,
        estimator=ingest,
        estimator_scale=estimator_scale)
    agents = build_agents(baseline_state.node_capacity,
                          rule_capacity=scenario.rule_capacity)

    drift_model = (TrafficVariabilityModel.default(
        sigma=scenario.drift_sigma) if scenario.drift_sigma > 0
        else None)
    drift_rng = np.random.default_rng(scenario.seed * 104729 + 2)

    fault_state = NetworkFaultState()
    prev_signature = fault_state.structural_signature()
    records: List[EpochRecord] = []
    pending_refresh: List[Tuple[int, RefreshRecord]] = []

    for epoch in range(scenario.epochs):
        epoch_start = epoch * scenario.epoch_seconds
        epoch_end = epoch_start + scenario.epoch_seconds
        metrics.inc("runtime.epochs")

        # 1. Faults due at this epoch boundary.
        fault_state.expire(epoch)
        fired = scenario.faults.at_epoch(epoch)
        for fault in fired:
            fault_state.apply(fault, baseline_state)
            metrics.inc("runtime.faults.injected")
        for node, agent in agents.items():
            if node in fault_state.dead_nodes:
                if agent.alive:
                    agent.fail()
            elif not agent.alive:
                agent.recover()

        # 2. This epoch's traffic: variability-model drift x surges.
        if drift_model is not None:
            drifted = [cls.scaled(drift_model.sample_factor(drift_rng))
                       for cls in baseline_classes]
        else:
            drifted = list(baseline_classes)
        surged = fault_state.scale_classes(drifted)
        traffic_state = baseline_state.with_traffic(surged)
        current_state, _impacts = fault_state.materialize(traffic_state)

        # 2b. Estimator mode: pack this epoch's trace into the store
        #     and stream it through the ingest daemon in bounded
        #     slabs during the first half of the epoch — the control
        #     decision below then runs on the sketch's estimates.
        generator = TraceGenerator(
            current_state.topology.nodes, current_state.classes,
            spec=TraceSpec(
                total_sessions=scenario.sessions_per_epoch),
            seed=scenario.seed * 100003 + epoch)
        epoch_replay = None
        epoch_exact: Optional[Dict[str, float]] = None
        if ingest is not None:
            assert trace_dir is not None
            batch = generator.generate_batch(
                current_state.nids_nodes, with_payloads=True,
                direct=True)
            store = TraceStore.pack(
                batch, trace_dir / f"epoch{epoch:03d}")
            del batch  # only memmap-backed slabs stay resident
            stored = store.batch()
            epoch_replay = ChunkedReplay(stored,
                                         scenario.chunk_packets)
            class_id = np.asarray(stored.sessions.class_id)
            counts = np.bincount(
                class_id[class_id >= 0],
                minlength=len(stored.sessions.class_names))
            epoch_exact = {
                name: float(count) for name, count in
                zip(stored.sessions.class_names, counts)}
            ingest.begin_window()
            window = scenario.epoch_seconds / 2.0
            interval = window / max(epoch_replay.num_chunks, 1)
            ingest.stream(loop, iter(epoch_replay),
                          start=epoch_start, interval=interval)
            loop.run_until(epoch_start + window)

        # 3. The daemon's control decision.
        signature = fault_state.structural_signature()
        structural = signature != prev_signature
        prev_signature = signature
        solve_ok, solve_error, refresh = True, None, None
        try:
            for fault in fired:
                if fault.kind is FaultKind.CONTROLLER_DOWN:
                    daemon.fail_region(fault.target)
            if structural:
                daemon.replace_state(current_state)
            refresh = daemon.step(loop, agents,
                                  current_state.classes)
        except (LPError, RuntimeError, ValueError) as exc:
            solve_ok = False
            solve_error = f"{type(exc).__name__}: {exc}"
            metrics.inc("runtime.solve.failures")
        if refresh is not None:
            pending_refresh.append((epoch, refresh))

        # 4. Drain the epoch's events, tracking coverage after each
        #    delivery/ack instant (the transient-window accounting);
        #    the tracker re-derives only what an event changed.
        tracker = CoverageTracker(current_state.classes)
        cov = tracker.update(
            _effective_configs(current_state.nids_nodes, agents))
        coverage_min, duplication_max = cov.coverage, cov.duplication
        fired_events = 0
        while True:
            next_time = loop.queue.peek_time()
            if next_time is None or next_time > epoch_end + 1e-12:
                break
            fired_events += loop.run_until(next_time)
            cov = tracker.update(
                _effective_configs(current_state.nids_nodes, agents))
            coverage_min = min(coverage_min, cov.coverage)
            duplication_max = max(duplication_max, cov.duplication)
        loop.run_until(epoch_end)

        coverage_end = cov.coverage
        metrics.observe("runtime.coverage_gap", 1.0 - coverage_min)
        metrics.gauge("runtime.coverage", coverage_end)

        # 5. Ground truth: replay this epoch's trace against what the
        #    agents actually run. Estimator mode replays the packed
        #    store chunk by chunk (bit-identical to the whole-batch
        #    fast path, O(chunk) memory); the exact path keeps the
        #    oracle behavior.
        emulation = Emulation(
            current_state,
            _emulation_configs(current_state.nids_nodes, agents),
            generator.classifier)
        if epoch_replay is not None:
            replay = emulation.run_signature_chunked(epoch_replay)
        else:
            sessions = generator.generate(with_payloads=True)
            replay = emulation.run_signature(sessions, fast=True)

        # Estimator bookkeeping: estimate error against this epoch's
        # exact per-class counts, sketch state, and the resident
        # high-water mark (the O(sketch + chunk) evidence).
        estimate_l1_rel = None
        estimator_state_bytes = None
        ingest_chunks = None
        ingest_max_resident_bytes = None
        if ingest is not None and epoch_exact is not None:
            snapshot = ingest.snapshot()
            errors = snapshot.estimate_errors(
                {name: epoch_exact.get(name, 0.0)
                 for name in ingest.class_names})
            estimate_l1_rel = errors["l1_rel"]
            metrics.gauge("sketch.estimate.l1_rel",
                          errors["l1_rel"])
            estimator_state_bytes = snapshot.state_bytes
            ingest_chunks = ingest.stats.chunks
            ingest_max_resident_bytes = \
                ingest.stats.max_resident_bytes

        result = daemon.controller.current_result
        records.append(EpochRecord(
            epoch=epoch,
            sim_time=epoch_start,
            faults=[f.describe() for f in fired],
            refresh_reason=(refresh.reason if refresh is not None
                            else None),
            solve_ok=solve_ok,
            solve_error=solve_error,
            lp_load_cost=(result.load_cost if result is not None and
                          solve_ok else None),
            coverage_min=coverage_min,
            coverage_end=coverage_end,
            duplication_max=duplication_max,
            miss_rate=1.0 - coverage_end,
            rollout_latency=None,  # finalized below
            emulated_max_work=replay.max_work(
                exclude=[current_state.dc_node]
                if current_state.dc_node else []),
            emulated_alerts=replay.alerts,
            events_fired=fired_events,
            solve_wall_seconds=(refresh.solve_wall_seconds
                                if refresh is not None else None),
            estimate_l1_rel=estimate_l1_rel,
            estimator_state_bytes=estimator_state_bytes,
            ingest_chunks=ingest_chunks,
            ingest_max_resident_bytes=ingest_max_resident_bytes))

    # Rollout latencies and shipped-rule counts are known only once
    # sessions complete (a slow rollout can span epochs), so fill them
    # in after the run.
    for epoch, refresh in pending_refresh:
        records[epoch].rollout_latency = refresh.session.latency
        records[epoch].rules_shipped = refresh.session.rules_shipped
        records[epoch].rules_installed = \
            refresh.session.rules_installed

    return ScenarioReport(scenario=scenario, records=records)


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
    deterministically, busiest-first.

    The check runs on the same DC-attached state the scenario solves
    over: killing the DC's anchor PoP disconnects every mirror path
    even though no *class* is disconnected, so that candidate must be
    rejected too.
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
            candidate_state, _ = fail_node(state, node)
        except ValueError:
            continue
        dc = candidate_state.dc_node
        if dc is not None:
            try:
                for survivor in candidate_state.topology.nodes:
                    candidate_state.routing.path(survivor, dc)
            except KeyError:
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
