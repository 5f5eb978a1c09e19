"""Tests for the scenario runner: the closed-loop daemon over the
event loop, bit-reproducibility, coverage invariants, and reports.

These run on internet2 (11 PoPs) with short horizons so the whole
module stays in tier-1 time.
"""

import dataclasses
import json

import pytest

from repro.runtime import (
    CANNED_SCENARIOS,
    ChannelSpec,
    ControllerDaemon,
    EventLoop,
    RolloutDriver,
    Scenario,
    build_agents,
    run_scenario,
)
from repro.runtime.rollout import ConfigChannel
from repro.runtime.scenario import (
    EpochRecord,
    cascading_failure_scenario,
    flash_crowd_scenario,
    steady_drift_scenario,
)


@pytest.fixture(scope="module")
def drift_report():
    scenario = Scenario(
        name="unit-drift", topology="internet2", seed=3, epochs=4,
        drift_sigma=0.3,
        channel=ChannelSpec(base_delay=2.0, jitter=3.0, loss=0.1,
                            retransmit_timeout=8.0))
    return scenario, run_scenario(scenario)


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(name="bad", epochs=0)
        with pytest.raises(ValueError):
            Scenario(name="bad", mirror="teleport")
        with pytest.raises(ValueError):
            Scenario(name="bad", drift_sigma=-1.0)

    def test_refresh_period_in_seconds(self):
        scenario = Scenario(name="s", epoch_seconds=100.0,
                            refresh_period_epochs=3)
        assert scenario.refresh_period == 300.0
        scenario = Scenario(name="s", refresh_period_epochs=None)
        assert scenario.refresh_period is None

    def test_canned_registry(self):
        assert set(CANNED_SCENARIOS) == {
            "steady-drift", "flash-crowd", "cascading-failure",
            "regional-failover", "sketch-estimator"}
        for builder in CANNED_SCENARIOS.values():
            scenario = builder(epochs=3)
            assert scenario.epochs == 3


class TestScenarioRun:
    def test_bootstrap_then_full_coverage(self, drift_report):
        _, report = drift_report
        first = report.records[0]
        assert first.refresh_reason == "bootstrap"
        # Before any config lands nothing is covered; by epoch end the
        # direct rollout finished.
        assert first.coverage_min == pytest.approx(0.0)
        assert first.coverage_end == pytest.approx(1.0)

    def test_bit_reproducible(self, drift_report):
        scenario, report = drift_report
        again = run_scenario(scenario)
        assert report.fingerprint() == again.fingerprint()
        for a, b in zip(report.records, again.records):
            assert a.deterministic_dict() == b.deterministic_dict()

    def test_every_field_but_the_wall_clock_is_fingerprinted(
            self, drift_report):
        """A field added to the record joins the fingerprint without
        anyone remembering to list it."""
        @dataclasses.dataclass
        class Extended(EpochRecord):
            added_later: int = 7

        _, report = drift_report
        record = Extended(**dataclasses.asdict(report.records[0]))
        names = {f.name for f in dataclasses.fields(Extended)}
        assert set(record.deterministic_dict()) == \
            names - {"solve_wall_seconds"}
        assert record.deterministic_dict()["added_later"] == 7
        assert record.to_dict().keys() == names

    def test_coverage_never_drops_after_bootstrap(self, drift_report):
        """Overlap rollouts over a lossy channel keep coverage at
        100% in every post-bootstrap, fault-free epoch."""
        _, report = drift_report
        for record in report.records[1:]:
            assert record.coverage_min == pytest.approx(1.0), \
                record.epoch
            assert record.miss_rate == pytest.approx(0.0)

    def test_timeline_and_ground_truth_populated(self, drift_report):
        _, report = drift_report
        for record in report.records:
            assert record.emulated_max_work > 0
            assert record.solve_ok
        refreshed = [r for r in report.records if r.refresh_reason]
        assert refreshed
        for record in refreshed:
            assert record.rollout_latency is not None
            assert record.rollout_latency > 0
            assert record.solve_wall_seconds is not None

    def test_report_json_roundtrip(self, drift_report):
        _, report = drift_report
        payload = json.loads(report.to_json())
        assert payload["schema"] == 1
        assert payload["fingerprint"] == report.fingerprint()
        assert len(payload["epochs"]) == len(report.records)
        assert payload["scenario"]["name"] == "unit-drift"
        summary = payload["summary"]
        assert summary["epochs"] == len(report.records)

    def test_fingerprint_excludes_wall_clock(self, drift_report):
        """Wall-clock solve latency varies run to run; the fingerprint
        must not depend on it."""
        _, report = drift_report
        fingerprint = report.fingerprint()
        for record in report.records:
            record.solve_wall_seconds = 123.456
        assert report.fingerprint() == fingerprint

    def test_timeline_rows_match_export_schema(self, drift_report):
        from repro.obs.export import (
            read_timeline_jsonl,
            timeline_records,
            validate_timeline_record,
        )

        _, report = drift_report
        records = timeline_records(report.timeline_rows(),
                                   source="test", timestamp=0.0)
        for record in records:
            validate_timeline_record(record)
        lines = [json.dumps(r) for r in records]
        assert len(read_timeline_jsonl(lines)) == len(records)


class TestFlashCrowd:
    def test_surge_triggers_resolve_and_recovers(self):
        scenario = flash_crowd_scenario(epochs=6)
        report = run_scenario(scenario)
        surged = [r for r in report.records if r.faults]
        assert len(surged) == 1
        surge_epoch = surged[0].epoch
        before = report.records[surge_epoch - 1].lp_load_cost
        during = report.records[surge_epoch].lp_load_cost
        # The drift trigger catches the surge and the re-solve absorbs
        # it at a higher (but feasible) load cost.
        assert surged[0].refresh_reason is not None
        assert during > before
        assert all(r.solve_ok for r in report.records)
        # Coverage holds right through the surge.
        for record in report.records[1:]:
            assert record.coverage_min == pytest.approx(1.0)


class TestCascadingFailure:
    def test_resolve_restores_coverage_within_each_epoch(self):
        scenario = cascading_failure_scenario(epochs=8)
        report = run_scenario(scenario)
        structural = [r for r in report.records
                      if r.refresh_reason == "structural"]
        assert len(structural) >= 2  # two deaths (+ recovery epoch)
        for record in report.records:
            assert record.solve_ok, record.epoch
        # Every fault epoch ends fully covered again: the re-solve
        # restored feasibility within one epoch of each fault.
        for record in structural:
            assert record.coverage_end == pytest.approx(1.0)
            assert record.miss_rate == pytest.approx(0.0)
        # The transient dip during the direct rollout is visible.
        assert any(r.coverage_min < 1.0 for r in structural)

    def test_victims_avoid_dc_anchor(self):
        """The canned victims never strand the datacenter (the DC's
        anchor PoP is excluded even though no class dies with it)."""
        from repro.experiments.common import setup_topology

        scenario = cascading_failure_scenario(epochs=3)
        victims = {e.target for e in scenario.faults.events
                   if e.target}
        setup = setup_topology("internet2", dc_capacity_factor=10.0)
        dc = setup.state.dc_node
        (anchor,) = setup.state.topology.neighbors(dc)
        assert anchor not in victims


class TestRegionalFailover:
    def test_failover_keeps_coverage(self):
        from repro.runtime.scenario import regional_failover_scenario

        scenario = regional_failover_scenario(epochs=6)
        report = run_scenario(scenario)
        failover = [r for r in report.records
                    if r.refresh_reason == "failover"]
        assert len(failover) == 1
        assert failover[0].faults == ["controller-down"] or \
            any("controller-down" in f for f in failover[0].faults)
        assert all(r.solve_ok for r in report.records)
        # The shard adoption re-solves over the same node universe,
        # so the rollout stays coverage-safe end to end.
        for record in report.records[1:]:
            assert record.coverage_min == pytest.approx(1.0), \
                record.epoch
            assert record.miss_rate == pytest.approx(0.0)
        assert report.records[-1].coverage_end == pytest.approx(1.0)

    def test_failover_scenario_is_reproducible(self):
        from repro.runtime.scenario import regional_failover_scenario

        scenario = regional_failover_scenario(epochs=5)
        assert run_scenario(scenario).fingerprint() == \
            run_scenario(scenario).fingerprint()


class TestDaemon:
    def test_periodic_and_drift_triggers(self, line_state_dc):
        loop = EventLoop()
        channel = ConfigChannel(ChannelSpec(base_delay=1.0), seed=1)
        daemon = ControllerDaemon(
            line_state_dc, RolloutDriver(channel, "overlap"),
            drift_threshold=0.5, refresh_period=100.0)
        agents = build_agents(line_state_dc.node_capacity)
        classes = line_state_dc.classes

        record = daemon.step(loop, agents, classes)
        assert record.reason == "bootstrap"
        loop.run_until(50.0)
        assert daemon.step(loop, agents, classes) is None  # quiet
        loop.run_until(150.0)
        record = daemon.step(loop, agents, classes)
        assert record.reason == "periodic"

        drifted = [cls.scaled(4.0) for cls in classes]
        record = daemon.step(loop, agents, drifted)
        assert record.reason == "drift"

    def test_structural_rebuild(self, line_state_dc):
        from repro.core.failures import fail_node

        loop = EventLoop()
        channel = ConfigChannel(ChannelSpec(base_delay=1.0), seed=1)
        daemon = ControllerDaemon(
            line_state_dc, RolloutDriver(channel, "overlap"))
        agents = build_agents(line_state_dc.node_capacity)
        daemon.step(loop, agents, line_state_dc.classes)
        loop.run_until(50.0)

        # Failing the edge PoP "A" drops the A->D class but keeps the
        # chain (and the DC) connected.
        new_state, impact = fail_node(line_state_dc, "A")
        assert impact.dropped_classes == ["A->D"]
        daemon.replace_state(new_state)
        record = daemon.step(loop, agents, new_state.classes,
                             reason="structural")
        assert record.reason == "structural"
        # Structural rollouts go direct (no overlap across node sets).
        assert record.session.strategy == "direct"
        loop.run_until(100.0)
        assert record.session.latency is not None

    def test_structural_reason_is_latched(self, line_state_dc):
        """replace_state routes through the reason machinery: the
        next un-forced step reports "structural" by itself."""
        from repro.core.failures import fail_node

        loop = EventLoop()
        channel = ConfigChannel(ChannelSpec(base_delay=1.0), seed=1)
        daemon = ControllerDaemon(
            line_state_dc, RolloutDriver(channel, "overlap"))
        agents = build_agents(line_state_dc.node_capacity)
        daemon.step(loop, agents, line_state_dc.classes)
        loop.run_until(50.0)

        old_controller = daemon.controller
        new_state, _ = fail_node(line_state_dc, "A")
        daemon.replace_state(new_state)
        assert daemon.refresh_reason(loop.now,
                                     new_state.classes) == \
            "structural"
        # The warm LP is abandoned with the old controller object.
        assert daemon.controller is not old_controller
        assert daemon.controller.current_configs is None

        record = daemon.step(loop, agents, new_state.classes)
        assert record.reason == "structural"
        # No old configs on the fresh controller -> direct push.
        assert record.rollout.previous is None
        assert record.session.strategy == "direct"
        # The latch is consumed: the daemon goes quiet again.
        assert daemon.step(loop, agents, new_state.classes) is None

    def test_trigger_precedence(self, line_state_dc):
        """bootstrap > structural > periodic > drift."""
        from repro.core.failures import fail_node

        loop = EventLoop()
        channel = ConfigChannel(ChannelSpec(base_delay=1.0), seed=1)
        daemon = ControllerDaemon(
            line_state_dc, RolloutDriver(channel, "overlap"),
            drift_threshold=0.2, refresh_period=10.0)
        agents = build_agents(line_state_dc.node_capacity)
        classes = line_state_dc.classes

        # Structural pressure before the first cycle: bootstrap wins.
        new_state, _ = fail_node(line_state_dc, "A")
        daemon.replace_state(new_state)
        assert daemon.refresh_reason(loop.now,
                                     new_state.classes) == "bootstrap"
        daemon.step(loop, agents, new_state.classes)

        # Expired period AND drifted traffic AND structural pressure:
        # structural wins, then the timer, then drift.
        loop.run_until(20.0)
        daemon.replace_state(new_state)
        drifted = [cls.scaled(4.0) for cls in new_state.classes]
        assert daemon.refresh_reason(loop.now, drifted) == \
            "structural"
        daemon.step(loop, agents, new_state.classes)
        loop.run_until(40.0)
        assert daemon.refresh_reason(loop.now, drifted) == "periodic"
        daemon.step(loop, agents, new_state.classes)
        assert daemon.refresh_reason(loop.now, drifted) == "drift"

    def test_structural_restart_keeps_counters_straight(
            self, line_state_dc):
        """A structural restart is not a bootstrap and not a drift:
        the controller counters must say so."""
        from repro.core.failures import fail_node
        from repro.obs import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as metrics:
            loop = EventLoop()
            channel = ConfigChannel(ChannelSpec(base_delay=1.0),
                                    seed=1)
            daemon = ControllerDaemon(
                line_state_dc, RolloutDriver(channel, "overlap"))
            agents = build_agents(line_state_dc.node_capacity)
            daemon.step(loop, agents, line_state_dc.classes)
            loop.run_until(50.0)
            new_state, _ = fail_node(line_state_dc, "A")
            daemon.replace_state(new_state)
            daemon.step(loop, agents, new_state.classes)
            counters = metrics.snapshot()["counters"]
        assert counters.get("controller.bootstrap_refreshes") == 1
        assert counters.get("runtime.refresh.bootstrap") == 1
        assert counters.get("runtime.refresh.structural") == 1
        assert counters.get("runtime.structural_rebuilds") == 1
        assert "controller.drift_triggers" not in counters

    def test_regional_failover_reason(self, line_state_dc):
        from repro.core.controller import ShardedPlanner
        from repro.obs import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as metrics:
            loop = EventLoop()
            channel = ConfigChannel(ChannelSpec(base_delay=1.0),
                                    seed=1)
            daemon = ControllerDaemon(
                line_state_dc, RolloutDriver(channel, "overlap"),
                planner_factory=lambda state: ShardedPlanner(
                    state, num_regions=2, jobs=1))
            agents = build_agents(line_state_dc.node_capacity)
            daemon.step(loop, agents, line_state_dc.classes)
            loop.run_until(50.0)

            adopter = daemon.fail_region("A")
            assert adopter.startswith("region-")
            record = daemon.step(loop, agents,
                                 line_state_dc.classes)
            counters = metrics.snapshot()["counters"]
        assert record.reason == "failover"
        # The node universe is unchanged, so the rollout stays
        # coverage-safe.
        assert record.rollout.previous is not None
        assert counters.get("runtime.controller_failovers") == 1
        assert counters.get("runtime.refresh.failover") == 1

    def test_fail_region_needs_sharded_planner(self, line_state_dc):
        loop = EventLoop()
        channel = ConfigChannel(ChannelSpec(base_delay=1.0), seed=1)
        daemon = ControllerDaemon(
            line_state_dc, RolloutDriver(channel, "overlap"))
        agents = build_agents(line_state_dc.node_capacity)
        daemon.step(loop, agents, line_state_dc.classes)
        with pytest.raises(ValueError):
            daemon.fail_region("A")

    def test_empty_estimator_window_fails_closed(self, line_state_dc):
        """A window in which the estimator saw no session reads every
        class at zero: that is a dead tap, not drift. The daemon keeps
        the plan; pressure that cannot wait refreshes on the feed."""
        from repro.core.failures import fail_node
        from repro.ingest import IngestDaemon
        from repro.obs import MetricsRegistry, use_registry
        from repro.simulation.tracegen import TraceGenerator, TraceSpec
        from repro.simulation.tracestore import ChunkedReplay

        state, classes = line_state_dc, line_state_dc.classes
        batch = TraceGenerator(
            state.topology.nodes, classes,
            spec=TraceSpec(total_sessions=200), seed=3).generate_batch(
                state.nids_nodes, with_payloads=False, direct=True)
        ingest = IngestDaemon([cls.name for cls in classes],
                              width=64, depth=2, seed=9)
        loop = EventLoop()
        channel = ConfigChannel(ChannelSpec(base_delay=1.0), seed=1)
        daemon = ControllerDaemon(
            state, RolloutDriver(channel, "overlap"), estimator=ingest,
            estimator_scale=sum(c.num_sessions for c in classes) / 200,
            refresh_period=10.0)
        agents = build_agents(state.node_capacity)
        with use_registry(MetricsRegistry()) as metrics:
            # Nothing seen yet and nothing deployed: bootstrap cannot
            # wait, so it runs on the feed's own volumes.
            record = daemon.step(loop, agents, classes)
            assert record.reason == "bootstrap"
            assert record.rollout.result.load_cost > 0
            plan = daemon.controller.current_configs
            loop.run_until(20.0)  # the timer has expired too

            ingest.begin_window()
            assert daemon.step(loop, agents, classes) is None
            assert daemon.controller.current_configs is plan
            assert metrics.counter_value(
                "runtime.estimator.empty_windows") == 2

            # The tap is back: the expired timer fires on estimates.
            for chunk in ChunkedReplay(batch, 64):
                ingest.consume(chunk)
            assert daemon.step(loop, agents, classes).reason == \
                "periodic"

            # Structural pressure does not wait for the tap either.
            ingest.begin_window()
            new_state, _ = fail_node(state, "A")
            daemon.replace_state(new_state)
            record = daemon.step(loop, agents, new_state.classes)
            assert record.reason == "structural"
            assert record.rollout.result.load_cost > 0

    def test_bootstrap_counter_fires(self, line_state_dc):
        from repro.obs import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as metrics:
            loop = EventLoop()
            channel = ConfigChannel(ChannelSpec(), seed=1)
            daemon = ControllerDaemon(
                line_state_dc, RolloutDriver(channel, "direct"))
            agents = build_agents(line_state_dc.node_capacity)
            daemon.step(loop, agents, line_state_dc.classes)
            counters = metrics.snapshot()["counters"]
        assert counters.get("controller.bootstrap_refreshes") == 1
        assert counters.get("runtime.refresh.bootstrap") == 1
        assert "controller.drift_triggers" not in counters


class TestRuntimeMetrics:
    def test_scenario_publishes_runtime_metrics(self):
        from repro.obs import MetricsRegistry, use_registry

        scenario = steady_drift_scenario(epochs=3, seed=5)
        with use_registry(MetricsRegistry()) as metrics:
            run_scenario(scenario)
            snap = metrics.snapshot()
        counters = snap["counters"]
        assert counters["runtime.epochs"] == 3
        assert counters["runtime.rollouts"] >= 1
        assert "runtime.rollout.seconds" in snap["histograms"]
        assert "runtime.solve.seconds" in snap["histograms"]
        assert "runtime.coverage_gap" in snap["histograms"]

    def test_fault_injection_counted(self):
        from repro.obs import MetricsRegistry, use_registry

        scenario = flash_crowd_scenario(epochs=4)
        with use_registry(MetricsRegistry()) as metrics:
            run_scenario(scenario)
            counters = metrics.snapshot()["counters"]
        assert counters["runtime.faults.injected"] == 1
