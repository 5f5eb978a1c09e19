"""``ScenarioRun`` stepped stage by stage: the fail-closed edges are
injected between two stages instead of by patching the whole loop.

A solver failure (drift-triggered and structural) and an empty
estimator window must each leave the last good configuration
installed, report coverage honestly, count themselves, and let the
next epoch retry; estimator-mode disk must hold one epoch at a time.
"""

import dataclasses

import pytest

from repro.core.controller import GlobalPlanner
from repro.lpsolve.errors import LPError
from repro.obs import MetricsRegistry, use_registry
from repro.runtime import ChannelSpec, CoverageTracker, Scenario
from repro.runtime import agents as runtime_agents
from repro.runtime.faults import FaultEvent, FaultKind, FaultSchedule
from repro.runtime.scenario import (
    ScenarioRun,
    _safe_failing_nodes,
    run_scenario,
    sketch_estimator_scenario,
    steady_drift_scenario,
)
from repro.shim.table import RuleTable, ShimRule

#: lossless and fast: every rollout completes well inside its epoch,
#: so nothing but the stage under test can change an agent's config
QUIET_CHANNEL = ChannelSpec(base_delay=2.0)


def _drift_scenario():
    # The timer is off and the threshold is tiny: every epoch after
    # the bootstrap is a drift refresh.
    return Scenario(name="fail-closed-drift", seed=5, epochs=4,
                    drift_sigma=0.35, drift_threshold=0.01,
                    refresh_period_epochs=None, channel=QUIET_CHANNEL)


def _structural_scenario():
    (victim,) = _safe_failing_nodes("internet2", 1)
    return Scenario(
        name="fail-closed-structural", seed=5, epochs=4,
        refresh_period_epochs=None, channel=QUIET_CHANNEL,
        faults=FaultSchedule([FaultEvent(2, FaultKind.NODE_DOWN,
                                         victim)]))


def _solver_down(self, classes):
    raise LPError("injected: backend unavailable")


@pytest.mark.parametrize("make_scenario, reason, covered", [
    (_drift_scenario, "drift", True),
    (_structural_scenario, "structural", False),
])
def test_failed_solve_keeps_the_last_good_shim(
        make_scenario, reason, covered, monkeypatch):
    with use_registry(MetricsRegistry()) as metrics:
        run = ScenarioRun(make_scenario())
        assert run.step(0).refresh_reason == "bootstrap"
        assert run.step(1).coverage_end == pytest.approx(1.0)

        feed = run.feed(2, run.inject_faults(2))
        before = run.installed_configs(feed.state)
        with monkeypatch.context() as patch:
            patch.setattr(GlobalPlanner, "plan", _solver_down)
            decision = run.decide(feed)
        assert decision.refresh is None
        assert decision.error == \
            "LPError: injected: backend unavailable"
        # The pressure that asked for the refresh is still there.
        assert run.daemon.refresh_reason(
            run.loop.now, feed.state.classes) == reason
        failed = run.observe(feed, decision, run.settle(feed))

        after = run.installed_configs(feed.state)
        assert after.keys() == before.keys()
        assert all(after[node] is before[node] for node in before)
        honest = CoverageTracker(feed.state.classes).update(before)
        assert failed.solve_ok is False
        assert failed.refresh_reason is None
        assert failed.lp_load_cost is None
        assert failed.coverage_end == honest.coverage
        assert failed.miss_rate == 1.0 - honest.coverage
        assert (failed.coverage_end == pytest.approx(1.0)) is covered
        assert failed.emulated_max_work > 0  # the old shim still runs
        assert metrics.counter_value("runtime.solve.failures") == 1

        retried = run.step(3)
        assert retried.solve_ok and retried.refresh_reason == reason
        assert retried.coverage_end == pytest.approx(1.0)
        assert metrics.counter_value("runtime.solve.failures") == 1
    report = run.report()
    assert [r.epoch for r in report.records] == [0, 1, 2, 3]
    assert report.records[2].rollout_latency is None
    assert report.records[3].rollout_latency is not None


@pytest.fixture
def estimator_scenario():
    return dataclasses.replace(
        sketch_estimator_scenario("internet2", epochs=3),
        sessions_per_epoch=300, channel=QUIET_CHANNEL)


def test_empty_window_between_feed_and_decide(estimator_scenario,
                                              tmp_path):
    with use_registry(MetricsRegistry()) as metrics:
        run = ScenarioRun(estimator_scenario, tmp_path)
        run.step(0)
        feed = run.feed(1, run.inject_faults(1))
        before = run.installed_configs(feed.state)
        plan = run.daemon.controller.current_result
        run.ingest.begin_window()  # the tap died: nothing was seen
        decision = run.decide(feed)
        assert decision == (None, None)  # kept the plan, no failure
        record = run.observe(feed, decision, run.settle(feed))
        after = run.installed_configs(feed.state)
        assert all(after[node] is before[node] for node in before)
        assert run.daemon.controller.current_result is plan
        assert record.solve_ok and record.refresh_reason is None
        assert record.lp_load_cost == plan.load_cost
        assert record.coverage_end == pytest.approx(1.0)
        assert metrics.counter_value(
            "runtime.estimator.empty_windows") == 1
        # The next window is fed again and the estimator decides.
        assert run.step(2).refresh_reason == "drift"
        assert metrics.counter_value(
            "runtime.estimator.empty_windows") == 1


def test_estimator_mode_needs_a_workdir(estimator_scenario):
    with pytest.raises(ValueError, match="needs a workdir"):
        ScenarioRun(estimator_scenario)
    # Exact mode replays in memory and needs none.
    ScenarioRun(dataclasses.replace(estimator_scenario, estimator=None))


def test_estimator_disk_holds_one_epoch(estimator_scenario, tmp_path):
    run = ScenarioRun(estimator_scenario, tmp_path / "stores")
    for epoch in range(estimator_scenario.epochs):
        feed = run.feed(epoch, run.inject_faults(epoch))
        assert [p.name for p in (tmp_path / "stores").iterdir()] == \
            [f"epoch{epoch:03d}"]
        assert feed.store_dir.is_dir()
        run.observe(feed, run.decide(feed), run.settle(feed))
        assert feed.replay is None
        assert not list((tmp_path / "stores").glob("epoch*"))
    stepped = run.report()

    # run_scenario is the same run; the workdir itself is the caller's.
    whole = run_scenario(estimator_scenario, workdir=tmp_path / "again")
    assert whole.fingerprint() == stepped.fingerprint()
    assert list((tmp_path / "again").iterdir()) == []


def test_settle_makes_no_rule_objects(estimator_scenario, tmp_path,
                                      monkeypatch):
    """Overlap transients, coverage tracking and the agents read the
    compiled tables as columns: draining an epoch's events never turns
    a table into rule objects."""
    calls = {"rules": 0, "unions": 0}
    rules, union_config = RuleTable.rules, runtime_agents.union_config

    def counted_rules(table):
        calls["rules"] += 1
        return rules(table)

    def counted_union(old, new):
        calls["unions"] += 1
        return union_config(old, new)

    run = ScenarioRun(estimator_scenario, tmp_path)
    for epoch in range(estimator_scenario.epochs):
        feed = run.feed(epoch, run.inject_faults(epoch))
        decision = run.decide(feed)
        with monkeypatch.context() as patch:
            patch.setattr(RuleTable, "rules", counted_rules)
            patch.setattr(runtime_agents, "union_config", counted_union)
            settled = run.settle(feed)
        run.observe(feed, decision, settled)
    assert calls["unions"] > 0  # an overlap transient was tracked
    assert calls["rules"] == 0


def test_delta_rollouts_make_no_rule_objects(monkeypatch):
    """Deltas are rule-table rows from the diff to the agents' patched
    tables: a delta-rollout run never makes a rule object."""
    calls = {"rules": 0}
    init = ShimRule.__init__

    def counted_init(rule, *args, **kwargs):
        calls["rules"] += 1
        init(rule, *args, **kwargs)

    monkeypatch.setattr(ShimRule, "__init__", counted_init)
    report = run_scenario(dataclasses.replace(
        steady_drift_scenario(epochs=4), strategy="delta"))
    assert sum(record.rules_installed or 0
               for record in report.records) > 0
    assert calls["rules"] == 0
