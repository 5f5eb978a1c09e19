"""Tests for node agents, the lossy config channel, and rollout
strategies (overlap / two-phase / direct) with coverage accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MirrorPolicy, ReplicationProblem
from repro.obs import MetricsRegistry, use_registry
from repro.runtime.agents import (
    ConfigMessage,
    MessageKind,
    NodeAgent,
    build_agents,
)
from repro.runtime.events import EventLoop
from repro.runtime.rollout import (
    ChannelSpec,
    ConfigChannel,
    CoverageReport,
    CoverageTracker,
    RolloutDriver,
    RolloutOutcome,
    coverage_report,
)
from repro.shim import build_replication_configs
from repro.shim.config import ShimAction, ShimConfig, ShimRule, union_config
from repro.shim.diff import ConfigDelta, diff_config
from repro.shim.ranges import HashRange
from repro.shim.table import RuleTable
from repro.traffic.classes import TrafficClass
from tests.strategies import interval_lists, small_states


@pytest.fixture
def two_configs(line_state_dc):
    old = ReplicationProblem(
        line_state_dc, mirror_policy=MirrorPolicy.none()).solve()
    new = ReplicationProblem(
        line_state_dc, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.4).solve()
    return (build_replication_configs(line_state_dc, old),
            build_replication_configs(line_state_dc, new))


@pytest.fixture
def agents(line_state_dc):
    return build_agents(line_state_dc.node_capacity)


class TestNodeAgent:
    def test_install_and_ack(self, two_configs, agents):
        old, _ = two_configs
        ack = agents["B"].deliver(ConfigMessage(
            MessageKind.INSTALL, 1, "B", old["B"]), now=1.0)
        assert ack.ok
        assert agents["B"].effective_config() is old["B"]

    def test_duplicate_delivery_idempotent(self, two_configs, agents):
        old, _ = two_configs
        msg = ConfigMessage(MessageKind.INSTALL, 1, "B", old["B"])
        agents["B"].deliver(msg, now=1.0)
        ack = agents["B"].deliver(msg, now=2.0)
        assert ack.ok
        assert agents["B"].installs == 1

    def test_dead_agent_acks_nothing(self, two_configs, agents):
        old, _ = two_configs
        agents["B"].fail()
        ack = agents["B"].deliver(ConfigMessage(
            MessageKind.INSTALL, 1, "B", old["B"]), now=1.0)
        assert ack is None
        assert agents["B"].effective_config() is None

    def test_overlap_then_retire(self, two_configs, agents):
        old, new = two_configs
        agent = agents["B"]
        agent.deliver(ConfigMessage(MessageKind.INSTALL, 1, "B",
                                    old["B"]), now=0.0)
        agent.deliver(ConfigMessage(MessageKind.OVERLAP_INSTALL, 2,
                                    "B", new["B"]), now=1.0)
        union = agent.effective_config()
        assert union.num_rules == (old["B"].num_rules +
                                   new["B"].num_rules)
        agent.deliver(ConfigMessage(MessageKind.RETIRE, 2, "B"),
                      now=2.0)
        assert agent.effective_config() is new["B"]

    def test_rule_capacity_refusal(self, two_configs):
        old, new = two_configs
        agent = NodeAgent("B", {"cpu": 1.0}, config=old["B"],
                          rule_capacity=old["B"].num_rules)
        ack = agent.deliver(ConfigMessage(
            MessageKind.OVERLAP_INSTALL, 2, "B", new["B"]), now=1.0)
        assert not ack.ok  # union would not fit
        assert agent.effective_config() is old["B"]

    def test_two_phase_stages_then_commits(self, two_configs, agents):
        _, new = two_configs
        agent = agents["B"]
        agent.deliver(ConfigMessage(MessageKind.PREPARE, 1, "B",
                                    new["B"]), now=0.0)
        assert agent.effective_config() is None  # not yet active
        agent.deliver(ConfigMessage(MessageKind.COMMIT, 1, "B"),
                      now=1.0)
        assert agent.effective_config() is new["B"]

    def test_abort_clears_staged(self, two_configs, agents):
        _, new = two_configs
        agent = agents["B"]
        agent.deliver(ConfigMessage(MessageKind.PREPARE, 1, "B",
                                    new["B"]), now=0.0)
        agent.deliver(ConfigMessage(MessageKind.ABORT, 1, "B"),
                      now=1.0)
        ack = agent.deliver(ConfigMessage(MessageKind.COMMIT, 2, "B"),
                            now=2.0)
        assert not ack.ok  # nothing staged anymore

    def test_wrong_node_rejected(self, two_configs, agents):
        old, _ = two_configs
        with pytest.raises(ValueError):
            agents["B"].deliver(ConfigMessage(
                MessageKind.INSTALL, 1, "C", old["C"]), now=0.0)


class TestConfigChannel:
    def test_delivery_latency(self, two_configs, agents):
        old, _ = two_configs
        loop = EventLoop()
        channel = ConfigChannel(ChannelSpec(base_delay=2.0), seed=1)
        acks = []
        channel.send(loop, agents["B"], ConfigMessage(
            MessageKind.INSTALL, 1, "B", old["B"]), acks.append)
        loop.run_until(10.0)
        assert len(acks) == 1
        assert acks[0].time == 2.0  # delivered after base_delay

    def test_loss_triggers_retransmit(self, two_configs, agents):
        old, _ = two_configs
        loop = EventLoop()
        channel = ConfigChannel(
            ChannelSpec(base_delay=1.0, loss=0.9,
                        retransmit_timeout=5.0, max_retries=200),
            seed=3)
        acks = []
        channel.send(loop, agents["B"], ConfigMessage(
            MessageKind.INSTALL, 1, "B", old["B"]), acks.append)
        loop.run_until(2000.0)
        assert len(acks) == 1  # eventually delivered
        assert channel.lost > 0
        assert channel.retransmits == channel.lost

    @pytest.mark.parametrize("field, value", [
        ("base_delay", -1.0), ("jitter", -1.0), ("loss", 1.0),
        ("retransmit_timeout", 0.0), ("max_retries", -1)])
    def test_spec_rejects_out_of_range_fields(self, field, value):
        with pytest.raises(ValueError):
            ChannelSpec(**{field: value})

    def test_dead_node_retried_until_recovery(self, two_configs,
                                              agents):
        old, _ = two_configs
        loop = EventLoop()
        channel = ConfigChannel(
            ChannelSpec(base_delay=1.0, retransmit_timeout=4.0),
            seed=0)
        agents["B"].fail()
        loop.schedule_at(10.0, agents["B"].recover)
        acks = []
        channel.send(loop, agents["B"], ConfigMessage(
            MessageKind.INSTALL, 1, "B", old["B"]), acks.append)
        loop.run_until(100.0)
        assert len(acks) == 1
        assert acks[0].time > 10.0

    def test_seeded_channel_is_deterministic(self, two_configs,
                                             line_state_dc):
        old, _ = two_configs

        def run():
            loop = EventLoop()
            agents = build_agents(line_state_dc.node_capacity)
            channel = ConfigChannel(
                ChannelSpec(base_delay=1.0, jitter=4.0, loss=0.3,
                            retransmit_timeout=3.0), seed=42)
            times = []
            for node in sorted(old):
                channel.send(loop, agents[node], ConfigMessage(
                    MessageKind.INSTALL, 1, node, old[node]),
                    lambda ack: times.append((ack.node, ack.time)))
            loop.run_until(500.0)
            return times

        assert run() == run()


def _drive(strategy, configs, agents, previous=None, spec=None,
           horizon=500.0):
    loop = EventLoop()
    channel = ConfigChannel(spec or ChannelSpec(base_delay=1.0),
                            seed=5)
    driver = RolloutDriver(channel, strategy)
    session = driver.start(loop, agents, configs, previous)
    loop.run_until(horizon)
    return session, loop


class TestRolloutDriver:
    def test_direct_completes(self, two_configs, agents):
        old, _ = two_configs
        session, _ = _drive("direct", old, agents)
        assert session.outcome is RolloutOutcome.COMPLETED
        assert session.latency is not None and session.latency > 0
        for node in old:
            assert agents[node].effective_config() is old[node]

    def test_overlap_without_transition_goes_direct(self, two_configs,
                                                    agents):
        old, _ = two_configs
        session, _ = _drive("overlap", old, agents, previous=None)
        assert session.strategy == "direct"
        assert session.outcome is RolloutOutcome.COMPLETED

    def test_overlap_retires_old_config(self, two_configs, agents):
        old, new = two_configs
        for node in old:
            agents[node].deliver(ConfigMessage(
                MessageKind.INSTALL, 1, node, old[node]), now=0.0)
        session, _ = _drive("overlap", new, agents, previous=old)
        assert session.outcome is RolloutOutcome.COMPLETED
        assert session.retired_at is not None
        for node in new:
            assert agents[node].effective_config() is new[node]

    def test_two_phase_commits_everywhere(self, two_configs, agents):
        _, new = two_configs
        session, _ = _drive("two-phase", new, agents)
        assert session.outcome is RolloutOutcome.COMPLETED
        for node in new:
            assert agents[node].effective_config() is new[node]

    def test_two_phase_one_no_vote_aborts_all(self, two_configs,
                                              line_state_dc):
        _, new = two_configs
        agents = build_agents(line_state_dc.node_capacity)
        # One agent cannot fit the new config: global abort.
        victim = sorted(new)[0]
        agents[victim].rule_capacity = new[victim].num_rules - 1
        session, _ = _drive("two-phase", new, agents)
        assert session.outcome is RolloutOutcome.ABORTED
        assert victim in session.refused_nodes
        for node in new:
            assert agents[node].effective_config() is None

    def test_two_phase_records_a_refused_commit(self, two_configs,
                                                agents):
        """B stages its table at t=1, dies at 2.5 (rebooting clean) and
        is back at 10; its COMMIT, lost to the dead node at 3 and
        re-sent at 13, finds nothing staged at 14 and is refused,
        which the session must report."""
        _, new = two_configs
        loop = EventLoop()
        loop.schedule_at(2.5, agents["B"].fail)
        loop.schedule_at(10.0, agents["B"].recover)
        driver = RolloutDriver(ConfigChannel(ChannelSpec(base_delay=1.0),
                                             seed=5), "two-phase")
        session = driver.start(loop, agents, new)
        loop.run_until(500.0)
        commits = [(entry.time, entry.applied)
                   for entry in agents["B"].mailbox
                   if entry.message.kind is MessageKind.COMMIT]
        assert commits == [(14.0, False)]
        assert session.refused_nodes == {"B"}
        assert agents["B"].effective_config() is None
        for node in set(new) - {"B"}:
            assert agents[node].effective_config() is new[node]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            RolloutDriver(ConfigChannel(ChannelSpec()), "magic")

    @pytest.mark.parametrize("strategy", RolloutDriver.STRATEGIES)
    def test_no_targets_completes_at_once(self, two_configs, strategy):
        """A rollout no agent takes part in has nothing to wait for."""
        old, _ = two_configs
        session, _ = _drive(strategy, old, {}, previous=old)
        assert session.strategy == strategy
        assert session.outcome is RolloutOutcome.COMPLETED
        assert session.completed_at == 0.0


class TestCoverageReport:
    def test_full_assignment_covers_everything(self, line_state_dc,
                                               two_configs):
        old, _ = two_configs
        report = coverage_report(line_state_dc.classes, dict(old))
        assert report.coverage == pytest.approx(1.0)
        assert report.duplication == pytest.approx(0.0)
        assert report.gap == pytest.approx(0.0)

    def test_empty_configs_cover_nothing(self, line_state_dc):
        empty = {node: ShimConfig(node=node, rules={})
                 for node in line_state_dc.nids_nodes}
        report = coverage_report(line_state_dc.classes, empty)
        assert report.coverage == pytest.approx(0.0)
        assert report.gap == pytest.approx(1.0)

    def test_union_doubles_duplication_not_coverage(self,
                                                    line_state_dc,
                                                    two_configs):
        old, new = two_configs
        union = {node: union_config(old[node], new[node])
                 for node in old}
        report = coverage_report(line_state_dc.classes, union)
        assert report.coverage == pytest.approx(1.0)
        assert report.duplication == pytest.approx(1.0)

    def test_dead_node_creates_gap(self, line_state_dc, two_configs):
        old, _ = two_configs
        installed = dict(old)
        installed["B"] = None  # B is dead
        report = coverage_report(line_state_dc.classes, installed)
        assert report.coverage < 1.0

    def test_coverage_never_drops_during_lossy_overlap(
            self, line_state_dc, two_configs):
        """The satellite invariant: at every instant of an overlap
        rollout over a delayed, lossy, jittery channel, every class
        keeps full hash-space coverage."""
        old, new = two_configs
        agents = build_agents(line_state_dc.node_capacity)
        for node in old:
            agents[node].deliver(ConfigMessage(
                MessageKind.INSTALL, 1, node, old[node]), now=0.0)
        loop = EventLoop()
        channel = ConfigChannel(
            ChannelSpec(base_delay=1.0, jitter=5.0, loss=0.3,
                        retransmit_timeout=4.0), seed=9)
        driver = RolloutDriver(channel, "overlap")
        session = driver.start(loop, agents, new, old)
        while loop.queue.peek_time() is not None:
            loop.run_until(loop.queue.peek_time())
            installed = {node: agents[node].effective_config()
                         for node in line_state_dc.nids_nodes}
            report = coverage_report(line_state_dc.classes, installed)
            assert report.coverage == pytest.approx(1.0), loop.now
        assert session.outcome is RolloutOutcome.COMPLETED
        assert session.retired_at is not None


# -- incremental coverage accounting ----------------------------------------

TRACKED_NODES = ("N0", "N1", "N2", "N3")
TRACKED_CLASSES = [
    TrafficClass("N0->N2", "N0", "N2", ("N0", "N1", "N2"), 70.0),
    TrafficClass("N1->N3", "N1", "N3", ("N1", "N2", "N3"), 0.0),
    # asymmetric: N3 sees only the reverse direction
    TrafficClass("N0->N1", "N0", "N1", ("N0", "N1"), 12.5,
                 rev_path=("N1", "N3", "N0")),
    TrafficClass("N2->N2", "N2", "N2", ("N2",), 3.0),
]

_bounds = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_tables = st.fixed_dictionaries({
    cls.name: st.lists(st.tuples(_bounds, _bounds), max_size=2)
    for cls in TRACKED_CLASSES})
_steps = st.lists(
    st.tuples(
        st.sampled_from(("install", "overlap", "retire", "delta-install",
                         "delta-retire", "fail", "recover", "hide",
                         "show")),
        st.sampled_from(TRACKED_NODES), _tables),
    max_size=25)


def _table(node, intervals_by_class):
    """A shim config owning the drawn intervals (overlaps, empty
    ranges and repeats included: the accounting must not care)."""
    rules = {}
    for name, intervals in intervals_by_class.items():
        for low, high in intervals:
            low, high = min(low, high), max(low, high)
            rules.setdefault(name, []).append(ShimRule(
                name, HashRange(("process", node), low, high),
                ShimAction.PROCESS))
    return ShimConfig(node=node, rules=rules)


class TestCoverageTracker:
    @settings(max_examples=150, deadline=None)
    @given(steps=_steps)
    def test_update_equals_a_fresh_report_after_every_step(self, steps):
        """Whatever sequence of installs, overlap transients, deltas,
        failures and recoveries the agents go through — and whichever
        nodes come and go from the reported map — the tracker's
        incremental report is the from-scratch one, bit for bit."""
        agents = {node: NodeAgent(node, {"cpu": 1.0})
                  for node in TRACKED_NODES}
        hidden = set()
        tracker = CoverageTracker(TRACKED_CLASSES)
        for version, (op, node, drawn) in enumerate(steps, start=1):
            agent = agents[node]
            table = _table(node, drawn)
            active = agent._active or ShimConfig(node=node, rules={})
            delta = diff_config(active, table)
            if op == "install":
                agent.deliver(ConfigMessage(
                    MessageKind.INSTALL, version, node, table), 0.0)
            elif op == "overlap":
                agent.deliver(ConfigMessage(
                    MessageKind.OVERLAP_INSTALL, version, node, table),
                    0.0)
            elif op == "retire":
                agent.deliver(ConfigMessage(
                    MessageKind.RETIRE, version, node), 0.0)
            elif op == "delta-install":
                agent.deliver(ConfigMessage(
                    MessageKind.DELTA_INSTALL, version, node,
                    delta=ConfigDelta(node=node,
                                      installs=delta.installs)), 0.0)
            elif op == "delta-retire":
                agent.deliver(ConfigMessage(
                    MessageKind.DELTA_RETIRE, version, node,
                    delta=ConfigDelta(node=node,
                                      retires=delta.retires)), 0.0)
            elif op == "fail":
                agent.fail()
            elif op == "recover":
                agent.recover(table if drawn["N0->N2"] else None)
            elif op == "hide":
                hidden.add(node)
            else:
                hidden.discard(node)
            running = {name: agents[name].effective_config()
                       for name in TRACKED_NODES if name not in hidden}
            assert tracker.update(running) == \
                coverage_report(TRACKED_CLASSES, running)

    def test_only_classes_behind_a_changed_node_are_recomputed(self):
        everywhere = {cls.name: [(0.0, 1.0)] for cls in TRACKED_CLASSES}
        running = {node: _table(node, everywhere)
                   for node in TRACKED_NODES}
        with use_registry(MetricsRegistry()) as registry:
            tracker = CoverageTracker(TRACKED_CLASSES)
            tracker.update(running)
            first = registry.counters[
                "runtime.coverage.classes_recomputed"]
            tracker.update(dict(running))  # same objects, new dict
            # N3 observes N1->N3 and the reverse of N0->N1 only
            running["N3"] = _table("N3", everywhere)
            report = tracker.update(running)
        assert first == len(TRACKED_CLASSES)
        assert registry.counters["runtime.coverage.checks"] == 3
        assert registry.counters[
            "runtime.coverage.classes_recomputed"] == first + 2
        assert report == coverage_report(TRACKED_CLASSES, running)

    def test_report_is_reused_only_while_every_config_object_is(self):
        """An instant at which no observer's ``effective_config()``
        changed (an ack, a timer) gets the report already held — still
        counted as a check; one node running an equal but new object
        gets a new, equal report."""
        everywhere = {cls.name: [(0.0, 1.0)] for cls in TRACKED_CLASSES}
        agents = {node: NodeAgent(node, {"cpu": 1.0},
                                  config=_table(node, everywhere))
                  for node in TRACKED_NODES}

        def running():
            return {node: agent.effective_config()
                    for node, agent in agents.items()}

        with use_registry(MetricsRegistry()) as registry:
            tracker = CoverageTracker(TRACKED_CLASSES)
            report = tracker.update(running())
            assert tracker.update(running()) is report
            recomputed = registry.counters[
                "runtime.coverage.classes_recomputed"]
            for version, node in enumerate(TRACKED_NODES, start=1):
                agents[node].deliver(ConfigMessage(
                    MessageKind.INSTALL, version, node,
                    _table(node, everywhere)), 0.0)
                fresh = tracker.update(running())
                assert fresh is not report
                assert fresh == report == coverage_report(
                    TRACKED_CLASSES, running())
                assert tracker.update(running()) is fresh
                report = fresh
        # two per node by the tracker, one by ``coverage_report``
        assert registry.counters["runtime.coverage.checks"] == \
            2 + 3 * len(TRACKED_NODES)
        assert registry.counters[
            "runtime.coverage.classes_recomputed"] > recomputed

    def test_unchanged_agent_returns_the_same_union_object(
            self, two_configs):
        old, new = two_configs
        agent = NodeAgent("B", {"cpu": 1.0}, config=old["B"])
        agent.deliver(ConfigMessage(
            MessageKind.OVERLAP_INSTALL, 1, "B", new["B"]), now=0.0)
        union = agent.effective_config()
        assert agent.effective_config() is union
        agent.deliver(ConfigMessage(
            MessageKind.OVERLAP_INSTALL, 2, "B", old["B"]), now=1.0)
        assert agent.effective_config() is not union


# -- the array tracker against a scalar reading of the rules ----------------


def _union_length(intervals):
    """Length of a union of intervals: a sweep in ``(start, end)``
    order, capped at 1 (the test oracle)."""
    if not intervals:
        return 0.0
    ordered = sorted(intervals)
    total = 0.0
    cur_start, cur_end = ordered[0]
    for start, end in ordered[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    total += cur_end - cur_start
    return min(total, 1.0)


def _scalar_report(classes, node_configs):
    """Coverage one class and one rule at a time: each class's
    positive-width intervals at its observers (path order, then rule
    order), summed one after another."""
    covered, duplicated = [], []
    for cls in classes:
        intervals = []
        for node in dict.fromkeys((*cls.path, *cls.rev_nodes)):
            config = node_configs.get(node)
            if config is None:
                continue
            intervals.extend(
                (rule.hash_range.start, rule.hash_range.end)
                for rule in config.rules_for(cls.name)
                if rule.hash_range.end > rule.hash_range.start)
        union = _union_length(intervals)
        covered.append(union)
        duplicated.append(max(0.0, sum(end - start
                                       for start, end in intervals)
                              - union))
    weighted_cov = weighted_dup = total_weight = 0.0
    for cls, union, duplication in zip(classes, covered, duplicated):
        weighted_cov += cls.num_sessions * union
        weighted_dup += cls.num_sessions * duplication
        total_weight += cls.num_sessions
    names = [cls.name for cls in classes]
    return CoverageReport(
        dict(zip(names, covered)), dict(zip(names, duplicated)),
        weighted_cov / total_weight if total_weight > 0 else 1.0,
        weighted_dup / total_weight if total_weight > 0 else 0.0)


def _bits(report):
    return ({name: value.hex()
             for name, value in report.class_coverage.items()},
            {name: value.hex()
             for name, value in report.class_duplication.items()},
            report.coverage.hex(), report.duplication.hex())


@st.composite
def _coverage_runs(draw):
    """A small state and a sequence of per-node config maps: drawn
    intervals for its classes and for a class it does not carry, at
    its nodes, its datacenter (a mirror's PROCESS copies, at a node on
    no class's path) and a node it does not have; configs built from
    rule objects, from one node's table, or sliced from one table
    shared by every node of the step (a compile); nodes that keep
    their object, run nothing, or drop out of the map."""
    state = draw(small_states())
    names = [cls.name for cls in state.classes] + ["ghost->class"]
    nodes = list(state.topology.nodes) + ["ghost-node"]
    running, steps = {}, []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        drawn = {}
        for node in nodes:
            choice = draw(st.sampled_from(
                ("keep", "new", "new", "none", "drop")))
            if choice == "new":
                drawn[node] = {
                    name: [ShimRule(name, HashRange((choice, node),
                                                    start, end),
                                    draw(st.sampled_from(list(
                                        ShimAction))), target=node)
                           for start, end in draw(interval_lists())]
                    for name in draw(st.lists(st.sampled_from(names),
                                              unique=True))}
            elif choice == "none":
                running[node] = None
            elif choice == "drop":
                running.pop(node, None)
        form = draw(st.sampled_from(("rules", "tables", "compiled")))
        if form == "rules":
            running.update({node: ShimConfig(node=node, rules=rules)
                            for node, rules in drawn.items()})
        else:
            tables = [RuleTable.from_rules(node, rules)
                      for node, rules in drawn.items()]
            if form == "compiled" and tables:
                whole, first = RuleTable.concat(tables), 0
                for index, table in enumerate(tables):
                    tables[index] = whole.take(
                        slice(first, first + len(table)))
                    first += len(table)
            running.update({node: ShimConfig.from_table(node, table)
                            for node, table in zip(drawn, tables)})
        steps.append(dict(running))
    return state.classes, steps


class TestCoverageTrackerAgainstScalar:
    @settings(max_examples=200, deadline=None)
    @given(run=_coverage_runs())
    def test_every_update_is_the_scalar_report_bit_for_bit(self, run):
        classes, steps = run
        tracker = CoverageTracker(classes)
        for node_configs in steps:
            expected = _scalar_report(classes, node_configs)
            report = tracker.update(node_configs)
            assert report == expected
            assert _bits(report) == _bits(expected)
            assert _bits(coverage_report(classes, node_configs)) == \
                _bits(expected)

    def test_class_names_must_be_unique(self):
        with pytest.raises(ValueError):
            CoverageTracker([TRACKED_CLASSES[0], TRACKED_CLASSES[0]])
