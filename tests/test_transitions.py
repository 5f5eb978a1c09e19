"""Unit tests for consistent reconfiguration (Section 9): the overlap
union, and the overlap and two-phase-commit protocols as the rollout
driver runs them."""

import pytest

from repro.core import MirrorPolicy, ReplicationProblem
from repro.runtime.agents import MessageKind, build_agents
from repro.runtime.events import EventLoop
from repro.runtime.rollout import (
    ChannelSpec,
    ConfigChannel,
    RolloutDriver,
    RolloutOutcome,
)
from repro.shim import Shim, ShimConfig, build_replication_configs
from repro.shim.batch import BatchShimKernel
from repro.shim.config import union_config
from repro.shim.diff import apply_delta, canonical_config, diff_configs


@pytest.fixture
def two_configs(line_state_dc):
    """Old and new shim configs from two different LP solves."""
    old = ReplicationProblem(
        line_state_dc, mirror_policy=MirrorPolicy.none()).solve()
    new = ReplicationProblem(
        line_state_dc, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.4).solve()
    return (build_replication_configs(line_state_dc, old),
            build_replication_configs(line_state_dc, new))


def _merged(old, new):
    """The union as rule objects: per class, ``old``'s rules then
    ``new``'s, classes in first-seen order (the test oracle)."""
    rules = {}
    for config in (old, new):
        for name, bucket in config.table().rules().items():
            rules.setdefault(name, []).extend(bucket)
    return ShimConfig(node=old.node, rules=rules)


class TestUnionConfig:
    def test_preserves_both_rule_sets(self, two_configs):
        old, new = two_configs
        merged = union_config(old["B"], new["B"])
        assert merged.num_rules == (old["B"].num_rules +
                                    new["B"].num_rules)

    def test_node_mismatch_rejected(self, two_configs):
        old, new = two_configs
        with pytest.raises(ValueError):
            union_config(old["A"], new["B"])

    def test_table_backed_union_is_the_rule_merge(self, two_configs,
                                                  line_state_dc):
        """Two compiled configs give a compiled union: the dict
        merge — old's rules then new's, class by class — to every
        consumer."""
        old, new = two_configs
        unions = {node: union_config(old[node], new[node])
                  for node in old}
        merged = {node: _merged(old[node], new[node]) for node in old}
        for node, union in unions.items():
            assert union.num_rules == merged[node].num_rules
        assert not any(delta.installs or delta.retires for delta in
                       diff_configs(unions, merged).values())
        for node, delta in diff_configs(old, unions).items():
            assert apply_delta(old[node], delta) == \
                canonical_config(merged[node])
        kernels = [BatchShimKernel(
            configs, [cls.name for cls in line_state_dc.classes],
            line_state_dc.topology.nodes) for configs in (unions, merged)]
        for column in ("_first", "_table_of", "_starts", "_ends",
                       "_actions", "_targets", "_mode_of"):
            assert (getattr(kernels[0], column) ==
                    getattr(kernels[1], column)).all(), column
        for node, union in unions.items():
            assert list(union.rules) == list(merged[node].rules)
            assert union.rules == merged[node].rules


def _rollout(strategy, configs, agents, previous=None):
    """A driver on a 1 s channel and the loop its rollout runs in."""
    loop = EventLoop()
    driver = RolloutDriver(ConfigChannel(ChannelSpec(base_delay=1.0),
                                         seed=5), strategy)
    return driver.start(loop, agents, configs, previous), loop


@pytest.fixture
def running_old(two_configs, line_state_dc):
    """Agents that run the old configs."""
    old, _ = two_configs
    return build_agents(line_state_dc.node_capacity, old)


class TestOverlapTransition:
    def test_lifecycle(self, two_configs, running_old):
        """Old before the rollout, old ∪ new once the overlap installs
        land, exactly new after the retire."""
        old, new = two_configs
        session, loop = _rollout("overlap", new, running_old, old)
        assert {node: agent.effective_config() for node, agent in
                running_old.items()} == old
        loop.run_until(1.0)  # installs delivered, acks in flight
        for node, agent in running_old.items():
            assert agent.running_rules == \
                old[node].num_rules + new[node].num_rules
        loop.run_until(100.0)
        assert session.outcome is RolloutOutcome.COMPLETED
        assert session.retired_at is not None
        assert {node: agent.effective_config() for node, agent in
                running_old.items()} == new

    def test_no_coverage_gap_during_overlap(self, two_configs,
                                            running_old, line_state_dc):
        """Mid-rollout the running configs cover every hash value of
        every class — the paper's correctness requirement — checked
        with the scalar shim's first match per node."""
        old, new = two_configs
        session, loop = _rollout("overlap", new, running_old, old)
        loop.run_until(1.0)
        assert session.outcome is RolloutOutcome.IN_FLIGHT
        shims = {node: Shim(agent.effective_config(), classifier=None)
                 for node, agent in running_old.items()}
        for cls in line_state_dc.classes:
            for i in range(100):
                value = i / 100.0
                owners = 0
                for node in cls.path:
                    for rule in shims[node].config.rules_for(cls.name):
                        if rule.hash_range.contains(value):
                            owners += 1
                            break  # first-match per node
                assert owners >= 1, (cls.name, value)

    def test_unknown_node_ack_rejected(self, two_configs, running_old):
        """A config for a node that has no agent is never shipped and
        does not hold the rollout open."""
        old, new = two_configs
        ghost = ShimConfig(node="ZZ", rules={})
        session, loop = _rollout("overlap", {**new, "ZZ": ghost},
                                 running_old, old)
        loop.run_until(100.0)
        assert session.outcome is RolloutOutcome.COMPLETED
        assert session.acked_nodes == set(new)

    def test_node_set_mismatch_rejected(self, two_configs, running_old):
        """Without the configuration it replaces (the controller hands
        none across a change of node set) an overlap rollout cannot
        overlap: it goes direct."""
        _, new = two_configs
        session, loop = _rollout("overlap", new, running_old)
        loop.run_until(100.0)
        assert session.strategy == "direct"
        assert all(entry.message.kind is MessageKind.INSTALL
                   for agent in running_old.values()
                   for entry in agent.mailbox)

    def test_pending_nodes(self, two_configs, running_old):
        """The old rules stay until every node acknowledged: a rollout
        with an ack still missing neither completes nor retires."""
        old, new = two_configs
        late = sorted(new)[0]
        running_old[late].fail()
        session, loop = _rollout("overlap", new, running_old, old)
        loop.run_until(5.0)
        assert session.acked_nodes == set(new) - {late}
        assert session.outcome is RolloutOutcome.IN_FLIGHT
        assert not any(entry.message.kind is MessageKind.RETIRE
                       for agent in running_old.values()
                       for entry in agent.mailbox)
        running_old[late].recover(old[late])
        loop.run_until(100.0)
        assert session.outcome is RolloutOutcome.COMPLETED
        assert session.retired_at is not None


class TestTwoPhaseCommit:
    def test_all_yes_commits(self, two_configs, running_old):
        _, new = two_configs
        session, loop = _rollout("two-phase", new, running_old)
        loop.run_until(100.0)
        assert session.outcome is RolloutOutcome.COMPLETED
        for node, agent in running_old.items():
            assert agent.effective_config() is new[node]
            assert [entry.message.kind for entry in agent.mailbox] == \
                [MessageKind.PREPARE, MessageKind.COMMIT]

    def test_one_failure_aborts_everyone(self, two_configs, running_old):
        old, new = two_configs
        running_old["C"].rule_capacity = new["C"].num_rules - 1
        session, loop = _rollout("two-phase", new, running_old)
        loop.run_until(100.0)
        assert session.outcome is RolloutOutcome.ABORTED
        assert session.refused_nodes == {"C"}
        for node, agent in running_old.items():
            assert agent.effective_config() is old[node]
            assert agent.mailbox[-1].message.kind is MessageKind.ABORT
