"""Unit tests for consistent reconfiguration (Section 9)."""

import pytest

from repro.core import (
    CommitOutcome,
    MirrorPolicy,
    OverlapTransition,
    Participant,
    ReplicationProblem,
    TransitionPhase,
    TwoPhaseCommit,
    union_config,
)
from repro.shim import Shim, ShimConfig, build_replication_configs
from repro.shim.batch import BatchShimKernel
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
        """Two compiled configs give a compiled union: no rule objects
        are made, yet it is the dict merge — old's rules then new's,
        class by class — to every consumer."""
        old, new = two_configs
        unions = {node: union_config(old[node], new[node])
                  for node in old}
        merged = {node: _merged(old[node], new[node]) for node in old}
        for node, union in unions.items():
            assert "_table" in vars(old[node])
            assert "_table" in vars(new[node])
            assert "_table" in vars(union)
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
            # Read last: reading ``rules`` turns the union into them.
            assert list(union.rules) == list(merged[node].rules)
            assert union.rules == merged[node].rules


class TestOverlapTransition:
    def test_lifecycle(self, two_configs):
        old, new = two_configs
        transition = OverlapTransition(old, new)
        assert transition.phase is TransitionPhase.IDLE
        assert transition.active_configs() == old

        transition.begin()
        assert transition.phase is TransitionPhase.OVERLAPPING
        for node in sorted(new):
            transition.acknowledge(node)
        assert transition.phase is TransitionPhase.COMPLETE
        assert transition.active_configs() == new

    def test_no_coverage_gap_during_overlap(self, two_configs,
                                            line_state_dc):
        """The union configs cover every hash value of every class at
        every instant of the transition — the paper's correctness
        requirement."""
        old, new = two_configs
        transition = OverlapTransition(old, new)
        transition.begin()
        transition.acknowledge("A")  # partial rollout
        active = transition.active_configs()
        shims = {node: Shim(active[node], classifier=None)
                 for node in active}
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

    def test_begin_twice_rejected(self, two_configs):
        transition = OverlapTransition(*two_configs)
        transition.begin()
        with pytest.raises(RuntimeError):
            transition.begin()

    def test_ack_without_begin_rejected(self, two_configs):
        transition = OverlapTransition(*two_configs)
        with pytest.raises(RuntimeError):
            transition.acknowledge("A")

    def test_unknown_node_ack_rejected(self, two_configs):
        transition = OverlapTransition(*two_configs)
        transition.begin()
        with pytest.raises(KeyError):
            transition.acknowledge("ZZ")

    def test_node_set_mismatch_rejected(self, two_configs):
        old, new = two_configs
        partial = {k: v for k, v in new.items() if k != "A"}
        with pytest.raises(ValueError):
            OverlapTransition(old, partial)

    def test_pending_nodes(self, two_configs):
        transition = OverlapTransition(*two_configs)
        transition.begin()
        before = set(transition.pending_nodes)
        transition.acknowledge("B")
        assert set(transition.pending_nodes) == before - {"B"}


class TestTwoPhaseCommit:
    def test_all_yes_commits(self, two_configs):
        _, new = two_configs
        participants = [Participant(node) for node in sorted(new)]
        coordinator = TwoPhaseCommit(participants)
        outcome = coordinator.execute(new)
        assert outcome is CommitOutcome.COMMITTED
        for participant in participants:
            assert participant.committed is new[participant.node]
            assert participant.log == ["prepare", "commit"]

    def test_one_failure_aborts_everyone(self, two_configs):
        _, new = two_configs
        participants = [Participant(node,
                                    fails_prepare=(node == "C"))
                        for node in sorted(new)]
        coordinator = TwoPhaseCommit(participants)
        outcome = coordinator.execute(new)
        assert outcome is CommitOutcome.ABORTED
        for participant in participants:
            assert participant.committed is None
            assert participant.log[-1] == "abort"

    def test_missing_config_rejected(self, two_configs):
        _, new = two_configs
        participants = [Participant(node) for node in sorted(new)]
        coordinator = TwoPhaseCommit(participants)
        partial = {k: v for k, v in new.items() if k != "A"}
        with pytest.raises(ValueError):
            coordinator.execute(partial)

    def test_duplicate_participants_rejected(self):
        with pytest.raises(ValueError):
            TwoPhaseCommit([Participant("A"), Participant("A")])
