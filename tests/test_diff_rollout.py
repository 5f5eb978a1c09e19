"""Diff-equivalence and delta-rollout tests.

The contract pinned here: for any two compiled epochs,
``apply_delta(old, diff_config(old, new))`` is bit-identical to the
freshly compiled new config (after canonical ordering), across all
three paper problems and randomized epoch pairs — and the ``delta``
rollout strategy reaches exactly that state through a lossy channel
while shipping strictly fewer rules than a full-table overlap push.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MirrorPolicy, ReplicationProblem
from repro.core.aggregation import AggregationProblem
from repro.core.split import SplitTrafficProblem
from repro.runtime.agents import (
    ConfigMessage,
    MessageKind,
    build_agents,
)
from repro.runtime.events import EventLoop
from repro.runtime.rollout import (
    ChannelSpec,
    ConfigChannel,
    RolloutDriver,
    RolloutOutcome,
)
from repro.shim.config import (
    ShimAction,
    ShimConfig,
    ShimRule,
    build_aggregation_configs,
    build_replication_configs,
    build_split_configs,
)
from repro.shim.diff import (
    ConfigDelta,
    apply_delta,
    canonical_config,
    diff_config,
    diff_configs,
)
from repro.shim.ranges import compile_hash_ranges
from tests.strategies import fraction_rows, small_states


def _assert_delta_equivalence(old, new):
    """apply_delta(old, diff(old, new)) == canonical(new), per node."""
    deltas = diff_configs(old, new)
    for node in new:
        base = old.get(node, ShimConfig(node=node, rules={}))
        assert apply_delta(base, deltas[node]) == \
            canonical_config(new[node])


class TestDiffConfig:
    def test_identical_configs_yield_empty_delta(self, line_state_dc):
        result = ReplicationProblem(
            line_state_dc,
            mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4).solve()
        configs = build_replication_configs(line_state_dc, result)
        for node, cfg in configs.items():
            delta = diff_config(cfg, cfg)
            assert delta.is_empty
            assert delta.num_rules == 0

    def test_node_mismatch_rejected(self):
        a = ShimConfig(node="A", rules={})
        b = ShimConfig(node="B", rules={})
        with pytest.raises(ValueError, match="different nodes"):
            diff_config(a, b)
        with pytest.raises(ValueError, match="applied to"):
            apply_delta(a, ConfigDelta(node="B"))

    def test_replay_is_idempotent(self):
        rng_old, rng_new = compile_hash_ranges(
            [("keep", 0.5), ("swap", 0.5)])
        old = ShimConfig(node="A", rules={"c": [
            ShimRule("c", rng_old, ShimAction.PROCESS)]})
        new = ShimConfig(node="A", rules={"c": [
            ShimRule("c", rng_old, ShimAction.PROCESS),
            ShimRule("c", rng_new, ShimAction.PROCESS)]})
        delta = diff_config(old, new)
        once = apply_delta(old, delta)
        twice = apply_delta(once, delta)
        assert once == twice == canonical_config(new)

    def test_node_only_in_old_gets_pure_retire(self, line_state_dc):
        result = ReplicationProblem(
            line_state_dc,
            mirror_policy=MirrorPolicy.none()).solve()
        configs = build_replication_configs(line_state_dc, result)
        populated = {n: c for n, c in configs.items() if c.num_rules}
        gone = sorted(populated)[0]
        new = {n: c for n, c in populated.items() if n != gone}
        deltas = diff_configs(populated, new)
        assert not deltas[gone].installs
        assert len(deltas[gone].retires) == populated[gone].num_rules
        emptied = apply_delta(populated[gone], deltas[gone])
        assert emptied == ShimConfig(node=gone, rules={})


class TestDiffEquivalenceAcrossProblems:
    """apply(delta) == fresh compile, for all three paper problems."""

    def test_replication_epoch_pair(self, line_state_dc):
        old = build_replication_configs(
            line_state_dc, ReplicationProblem(
                line_state_dc,
                mirror_policy=MirrorPolicy.none()).solve())
        new = build_replication_configs(
            line_state_dc, ReplicationProblem(
                line_state_dc,
                mirror_policy=MirrorPolicy.datacenter(),
                max_link_load=0.4).solve())
        _assert_delta_equivalence(old, new)

    def test_split_epoch_pair(self, line_state_dc):
        old = build_split_configs(
            line_state_dc,
            SplitTrafficProblem(line_state_dc,
                                max_link_load=0.2).solve())
        drifted = line_state_dc.with_traffic(
            [cls.scaled(1.5) for cls in line_state_dc.classes])
        new = build_split_configs(
            drifted,
            SplitTrafficProblem(drifted, max_link_load=0.4).solve())
        _assert_delta_equivalence(old, new)

    def test_aggregation_epoch_pair(self, line_state):
        old = build_aggregation_configs(
            line_state, AggregationProblem(line_state).solve())
        drifted = line_state.with_traffic(
            [cls.scaled(2.0) for cls in line_state.classes])
        new = build_aggregation_configs(
            drifted, AggregationProblem(drifted, beta=0.1).solve())
        _assert_delta_equivalence(old, new)

    def test_budgeted_epoch_pair(self, line_state_dc):
        """Budgeted tables diff/apply just like exact ones."""
        result = ReplicationProblem(
            line_state_dc,
            mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4).solve()
        old = build_replication_configs(line_state_dc, result,
                                        budget=1)
        new = build_replication_configs(line_state_dc, result,
                                        budget=3)
        _assert_delta_equivalence(old, new)


def _config_from_fractions(node, fractions):
    """A single-node, single-class config laying out ``fractions``."""
    ranges = compile_hash_ranges(
        [(("process", f"N{i}"), fraction)
         for i, fraction in enumerate(fractions)])
    return ShimConfig(node=node, rules={"cls": [
        ShimRule("cls", rng, ShimAction.PROCESS) for rng in ranges]})


class TestRandomizedEpochPairs:
    @settings(max_examples=80, deadline=None)
    @given(old_row=fraction_rows(), new_row=fraction_rows())
    def test_apply_delta_matches_fresh_compile(self, old_row, new_row):
        old = _config_from_fractions("A", old_row)
        new = _config_from_fractions("A", new_row)
        delta = diff_config(old, new)
        assert apply_delta(old, delta) == canonical_config(new)

    @settings(max_examples=80, deadline=None)
    @given(row=fraction_rows())
    def test_same_epoch_ships_nothing(self, row):
        old = _config_from_fractions("A", row)
        new = _config_from_fractions("A", list(row))
        assert diff_config(old, new).is_empty


def _drive(strategy, configs, agents, previous=None, spec=None,
           horizon=2000.0):
    loop = EventLoop()
    channel = ConfigChannel(spec or ChannelSpec(base_delay=1.0),
                            seed=5)
    driver = RolloutDriver(channel, strategy)
    session = driver.start(loop, agents, configs, previous)
    loop.run_until(horizon)
    return session


def _seeded_agents(state, configs):
    agents = build_agents(state.node_capacity)
    for node, cfg in configs.items():
        agents[node].deliver(ConfigMessage(
            MessageKind.INSTALL, 1, node, cfg), now=0.0)
    return agents


class TestDeltaRollout:
    @pytest.fixture
    def epoch_pair(self, line_state_dc):
        old = build_replication_configs(
            line_state_dc, ReplicationProblem(
                line_state_dc,
                mirror_policy=MirrorPolicy.none()).solve())
        new = build_replication_configs(
            line_state_dc, ReplicationProblem(
                line_state_dc,
                mirror_policy=MirrorPolicy.datacenter(),
                max_link_load=0.4).solve())
        return old, new

    def test_delta_reaches_fresh_compile_state(self, line_state_dc,
                                               epoch_pair):
        old, new = epoch_pair
        agents = _seeded_agents(line_state_dc, old)
        session = _drive("delta", new, agents,
                         previous=old)
        assert session.outcome is RolloutOutcome.COMPLETED
        assert session.retired_at is not None
        for node in new:
            assert canonical_config(agents[node].effective_config()) \
                == canonical_config(new[node])

    def test_delta_survives_lossy_channel(self, line_state_dc,
                                          epoch_pair):
        old, new = epoch_pair
        agents = _seeded_agents(line_state_dc, old)
        session = _drive(
            "delta", new, agents,
            previous=old,
            spec=ChannelSpec(base_delay=1.0, jitter=5.0, loss=0.3,
                             retransmit_timeout=4.0))
        assert session.outcome is RolloutOutcome.COMPLETED
        for node in new:
            assert canonical_config(agents[node].effective_config()) \
                == canonical_config(new[node])

    def test_delta_installs_fewer_rules_than_overlap(
            self, line_state_dc):
        """An epoch that re-balances one class leaves the other
        class's rules bit-identical, so the delta ships strictly
        fewer rules than re-installing every table whole."""
        import dataclasses

        result = ReplicationProblem(
            line_state_dc,
            mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4).solve()
        old = build_replication_configs(line_state_dc, result)
        moved = dict(result.process_fractions)
        shifted = dict(moved["B->C"])
        total = sum(shifted.values())
        for i, node in enumerate(sorted(shifted)):
            shifted[node] = (0.7 if i == 0 else 0.3 / max(
                1, len(shifted) - 1)) * total
        moved["B->C"] = shifted
        new = build_replication_configs(
            line_state_dc,
            dataclasses.replace(result, process_fractions=moved))
        delta_agents = _seeded_agents(line_state_dc, old)
        delta_session = _drive("delta", new, delta_agents,
                               previous=old)
        overlap_agents = _seeded_agents(line_state_dc, old)
        overlap_session = _drive(
            "overlap", new, overlap_agents,
            previous=old)
        assert delta_session.outcome is RolloutOutcome.COMPLETED
        assert overlap_session.outcome is RolloutOutcome.COMPLETED
        assert delta_session.rules_installed < \
            overlap_session.rules_installed
        assert delta_session.delta_rules is not None
        assert delta_session.full_rules == \
            overlap_session.rules_installed

    def test_empty_deltas_complete_without_traffic(self,
                                                   line_state_dc,
                                                   epoch_pair):
        old, _ = epoch_pair
        agents = _seeded_agents(line_state_dc, old)
        session = _drive("delta", old, agents,
                         previous=old)
        assert session.outcome is RolloutOutcome.COMPLETED
        assert session.rules_installed == 0
        assert session.rules_shipped == 0

    def test_bare_agent_falls_back_to_full_install(self,
                                                   line_state_dc,
                                                   epoch_pair):
        """A node with no base table can't patch — the driver falls
        back to one full overlap install for it, and the rollout
        still converges on the fresh-compile state everywhere."""
        old, new = epoch_pair
        agents = _seeded_agents(line_state_dc, old)
        bare = sorted(n for n in new if not diff_config(
            old[n], new[n]).is_empty)[0]
        agents[bare] = build_agents(
            line_state_dc.node_capacity)[bare]  # no base config
        session = _drive("delta", new, agents,
                         previous=old)
        assert session.outcome is RolloutOutcome.COMPLETED
        assert bare in session.fallback_nodes
        for node in new:
            assert canonical_config(agents[node].effective_config()) \
                == canonical_config(new[node])

    def test_bootstrap_without_transition_goes_direct(
            self, line_state_dc, epoch_pair):
        old, _ = epoch_pair
        agents = build_agents(line_state_dc.node_capacity)
        session = _drive("delta", old, agents, previous=None)
        assert session.strategy == "direct"
        assert session.outcome is RolloutOutcome.COMPLETED


class TestDeltaMatchesOverlapOnDrawnTopologies:
    @settings(max_examples=20, deadline=None)
    @given(state=small_states(), data=st.data(),
           jitter=st.floats(min_value=0.0, max_value=5.0),
           loss=st.floats(min_value=0.0, max_value=0.4))
    def test_both_strategies_end_on_the_new_plan(self, state, data,
                                                 jitter, loss):
        """Delta ≡ overlap on a ``small_states`` state and a volume
        drift of it: the deltas replay to the new plan, both rollouts
        end on it through a lossy channel, delta installing no more."""
        drifted = state.with_traffic([cls.scaled(data.draw(
            st.floats(min_value=0.25, max_value=4.0)))
            for cls in state.classes])
        old, new = (build_replication_configs(s, ReplicationProblem(
            s, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4).solve()) for s in (state, drifted))
        _assert_delta_equivalence(old, new)
        spec = ChannelSpec(base_delay=1.0, jitter=jitter, loss=loss,
                           retransmit_timeout=4.0)
        sessions = {}
        for strategy in ("overlap", "delta"):
            agents = _seeded_agents(state, old)
            sessions[strategy] = _drive(strategy, new, agents,
                                        previous=old, spec=spec)
            assert sessions[strategy].outcome is \
                RolloutOutcome.COMPLETED
            for node in new:
                assert canonical_config(agents[node].effective_config()) \
                    == canonical_config(new[node])
        assert sessions["delta"].rules_installed <= \
            sessions["overlap"].rules_installed
