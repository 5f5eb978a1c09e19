"""Property-based tests for consistent reconfiguration (Section 9).

For arbitrary old/new LP-style fraction layouts, an overlap or delta
rollout through the real driver, over a jittery and lossy channel, must
leave no point of any class's hash space unowned at any instant, and
the transient may only *add* work (duplication), never subtract
coverage — the paper's correctness requirement for zero-gap
reconfiguration.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.agents import NodeAgent
from repro.runtime.events import EventLoop
from repro.runtime.rollout import (
    ChannelSpec,
    ConfigChannel,
    RolloutDriver,
    RolloutOutcome,
    coverage_report,
)
from repro.shim.config import ShimAction, ShimConfig, ShimRule, union_config
from repro.shim.diff import (
    ConfigDelta,
    apply_delta,
    canonical_config,
    diff_configs,
)
from repro.shim.ranges import compile_hash_ranges
from repro.traffic.classes import TrafficClass
from tests.strategies import fraction_rows

NODES = ["N0", "N1", "N2", "N3", "N4"]

CLASS = TrafficClass(
    name="N0->N4", source="N0", target="N4", path=list(NODES),
    num_sessions=100.0, session_bytes=1000.0)

EPS = 1e-9


def _configs_from_weights(weights) -> dict:
    """Compile a per-node weight vector (fractions summing to 1) into
    per-node shim configs (the Section 7.1 layout over the path)."""
    entries = [(("process", node), weight)
               for node, weight in zip(NODES, weights)]
    rules = {node: [] for node in NODES}
    for rng in compile_hash_ranges(entries):
        rules[rng.key[1]].append(
            ShimRule(CLASS.name, rng, ShimAction.PROCESS))
    return {node: ShimConfig(node, {CLASS.name: bucket})
            for node, bucket in rules.items()}


def _masses(configs):
    """(union coverage, total owned mass) across on-path rules."""
    report = coverage_report([CLASS], dict(configs))
    union = report.class_coverage[CLASS.name]
    total = union + report.class_duplication[CLASS.name]
    return union, total


weight_vectors = fraction_rows(max_size=len(NODES))


class TestOverlapNeverUncovers:
    @settings(max_examples=40, deadline=None)
    @given(old_weights=weight_vectors, new_weights=weight_vectors,
           strategy=st.sampled_from(("overlap", "delta")),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           jitter=st.floats(min_value=0.0, max_value=5.0),
           loss=st.floats(min_value=0.0, max_value=0.5))
    def test_no_unowned_point_at_any_step(self, old_weights,
                                          new_weights, strategy, seed,
                                          jitter, loss):
        """After every event instant of an overlap or delta rollout —
        jitter reordering the messages, loss forcing retransmissions —
        the class's full hash space stays owned and ownership never
        exceeds old+new mass (duplication only adds work); at the end
        every agent runs exactly the new configuration."""
        old = _configs_from_weights(old_weights)
        new = _configs_from_weights(new_weights)
        agents = {node: NodeAgent(node, {"cpu": 1.0}, config=old[node])
                  for node in NODES}
        loop = EventLoop()
        channel = ConfigChannel(
            ChannelSpec(base_delay=1.0, jitter=jitter, loss=loss,
                        retransmit_timeout=4.0), seed=seed)
        session = RolloutDriver(channel, strategy).start(
            loop, agents, new, previous=old)

        while loop.queue.peek_time() is not None:
            loop.run_until(loop.queue.peek_time())
            union, total = _masses({node: agent.effective_config()
                                    for node, agent in agents.items()})
            assert union >= 1.0 - EPS      # never a gap mid-rollout
            assert total <= 2.0 + EPS      # at most old+new work

        assert session.outcome is RolloutOutcome.COMPLETED
        assert session.retired_at is not None
        for node, agent in agents.items():
            assert canonical_config(agent.effective_config()) == \
                canonical_config(new[node])

    @settings(max_examples=60, deadline=None)
    @given(old_weights=weight_vectors, new_weights=weight_vectors)
    def test_union_config_mass_is_additive(self, old_weights,
                                           new_weights):
        """union_config keeps every rule of both configs: per node the
        merged mass equals the sum of the parts (work is duplicated,
        never dropped)."""
        old = _configs_from_weights(old_weights)
        new = _configs_from_weights(new_weights)
        for node in NODES:
            merged = union_config(old[node], new[node])
            assert merged.num_rules == (old[node].num_rules +
                                        new[node].num_rules)
            merged_mass = sum(
                rule.hash_range.width
                for rule in merged.rules_for(CLASS.name))
            parts_mass = sum(
                rule.hash_range.width
                for cfg in (old[node], new[node])
                for rule in cfg.rules_for(CLASS.name))
            assert abs(merged_mass - parts_mass) <= EPS


class TestDeltaRolloutNeverUncovers:
    """The delta strategy's phase ordering (all installs land before
    any retire goes out) gives the same zero-gap guarantee as full
    overlap, with the deltas applied node-by-node in any order."""

    @settings(max_examples=60, deadline=None)
    @given(old_weights=weight_vectors, new_weights=weight_vectors,
           install_order=st.permutations(NODES),
           retire_order=st.permutations(NODES))
    def test_no_unowned_point_under_any_interleaving(
            self, old_weights, new_weights, install_order,
            retire_order):
        old = _configs_from_weights(old_weights)
        new = _configs_from_weights(new_weights)
        deltas = diff_configs(old, new)
        running = dict(old)

        union, total = _masses(running)
        assert union >= 1.0 - EPS          # before: old covers all

        for node in install_order:         # install phase, any order
            running[node] = apply_delta(
                running[node],
                ConfigDelta(node=node,
                            installs=deltas[node].installs))
            union, total = _masses(running)
            assert union >= 1.0 - EPS      # never a gap mid-rollout
            assert total <= 2.0 + EPS      # at most old+new work

        for node in retire_order:          # retires only after acks
            running[node] = apply_delta(
                running[node],
                ConfigDelta(node=node,
                            retires=deltas[node].retires))
            union, total = _masses(running)
            assert union >= 1.0 - EPS      # retires never uncover

        union, total = _masses(running)
        assert total <= 1.0 + EPS          # after: exactly new

    @settings(max_examples=60, deadline=None)
    @given(old_weights=weight_vectors, new_weights=weight_vectors)
    def test_deltas_converge_on_fresh_compile(self, old_weights,
                                              new_weights):
        from repro.shim.diff import canonical_config

        old = _configs_from_weights(old_weights)
        new = _configs_from_weights(new_weights)
        deltas = diff_configs(old, new)
        for node in NODES:
            assert apply_delta(old[node], deltas[node]) == \
                canonical_config(new[node])
