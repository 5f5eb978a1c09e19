"""Scalar-vs-fast parity for the vectorized replay engine.

The fast path's contract is *bit-identical reports*: every ``run_*``
kind is replayed both ways on the largest evaluation topology (tinet)
and the dataclass reports compared with ``==``. The fallback ladder —
custom engine factories, uncompilable configs, prebuilt batches that
cannot fall back — is exercised on the small line fixtures.
"""

import dataclasses

import pytest

from repro.core import (
    AggregationProblem,
    MirrorPolicy,
    ReplicationProblem,
    SplitTrafficProblem,
)
from repro.core.transitions import union_config
from repro.experiments.common import setup_topology
from repro.nids.signature import SignatureEngine
from repro.obs import MetricsRegistry, use_registry
from repro.shim import (
    HashRange,
    ShimAction,
    ShimRule,
    build_aggregation_configs,
    build_replication_configs,
    build_split_configs,
)
from repro.shim.config import HashMode
from repro.simulation import Emulation, PacketBatch, TraceGenerator
from repro.simulation.tracegen import TraceSpec


@pytest.fixture(scope="module")
def tinet_state():
    return setup_topology("tinet", dc_capacity_factor=10.0).state


@pytest.fixture(scope="module")
def tinet_trace(tinet_state):
    generator = TraceGenerator(
        tinet_state.topology.nodes, tinet_state.classes,
        spec=TraceSpec(total_sessions=300, scanner_count=2,
                       scanner_fanout=20), seed=21)
    sessions = generator.generate(with_payloads=True)
    return generator, sessions


class TestTinetParity:
    """All run_* kinds, scalar vs fast, on the tinet fixture."""

    def _replication_emulation(self, state, generator):
        result = ReplicationProblem(
            state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4).solve()
        configs = build_replication_configs(state, result)
        return Emulation(state, configs, generator.classifier)

    def test_signature_parity(self, tinet_state, tinet_trace):
        generator, sessions = tinet_trace
        emulation = self._replication_emulation(tinet_state, generator)
        scalar = emulation.run_signature(sessions)
        fast = emulation.run_signature(sessions, fast=True)
        assert fast == scalar
        assert fast.replicated_bytes > 0

    def test_signature_parity_from_prebuilt_batch(self, tinet_state,
                                                  tinet_trace):
        generator, sessions = tinet_trace
        emulation = self._replication_emulation(tinet_state, generator)
        batch = PacketBatch.from_sessions(
            sessions, generator.classifier,
            tuple(tinet_state.nids_nodes))
        assert emulation.run_signature(batch, fast=True) == \
            emulation.run_signature(sessions)

    def test_stateful_parity(self, tinet_state, tinet_trace):
        generator, sessions = tinet_trace
        result = SplitTrafficProblem(tinet_state,
                                     max_link_load=0.4).solve()
        configs = build_split_configs(tinet_state, result)
        emulation = Emulation(tinet_state, configs,
                              generator.classifier)
        scalar = emulation.run_stateful(sessions)
        assert emulation.run_stateful(sessions, fast=True) == scalar

    def test_scan_parity(self, tinet_state, tinet_trace):
        generator, sessions = tinet_trace
        result = AggregationProblem(tinet_state, beta=0.0).solve()
        configs = build_aggregation_configs(tinet_state, result)
        emulation = Emulation(tinet_state, configs,
                              generator.classifier)
        scalar = emulation.run_scan(sessions, threshold=10)
        fast = emulation.run_scan(sessions, threshold=10, fast=True)
        assert fast == scalar
        assert scalar.semantically_equivalent
        assert fast.semantically_equivalent

    def test_flood_parity(self, tinet_state, tinet_trace):
        generator, sessions = tinet_trace
        result = AggregationProblem(tinet_state, beta=0.0).solve()
        configs = build_aggregation_configs(tinet_state, result)
        emulation = Emulation(tinet_state, configs,
                              generator.classifier)
        scalar = emulation.run_flood(sessions, threshold=10)
        fast = emulation.run_flood(sessions, threshold=10, fast=True)
        assert fast == scalar
        assert scalar.semantically_equivalent
        assert fast.semantically_equivalent

    def test_scan_epochs_parity(self, tinet_state, tinet_trace):
        generator, sessions = tinet_trace
        result = AggregationProblem(tinet_state, beta=0.0).solve()
        configs = build_aggregation_configs(tinet_state, result)
        emulation = Emulation(tinet_state, configs,
                              generator.classifier)
        half = len(sessions) // 2
        epochs = [sessions[:half], sessions[half:]]
        assert emulation.run_scan_epochs(epochs, threshold=8,
                                         fast=True) == \
            emulation.run_scan_epochs(epochs, threshold=8)


@pytest.fixture
def line_pieces(line_state_dc):
    generator = TraceGenerator(
        line_state_dc.topology.nodes, line_state_dc.classes,
        spec=TraceSpec(total_sessions=400), seed=23)
    sessions = generator.generate(with_payloads=True)
    result = ReplicationProblem(
        line_state_dc, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.4).solve()
    configs = build_replication_configs(line_state_dc, result)
    return line_state_dc, generator, sessions, configs


class TestFastFallbacks:
    def test_custom_engine_factory_falls_back(self, line_pieces):
        state, generator, sessions, configs = line_pieces
        emulation = Emulation(state, configs, generator.classifier)
        factory = lambda: SignatureEngine()  # noqa: E731
        scalar = emulation.run_signature(sessions,
                                         engine_factory=factory)
        with use_registry(MetricsRegistry()) as registry:
            fast = emulation.run_signature(sessions,
                                           engine_factory=factory,
                                           fast=True)
            assert registry.counter_value(
                "emulation.fast.fallbacks") == 1
            assert registry.counter_value("emulation.fast.runs") == 0
        assert fast == scalar

    def test_overlapping_rules_fall_back(self, line_pieces):
        """Overlapping single-mode ranges no longer fall back (the
        test id is pinned): the kernel resolves first-match-wins ahead
        of time, here with the later rule shadowed on [0.4, 0.6) and
        a different action so ownership is observable."""
        state, generator, sessions, configs = line_pieces
        cls = state.classes[0].name
        node = state.nids_nodes[0]
        configs[node].rules[cls] = [
            ShimRule(cls, HashRange(("process", node), 0.0, 0.6),
                     ShimAction.PROCESS),
            ShimRule(cls, HashRange(("offload", node), 0.4, 0.9),
                     ShimAction.REPLICATE, target=state.dc_node),
            ShimRule(cls, HashRange(("process", node), 0.2, 1.0),
                     ShimAction.PROCESS),
        ]
        emulation = Emulation(state, configs, generator.classifier)
        with use_registry(MetricsRegistry()) as registry:
            fast = emulation.run_signature(sessions, fast=True)
            assert registry.counter_value(
                "emulation.fast.fallbacks") == 0
        assert fast == emulation.run_signature(sessions)
        assert fast.replicated_bytes > 0

    def test_union_config_lowers_like_the_scalar_shim(self, line_pieces):
        """The rule-set a node runs mid-rollout — ``union_config(old,
        new)``, old rules first — replays in the kernel exactly as the
        scalar shims decide it."""
        state, generator, sessions, old = line_pieces
        shifted = [dataclasses.replace(
            cls, num_sessions=cls.num_sessions * (1.0 + 0.7 * index))
            for index, cls in enumerate(state.classes)]
        new_state = state.with_traffic(shifted)
        new = build_replication_configs(new_state, ReplicationProblem(
            new_state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4).solve())
        union = {node: union_config(old[node], new[node])
                 for node in old}
        assert any(len(rules) > len(old[node].rules[name])
                   for node, config in union.items()
                   for name, rules in config.rules.items())
        emulation = Emulation(state, union, generator.classifier)
        with use_registry(MetricsRegistry()) as registry:
            fast = emulation.run_signature(sessions, fast=True)
            assert registry.counter_value(
                "emulation.fast.fallbacks") == 0
        assert fast == emulation.run_signature(sessions)

    def test_mixed_hash_modes_fall_back(self, line_pieces):
        state, generator, sessions, configs = line_pieces
        cls = state.classes[0].name
        node = state.nids_nodes[0]
        configs[node].rules[cls] = [
            ShimRule(cls, HashRange(("process", node), 0.0, 0.3),
                     ShimAction.PROCESS),
            ShimRule(cls, HashRange(("process", node), 0.5, 0.8),
                     ShimAction.PROCESS, hash_mode=HashMode.SOURCE),
        ]
        emulation = Emulation(state, configs, generator.classifier)
        with use_registry(MetricsRegistry()) as registry:
            fast = emulation.run_signature(sessions, fast=True)
            assert registry.counter_value(
                "emulation.fast.fallbacks") == 1
        assert fast == emulation.run_signature(sessions)

    def test_prebuilt_batch_cannot_fall_back(self, line_pieces):
        state, generator, sessions, configs = line_pieces
        emulation = Emulation(state, configs, generator.classifier)
        batch = PacketBatch.from_sessions(
            sessions, generator.classifier, tuple(state.nids_nodes))
        with pytest.raises(TypeError):
            emulation.run_signature(
                batch, engine_factory=SignatureEngine, fast=True)

    def test_wrong_node_order_batch_rejected(self, line_pieces):
        state, generator, sessions, configs = line_pieces
        emulation = Emulation(state, configs, generator.classifier)
        wrong_order = tuple(reversed(state.nids_nodes))
        batch = PacketBatch.from_sessions(
            sessions, generator.classifier, wrong_order)
        with pytest.raises(ValueError):
            emulation.run_signature(batch, fast=True)

    def test_fast_run_metric(self, line_pieces):
        state, generator, sessions, configs = line_pieces
        emulation = Emulation(state, configs, generator.classifier)
        with use_registry(MetricsRegistry()) as registry:
            emulation.run_signature(sessions, fast=True)
            assert registry.counter_value("emulation.fast.runs") == 1
            assert registry.counter_value(
                "emulation.fast.fallbacks") == 0
