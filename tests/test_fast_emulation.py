"""Scalar-vs-fast parity for the vectorized Signature replay engine.

The fast path's contract is *bit-identical reports*: Signature replay
runs both ways on the largest evaluation topology (tinet) and the
dataclass reports are compared with ``==``; the scalar Stateful, Scan
and Flood replays are checked there against what they must equal (the
LP's miss rate, the centralized detector, per-epoch runs). The fallback
ladder — uncompilable configs, prebuilt batches that cannot fall back —
is exercised on the small line fixtures. The two units the fast path
is built from — the session-direction group expansion and the
flattened decision table — are checked on drawn inputs against
references kept in this file.
"""

import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    AggregationProblem,
    MirrorPolicy,
    ReplicationProblem,
    SplitTrafficProblem,
)
from repro.core.inputs import NetworkState
from repro.experiments.common import setup_topology
from repro.nids.signature import DEFAULT_SIGNATURES
from repro.obs import MetricsRegistry, use_registry
from repro.shim import (
    FiveTuple,
    HashRange,
    ShimAction,
    ShimRule,
    build_aggregation_configs,
    build_replication_configs,
    build_split_configs,
)
from repro.shim.batch import (
    ACTION_IGNORE,
    ACTION_PROCESS,
    ACTION_REPLICATE,
    BatchShimKernel,
)
from repro.shim.config import HashMode, ShimConfig, union_config
from repro.shim.hashing import (
    field_hash,
    field_hash_batch,
    session_hash,
    session_hash_batch,
)
from repro.shim.shim import Shim, ShimDecision
from repro.simulation import (
    ChunkedReplay,
    Emulation,
    PacketBatch,
    TraceGenerator,
)
from repro.simulation.packets import Session, pop_prefix_ip
from repro.simulation.tracegen import PrefixClassifier, TraceSpec
from repro.topology.routing import shortest_path_routing
from repro.topology.topology import Topology
from repro.traffic.classes import TrafficClass


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
    """Every run_* kind on the tinet fixture: Signature scalar vs fast,
    the others against their reference."""

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
        """The replay measures the miss rate the Section 5 LP
        predicts, offloads included."""
        generator, sessions = tinet_trace
        result = SplitTrafficProblem(tinet_state,
                                     max_link_load=0.4).solve()
        configs = build_split_configs(tinet_state, result)
        emulation = Emulation(tinet_state, configs,
                              generator.classifier)
        report = emulation.run_stateful(sessions)
        assert report.total_sessions == len(sessions)
        assert report.miss_rate == pytest.approx(result.miss_rate,
                                                 abs=1e-9)
        assert report.replicated_bytes > 0

    def test_scan_parity(self, tinet_state, tinet_trace):
        generator, sessions = tinet_trace
        result = AggregationProblem(tinet_state, beta=0.0).solve()
        configs = build_aggregation_configs(tinet_state, result)
        emulation = Emulation(tinet_state, configs,
                              generator.classifier)
        assert emulation.run_scan(sessions,
                                  threshold=10).semantically_equivalent

    def test_flood_parity(self, tinet_state, tinet_trace):
        generator, sessions = tinet_trace
        result = AggregationProblem(tinet_state, beta=0.0).solve()
        configs = build_aggregation_configs(tinet_state, result)
        emulation = Emulation(tinet_state, configs,
                              generator.classifier)
        assert emulation.run_flood(sessions,
                                   threshold=10).semantically_equivalent

    def test_scan_epochs_parity(self, tinet_state, tinet_trace):
        """Counters reset between epochs: each epoch's report is the
        report of that epoch replayed alone."""
        generator, sessions = tinet_trace
        result = AggregationProblem(tinet_state, beta=0.0).solve()
        configs = build_aggregation_configs(tinet_state, result)
        emulation = Emulation(tinet_state, configs,
                              generator.classifier)
        half = len(sessions) // 2
        epochs = [sessions[:half], sessions[half:]]
        assert emulation.run_scan_epochs(epochs, threshold=8) == [
            emulation.run_scan(epoch, threshold=8) for epoch in epochs]


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


def _mixed_hash_modes(state, configs):
    """``configs`` with one class's rules on one node split across two
    hash modes, which the kernel cannot compile."""
    cls = state.classes[0].name
    node = state.nids_nodes[0]
    return {**configs, node: ShimConfig(node, {
        **configs[node].rules, cls: [
            ShimRule(cls, HashRange(("process", node), 0.0, 0.3),
                     ShimAction.PROCESS),
            ShimRule(cls, HashRange(("process", node), 0.5, 0.8),
                     ShimAction.PROCESS, hash_mode=HashMode.SOURCE)]})}


class TestFastFallbacks:
    def test_overlapping_rules_fall_back(self, line_pieces):
        """Overlapping single-mode ranges no longer fall back (the
        test id is pinned): the kernel resolves first-match-wins ahead
        of time, here with the later rule shadowed on [0.4, 0.6) and
        a different action so ownership is observable."""
        state, generator, sessions, configs = line_pieces
        cls = state.classes[0].name
        node = state.nids_nodes[0]
        configs[node] = ShimConfig(node, {**configs[node].rules, cls: [
            ShimRule(cls, HashRange(("process", node), 0.0, 0.6),
                     ShimAction.PROCESS),
            ShimRule(cls, HashRange(("offload", node), 0.4, 0.9),
                     ShimAction.REPLICATE, target=state.dc_node),
            ShimRule(cls, HashRange(("process", node), 0.2, 1.0),
                     ShimAction.PROCESS),
        ]})
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
        emulation = Emulation(state, _mixed_hash_modes(state, configs),
                              generator.classifier)
        with use_registry(MetricsRegistry()) as registry:
            fast = emulation.run_signature(sessions, fast=True)
            assert registry.counter_value(
                "emulation.fast.fallbacks") == 1
            assert registry.counter_value("emulation.fast.runs") == 0
        assert fast == emulation.run_signature(sessions)

    def test_prebuilt_batch_cannot_fall_back(self, line_pieces):
        state, generator, sessions, configs = line_pieces
        batch = PacketBatch.from_sessions(
            sessions, generator.classifier, tuple(state.nids_nodes))
        uncompilable = Emulation(state, _mixed_hash_modes(state, configs),
                                 generator.classifier)
        with pytest.raises(TypeError):
            uncompilable.run_signature(batch, fast=True)
        emulation = Emulation(state, configs, generator.classifier)
        with pytest.raises(TypeError):
            emulation.run_stateful(batch)
        with pytest.raises(TypeError):
            emulation.run_scan(batch, threshold=8)

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


# -- the fast path's units: session-direction groups and one flat table ----

_SIGNATURE_BODIES = (b"", b"plain", b"xx" + DEFAULT_SIGNATURES[1],
                     DEFAULT_SIGNATURES[5] + b"../../",  # overlapping
                     DEFAULT_SIGNATURES[7] * 2 + b"tail")


@pytest.fixture(scope="module")
def line_world():
    """The conftest line network with a datacenter, built once so
    hypothesis can reuse it across examples."""
    topology = Topology(
        "line", ["A", "B", "C", "D"],
        [("A", "B"), ("B", "C"), ("C", "D")],
        populations={"A": 4.0, "B": 1.0, "C": 1.0, "D": 2.0})
    routing = shortest_path_routing(topology)
    classes = [
        TrafficClass(name="A->D", source="A", target="D",
                     path=routing.path("A", "D"),
                     num_sessions=1000.0, session_bytes=10_000.0),
        TrafficClass(name="B->C", source="B", target="C",
                     path=routing.path("B", "C"),
                     num_sessions=500.0, session_bytes=10_000.0)]
    state = NetworkState.calibrated(topology, classes,
                                    dc_capacity_factor=10.0)
    classifier = PrefixClassifier(state.topology.nodes, state.classes)
    configs = build_replication_configs(state, ReplicationProblem(
        state, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.4).solve())
    return state, classifier, configs


@st.composite
def drawn_sessions(draw):
    """Sessions the generator never emits: any packet order and
    direction mix, sessions with no packets, repeated 5-tuples, empty
    and asymmetric reverse paths."""
    sessions = []
    for _ in range(draw(st.integers(0, 7))):
        source, target, path = draw(st.sampled_from(
            [("A", "D", ("A", "B", "C", "D")), ("B", "C", ("B", "C"))]))
        pops = "ABCD"
        tup = FiveTuple(
            6, pop_prefix_ip(pops.index(source), draw(st.integers(1, 3))),
            draw(st.sampled_from([1024, 4000])),
            pop_prefix_ip(pops.index(target), draw(st.integers(1, 3))),
            draw(st.sampled_from([80, 443])))
        rev_path = draw(st.one_of(
            st.none(), st.just(()),
            st.lists(st.sampled_from(["A", "B", "C", "D", "DC"]),
                     unique=True, max_size=4).map(tuple)))
        session = Session(tup, f"{source}->{target}", path, rev_path)
        for direction, body in draw(st.lists(st.tuples(
                st.sampled_from(["fwd", "rev"]),
                st.sampled_from(_SIGNATURE_BODIES)), max_size=6)):
            session.add_packet(direction, len(body) + 40, body)
        sessions.append(session)
    return sessions


def _occurrences(body):
    return sum(body.startswith(pattern, at)
               for pattern in DEFAULT_SIGNATURES
               for at in range(len(body)))


def _shuffled(batch, order):
    """The same packets in another row order (payloads repacked)."""
    offsets = batch.payload_offsets
    bodies = [batch.payload_buffer[offsets[i]:offsets[i + 1]]
              for i in order]
    return PacketBatch(
        batch.sessions, batch.session_of_packet[order],
        batch.direction[order], batch.size_bytes[order],
        np.concatenate([np.zeros(0, dtype=np.uint8), *bodies]),
        np.concatenate([[0], np.cumsum([len(b) for b in bodies])]
                       ).astype(np.int64))


class TestSessionDirectionGroups:
    @given(drawn_sessions(), st.randoms(use_true_random=False),
           st.integers(1, 9))
    @settings(max_examples=120, deadline=None)
    def test_group_expansion_equals_the_packet_walk(
            self, line_world, replay_workers, sessions, rng,
            chunk_packets):
        state, classifier, configs = line_world
        nodes = tuple(state.nids_nodes)
        batch = PacketBatch.from_sessions(sessions, classifier, nodes)

        # Reference, kept here: walk every packet past every node on
        # its direction's path, as the scalar replays do.
        walked = {}
        for row, session in enumerate(sessions):
            for packet in session.packets:
                for node in session.observers(packet.direction):
                    key = (row, packet.direction == "rev",
                           nodes.index(node))
                    walked[key] = walked.get(key, np.zeros(4)) + (
                        1, len(packet.payload), packet.size_bytes,
                        _occurrences(packet.payload))

        order = list(range(batch.num_packets))
        rng.shuffle(order)
        shuffled = _shuffled(batch, np.array(order, dtype=np.int64))
        for view in (batch, shuffled):
            obs_group, obs_node = view.group_observers()
            columns = [view.group_sums(column)[obs_group] for column in (
                np.ones(view.num_packets), view.payload_lengths,
                view.size_bytes,
                view.payload_match_counts(DEFAULT_SIGNATURES))]
            grouped = {
                (int(group) >> 1, bool(group & 1), int(node)):
                    np.array(sums)
                for group, node, *sums in zip(obs_group, obs_node,
                                              *columns)}
            assert len(grouped) == len(obs_group)  # one per triple
            assert grouped.keys() == walked.keys()
            for key, sums in walked.items():
                assert np.array_equal(grouped[key], sums), key

        emulation = Emulation(state, configs, classifier)
        scalar = emulation.run_signature(sessions)
        replays = (
            lambda: emulation.run_signature(sessions, fast=True),
            # Not session-contiguous: replayed as one chunk.
            lambda: emulation.run_signature(shuffled, fast=True),
            lambda: emulation.run_signature_chunked(
                ChunkedReplay(batch, chunk_packets)))
        # One process, then forked into 2 and 3 session-aligned packet
        # ranges: the same reports, down to the order of the links.
        for workers in (1, 2, 3):
            with replay_workers(workers, chunk_packets):
                reports = [replay() for replay in replays]
            assert all(report == scalar for report in reports)
            links = [list(report.link_replicated_bytes)
                     for report in reports]
            if workers == 1:
                serial_links = links
            assert links == serial_links


@st.composite
def drawn_kernel_cases(draw):
    """Per-node rule lists over three classes and three nodes, and the
    5-tuples to decide. Boundaries come from a coarse grid (so ranges
    overlap, nest, repeat and collapse to zero width) and from the
    tuples' own hash values (so ``start <= h < end`` is probed at
    equality)."""
    tuples = draw(st.lists(st.builds(
        FiveTuple, st.just(6), st.integers(1, 40), st.integers(1, 3),
        st.integers(1, 40), st.integers(0, 3)),
        min_size=1, max_size=12))
    seed = draw(st.integers(0, 9))
    cuts = [i / 8 for i in range(9)]
    for tup in tuples[:4]:
        cuts += [session_hash(tup, seed), field_hash(tup.src_ip, seed),
                 field_hash(tup.dst_ip, seed)]
    configs = {}
    for node in ("n0", "n1"):  # "n2" is on the path but has no config
        rules = {}
        for name in draw(st.lists(st.sampled_from(["c0", "c1", "c2"]),
                                  unique=True)):
            mode = draw(st.sampled_from(list(HashMode)))
            rules[name] = [
                ShimRule(name,
                         HashRange(("r", node, i), *sorted(
                             (draw(st.sampled_from(cuts)),
                              draw(st.sampled_from(cuts))))),
                         *draw(st.sampled_from(
                             [(ShimAction.PROCESS, None),
                              (ShimAction.REPLICATE, "n2"),
                              (ShimAction.REPLICATE, "n0")])),
                         direction=draw(st.sampled_from(
                             ["both", "both", "fwd", "rev"])),
                         hash_mode=mode)
                for i in range(draw(st.integers(0, 5)))]
        configs[node] = ShimConfig(node, rules)
    return tuples, seed, configs


class TestFlattenedDecide:
    @given(drawn_kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_decide_equals_shim_handle(self, case):
        tuples, seed, configs = case
        nodes = ("n0", "n1", "n2")
        names = ("c0", "c1", "c2")

        def classifier(tup):  # dst port 3 is unmonitored: class -1
            return names[tup.dst_port] if tup.dst_port < 3 else None

        kernel = BatchShimKernel(configs, names, nodes, hash_seed=seed)
        columns = [np.array(column, dtype=np.uint32)
                   for column in zip(*tuples)]
        hashes = {
            HashMode.SESSION: session_hash_batch(*columns, seed=seed),
            HashMode.SOURCE: field_hash_batch(columns[1], seed=seed),
            HashMode.DESTINATION: field_hash_batch(columns[3],
                                                   seed=seed)}
        # Every (tuple, node, direction), as one observation vector.
        obs = [(t, n, d) for t in range(len(tuples))
               for n in range(len(nodes)) for d in (0, 1)]
        rows = np.array([t for t, _, _ in obs], dtype=np.int64)
        class_ids = np.array(
            [-1 if classifier(tuples[t]) is None
             else names.index(classifier(tuples[t]))
             for t, _, _ in obs], dtype=np.int64)
        actions, targets = kernel.decide(
            np.array([n for _, n, _ in obs], dtype=np.int64),
            class_ids,
            np.array([d for _, _, d in obs], dtype=np.int64),
            {mode: hashes[mode][rows] for mode in kernel.modes_used})
        assert actions.dtype == np.int8 and targets.dtype == np.int32

        shims = {node: Shim(config, classifier, seed)
                 for node, config in configs.items()}
        for (t, n, d), action, target in zip(obs, actions, targets):
            shim = shims.get(nodes[n])
            decision = (ShimDecision(None) if shim is None else
                        shim.handle(tuples[t], ("fwd", "rev")[d]))
            if decision.is_process:
                assert (action, target) == (ACTION_PROCESS, -1)
            elif decision.is_replicate:
                assert action == ACTION_REPLICATE
                assert nodes[target] == decision.target
            else:
                assert (action, target) == (ACTION_IGNORE, -1)
        assert kernel.max_table_rules <= 2 * 5 + 1
