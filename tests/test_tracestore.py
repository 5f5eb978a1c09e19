"""Zero-copy trace store: direct-synthesis parity, pack/open/replay
round trips, chunk-boundary edge cases, and corruption handling.

The store's contract is exactness, not approximation: ``generate_batch
(direct=True)`` must be bit-identical to the Session-materializing
oracle, and a chunked replay from the memmapped store must reproduce
the in-memory fast report field-for-field — including across the
canned scenarios' per-epoch trace recipe.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import MirrorPolicy, ReplicationProblem
from repro.experiments.common import setup_topology
from repro.ingest import chunk_resident_bytes
from repro.runtime import CANNED_SCENARIOS
from repro.shim import build_replication_configs
from repro.simulation import (
    ChunkedReplay,
    Emulation,
    TraceGenerator,
    TraceStore,
    TraceStoreError,
    trace_fingerprint,
)
from repro.simulation.batch import _dense_rank
from repro.simulation.tracegen import TraceSpec
from repro.simulation.tracestore import (
    _PACKET_COLUMNS,
    _SESSION_COLUMNS,
)
from repro.traffic import (
    DEFAULT_APPLICATION_MIX,
    TrafficMatrix,
    classes_with_applications,
)

GOLDEN = Path(__file__).parent / "golden" / "dataplane_parent.json"

_SESSION_ARRAYS = tuple(c for c in _SESSION_COLUMNS)
_PACKET_ARRAYS = tuple(c for c in _PACKET_COLUMNS)


def _assert_batches_identical(left, right):
    """Every column bit-identical, dtypes included."""
    for name in _SESSION_ARRAYS:
        a = getattr(left.sessions, name)
        b = getattr(right.sessions, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    for name in _PACKET_ARRAYS:
        a = getattr(left, name)
        b = getattr(right, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert left.payload_buffer.tobytes() == \
        right.payload_buffer.tobytes()
    assert left.sessions.num_keys == right.sessions.num_keys
    assert left.sessions.class_names == right.sessions.class_names
    assert left.sessions.node_order == right.sessions.node_order
    assert len(left.sessions.paths) == len(right.sessions.paths)
    for p, q in zip(left.sessions.paths, right.sessions.paths):
        assert np.array_equal(p, q)


@pytest.fixture(scope="module")
def tinet_state():
    return setup_topology("tinet", dc_capacity_factor=10.0).state


@pytest.fixture(scope="module")
def tinet_emulation(tinet_state):
    """A replication emulation plus the trace it replays."""
    generator = TraceGenerator(
        tinet_state.topology.nodes, tinet_state.classes,
        spec=TraceSpec(total_sessions=400, scanner_count=2,
                       scanner_fanout=15, payload_sigma=0.5),
        seed=23)
    batch = generator.generate_batch(tuple(tinet_state.nids_nodes),
                                     direct=True)
    result = ReplicationProblem(
        tinet_state, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.4).solve()
    configs = build_replication_configs(tinet_state, result)
    emulation = Emulation(tinet_state, configs, generator.classifier)
    return emulation, batch


def small_trace_fingerprints(tinet_state, line_topology):
    """Fingerprints of a few small direct-synthesis traces. The golden
    copy (``tests/golden/dataplane_parent.json``) was written by this
    function at the commit before ``session_key`` became a lexsort
    rank and the classifier probe key one integer: the generate-side
    shortcuts must not move a single column."""
    spec = TraceSpec(total_sessions=300, scanner_count=2,
                     scanner_fanout=9, payload_sigma=0.4)
    prints = {}
    for seed in (3, 5, 7):
        batch = TraceGenerator(
            tinet_state.topology.nodes, tinet_state.classes,
            spec=spec, seed=seed).generate_batch(
                tuple(tinet_state.nids_nodes), direct=True)
        prints[f"tinet/{seed}"] = trace_fingerprint(batch)
    # Per-application classes: several classes share a prefix pair,
    # so the classifier decides on the destination port.
    classes = classes_with_applications(
        line_topology,
        TrafficMatrix({("A", "D"): 1000.0, ("B", "C"): 400.0}))
    ports = {cls.name: app.port for cls in classes
             for app in DEFAULT_APPLICATION_MIX
             if cls.name.endswith("/" + app.name)}
    batch = TraceGenerator(
        line_topology.nodes, classes, spec=spec, seed=5,
        class_ports=ports).generate_batch(
            tuple(line_topology.nodes), direct=True)
    prints["line-apps/5"] = trace_fingerprint(batch)
    return prints


class TestDirectSynthesisParity:
    """generate_batch(direct=True) vs the Session-materializing path."""

    @pytest.mark.parametrize("with_payloads", [True, False],
                             ids=["payloads", "headers-only"])
    def test_bit_identical_columns(self, tinet_state, with_payloads):
        node_order = tuple(tinet_state.nids_nodes)
        spec = TraceSpec(total_sessions=350, scanner_count=3,
                         scanner_fanout=12, payload_sigma=0.6)

        def build(direct):
            return TraceGenerator(
                tinet_state.topology.nodes, tinet_state.classes,
                spec=spec, seed=41).generate_batch(
                    node_order, with_payloads=with_payloads,
                    direct=direct)

        _assert_batches_identical(build(True), build(False))

    def test_fingerprint_matches_oracle(self, tinet_state):
        node_order = tuple(tinet_state.nids_nodes)

        def build(direct):
            return TraceGenerator(
                tinet_state.topology.nodes, tinet_state.classes,
                spec=TraceSpec(total_sessions=200),
                seed=5).generate_batch(node_order, direct=direct)

        assert trace_fingerprint(build(True)) == \
            trace_fingerprint(build(False))

    def test_fingerprints_are_the_parents(self, tinet_state,
                                          line_topology):
        golden = json.loads(GOLDEN.read_text())["trace_fingerprints"]
        assert small_trace_fingerprints(tinet_state,
                                        line_topology) == golden

    def test_dense_rank_is_the_row_unique_inverse(self):
        """``session_key`` with duplicate 5-tuples: the lexsort rank
        against ``np.unique`` over stacked rows, kept here as the
        reference."""
        rng = np.random.default_rng(17)
        for rows in (0, 1, 400):
            columns = [rng.integers(0, high, size=rows,
                                    dtype=np.int64).astype(np.uint32)
                       for high in (2, 3, 4, 3, 5)]
            stacked = np.stack(
                [c.astype(np.int64) for c in columns], axis=1)
            _, inverse = np.unique(stacked, axis=0,
                                   return_inverse=True)
            rank = _dense_rank(*columns)
            assert rank.dtype == np.int64
            assert np.array_equal(rank, inverse.reshape(-1))


class TestRoundTrip:
    """pack -> open -> replay reproduces the in-memory report."""

    def test_pack_open_is_bit_identical(self, tinet_emulation,
                                        tmp_path):
        _, batch = tinet_emulation
        store = TraceStore.pack(batch, tmp_path / "trace",
                                meta={"origin": "test"})
        assert store.fingerprint == trace_fingerprint(batch)
        assert store.num_sessions == batch.sessions.num_sessions
        assert store.num_packets == batch.num_packets
        assert store.verify()
        _assert_batches_identical(store.batch(), batch)

    def test_reopen_matches_pack(self, tinet_emulation, tmp_path):
        _, batch = tinet_emulation
        packed = TraceStore.pack(batch, tmp_path / "trace")
        reopened = TraceStore.open(tmp_path / "trace")
        assert reopened.fingerprint == packed.fingerprint
        assert reopened.manifest == packed.manifest
        _assert_batches_identical(reopened.batch(), batch)

    def test_chunked_replay_equals_fast_report(self, tinet_emulation,
                                               tmp_path):
        emulation, batch = tinet_emulation
        expected = emulation.run_signature(batch, fast=True)
        store = TraceStore.pack(batch, tmp_path / "trace")
        replay = ChunkedReplay(store.batch(), chunk_packets=97)
        assert replay.num_chunks > 1
        assert emulation.run_signature_chunked(replay) == expected

    @pytest.mark.parametrize("name", sorted(CANNED_SCENARIOS))
    def test_scenario_epoch_traces_round_trip(self, name, tmp_path):
        # The runtime scenarios' per-epoch trace recipe (epoch 0):
        # the store must round-trip whatever the scenario runner
        # would replay.
        scenario = CANNED_SCENARIOS[name]()
        state = setup_topology(scenario.topology).state
        generator = TraceGenerator(
            state.topology.nodes, state.classes,
            spec=TraceSpec(
                total_sessions=scenario.sessions_per_epoch),
            seed=scenario.seed * 100003)
        batch = generator.generate_batch(tuple(state.nids_nodes),
                                         direct=True)
        oracle = generator.generate_batch(tuple(state.nids_nodes),
                                          direct=False)
        _assert_batches_identical(batch, oracle)
        store = TraceStore.pack(batch, tmp_path / name,
                                meta={"scenario": name})
        assert store.verify()
        _assert_batches_identical(store.batch(), batch)


class TestChunkEdges:
    def _reports(self, emulation, batch, store, chunk):
        replay = ChunkedReplay(store.batch(), chunk_packets=chunk)
        return (emulation.run_signature_chunked(replay),
                emulation.run_signature(batch, fast=True))

    @pytest.mark.parametrize("chunk", [1, 13, 10**9],
                             ids=["one", "small", "whole-trace"])
    def test_chunk_sizes_are_equivalent(self, tinet_emulation,
                                        tmp_path, chunk):
        emulation, batch = tinet_emulation
        store = TraceStore.pack(batch, tmp_path / "trace")
        chunked, expected = self._reports(emulation, batch, store,
                                          chunk)
        assert chunked == expected

    def test_chunks_are_session_aligned(self, tinet_emulation,
                                        tmp_path):
        _, batch = tinet_emulation
        store = TraceStore.pack(batch, tmp_path / "trace")
        replay = ChunkedReplay(store.batch(), chunk_packets=7)
        sop = store.batch().session_of_packet
        covered = 0
        for start, end in replay.bounds:
            assert start == covered
            if end < len(sop):
                assert sop[end - 1] != sop[end], (
                    "chunk boundary split a session")
            covered = end
        assert covered == len(sop)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 10**9])
    def test_memmap_and_in_memory_chunks_are_equal(
            self, tinet_emulation, tmp_path, chunk):
        """``ChunkedReplay`` slices plain views of the memmap columns:
        the slabs, and what they keep resident, are those of the
        in-memory batch."""
        _, batch = tinet_emulation
        store = TraceStore.pack(batch, tmp_path / "trace")
        mapped = ChunkedReplay(store.batch(), chunk)
        memory = ChunkedReplay(batch, chunk)
        assert mapped.bounds == memory.bounds
        for left, right in zip(mapped, memory):
            _assert_batches_identical(left, right)
            assert left.sessions.num_sessions == \
                right.sessions.num_sessions
            assert chunk_resident_bytes(left) == \
                chunk_resident_bytes(right)
            assert not isinstance(left.size_bytes, np.memmap)

    def test_empty_trace(self, tinet_state, tmp_path):
        generator = TraceGenerator(
            tinet_state.topology.nodes, tinet_state.classes,
            spec=TraceSpec(total_sessions=0), seed=1)
        batch = generator.generate_batch(
            tuple(tinet_state.nids_nodes), direct=True)
        assert batch.num_packets == 0
        store = TraceStore.pack(batch, tmp_path / "empty")
        assert store.payload_bytes == 0
        assert store.verify()
        replay = ChunkedReplay(store.batch(), chunk_packets=64)
        assert replay.num_chunks == 0
        assert list(replay) == []

    def test_nonpositive_chunk_rejected(self, tinet_emulation):
        _, batch = tinet_emulation
        with pytest.raises(ValueError):
            ChunkedReplay(batch, chunk_packets=0)

    def test_unsorted_batch_rejected(self, tinet_emulation):
        _, batch = tinet_emulation
        from repro.simulation.batch import PacketBatch
        shuffled = PacketBatch(
            batch.sessions,
            np.asarray(batch.session_of_packet)[::-1].copy(),
            np.asarray(batch.direction).copy(),
            np.asarray(batch.size_bytes).copy(),
            np.zeros(0, dtype=np.uint8),
            np.zeros(batch.num_packets + 1, dtype=np.int64))
        with pytest.raises(ValueError):
            ChunkedReplay(shuffled, chunk_packets=10)


class TestStoreErrors:
    def test_open_missing_store(self, tmp_path):
        with pytest.raises(TraceStoreError, match="missing"):
            TraceStore.open(tmp_path / "nope")

    def test_open_foreign_manifest(self, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        (root / "manifest.json").write_text(
            json.dumps({"format": "something-else"}))
        with pytest.raises(TraceStoreError, match="not a"):
            TraceStore.open(root)

    def test_open_future_version(self, tinet_emulation, tmp_path):
        _, batch = tinet_emulation
        store = TraceStore.pack(batch, tmp_path / "trace")
        manifest = dict(store.manifest)
        manifest["version"] = 99
        (tmp_path / "trace" / "manifest.json").write_text(
            json.dumps(manifest))
        with pytest.raises(TraceStoreError, match="version"):
            TraceStore.open(tmp_path / "trace")

    def test_shape_mismatch_detected(self, tinet_emulation, tmp_path):
        _, batch = tinet_emulation
        TraceStore.pack(batch, tmp_path / "trace")
        truncated = np.asarray(batch.direction)[:-1].copy()
        np.save(tmp_path / "trace" / "direction.npy", truncated)
        with pytest.raises(TraceStoreError, match="direction"):
            TraceStore.open(tmp_path / "trace")

    @pytest.mark.parametrize("name", ["payload.bin", "size_bytes.npy",
                                      "session_key.npy"])
    @pytest.mark.parametrize("keep", [0.5, "all but one byte"])
    def test_truncated_file_fails_closed(self, tinet_emulation,
                                         tmp_path, name, keep):
        """A short column or payload file is a corrupt store, named
        with both sizes at ``open`` — not numpy's bare ``ValueError:
        mmap length is greater than file size``."""
        _, batch = tinet_emulation
        TraceStore.pack(batch, tmp_path / "trace")
        target = tmp_path / "trace" / name
        whole = target.read_bytes()
        kept = len(whole) // 2 if keep == 0.5 else len(whole) - 1
        target.write_bytes(whole[:kept])
        if name == "payload.bin":
            recorded = len(whole)
        else:
            owner = batch if name[:-4] in _PACKET_COLUMNS \
                else batch.sessions
            recorded = getattr(owner, name[:-4]).nbytes
        with pytest.raises(TraceStoreError) as caught:
            TraceStore.open(tmp_path / "trace")
        message = str(caught.value)
        assert name in message
        assert f"records {recorded} bytes" in message
        assert f"holds {kept} bytes" in message

    def test_missing_column_file_fails_closed(self, tinet_emulation,
                                              tmp_path):
        _, batch = tinet_emulation
        TraceStore.pack(batch, tmp_path / "trace")
        (tmp_path / "trace" / "direction.npy").unlink()
        with pytest.raises(TraceStoreError, match="direction.npy"):
            TraceStore.open(tmp_path / "trace")

    def test_verify_catches_tampering(self, tinet_emulation,
                                      tmp_path):
        _, batch = tinet_emulation
        TraceStore.pack(batch, tmp_path / "trace")
        sizes = np.asarray(batch.size_bytes).copy()
        sizes[0] += 1.0
        np.save(tmp_path / "trace" / "size_bytes.npy", sizes)
        store = TraceStore.open(tmp_path / "trace")
        assert not store.verify()
