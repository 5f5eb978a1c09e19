"""Zero-copy trace store: direct-synthesis parity, pack/open/replay
round trips, chunk-boundary edge cases, and corruption handling.

The store's contract is exactness, not approximation: ``generate_batch
(direct=True)`` must be bit-identical to the Session-materializing
oracle, and a chunked replay from the memmapped store must reproduce
the in-memory fast report field-for-field — including across the
canned scenarios' per-epoch trace recipe.
"""

import itertools
import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import MirrorPolicy, ReplicationProblem
from repro.experiments.common import setup_topology
from repro.ingest import chunk_resident_bytes
from repro.runtime import CANNED_SCENARIOS
from repro.shim.hashing import FiveTuple
from repro.shim import build_replication_configs
from repro.simulation import (
    ChunkedReplay,
    Emulation,
    TraceGenerator,
    TraceStore,
    TraceStoreError,
    trace_fingerprint,
)
from repro.simulation import emulation as emulation_module
from repro.simulation.batch import PacketBatch, _dense_rank
from repro.simulation.emulation import _replay_workers
from repro.simulation.packets import pop_prefix_ip
from repro.simulation.tracegen import TraceSpec, _random_bytes
from repro.simulation.tracestore import (
    _PACKET_COLUMNS,
    _SESSION_COLUMNS,
)
from repro.traffic import (
    DEFAULT_APPLICATION_MIX,
    TrafficMatrix,
    TrafficClass,
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
    batch = _line_apps_generator(line_topology, spec, 5).generate_batch(
        tuple(line_topology.nodes), direct=True)
    prints["line-apps/5"] = trace_fingerprint(batch)
    return prints


def _line_apps_generator(line_topology, spec, seed):
    """Per-application classes: several classes share a prefix pair,
    so the classifier decides on the destination port."""
    classes = classes_with_applications(
        line_topology,
        TrafficMatrix({("A", "D"): 1000.0, ("B", "C"): 400.0}))
    ports = {cls.name: app.port for cls in classes
             for app in DEFAULT_APPLICATION_MIX
             if cls.name.endswith("/" + app.name)}
    return TraceGenerator(line_topology.nodes, classes, spec=spec,
                          seed=seed, class_ports=ports)


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

    def test_line_apps_bit_identical_columns(self, line_topology):
        """Shared prefix pairs: the per-class lookup with its port
        overrides against the per-session classifier calls."""
        generator = _line_apps_generator(
            line_topology, TraceSpec(total_sessions=300, scanner_count=2,
                                     scanner_fanout=9), 11)

        def build(direct):
            return generator.generate_batch(tuple(line_topology.nodes),
                                            direct=direct)

        batch = build(True)
        assert len(set(batch.sessions.class_names)) > 2
        _assert_batches_identical(batch, build(False))

    def test_classify_is_the_scalar_classifier(self, line_topology):
        """Every row against ``__call__``, on ports that do and do not
        pick a class on a shared pair, and on a pair nobody
        registered."""
        generator = _line_apps_generator(line_topology, TraceSpec(), 3)
        classifier = generator.classifier
        stray = TrafficClass(name="stray", source="D", target="A",
                             path=("D", "C", "B", "A"), num_sessions=1.0)
        classes = generator.classes + [stray]
        ports = sorted(set(generator.class_ports.values())) + [80, 7]
        rng = np.random.default_rng(5)
        class_idx = rng.integers(len(classes), size=500)
        dst_port = rng.choice(np.array(ports), size=500)
        names, ids = classifier.classify(classes, class_idx, dst_port)
        assert names == sorted(set(names))
        expected = [classifier(FiveTuple(
            proto=6,
            src_ip=pop_prefix_ip(
                classifier.pop_index(classes[ci].source), 9),
            src_port=1024,
            dst_ip=pop_prefix_ip(
                classifier.pop_index(classes[ci].target), 9),
            dst_port=int(port)))
            for ci, port in zip(class_idx, dst_port)]
        assert None in expected
        assert [None if i < 0 else names[i] for i in ids] == expected
        assert set(names) == {name for name in expected
                              if name is not None}

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
        """``session_key`` with duplicate 5-tuples: the packed-word
        rank against ``np.unique`` over stacked rows, kept here as the
        reference. Narrow columns pack into one word; full-width ones
        into three, whose first words tie."""
        rng = np.random.default_rng(17)
        wide = (0, 7, 2 ** 16 - 1, 2 ** 31 + 5, 2 ** 32 - 1)
        for rows, values in itertools.product((0, 1, 400),
                                              (None, wide)):
            columns = [rng.integers(0, high, size=rows,
                                    dtype=np.int64).astype(np.uint32)
                       if values is None else
                       rng.choice(np.array(values, dtype=np.uint32),
                                  size=rows)
                       for high in (2, 3, 4, 3, 5)]
            stacked = np.stack(
                [c.astype(np.int64) for c in columns], axis=1)
            _, inverse = np.unique(stacked, axis=0,
                                   return_inverse=True)
            rank = _dense_rank(*columns)
            assert rank.dtype == np.int64
            assert np.array_equal(rank, inverse.reshape(-1))


class TestPayloadDraw:
    """The payload's raw-draw fill against the byte draw it replaces:
    the same bytes and the same generator state after, whether or not
    a 32-bit half-word is buffered on entry."""

    @pytest.mark.parametrize("buffered", [False, True],
                             ids=["empty", "half-word"])
    @pytest.mark.parametrize("size", [*range(18), 1_000_003])
    def test_fill_is_the_uint8_draw(self, size, buffered):
        expected_rng = np.random.default_rng(29)
        fill_rng = np.random.default_rng(29)
        if buffered:
            for rng in (expected_rng, fill_rng):
                rng.integers(0, 2 ** 32, dtype=np.uint32)
        assert fill_rng.bit_generator.state["has_uint32"] == buffered
        expected = expected_rng.integers(0, 256, size=size,
                                         dtype=np.uint8)
        filled = _random_bytes(fill_rng, size)
        assert filled.dtype == np.uint8
        assert np.array_equal(filled, expected)
        assert fill_rng.bit_generator.state == \
            expected_rng.bit_generator.state
        assert fill_rng.random() == expected_rng.random()
        assert np.array_equal(
            fill_rng.integers(0, 2 ** 32, size=3, dtype=np.uint32),
            expected_rng.integers(0, 2 ** 32, size=3, dtype=np.uint32))


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

    def test_manifest_is_compact_json(self, tinet_emulation,
                                      tmp_path):
        _, batch = tinet_emulation
        store = TraceStore.pack(batch, tmp_path / "trace")
        text = (tmp_path / "trace" / "manifest.json").read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert json.loads(text) == store.manifest

    def test_indented_manifest_still_opens(self, tinet_emulation,
                                           tmp_path):
        """Stores packed before the manifest went compact carry an
        ``indent=2`` manifest with the same content."""
        emulation, batch = tinet_emulation
        packed = TraceStore.pack(batch, tmp_path / "trace")
        path = tmp_path / "trace" / "manifest.json"
        path.write_text(json.dumps(json.loads(path.read_text()),
                                   indent=2, sort_keys=True) + "\n")
        store = TraceStore.open(tmp_path / "trace")
        assert store.manifest == packed.manifest
        assert store.verify()
        _assert_batches_identical(store.batch(), batch)
        assert emulation.run_signature_chunked(
            ChunkedReplay(store.batch(), chunk_packets=97)) == \
            emulation.run_signature(batch, fast=True)

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
                                        tmp_path, chunk, replay_workers):
        emulation, batch = tinet_emulation
        store = TraceStore.pack(batch, tmp_path / "trace")
        chunked, expected = self._reports(emulation, batch, store,
                                          chunk)
        assert chunked == expected
        # Forked into 2 and 3 packet ranges, in memory and from the
        # store: the serial report, down to the order of the links.
        for workers in (1, 2, 3):
            with replay_workers(workers, chunk):
                reports = [emulation.run_signature(batch, fast=True)] + [
                    emulation.run_signature_chunked(
                        ChunkedReplay(source, chunk))
                    for source in (batch, store.batch())]
            assert all(report == expected for report in reports)
            links = [list(report.link_replicated_bytes)
                     for report in reports]
            if workers == 1:
                serial_links = links
            assert links == serial_links

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
        shuffled = PacketBatch(
            batch.sessions,
            np.asarray(batch.session_of_packet)[::-1].copy(),
            np.asarray(batch.direction).copy(),
            np.asarray(batch.size_bytes).copy(),
            np.zeros(0, dtype=np.uint8),
            np.zeros(batch.num_packets + 1, dtype=np.int64))
        with pytest.raises(ValueError):
            ChunkedReplay(shuffled, chunk_packets=10)


class TestForkedReplay:
    """A replay split across processes: how the ranges are cut, when
    it stays in this process, and how a failed range fails closed."""

    @pytest.mark.parametrize("chunk", [1, 13, 10**9])
    @pytest.mark.parametrize("parts", [1, 2, 3, 7])
    def test_partition_covers_every_chunk_once_in_order(
            self, tinet_emulation, chunk, parts):
        _, batch = tinet_emulation
        replay = ChunkedReplay(batch, chunk)
        views = replay.partition(parts)
        assert len(views) == parts
        assert [b for view in views for b in view.bounds] == \
            replay.bounds
        assert sum(view.num_packets for view in views) == \
            batch.num_packets
        for view in views:
            assert [chunk.num_packets for chunk in view] == \
                [end - start for start, end in view.bounds]
        # Range i ends at the first chunk boundary at or past i/parts
        # of the packets.
        ends = [end for _, end in replay.bounds]
        for i in range(1, parts):
            cut = sum(len(view.bounds) for view in views[:i])
            share = batch.num_packets * i / parts
            assert ends[cut - 1] >= share
            assert cut == 1 or ends[cut - 2] < share
        if replay.num_chunks >= 100 * parts:  # so balanced to 5 %
            share = batch.num_packets / parts
            assert all(abs(view.num_packets - share) <= 0.05 * share
                       for view in views)

    def test_small_or_shuffled_replays_stay_in_process(
            self, tinet_emulation, replay_workers, monkeypatch):
        emulation, batch = tinet_emulation
        order = np.random.default_rng(3).permutation(batch.num_packets)
        shuffled = PacketBatch(
            batch.sessions, np.asarray(batch.session_of_packet)[order],
            np.asarray(batch.direction)[order],
            np.asarray(batch.size_bytes)[order],
            np.zeros(0, dtype=np.uint8),
            np.zeros(batch.num_packets + 1, dtype=np.int64))
        expected = emulation.run_signature(shuffled, fast=True)
        with replay_workers(2, 13):
            assert _replay_workers(ChunkedReplay(batch, 13)) == 2
            monkeypatch.setattr(emulation_module.multiprocessing,
                                "get_context", _no_fork)
            assert emulation.run_signature(shuffled, fast=True) == \
                expected
        # At the real minimum, a 400-session trace stays here too.
        emulation.run_signature(batch, fast=True)

    def test_a_dead_worker_raises_with_its_exit_code(
            self, tinet_emulation, replay_workers, monkeypatch):
        emulation, batch = tinet_emulation
        tally = Emulation._tally

        def dying(self, *args):
            if multiprocessing.parent_process() is not None:
                os._exit(3)
            return tally(self, *args)

        monkeypatch.setattr(Emulation, "_tally", dying)
        with replay_workers(3, 13), \
                pytest.raises(RuntimeError, match="exited with code 3"):
            emulation.run_signature(batch, fast=True)
        assert multiprocessing.active_children() == []

    def test_a_failing_parent_range_stops_the_workers(
            self, tinet_emulation, replay_workers, monkeypatch):
        emulation, batch = tinet_emulation

        def failing(self, *args):
            if multiprocessing.parent_process() is not None:
                time.sleep(60)  # would outlive the parent's failure
            raise ArithmeticError("injected")

        monkeypatch.setattr(Emulation, "_tally", failing)
        start = time.monotonic()
        with replay_workers(3, 13), \
                pytest.raises(ArithmeticError, match="injected"):
            emulation.run_signature(batch, fast=True)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []


def _no_fork(method=None):
    raise AssertionError("this replay must not fork")


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

    @pytest.mark.parametrize("tamper", ["cut-column", "raised-counts",
                                        "offsets-end"])
    def test_counts_that_disagree_fail_closed(self, tinet_emulation,
                                              tmp_path, capsys, tamper):
        """Row counts the shape check and the fingerprint both miss: a
        column cut together with its manifest shape, manifest counts
        raised, a payload that ends before its offsets do. Each fails
        at ``open``, and ``repro trace info`` says so and exits 2."""
        _, batch = tinet_emulation
        root = tmp_path / "trace"
        TraceStore.pack(batch, root)
        manifest = json.loads((root / "manifest.json").read_text())
        if tamper == "cut-column":
            cut = np.asarray(batch.sessions.src_ip)[:-5].copy()
            np.save(root / "src_ip.npy", cut)
            manifest["columns"]["src_ip"]["shape"] = list(cut.shape)
            match = "column 'src_ip' has shape"
        elif tamper == "raised-counts":
            manifest["num_packets"] += 7
            manifest["num_sessions"] += 3
            match = "the manifest's counts need"
        else:
            manifest["payload"]["bytes"] -= 1
            match = "payload offsets end"
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(TraceStoreError, match=match):
            TraceStore.open(root)
        assert main(["trace", "info", str(root)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {root}: ")

    @pytest.mark.parametrize("tamper", ["{", "[]", "num_packets",
                                        "payload"])
    def test_malformed_manifest_fails_closed(self, tinet_emulation,
                                             tmp_path, capsys, tamper):
        """A manifest that is not JSON, not a JSON object, or lacks a
        key ``open`` reads is a corrupt store: ``TraceStoreError``, and
        ``repro trace info`` prints ``error: ...`` and exits 2."""
        _, batch = tinet_emulation
        root = tmp_path / "trace"
        TraceStore.pack(batch, root)
        if tamper in ("{", "[]"):
            text = tamper
        else:
            manifest = json.loads((root / "manifest.json").read_text())
            del manifest[tamper]
            text = json.dumps(manifest)
        (root / "manifest.json").write_text(text)
        with pytest.raises(TraceStoreError, match=str(root)):
            TraceStore.open(root)
        assert main(["trace", "info", str(root)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {root}: ")

    def test_column_dtype_disagreeing_with_manifest(self, tinet_emulation,
                                                    tmp_path):
        _, batch = tinet_emulation
        TraceStore.pack(batch, tmp_path / "trace")
        sizes = np.asarray(batch.size_bytes)
        other = np.float32 if sizes.dtype != np.float32 else np.float64
        np.save(tmp_path / "trace" / "size_bytes.npy", sizes.astype(other))
        with pytest.raises(TraceStoreError,
                           match=f"'size_bytes' is {np.dtype(other)}"):
            TraceStore.open(tmp_path / "trace")

    def test_one_flipped_payload_byte_is_caught(self, tinet_emulation,
                                                tmp_path):
        _, batch = tinet_emulation
        store = TraceStore.pack(batch, tmp_path / "trace")
        target = tmp_path / "trace" / "payload.bin"
        payload = bytearray(target.read_bytes())
        payload[len(payload) // 2] ^= 0x01
        target.write_bytes(bytes(payload))
        reopened = TraceStore.open(tmp_path / "trace")
        assert not reopened.verify()
        assert trace_fingerprint(reopened.batch()) != store.fingerprint

    def test_verify_catches_tampering(self, tinet_emulation,
                                      tmp_path):
        _, batch = tinet_emulation
        TraceStore.pack(batch, tmp_path / "trace")
        sizes = np.asarray(batch.size_bytes).copy()
        sizes[0] += 1.0
        np.save(tmp_path / "trace" / "size_bytes.npy", sizes)
        store = TraceStore.open(tmp_path / "trace")
        assert not store.verify()
