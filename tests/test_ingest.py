"""Tests for the streaming ingestion daemon."""

import numpy as np
import pytest

from repro.core.controller import NIDSController
from repro.experiments.common import setup_topology
from repro.ingest import IngestDaemon, chunk_resident_bytes
from repro.obs import MetricsRegistry, use_registry
from repro.runtime.events import EventLoop
from repro.runtime.rollout import coverage_report
from repro.simulation.batch import PacketBatch
from repro.simulation.tracegen import TraceGenerator, TraceSpec
from repro.simulation.tracestore import ChunkedReplay


@pytest.fixture
def batch(line_state_dc):
    generator = TraceGenerator(
        line_state_dc.topology.nodes, line_state_dc.classes,
        spec=TraceSpec(total_sessions=600), seed=17)
    return generator.generate_batch(
        tuple(line_state_dc.nids_nodes), direct=True)


@pytest.fixture
def daemon(line_state_dc):
    names = [cls.name for cls in line_state_dc.classes]
    return IngestDaemon(names, width=256, depth=4, seed=5, workers=3)


class TestConsume:
    def test_chunked_stream_counts_each_session_once(self, daemon,
                                                     batch):
        replay = ChunkedReplay(batch, 64)
        for chunk in replay:
            daemon.consume(chunk)
        snapshot = daemon.snapshot()
        errors = snapshot.estimate_errors(batch.sessions.class_counts())
        # 600 sessions in a 256x4 sketch: collisions are unlikely and
        # one-sided; the chunked fold must agree with the exact
        # per-class counts almost everywhere.
        assert errors["l1_rel"] < 0.05
        assert daemon.stats.chunks == replay.num_chunks
        assert daemon.stats.packets == batch.num_packets
        assert daemon.stats.sessions == batch.sessions.num_sessions

    def test_round_robin_spreads_chunks(self, daemon, batch):
        chunks = list(ChunkedReplay(batch, 64))
        assert len(chunks) >= 3
        for chunk in chunks:
            daemon.consume(chunk)
        assert all(worker.sessions > 0
                   for worker in daemon.workers)

    def test_resident_accounting_is_sketch_plus_chunk(self, daemon,
                                                      batch):
        chunks = list(ChunkedReplay(batch, 64))
        for chunk in chunks:
            daemon.consume(chunk)
        biggest = max(chunk_resident_bytes(c) for c in chunks)
        assert daemon.stats.max_resident_bytes <= \
            daemon.sketch_bytes + biggest
        # And far below the whole batch: the bound is the point.
        assert daemon.stats.max_resident_bytes < \
            daemon.sketch_bytes + chunk_resident_bytes(batch)

    def test_snapshot_does_not_perturb_workers(self, daemon, batch):
        chunk = next(iter(ChunkedReplay(batch, 64)))
        daemon.consume(chunk)
        before = [worker.sessions for worker in daemon.workers]
        first = daemon.snapshot()
        second = daemon.snapshot()
        assert [w.sessions for w in daemon.workers] == before
        assert np.array_equal(first.class_volumes(),
                              second.class_volumes())

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            IngestDaemon(["x->y"], seed=1, workers=0)


class TestStream:
    def test_stream_is_lazy_and_paced(self, daemon, batch):
        consumed = []

        def chunk_feed():
            for chunk in ChunkedReplay(batch, 64):
                consumed.append(loop.now)
                yield chunk

        loop = EventLoop()
        daemon.stream(loop, chunk_feed(), start=10.0, interval=2.0)
        assert consumed == []  # nothing pulled before the loop runs
        loop.run_until(10.0)
        assert len(consumed) == 1
        loop.run_all()
        replay = ChunkedReplay(batch, 64)
        assert daemon.stats.chunks == replay.num_chunks
        # One chunk per firing, interval apart, starting at start.
        assert daemon.stats.window_start == pytest.approx(10.0)
        assert daemon.stats.window_end == pytest.approx(
            10.0 + 2.0 * (replay.num_chunks - 1))
        assert daemon.stats.packets_per_second() is not None

    @pytest.mark.parametrize("num_chunks", [2, 5])
    def test_rate_is_the_feed_rate(self, daemon, batch, num_chunks):
        # n equal chunks of P packets, one every 2 s, read P / 2: the
        # chunk consumed when the window opens arrived before it.
        chunk = next(iter(ChunkedReplay(batch, 64)))
        loop = EventLoop()
        with use_registry(MetricsRegistry()) as metrics:
            daemon.stream(loop, [chunk] * num_chunks, start=0.0,
                          interval=2.0)
            loop.run_all()
            rate = chunk.num_packets / 2.0
            assert daemon.stats.packets_per_second() == \
                pytest.approx(rate)
            assert metrics.gauge_value("ingest.packets_per_second") == \
                pytest.approx(rate)

    def test_interval_validation(self, daemon):
        with pytest.raises(ValueError):
            daemon.stream(EventLoop(), iter([]), interval=0.0)


class TestEmit:
    """What the daemon hands the controller: the template classes
    re-volumed with the merged estimate."""

    def test_estimated_classes_match_template_order(self, daemon,
                                                    batch,
                                                    line_state_dc):
        for chunk in ChunkedReplay(batch, 128):
            daemon.consume(chunk)
        template = list(line_state_dc.classes)
        estimated = daemon.estimated_classes(template, scale=1.0)
        assert [cls.name for cls in estimated] == \
            [cls.name for cls in template]

    def test_metrics_are_emitted(self, daemon, batch,
                                 line_state_dc):
        with use_registry(MetricsRegistry()) as metrics:
            for chunk in ChunkedReplay(batch, 128):
                daemon.consume(chunk, now=float(daemon.stats.chunks))
            daemon.estimated_classes(list(line_state_dc.classes))
            assert metrics.counter_value("ingest.chunks") > 0
            assert metrics.counter_value("ingest.packets") == \
                batch.num_packets
            assert metrics.counter_value("sketch.merges") == \
                len(daemon.workers)
            assert metrics.gauge_value("ingest.resident_bytes") > 0


class TestWindows:
    def test_begin_window_resets_but_keeps_high_water(self, daemon,
                                                      batch):
        for chunk in ChunkedReplay(batch, 64):
            daemon.consume(chunk)
        high_water = daemon.stats.max_resident_bytes
        assert high_water > 0
        daemon.begin_window()
        assert daemon.stats.chunks == 0
        assert daemon.stats.sessions == 0
        assert daemon.stats.max_resident_bytes == high_water
        assert all(worker.sessions == 0 for worker in daemon.workers)
        snapshot = daemon.snapshot()
        assert int(snapshot.class_volumes().sum()) == 0


class TestChunkEdges:
    """Slabs out of order, twice, or empty: 300 internet2 sessions in
    256-packet chunks of 64 sessions, folded by three workers."""

    @pytest.fixture(scope="class")
    def internet2(self):
        state = setup_topology("internet2").state
        batch = TraceGenerator(
            state.topology.nodes, state.classes,
            spec=TraceSpec(total_sessions=300), seed=17).generate_batch(
                tuple(state.nids_nodes), direct=True)
        return state, batch, list(ChunkedReplay(batch, 256))

    @staticmethod
    def _fold(state, chunks):
        daemon = IngestDaemon([cls.name for cls in state.classes],
                              width=256, depth=4, seed=5, workers=3)
        for chunk in chunks:
            daemon.consume(chunk)
        return daemon

    def test_out_of_order_chunks_give_the_same_volumes(self, internet2):
        state, _, chunks = internet2
        in_order = self._fold(state, chunks).snapshot()
        shuffled = self._fold(state, chunks[::-1]).snapshot()
        assert np.array_equal(in_order.class_volumes(),
                              shuffled.class_volumes())

    def test_a_repeated_chunk_is_counted_twice(self, internet2):
        state, batch, chunks = internet2
        repeated = chunks[1]
        assert batch.sessions.num_sessions == 300
        assert repeated.sessions.num_sessions == 64
        daemon = self._fold(state, chunks + [repeated])
        assert daemon.stats.sessions == 364
        assert daemon.stats.packets == \
            batch.num_packets + repeated.num_packets
        alone = self._fold(state, [repeated]).snapshot()
        assert np.array_equal(
            daemon.snapshot().class_volumes(),
            self._fold(state, chunks).snapshot().class_volumes()
            + alone.class_volumes())

    def test_an_empty_slab_changes_no_estimate(self, internet2):
        state, batch, chunks = internet2
        empty = PacketBatch.from_sessions([], lambda five_tuple: None,
                                          tuple(state.nids_nodes))
        assert empty.num_packets == empty.sessions.num_sessions == 0
        plain = self._fold(state, chunks)
        padded = self._fold(state, chunks[:2] + [empty] + chunks[2:])
        assert np.array_equal(plain.snapshot().class_volumes(),
                              padded.snapshot().class_volumes())
        assert padded.estimated_classes(state.classes) == \
            plain.estimated_classes(state.classes)
        assert (padded.stats.sessions, padded.stats.packets) == \
            (300, batch.num_packets)


class TestSingleClassWindows:
    """A window that saw one class of internet2's 110, or nothing: the
    estimates never under-count, and a warm refresh on them still
    hands every class its whole hash space."""

    @pytest.fixture(scope="class")
    def internet2(self):
        state = setup_topology("internet2", dc_capacity_factor=10.0).state
        (only,) = [cls for cls in state.classes
                   if cls.name == "ATLA->IPLS"]
        batch = TraceGenerator(
            state.topology.nodes, [only],
            spec=TraceSpec(total_sessions=400), seed=17).generate_batch(
                tuple(state.nids_nodes), with_payloads=False,
                direct=True)
        return state, batch

    @pytest.mark.parametrize("consumed", ("one-class", "no-chunk"))
    def test_estimates_cover_and_refresh_keeps_coverage(self, internet2,
                                                        consumed):
        state, batch = internet2
        daemon = IngestDaemon([cls.name for cls in state.classes],
                              width=256, depth=4, seed=5)
        exact = {}
        if consumed == "one-class":
            for chunk in ChunkedReplay(batch, 256):
                daemon.consume(chunk)
            exact = batch.sessions.class_counts()
            assert exact == {"ATLA->IPLS": 400}
        estimated = daemon.estimated_classes(state.classes)
        for cls in estimated:
            assert cls.num_sessions >= exact.get(cls.name, 0), cls.name

        controller = NIDSController(state)
        controller.refresh()
        rollout = controller.refresh(estimated)
        assert controller.refresh_count == 2
        assert coverage_report(estimated,
                               rollout.configs).coverage == 1.0
