"""Parallel sweep executor: ordered fan-out with serial-identical
results (single-CPU CI boxes assert determinism, not wall-clock)."""

import pytest

from repro.experiments import ParallelSweepRunner
from repro.experiments.fig10_emulation import run_fig10
from repro.experiments.parallel import SlabChannel
from repro.simulation import TraceGenerator, trace_fingerprint
from repro.simulation.tracegen import TraceSpec
from repro.simulation.tracestore import TraceStore


def _square(value):
    """Module-level so worker processes can unpickle it."""
    return value * value


class TestParallelSweepRunner:
    def test_serial_when_jobs_is_one(self):
        runner = ParallelSweepRunner(1)
        assert runner.map(_square, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]

    def test_parallel_map_preserves_order(self):
        runner = ParallelSweepRunner(2)
        items = list(range(20))
        assert runner.map(_square, items) == [i * i for i in items]

    def test_single_item_stays_in_process(self):
        # One item never pays the pool spin-up cost (and unpicklable
        # callables therefore still work).
        runner = ParallelSweepRunner(4)
        assert runner.map(lambda x: x + 1, [41]) == [42]

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            ParallelSweepRunner(0)

    def test_default_is_serial(self):
        assert ParallelSweepRunner(None).map(_square, [2, 3]) == [4, 9]

    def test_auto_chunksize_targets_four_chunks_per_worker(self):
        runner = ParallelSweepRunner(2)
        # ceil(items / (4 * jobs)), floored at 1
        assert runner.auto_chunksize(0) == 1
        assert runner.auto_chunksize(1) == 1
        assert runner.auto_chunksize(8) == 1
        assert runner.auto_chunksize(9) == 2
        assert runner.auto_chunksize(100) == 13


class TestSlabChannel:
    def test_round_trip_is_bit_identical(self, line_state):
        generator = TraceGenerator(
            line_state.topology.nodes, line_state.classes,
            spec=TraceSpec(total_sessions=150), seed=9)
        batch = generator.generate_batch(
            tuple(line_state.nids_nodes), direct=True)
        with SlabChannel(batch, meta={"origin": "test"}) as channel:
            reopened = SlabChannel.open_batch(channel.path)
            assert trace_fingerprint(reopened) == \
                trace_fingerprint(batch)

    def test_close_removes_spill(self, line_state):
        import pathlib
        generator = TraceGenerator(
            line_state.topology.nodes, line_state.classes,
            spec=TraceSpec(total_sessions=50), seed=9)
        batch = generator.generate_batch(
            tuple(line_state.nids_nodes), direct=True)
        channel = SlabChannel(batch)
        spill = pathlib.Path(channel.path)
        assert spill.is_dir()
        channel.close()
        assert not spill.exists()

    def test_failed_pack_removes_spill(self, line_state, tmp_path,
                                       monkeypatch):
        generator = TraceGenerator(
            line_state.topology.nodes, line_state.classes,
            spec=TraceSpec(total_sessions=50), seed=9)
        batch = generator.generate_batch(
            tuple(line_state.nids_nodes), direct=True)

        def failing_pack(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(TraceStore, "pack", failing_pack)
        with pytest.raises(OSError) as failure:
            SlabChannel(batch, dir=tmp_path)
        # ``failure`` keeps the traceback, and with it the half-built
        # channel, alive: the spill must be gone regardless.
        assert str(failure.value) == "disk full"
        assert list(tmp_path.iterdir()) == []


class TestFig10Parallel:
    def test_parallel_equals_serial(self):
        serial = run_fig10(total_sessions=400, seed=7, jobs=1)
        parallel = run_fig10(total_sessions=400, seed=7, jobs=2)
        assert parallel == serial
