"""The streaming ingestion daemon (ROADMAP item 1).

:class:`IngestDaemon` is the long-running process between the packet
taps and the controller. It consumes an *unbounded* stream of
session-aligned :class:`~repro.simulation.batch.PacketBatch` slabs —
a :class:`~repro.simulation.tracestore.ChunkedReplay` over a packed
trace store, or any generator of slabs — over the discrete-event
:class:`~repro.runtime.events.EventLoop`, folds each slab into
per-worker :class:`~repro.sketch.volume.ClassVolumeSketch` instances
(round-robin, the multi-queue shape of the DPDK+OctoSketch design),
and on demand merges the workers losslessly into one aggregate whose
estimates re-volume the template traffic classes for the controller's
``resolve_traffic()`` (:meth:`IngestDaemon.estimated_classes`).

Memory is the contract here: the daemon never holds more than the
worker sketches plus the single in-flight slab, so peak resident
state is O(sketch + chunk) no matter how many packets stream past.
:attr:`IngestStats.max_resident_bytes` *measures* that bound — the
estimator scenario asserts it instead of eyeballing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

from repro.obs import get_registry
from repro.runtime.events import EventLoop
from repro.simulation.batch import PacketBatch
from repro.simulation.tracestore import column_arrays
from repro.sketch import ClassVolumeSketch
from repro.traffic.classes import TrafficClass


def chunk_resident_bytes(chunk: PacketBatch) -> int:
    """Bytes a slab keeps resident while it is being consumed."""
    return (sum(int(column.nbytes)
                for column in column_arrays(chunk).values())
            + int(chunk.payload_buffer.nbytes))


@dataclass
class IngestStats:
    """Counters for one ingestion window (reset per epoch)."""

    chunks: int = 0
    packets: int = 0
    sessions: int = 0
    merges: int = 0
    max_resident_bytes: int = 0
    window_start: Optional[float] = None
    window_end: Optional[float] = None
    #: ``packets`` once the chunk at ``window_start`` was consumed.
    window_start_packets: int = 0

    def packets_per_second(self) -> Optional[float]:
        """Simulated-time throughput of the current window.

        The packets consumed at ``window_start`` arrived before the
        window opened, so only the ones after it count: n equal
        chunks of P packets, Δ apart, read P / Δ.
        """
        if (self.window_start is None or self.window_end is None or
                self.window_end <= self.window_start):
            return None
        return ((self.packets - self.window_start_packets) /
                (self.window_end - self.window_start))


class IngestDaemon:
    """Bounded-memory stream consumer feeding the control loop.

    Args:
        class_names: the registered traffic-class universe.
        width / depth: count-min shape, forwarded to every worker
            sketch.
        seed: hash-family seed (keyword-only, mandatory); all workers
            share it — that is what makes their merge lossless.
        workers: per-worker sketch count (round-robin assignment).
    """

    def __init__(self, class_names: Sequence[str], *,
                 width: int = 512, depth: int = 4, seed: int,
                 workers: int = 2) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.class_names = tuple(class_names)
        self.width = width
        self.depth = depth
        self.seed = seed
        self.workers: List[ClassVolumeSketch] = [
            self._make_sketch() for _ in range(workers)]
        self._next_worker = 0
        self.stats = IngestStats()

    def _make_sketch(self) -> ClassVolumeSketch:
        return ClassVolumeSketch(
            self.class_names, width=self.width, depth=self.depth,
            seed=self.seed)

    # -- consumption -------------------------------------------------------

    @property
    def sketch_bytes(self) -> int:
        """Resident bytes across the worker sketches."""
        return sum(worker.state_bytes for worker in self.workers)

    def consume(self, chunk: PacketBatch,
                now: Optional[float] = None) -> None:
        """Fold one slab into the next worker's sketch.

        Every session row of the slab counts, so the order of the
        slabs does not change an estimate, and an empty slab adds
        nothing. A slab is not de-duplicated: one consumed twice is
        counted twice.
        """
        worker = self.workers[self._next_worker]
        self._next_worker = (self._next_worker + 1) % \
            len(self.workers)
        sessions = worker.observe_batch(chunk)
        self.stats.chunks += 1
        self.stats.packets += int(chunk.num_packets)
        self.stats.sessions += sessions
        resident = self.sketch_bytes + chunk_resident_bytes(chunk)
        self.stats.max_resident_bytes = max(
            self.stats.max_resident_bytes, resident)
        metrics = get_registry()
        metrics.inc("ingest.chunks")
        metrics.inc("ingest.packets", chunk.num_packets)
        metrics.gauge("ingest.resident_bytes", resident)
        if now is not None:
            if self.stats.window_start is None:
                self.stats.window_start = now
                self.stats.window_start_packets = self.stats.packets
            self.stats.window_end = now
            rate = self.stats.packets_per_second()
            if rate is not None:
                metrics.gauge("ingest.packets_per_second", rate)

    def stream(self, loop: EventLoop,
               chunks: Iterable[PacketBatch], *,
               start: Optional[float] = None,
               interval: float = 1.0) -> None:
        """Schedule a chunk stream onto the event loop.

        One slab is consumed per firing, ``interval`` simulated
        seconds apart, and the next firing is scheduled only then —
        the iterator is never materialized, so a generator-backed
        unbounded feed stays O(chunk) resident.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        iterator: Iterator[PacketBatch] = iter(chunks)

        def pump() -> None:
            try:
                chunk = next(iterator)
            except StopIteration:
                return
            self.consume(chunk, now=loop.now)
            loop.schedule_in(interval, pump)

        loop.schedule_at(loop.now if start is None else start, pump)

    # -- estimates ---------------------------------------------------------

    def snapshot(self) -> ClassVolumeSketch:
        """Merge the workers into one aggregate (OctoSketch-style).

        The workers keep their state; the aggregate is a fresh sketch
        so a snapshot never perturbs ingestion.
        """
        merged = self._make_sketch()
        for worker in self.workers:
            merged.merge(worker)
        self.stats.merges += len(self.workers)
        get_registry().inc("sketch.merges", len(self.workers))
        self.stats.max_resident_bytes = max(
            self.stats.max_resident_bytes,
            self.sketch_bytes + merged.state_bytes)
        return merged

    def estimated_classes(self, template: Sequence[TrafficClass],
                          scale: float = 1.0) -> List[TrafficClass]:
        """Template classes carrying the aggregate's estimates."""
        return self.snapshot().estimated_classes(template, scale)

    def begin_window(self) -> None:
        """Reset for a new estimation window (epoch boundary).

        Worker sketches are zeroed in place; cumulative high-water
        marks (``max_resident_bytes``) survive, per-window counters
        restart.
        """
        for worker in self.workers:
            worker.reset()
        high_water = self.stats.max_resident_bytes
        self.stats = IngestStats(max_resident_bytes=high_water)
        self._next_worker = 0
