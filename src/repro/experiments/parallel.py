"""Deterministic parallel execution of experiment sweep points.

The Section 8 experiments are embarrassingly parallel across their
sweep axes — fig10's two architectures, fig15's topologies — and
every sweep point is a pure function of its inputs (seeded RNGs,
deterministic LPs). :class:`ParallelSweepRunner` fans such points
across worker processes with ``ProcessPoolExecutor`` while preserving
input order, so ``jobs=N`` produces byte-identical results to the
serial run, just sooner.

Workers must be module-level (picklable) functions; each rebuilds its
state from plain arguments rather than receiving live ``Emulation``
objects, so nothing process-local (metrics registries, instrumented
shims, caches) leaks across the fork boundary.

Traces don't cross that boundary at all: :class:`SlabChannel` spills a
columnar batch to a :class:`~repro.simulation.tracestore.TraceStore`
once in the parent and hands workers the *path* (a short string).
Each worker memmaps the same files read-only, so all workers share one
page-cached copy of the trace instead of each unpickling or
re-generating its own.
"""

from __future__ import annotations

import math
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, TypeVar, Union

from repro.simulation.batch import PacketBatch
from repro.simulation.tracestore import TraceStore

T = TypeVar("T")
R = TypeVar("R")


class ParallelSweepRunner:
    """Order-preserving map over sweep points.

    Args:
        jobs: worker-process count. ``None`` or ``1`` runs serially in
            this process (no pool, no pickling); ``N > 1`` fans out to
            ``N`` processes. Either way results come back in input
            order, so downstream aggregation is deterministic.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs or 1

    def auto_chunksize(self, num_items: int) -> int:
        """Default pickling granularity: ~4 chunks per worker —
        coarse enough to amortize the per-item round-trip, fine
        enough to keep the pool load-balanced."""
        if num_items <= 0:
            return 1
        return max(1, math.ceil(num_items / (4 * self.jobs)))

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item, in order.

        With ``jobs > 1``, ``fn`` must be picklable (a module-level
        function or a ``functools.partial`` over one), and items ship
        to workers in :meth:`auto_chunksize` batches.
        """
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            return list(pool.map(
                fn, items, chunksize=self.auto_chunksize(len(items))))


class SlabChannel:
    """Shares one packed trace with worker processes by path.

    Packs ``batch`` into a temporary :class:`TraceStore` on
    construction; :attr:`path` is what goes into worker argument
    tuples (pickling a short string), and workers reopen with
    :meth:`open_batch`. The parent owns the store's lifetime — call
    :meth:`close` (or use as a context manager) after the sweep.
    """

    def __init__(self, batch: PacketBatch,
                 meta: Optional[Dict[str, str]] = None,
                 dir: Optional[Union[str, Path]] = None) -> None:
        self._tmpdir = tempfile.TemporaryDirectory(
            prefix="repro-slab-", dir=dir)
        try:
            self.store = TraceStore.pack(
                batch, Path(self._tmpdir.name) / "trace", meta=meta)
        except BaseException:
            # The traceback references this half-built channel, which
            # would keep the spill directory alive until collected.
            self._tmpdir.cleanup()
            raise
        self.path = str(self.store.path)

    @staticmethod
    def open_batch(path: Union[str, Path]) -> PacketBatch:
        """Worker side: memmap the shared trace (read-only)."""
        return TraceStore.open(path).batch()

    def close(self) -> None:
        self._tmpdir.cleanup()

    def __enter__(self) -> "SlabChannel":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
