"""Sketch update throughput and the streaming estimator's memory win.

The ingest daemon's value proposition is quantitative: folding a
trace into count-min sketches must keep up with the packet stream
(vectorized lookup3 scatter-adds, no per-key Python loop) while
holding orders of magnitude less state than the trace it summarizes.
This benchmark pins both and persists the honest numbers to the JSON
artifact CI archives.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.experiments.common import setup_topology
from repro.ingest import IngestDaemon, chunk_resident_bytes
from repro.simulation.tracegen import TraceGenerator, TraceSpec
from repro.simulation.tracestore import ChunkedReplay

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _min_of(repeats, fn):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


@pytest.fixture(scope="module")
def bench():
    state = setup_topology("tinet", dc_capacity_factor=1.0).state
    generator = TraceGenerator(
        state.topology.nodes, state.classes,
        spec=TraceSpec(total_sessions=25_000), seed=7)
    batch = generator.generate_batch(tuple(state.nids_nodes),
                                     with_payloads=False, direct=True)
    class_names = [cls.name for cls in state.classes]
    chunks = list(ChunkedReplay(batch, 2048))

    def stream_once():
        daemon = IngestDaemon(class_names, width=2048, depth=4,
                              seed=11, workers=2)
        for chunk in chunks:
            daemon.consume(chunk)
        return daemon

    seconds, daemon = _min_of(3, stream_once)
    snapshot = daemon.snapshot()

    # Raw count-min update rate on synthetic keys (the sketch layer
    # alone, no batch bookkeeping).
    from repro.sketch import CountMinSketch

    rng = np.random.default_rng(3)
    keys = rng.integers(0, 2**32, size=1_000_000, dtype=np.uint32)
    sketch = CountMinSketch(2048, 4, seed=5)
    raw_seconds, _ = _min_of(3, lambda: sketch.update(keys))

    trace_bytes = sum(chunk_resident_bytes(c) for c in chunks)
    record = {
        "benchmark": "sketch_throughput",
        "topology": "tinet",
        "sessions": int(batch.sessions.num_sessions),
        "packets": int(batch.num_packets),
        "chunks": len(chunks),
        "stream_seconds": seconds,
        "packets_per_second": batch.num_packets / seconds,
        "sessions_per_second":
            batch.sessions.num_sessions / seconds,
        "raw_update_keys_per_second": len(keys) / raw_seconds,
        "sketch_state_bytes": snapshot.state_bytes,
        "trace_bytes": trace_bytes,
        "compression_ratio": trace_bytes / snapshot.state_bytes,
        "max_resident_bytes": daemon.stats.max_resident_bytes,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "sketch_throughput.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nsketch ingest {record['packets_per_second']:,.0f} "
          f"pkt/s ({record['sessions_per_second']:,.0f} sessions/s); "
          f"raw update {record['raw_update_keys_per_second']:,.0f} "
          f"keys/s; state {snapshot.state_bytes:,} B vs trace "
          f"{trace_bytes:,} B ({record['compression_ratio']:.0f}x) "
          f"[saved to {path}]")
    return record


def test_stream_keeps_up(bench):
    """Chunked ingest must fold >= 100k packets/s of trace — far
    above the simulated epoch rates the scenarios replay."""
    assert bench["packets_per_second"] >= 100_000, (
        f"ingest too slow: {bench['packets_per_second']:,.0f} pkt/s")


def test_raw_update_rate(bench):
    """The vectorized count-min update path must sustain >= 1M
    key-updates/s (no per-key Python loop)."""
    assert bench["raw_update_keys_per_second"] >= 1_000_000, (
        f"raw sketch updates only "
        f"{bench['raw_update_keys_per_second']:,.0f} keys/s")


def test_sketch_state_is_small(bench):
    """The sketch must summarize the trace in <= 1/10 of its bytes
    (it is ~55x on tinet at width 2048) while resident state stays
    bounded by sketches + one chunk."""
    assert bench["compression_ratio"] >= 10.0
    assert bench["max_resident_bytes"] < bench["trace_bytes"]
