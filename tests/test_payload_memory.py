"""The trace payload is one read-only uint8 array from synthesis to
replay, and the data plane keeps one copy of it.

Peaks are read with ``tracemalloc``, which sees numpy's allocations:
synthesis peaks near the size of the batch it returns (the plan's
buffer becomes the batch's), and the whole-batch fast replay streams
through the chunk kernel, so its transient memory does not grow with
the trace. Chunks are views of their parent's payload, and the
signature scan reads them through a ``uint16`` view without copying
them (its own bound is in ``tests/test_signature_scan.py``).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import MirrorPolicy, ReplicationProblem
from repro.experiments.common import setup_topology
from repro.ingest import chunk_resident_bytes
from repro.shim import build_replication_configs
from repro.simulation import (
    ChunkedReplay,
    Emulation,
    PacketBatch,
    TraceGenerator,
    TraceStore,
)
from repro.simulation.tracegen import TraceSpec


@pytest.fixture(scope="module")
def internet2():
    state = setup_topology("internet2", dc_capacity_factor=10.0).state
    result = ReplicationProblem(
        state, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.4).solve()
    return state, build_replication_configs(state, result)


def _generator(state, sessions):
    return TraceGenerator(state.topology.nodes, state.classes,
                          spec=TraceSpec(total_sessions=sessions),
                          seed=3)


def _traced_peak(call):
    """(result, bytes allocated at the peak of ``call`` beyond what
    was allocated when it started)."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


def test_direct_synthesis_keeps_one_payload_copy(internet2):
    state, _ = internet2
    generator = _generator(state, 20_000)
    batch, peak = _traced_peak(lambda: generator.generate_batch(
        state.nids_nodes, with_payloads=True, direct=True))
    # Every column of the batch, payload included.
    size = chunk_resident_bytes(batch)
    assert batch.payload_buffer.nbytes > size / 2
    assert peak <= 1.25 * size


def test_fast_replay_transient_does_not_grow_with_the_trace(internet2):
    state, configs = internet2
    transients = []
    for sessions in (20_000, 80_000):
        generator = _generator(state, sessions)
        batch = generator.generate_batch(state.nids_nodes, direct=True)
        emulation = Emulation(state, configs, generator.classifier)
        emulation.run_signature(batch, fast=True)  # compile the kernel
        _, transient = _traced_peak(
            lambda: emulation.run_signature(batch, fast=True))
        transients.append(transient)
        del batch
    assert transients[1] <= 2 * transients[0]


def test_chunk_payload_is_a_view_of_the_parent(internet2, tmp_path):
    state, _ = internet2
    batch = _generator(state, 2_000).generate_batch(
        state.nids_nodes, direct=True)
    store = TraceStore.pack(batch, tmp_path / "store")
    for parent in (batch, store.batch()):
        chunks = list(ChunkedReplay(parent, chunk_packets=1024))
        assert len(chunks) > 1
        for chunk in chunks:
            assert np.shares_memory(chunk.payload_buffer,
                                    parent.payload_buffer)


def test_payload_buffer_is_read_only(internet2, tmp_path):
    state, _ = internet2
    generator = _generator(state, 500)
    generated = generator.generate_batch(state.nids_nodes, direct=True)
    columnarized = PacketBatch.from_sessions(
        generator.generate(), generator.classifier, state.nids_nodes)
    opened = TraceStore.pack(generated, tmp_path / "store").batch()
    empty = TraceStore.pack(
        generator.generate_batch(state.nids_nodes, with_payloads=False,
                                 direct=True),
        tmp_path / "empty").batch()
    for batch in (generated, columnarized, opened, empty):
        buffer = batch.payload_buffer
        assert isinstance(buffer, np.ndarray)
        assert buffer.dtype == np.uint8
        assert not buffer.flags.writeable
        with pytest.raises(ValueError):
            buffer[:1] = 0
