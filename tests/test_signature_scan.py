"""The vectorised signature scan against its oracles.

``PacketBatch.payload_match_counts`` finds candidate starts through a
2-byte key table and verifies them in blocks. Its counts must be the
naive count — every listed pattern at every offset of every packet,
overlaps included, nothing across a packet boundary — and, per packet,
the scalar ``AhoCorasick`` engine's. The draws (``scan_cases``) make
overlaps and straddling hits common; store-backed chunks put payload
views at odd byte offsets; two adversarial chunks make nearly every
start a candidate and pin the scan's memory.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nids.signature import DEFAULT_SIGNATURES, AhoCorasick
from repro.shim.hashing import FiveTuple
from repro.simulation import ChunkedReplay, PacketBatch, TraceStore
from repro.simulation.packets import Session
from tests.strategies import SELF_OVERLAPPING, scan_cases
from tests.test_payload_memory import _traced_peak


def _naive(patterns, bodies):
    return [sum(body.startswith(pattern, at) for pattern in patterns
                for at in range(len(body))) for body in bodies]


def _batch(bodies):
    """One single-packet session per body, so every packet boundary
    is a chunk boundary a replay may cut at."""
    sessions = []
    for row, body in enumerate(bodies):
        session = Session(FiveTuple(6, row + 1, 1024, 1, 80), "x", ("A",))
        session.add_packet("fwd", len(body) + 40, body)
        sessions.append(session)
    return PacketBatch.from_sessions(sessions, lambda tup: None, ("A",))


class TestAgainstTheOracles:
    @given(scan_cases())
    @settings(max_examples=400, deadline=None)
    def test_counts_equal_the_naive_count(self, case):
        patterns, bodies = case
        counts = _batch(bodies).payload_match_counts(patterns)
        assert counts.dtype == np.int64
        assert counts.tolist() == _naive(patterns, bodies)

    @given(scan_cases())
    @settings(max_examples=200, deadline=None)
    def test_totals_equal_aho_corasick(self, case):
        patterns, bodies = case
        patterns = list(dict.fromkeys(patterns))
        counts = _batch(bodies).payload_match_counts(patterns)
        if patterns:
            engine = AhoCorasick(patterns)
            assert counts.tolist() == [len(engine.search(body))
                                       for body in bodies]
        else:
            assert not counts.any()

    @given(scan_cases(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_store_backed_chunks(self, case, chunk_packets):
        patterns, bodies = case
        with tempfile.TemporaryDirectory() as root:
            store = TraceStore.pack(_batch(bodies), root)
            counts = [chunk.payload_match_counts(patterns)
                      for chunk in ChunkedReplay(store.batch(),
                                                 chunk_packets)]
            assert np.concatenate(counts).tolist() == \
                _naive(patterns, bodies)

    def test_generated_store_chunks_at_odd_offsets(self, tmp_path):
        bodies = [bytes([0x90]) * (n % 17) + b"../../../../"[:n % 13]
                  + DEFAULT_SIGNATURES[n % 8][:(n * 5) % 15]
                  for n in range(300)]
        batch = TraceStore.pack(_batch(bodies), tmp_path).batch()
        whole = batch.payload_match_counts(DEFAULT_SIGNATURES)
        assert whole.tolist() == _naive(DEFAULT_SIGNATURES, bodies)
        assert whole.sum() > 0
        chunks = list(ChunkedReplay(batch, 7))
        assert any(chunk.payload_buffer.ctypes.data % 2 for chunk in chunks)
        assert np.array_equal(np.concatenate(
            [chunk.payload_match_counts(DEFAULT_SIGNATURES)
             for chunk in chunks]), whole)


class TestEdges:
    def test_empty_pattern_raises(self):
        for bodies in ([b"abc"], [b""], []):
            with pytest.raises(ValueError):
                _batch(bodies).payload_match_counts([b"ab", b""])

    def test_no_packets_and_no_patterns(self):
        assert _batch([]).payload_match_counts(DEFAULT_SIGNATURES).tolist() \
            == []
        assert _batch([b"", b"cmd.exe", b""]).payload_match_counts(
            []).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("lead", [b"", b"x", b"xy"])
    def test_hit_at_the_last_possible_start(self, lead):
        """Odd and even total lengths; the hit ends the buffer."""
        patterns = (b"cmd.exe", b"e", b"xe", b"exe")
        bodies = [b"", lead + b"cmd.exe"]
        assert _batch(bodies).payload_match_counts(patterns).tolist() \
            == _naive(patterns, bodies)

    def test_listed_twice_counts_twice(self):
        patterns = (b"aa", b"aa", b"a", b"a")
        assert _batch([b"aaa"]).payload_match_counts(patterns).tolist() \
            == [2 * 2 + 2 * 3]

    def test_hits_do_not_cross_packet_boundaries(self):
        assert _batch([b"cmd", b".exe", b"", b"cmd.exe"]
                      ).payload_match_counts([b"cmd.exe"]).tolist() \
            == [0, 0, 0, 1]


class TestAdversarialChunks:
    """A 122 KB chunk (1024 packets of 120 bytes) where nearly every
    start is a candidate."""

    #: the scan's transient peak over the chunk's payload bytes: 33.0x
    #: measured on the all-``0x90`` chunk (two candidates per even
    #: offset, both verified), 22.0x on the ``../`` one, whatever the
    #: patterns' lengths
    PEAK_PER_PAYLOAD_BYTE = 36

    @pytest.mark.parametrize("unit", [b"\x90", b"../"])
    @pytest.mark.parametrize("patterns", [
        DEFAULT_SIGNATURES,
        SELF_OVERLAPPING,
        (b"\x90" * 64, b"../" * 32),
    ])
    def test_exact_and_bounded(self, unit, patterns):
        body = (unit * 120)[:120]
        batch = _batch([body] * 1024)
        batch.payload_match_counts(patterns)  # builds the key table
        counts, peak = _traced_peak(
            lambda: batch.payload_match_counts(patterns))
        assert counts.tolist() == _naive(patterns, [body]) * 1024
        assert counts.sum() > 0
        assert peak <= self.PEAK_PER_PAYLOAD_BYTE * \
            batch.payload_buffer.nbytes
