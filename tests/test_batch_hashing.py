"""Property tests: the vectorized lookup3 family is bit-exact against
the scalar functions (the fast replay path's foundational invariant)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.shim.hashing import (
    FiveTuple,
    bob_hash,
    bob_hash_batch,
    field_hash,
    field_hash_batch,
    session_hash,
    session_hash_batch,
)

u32 = st.integers(min_value=0, max_value=2 ** 32 - 1)
u16 = st.integers(min_value=0, max_value=2 ** 16 - 1)
seeds = st.integers(min_value=0, max_value=2 ** 16)


class TestBobHashBatch:
    @given(st.lists(st.lists(u32, min_size=1, max_size=8),
                    min_size=1, max_size=30)
           .filter(lambda rows: len({len(r) for r in rows}) == 1),
           seeds)
    @settings(max_examples=60, deadline=None)
    def test_bit_exact_vs_scalar(self, rows, seed):
        columns = [np.array(col, dtype=np.uint32)
                   for col in zip(*rows)]
        batch = bob_hash_batch(columns, seed=seed)
        assert batch.dtype == np.uint32
        for i, row in enumerate(rows):
            assert int(batch[i]) == bob_hash(*row, seed=seed)

    def test_every_word_count_hits_all_lanes(self):
        # 0..8 words exercises the empty case, each tail length, and
        # a full mixing round plus tail.
        rng = np.random.default_rng(42)
        for words in range(9):
            columns = [rng.integers(0, 2 ** 32, size=40,
                                    dtype=np.uint32)
                       for _ in range(words)]
            batch = bob_hash_batch(columns, seed=3, size=40)
            for i in range(40):
                expected = bob_hash(*(int(c[i]) for c in columns),
                                    seed=3)
                assert int(batch[i]) == expected

    @given(st.integers(min_value=0, max_value=7),
           st.integers(min_value=-2 ** 40, max_value=2 ** 40),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_seed_column_is_one_call_per_seed(self, words, seed, rows):
        """A ``(rows, 1)`` seed column hashes every key under every
        seed at once; row ``r`` is the call with ``seed + r``."""
        rng = np.random.default_rng([words, rows])
        columns = [rng.integers(0, 2 ** 32, size=25, dtype=np.uint32)
                   for _ in range(words)]
        seed_column = seed + np.arange(rows, dtype=np.int64)[:, None]
        batch = bob_hash_batch(columns, seed=seed_column, size=25)
        assert batch.shape == (rows, 25)
        assert batch.dtype == np.uint32
        for r in range(rows):
            assert np.array_equal(
                batch[r], bob_hash_batch(columns, seed=seed + r,
                                         size=25))

    def test_requires_size_without_columns(self):
        with pytest.raises(ValueError):
            bob_hash_batch([])
        empty = bob_hash_batch([], size=5)
        assert (empty == bob_hash()).all()


class TestSessionHashBatch:
    @given(st.lists(st.tuples(st.integers(0, 255), u32, u16, u32, u16),
                    min_size=1, max_size=40), seeds)
    @settings(max_examples=60, deadline=None)
    def test_bit_exact_vs_scalar(self, tuples, seed):
        proto, src_ip, src_port, dst_ip, dst_port = (
            np.array(col, dtype=np.uint32) for col in zip(*tuples))
        batch = session_hash_batch(proto, src_ip, src_port,
                                   dst_ip, dst_port, seed=seed)
        for i, row in enumerate(tuples):
            assert batch[i] == session_hash(FiveTuple(*row), seed=seed)

    @given(st.tuples(st.integers(0, 255), u32, u16, u32, u16), seeds)
    @settings(max_examples=60, deadline=None)
    def test_bidirectional(self, row, seed):
        tup = FiveTuple(*row)
        fwd = session_hash_batch(
            *(np.array([v], dtype=np.uint32) for v in tup), seed=seed)
        rev = session_hash_batch(
            *(np.array([v], dtype=np.uint32) for v in tup.reversed()),
            seed=seed)
        assert fwd[0] == rev[0]

    def test_canonicalization_tie_break_on_port(self):
        # Equal IPs: the smaller port becomes the source.
        tup = FiveTuple(6, 100, 9000, 100, 80)
        batch = session_hash_batch(
            *(np.array([v], dtype=np.uint32) for v in tup))
        assert batch[0] == session_hash(tup)


class TestFieldHashBatch:
    @given(st.lists(u32, min_size=1, max_size=60), seeds)
    @settings(max_examples=60, deadline=None)
    def test_bit_exact_vs_scalar(self, values, seed):
        batch = field_hash_batch(np.array(values, dtype=np.uint32),
                                 seed=seed)
        for i, value in enumerate(values):
            assert batch[i] == field_hash(value, seed=seed)

    def test_range(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2 ** 32, size=1000, dtype=np.uint32)
        hashes = field_hash_batch(values)
        assert (hashes >= 0.0).all() and (hashes < 1.0).all()


class TestScalarBobHashRefactor:
    """The index-walk rewrite of ``bob_hash`` (replacing the O(n^2)
    ``pop(0)`` loop) must keep the exact output for all word counts."""

    def test_pure_and_order_sensitive(self):
        assert bob_hash(1, 2, 3) == bob_hash(1, 2, 3)
        assert bob_hash(1, 2, 3) != bob_hash(3, 2, 1)

    def test_matches_reference_pop_loop(self):
        # Reimplement the original list-popping algorithm inline and
        # compare on long inputs (where the index walk matters).
        from repro.shim.hashing import _MASK32, _final, _mix

        def bob_hash_reference(*words, seed=0):
            data = [w & _MASK32 for w in words]
            a = b = c = (0xDEADBEEF + (len(data) << 2) + seed) & _MASK32
            while len(data) > 3:
                a = (a + data.pop(0)) & _MASK32
                b = (b + data.pop(0)) & _MASK32
                c = (c + data.pop(0)) & _MASK32
                a, b, c = _mix(a, b, c)
            if data:
                a = (a + data.pop(0)) & _MASK32
            if data:
                b = (b + data.pop(0)) & _MASK32
            if data:
                c = (c + data.pop(0)) & _MASK32
            return _final(a, b, c)

        rng = np.random.default_rng(11)
        for count in (0, 1, 2, 3, 4, 5, 6, 7, 8, 50, 101):
            words = [int(w) for w in
                     rng.integers(0, 2 ** 32, size=count)]
            assert bob_hash(*words, seed=9) == \
                bob_hash_reference(*words, seed=9)
