"""Lightweight bidirectional 5-tuple hashing (Section 7.2).

As a packet arrives, the shim computes a lightweight hash (the paper
cites Bob Jenkins' hash [5]) over the IP 5-tuple. The hash must be
*bidirectional*: both directions of a session must land in the same
hash bucket so the session is consistently pinned or offloaded to one
node. Following [37], the 5-tuple is first put into a canonical form
with the smaller endpoint first.

For aggregation (Section 7.2, last paragraph), the hash is computed
over the split field instead — the source address for a per-source
split, the destination for a per-destination split.

Two implementations share the algorithm: the scalar functions used by
the per-packet :class:`~repro.shim.shim.Shim` (the correctness oracle),
and ``*_batch`` variants that run the identical mixing rounds on whole
``uint32`` numpy columns at once for the vectorized replay engine.
The batch variants are bit-exact against the scalar ones — wrap-around
arithmetic on ``uint32`` arrays is exactly the scalar ``& 0xFFFFFFFF``
fold — and the property suite (`tests/test_batch_hashing.py`) pins
that equivalence.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Union

import numpy as np


class FiveTuple(NamedTuple):
    """An IP 5-tuple; addresses and ports are plain ints here."""

    proto: int
    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int

    def reversed(self) -> "FiveTuple":
        """The same session seen in the opposite direction."""
        return FiveTuple(self.proto, self.dst_ip, self.dst_port,
                         self.src_ip, self.src_port)


_MASK32 = 0xFFFFFFFF


def _rot(value: int, bits: int) -> int:
    value &= _MASK32
    return ((value << bits) | (value >> (32 - bits))) & _MASK32


def _mix(a: int, b: int, c: int):
    """One mixing round of Bob Jenkins' lookup3."""
    a = (a - c) & _MASK32; a ^= _rot(c, 4);  c = (c + b) & _MASK32
    b = (b - a) & _MASK32; b ^= _rot(a, 6);  a = (a + c) & _MASK32
    c = (c - b) & _MASK32; c ^= _rot(b, 8);  b = (b + a) & _MASK32
    a = (a - c) & _MASK32; a ^= _rot(c, 16); c = (c + b) & _MASK32
    b = (b - a) & _MASK32; b ^= _rot(a, 19); a = (a + c) & _MASK32
    c = (c - b) & _MASK32; c ^= _rot(b, 4);  b = (b + a) & _MASK32
    return a, b, c


def _final(a: int, b: int, c: int) -> int:
    """Final avalanche of lookup3."""
    c ^= b; c = (c - _rot(b, 14)) & _MASK32
    a ^= c; a = (a - _rot(c, 11)) & _MASK32
    b ^= a; b = (b - _rot(a, 25)) & _MASK32
    c ^= b; c = (c - _rot(b, 16)) & _MASK32
    a ^= c; a = (a - _rot(c, 4)) & _MASK32
    b ^= a; b = (b - _rot(a, 14)) & _MASK32
    c ^= b; c = (c - _rot(b, 24)) & _MASK32
    return c


def bob_hash(*words: int, seed: int = 0) -> int:
    """Bob Jenkins' lookup3-style hash over 32-bit words.

    Args:
        words: arbitrary integers (folded to 32 bits).
        seed: optional seed for independent hash functions.

    Returns:
        A 32-bit hash value.
    """
    a = b = c = (0xDEADBEEF + (len(words) << 2) + seed) & _MASK32
    # Index walk instead of data.pop(0): popping the head shifts the
    # whole list, turning long inputs O(n^2).
    count = len(words)
    i = 0
    while count - i > 3:
        a = (a + (words[i] & _MASK32)) & _MASK32
        b = (b + (words[i + 1] & _MASK32)) & _MASK32
        c = (c + (words[i + 2] & _MASK32)) & _MASK32
        a, b, c = _mix(a, b, c)
        i += 3
    rest = count - i
    if rest > 0:
        a = (a + (words[i] & _MASK32)) & _MASK32
    if rest > 1:
        b = (b + (words[i + 1] & _MASK32)) & _MASK32
    if rest > 2:
        c = (c + (words[i + 2] & _MASK32)) & _MASK32
    return _final(a, b, c)


def canonical_five_tuple(tup: FiveTuple) -> FiveTuple:
    """Canonicalize so both directions hash identically.

    The endpoint with the smaller (ip, port) pair becomes the source,
    per the NIDS-cluster convention [37].
    """
    if (tup.src_ip, tup.src_port) <= (tup.dst_ip, tup.dst_port):
        return tup
    return tup.reversed()


def session_hash(tup: FiveTuple, seed: int = 0) -> float:
    """Bidirectional session hash mapped into [0, 1).

    Both directions of a 5-tuple produce the same value, so hash-range
    membership consistently pins a whole session.
    """
    canon = canonical_five_tuple(tup)
    word = bob_hash(canon.proto, canon.src_ip, canon.src_port,
                    canon.dst_ip, canon.dst_port, seed=seed)
    return word / 2.0 ** 32


def field_hash(value: int, seed: int = 0) -> float:
    """Hash of a single split field (e.g., source IP) into [0, 1).

    Used for aggregation-mode splitting where responsibility is
    per-source (or per-destination), not per-session.
    """
    return bob_hash(value, seed=seed) / 2.0 ** 32


# -- vectorized (columnar) variants --------------------------------------
#
# uint32 numpy arithmetic wraps modulo 2^32, which is exactly the scalar
# code's `& _MASK32` fold, so each helper below is the literal
# transcription of its scalar twin onto whole columns.

def _rot_batch(value: np.ndarray, bits: int) -> np.ndarray:
    return (value << np.uint32(bits)) | (value >> np.uint32(32 - bits))


def _mix_batch(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """One lookup3 mixing round over uint32 columns."""
    a = a - c; a ^= _rot_batch(c, 4);  c = c + b
    b = b - a; b ^= _rot_batch(a, 6);  a = a + c
    c = c - b; c ^= _rot_batch(b, 8);  b = b + a
    a = a - c; a ^= _rot_batch(c, 16); c = c + b
    b = b - a; b ^= _rot_batch(a, 19); a = a + c
    c = c - b; c ^= _rot_batch(b, 4);  b = b + a
    return a, b, c


def _final_batch(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Final avalanche over uint32 columns."""
    c ^= b; c = c - _rot_batch(b, 14)
    a ^= c; a = a - _rot_batch(c, 11)
    b ^= a; b = b - _rot_batch(a, 25)
    c ^= b; c = c - _rot_batch(b, 16)
    a ^= c; a = a - _rot_batch(c, 4)
    b ^= a; b = b - _rot_batch(a, 14)
    c ^= b; c = c - _rot_batch(b, 24)
    return c


def _as_u32(column: "np.ndarray") -> np.ndarray:
    """Fold an integer column to uint32 (the scalar ``w & _MASK32``)."""
    # This is the fold itself: it must accept whatever integer dtype
    # the caller has before normalizing.  # repro-lint: allow[NUM002]
    arr = np.asarray(column)
    if arr.dtype == np.uint32:
        return arr
    return (arr.astype(np.int64) & _MASK32).astype(np.uint32)


def bob_hash_batch(columns: Sequence["np.ndarray"],
                   seed: Union[int, "np.ndarray"] = 0,
                   size: Optional[int] = None) -> np.ndarray:
    """Vectorized :func:`bob_hash`: element ``i`` of the result equals
    ``bob_hash(columns[0][i], ..., columns[k-1][i], seed=seed)``.

    Args:
        columns: one integer array per hash word, all the same length
            (a struct-of-arrays row set).
        seed: optional seed for independent hash functions. An integer
            array of shape ``(r, 1)`` hashes every row under ``r``
            seeds at once — the seed only enters lookup3's initial
            word, so it broadcasts — and row ``j`` of the ``(r, n)``
            result equals the call with ``seed=seed[j, 0]``.
        size: row count, required only when ``columns`` is empty.

    Returns:
        A uint32 array of hash values.
    """
    cols = [_as_u32(c) for c in columns]
    if size is None:
        if not cols:
            raise ValueError("size is required with no columns")
        size = len(cols[0])
    init = _as_u32((0xDEADBEEF + (len(cols) << 2) + seed) & _MASK32)
    a = init + np.zeros(size, dtype=np.uint32)
    b = a.copy()
    c = a.copy()
    count = len(cols)
    i = 0
    while count - i > 3:
        a = a + cols[i]
        b = b + cols[i + 1]
        c = c + cols[i + 2]
        a, b, c = _mix_batch(a, b, c)
        i += 3
    rest = count - i
    if rest > 0:
        a = a + cols[i]
    if rest > 1:
        b = b + cols[i + 1]
    if rest > 2:
        c = c + cols[i + 2]
    return _final_batch(a, b, c)


def session_hash_batch(proto: "np.ndarray", src_ip: "np.ndarray",
                       src_port: "np.ndarray", dst_ip: "np.ndarray",
                       dst_port: "np.ndarray", seed: int = 0
                       ) -> np.ndarray:
    """Vectorized :func:`session_hash` over 5-tuple columns.

    Canonicalizes every row (smaller endpoint first) and returns
    float64 hash values in [0, 1), bit-identical to the scalar path —
    ``word / 2**32`` is exact for 32-bit words in either
    implementation.
    """
    proto = _as_u32(proto)
    src_ip, src_port = _as_u32(src_ip), _as_u32(src_port)
    dst_ip, dst_port = _as_u32(dst_ip), _as_u32(dst_port)
    swap = (src_ip > dst_ip) | ((src_ip == dst_ip) &
                                (src_port > dst_port))
    canon_src_ip = np.where(swap, dst_ip, src_ip)
    canon_src_port = np.where(swap, dst_port, src_port)
    canon_dst_ip = np.where(swap, src_ip, dst_ip)
    canon_dst_port = np.where(swap, src_port, dst_port)
    words = bob_hash_batch(
        [proto, canon_src_ip, canon_src_port, canon_dst_ip,
         canon_dst_port], seed=seed)
    return words.astype(np.float64) / 2.0 ** 32


def field_hash_batch(values: "np.ndarray", seed: int = 0) -> np.ndarray:
    """Vectorized :func:`field_hash`: float64 hashes in [0, 1)."""
    words = bob_hash_batch([values], seed=seed)
    return words.astype(np.float64) / 2.0 ** 32
