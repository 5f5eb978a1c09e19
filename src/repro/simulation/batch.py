"""Columnar (struct-of-arrays) trace representation for batch replay.

The scalar emulation walks Python ``Session``/``Packet`` objects one
packet at a time. The vectorized fast path instead operates on two
column stores:

- :class:`SessionBatch` — one row per session: uint32 5-tuple columns
  (forward-oriented, exactly what the scalar path feeds
  ``Shim.handle``), class ids, path ids, and lazily cached per-mode
  hash columns computed with the bit-exact ``*_batch`` hash functions.
- :class:`PacketBatch` — one row per packet: owning session index,
  direction, wire size, and all payloads packed into one contiguous
  read-only uint8 array with an offsets column.

:class:`PacketBatch` also provides the *observation expansion*. The
shim's decision is a function of (session, direction, node) — the hash
covers the session 5-tuple — so the unit the fast path expands and
decides is the *session-direction group* ``session * 2 + direction``,
not the packet: :meth:`PacketBatch.group_sums` reduces per-packet
quantities (integer-valued, so exact in any grouping) onto the groups,
and :meth:`PacketBatch.group_observers` pairs every group that has a
packet with the nodes on its direction's path. The pairing is a ragged
gather over a CSR path table built once per ``paths`` list.

Distinct-session accounting keys on the five-tuple *value* (a dense
lexicographic rank over the five columns), matching the scalar
engines, which dedupe on the ``FiveTuple`` they are handed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.shim.config import HashMode
from repro.shim.hashing import field_hash_batch, session_hash_batch
from repro.simulation.packets import Session

DIR_FWD = 0
DIR_REV = 1

_DIR_CODE = {"fwd": DIR_FWD, "rev": DIR_REV}

PathTable = Tuple[np.ndarray, np.ndarray]  # CSR: indptr, node ids


def _packed_words(columns: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Non-negative integer columns packed, most significant first,
    into as few ``uint64`` words as their value widths allow. Rows
    compare lexicographically as their words do: a session's five
    columns become proto·src_ip·src_port and dst_ip·dst_port."""
    words: List[np.ndarray] = []
    used = 0
    for column in columns:
        values = column.astype(np.uint64)
        bits = int(values.max()).bit_length() if len(values) else 0
        if not words or used + bits > 64:
            words.append(values)
            used = bits
        else:
            words[-1] <<= np.uint64(bits)
            words[-1] |= values
            used += bits
    return words


def _dense_rank(*columns: np.ndarray) -> np.ndarray:
    """Rank of each row among the distinct rows in lexicographic
    order (first column most significant) — the ``inverse`` of
    ``np.unique(rows, axis=0, return_inverse=True)`` without its
    void-dtype row sort.

    The columns are packed into words (:func:`_packed_words`) and
    sorted by one ``argsort`` of the first word; only the rows whose
    first word ties another's are re-sorted on every word, in the
    positions they already hold.
    """
    words = _packed_words(columns)
    order = np.argsort(words[0])
    if len(words) > 1:
        head = words[0][order]
        same = head[1:] == head[:-1]
        tied = np.zeros(len(order), dtype=bool)
        tied[1:] |= same
        tied[:-1] |= same
        rows = order[tied]
        order[tied] = rows[np.lexsort([word[rows]
                                       for word in words[::-1]])]
    differs = np.zeros(len(order), dtype=bool)
    for word in words:
        ordered = word[order]
        differs[1:] |= ordered[1:] != ordered[:-1]
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.cumsum(differs)
    return rank


class SessionBatch:
    """Struct-of-arrays view of a session trace.

    Build with :meth:`from_sessions`; all columns are aligned by
    session row. ``class_id`` is what the *classifier* assigns (the
    column the shim kernel consumes; -1 = unmonitored), while
    ``trace_class_id`` is the session's declared ``class_name`` (the
    column gateway lookup consumes) — the scalar path makes the same
    distinction.
    """

    def __init__(self, proto: np.ndarray, src_ip: np.ndarray,
                 src_port: np.ndarray, dst_ip: np.ndarray,
                 dst_port: np.ndarray, class_id: np.ndarray,
                 trace_class_id: np.ndarray,
                 class_names: Tuple[str, ...],
                 fwd_path_id: np.ndarray, rev_path_id: np.ndarray,
                 paths: List[np.ndarray],
                 node_order: Tuple[str, ...], hash_seed: int = 0,
                 session_key: Optional[np.ndarray] = None,
                 num_keys: Optional[int] = None,
                 path_table: Optional[PathTable] = None) -> None:
        self.proto = proto
        self.src_ip = src_ip
        self.src_port = src_port
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.class_id = class_id
        self.trace_class_id = trace_class_id
        self.class_names = class_names
        self.fwd_path_id = fwd_path_id
        self.rev_path_id = rev_path_id
        self.paths = paths
        self.node_order = node_order
        self.hash_seed = hash_seed
        self.num_sessions = len(proto)
        if session_key is None:
            session_key = _dense_rank(proto, src_ip, src_port, dst_ip,
                                      dst_port)
        # Injected keys (trace-store reopen, chunked sub-batches) may
        # span a larger universe than this batch's rows, so num_keys
        # travels with them — chunked distinct-session accounting
        # needs the *global* key space.
        self.session_key = np.asarray(session_key,
                                      dtype=np.int64).reshape(-1)
        if num_keys is None:
            num_keys = (int(self.session_key.max()) + 1
                        if len(self.session_key) else 0)
        self.num_keys = num_keys
        # Sub-batches of one trace share ``paths``; whoever slices
        # them passes the table along so it is built once per trace.
        self._path_table = path_table
        self._hash_cache: Dict[HashMode, np.ndarray] = {}

    @classmethod
    def from_sessions(cls, sessions: Sequence[Session], classifier,
                      node_order: Sequence[str], hash_seed: int = 0
                      ) -> "SessionBatch":
        """Columnarize ``sessions`` (packets are ignored here).

        Args:
            sessions: the trace.
            classifier: the shims' packet-to-class mapping; applied to
                each forward 5-tuple exactly as the scalar path does.
            node_order: node-name universe; every path node must be in
                it (the scalar path would KeyError on unknown
                observers too).
            hash_seed: network-wide hash seed for the hash columns.
        """
        count = len(sessions)
        node_index = {name: i for i, name in enumerate(node_order)}
        proto = np.zeros(count, dtype=np.uint32)
        src_ip = np.zeros(count, dtype=np.uint32)
        src_port = np.zeros(count, dtype=np.uint32)
        dst_ip = np.zeros(count, dtype=np.uint32)
        dst_port = np.zeros(count, dtype=np.uint32)
        class_id = np.full(count, -1, dtype=np.int32)
        trace_class_id = np.full(count, -1, dtype=np.int32)
        fwd_path_id = np.zeros(count, dtype=np.int32)
        rev_path_id = np.zeros(count, dtype=np.int32)

        names = sorted({s.class_name for s in sessions} |
                       {name for name in
                        (classifier(s.five_tuple) for s in sessions)
                        if name is not None})
        name_index = {name: i for i, name in enumerate(names)}
        paths: List[np.ndarray] = []
        path_index: Dict[Tuple[str, ...], int] = {}

        def path_id(path: Tuple[str, ...]) -> int:
            pid = path_index.get(path)
            if pid is None:
                pid = len(paths)
                path_index[path] = pid
                paths.append(np.array([node_index[n] for n in path],
                                      dtype=np.int64))
            return pid

        for row, session in enumerate(sessions):
            tup = session.five_tuple
            proto[row] = tup.proto
            src_ip[row] = tup.src_ip
            src_port[row] = tup.src_port
            dst_ip[row] = tup.dst_ip
            dst_port[row] = tup.dst_port
            assigned = classifier(tup)
            if assigned is not None:
                class_id[row] = name_index[assigned]
            trace_class_id[row] = name_index[session.class_name]
            fwd_path_id[row] = path_id(tuple(session.fwd_path))
            rev_path_id[row] = path_id(tuple(session.rev_path))

        return cls(proto, src_ip, src_port, dst_ip, dst_port,
                   class_id, trace_class_id, tuple(names),
                   fwd_path_id, rev_path_id, paths,
                   tuple(node_order), hash_seed)

    def class_counts(self) -> Dict[str, float]:
        """Exact session count per class name, as the classifier
        assigned them (unmonitored sessions count nowhere)."""
        class_id = np.asarray(self.class_id)
        counts = np.bincount(class_id[class_id >= 0],
                             minlength=len(self.class_names))
        return {name: float(count)
                for name, count in zip(self.class_names, counts)}

    def hash_column(self, mode: HashMode) -> np.ndarray:
        """Per-session hash values in [0, 1) for one hash mode,
        bit-exact against the scalar functions (cached)."""
        column = self._hash_cache.get(mode)
        if column is None:
            if mode is HashMode.SESSION:
                column = session_hash_batch(
                    self.proto, self.src_ip, self.src_port,
                    self.dst_ip, self.dst_port, seed=self.hash_seed)
            elif mode is HashMode.SOURCE:
                column = field_hash_batch(self.src_ip,
                                          seed=self.hash_seed)
            else:
                column = field_hash_batch(self.dst_ip,
                                          seed=self.hash_seed)
            self._hash_cache[mode] = column
        return column

    def path_table(self) -> PathTable:
        """``paths`` in CSR form: path ``p`` is
        ``nodes[indptr[p]:indptr[p + 1]]``. Cached."""
        if self._path_table is None:
            indptr = np.zeros(len(self.paths) + 1, dtype=np.int64)
            np.cumsum(np.array([len(path) for path in self.paths],
                               dtype=np.int64), out=indptr[1:])
            nodes = np.concatenate(
                [np.zeros(0, dtype=np.int64), *self.paths])
            self._path_table = (indptr, nodes)
        return self._path_table

    def _expand_paths(self, row_ids: np.ndarray, path_ids: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """(row, on-path node) expansion: row ``i`` is repeated once
        per node of path ``path_ids[i]``, in row order.

        Returns observation-aligned ``(obs_row, obs_node)`` arrays —
        a ragged gather from the CSR path table. Consumers reduce with
        order-independent sums and sets.
        """
        indptr, nodes = self.path_table()
        first = indptr[path_ids]
        lengths = indptr[path_ids + 1] - first
        obs_rows = np.repeat(row_ids, lengths)
        # Each run's offset from output position to table position.
        shift = np.repeat(first - (np.cumsum(lengths) - lengths),
                          lengths)
        return obs_rows, nodes[
            np.arange(len(obs_rows), dtype=np.int64) + shift]


class PacketBatch:
    """Struct-of-arrays view of a packet trace (plus its sessions).

    ``payload_buffer`` is one read-only uint8 array: the synthesis
    plan's own buffer, the joined bytes of :meth:`from_sessions`, a
    trace-store ``np.memmap`` (payload bytes are only paged in when a
    consumer scans them), or a zero-copy slice of any of these.
    """

    def __init__(self, sessions: SessionBatch,
                 session_of_packet: np.ndarray, direction: np.ndarray,
                 size_bytes: np.ndarray, payload_buffer: np.ndarray,
                 payload_offsets: np.ndarray) -> None:
        self.sessions = sessions
        self.session_of_packet = session_of_packet
        self.direction = direction
        self.size_bytes = size_bytes
        self.payload_buffer = payload_buffer
        self.payload_offsets = payload_offsets
        self.num_packets = len(session_of_packet)
        self._groups: Optional[np.ndarray] = None

    @classmethod
    def from_sessions(cls, sessions: Sequence[Session], classifier,
                      node_order: Sequence[str], hash_seed: int = 0
                      ) -> "PacketBatch":
        """Columnarize a trace including per-packet payloads."""
        batch = SessionBatch.from_sessions(sessions, classifier,
                                           node_order, hash_seed)
        session_of_packet: List[int] = []
        direction: List[int] = []
        size_bytes: List[float] = []
        chunks: List[bytes] = []
        offsets: List[int] = [0]
        cursor = 0
        for row, session in enumerate(sessions):
            for packet in session.packets:
                session_of_packet.append(row)
                direction.append(_DIR_CODE[packet.direction])
                size_bytes.append(packet.size_bytes)
                chunks.append(packet.payload)
                cursor += len(packet.payload)
                offsets.append(cursor)
        return cls(batch,
                   np.array(session_of_packet, dtype=np.int64),
                   np.array(direction, dtype=np.uint8),
                   np.array(size_bytes, dtype=np.float64),
                   np.frombuffer(b"".join(chunks), dtype=np.uint8),
                   np.array(offsets, dtype=np.int64))

    @property
    def payload_lengths(self) -> np.ndarray:
        """Per-packet payload size in bytes (int64)."""
        return np.diff(self.payload_offsets)

    def _group_of_packet(self) -> np.ndarray:
        """Per-packet ``session * 2 + direction``. Cached."""
        if self._groups is None:
            self._groups = (
                np.asarray(self.session_of_packet, dtype=np.int64) * 2
                + self.direction)
        return self._groups

    def group_sums(self, per_packet: np.ndarray) -> np.ndarray:
        """Sum a per-packet column onto the session-direction groups
        (float64, one entry per ``session * 2 + direction``). Exact
        for the integer-valued columns the replays reduce — packet
        counts, payload and wire bytes, signature matches."""
        return np.bincount(self._group_of_packet(), weights=per_packet,
                           minlength=2 * self.sessions.num_sessions)

    def group_observers(self) -> Tuple[np.ndarray, np.ndarray]:
        """(session-direction group, on-path node) expansion of every
        group that has at least one packet, using each direction's
        path — one observation where the scalar loop makes one shim
        call per packet of the group."""
        sess = self.sessions
        groups = np.flatnonzero(np.bincount(
            self._group_of_packet(),
            minlength=2 * sess.num_sessions))
        owner = groups >> 1
        path_of_group = np.where((groups & 1) == DIR_FWD,
                                 sess.fwd_path_id[owner],
                                 sess.rev_path_id[owner])
        return sess._expand_paths(groups, path_of_group)

    def payload_match_counts(self, patterns: Sequence[bytes]
                             ) -> np.ndarray:
        """Per-packet count of pattern occurrences, Aho-Corasick
        semantics: every (pattern, end offset) occurrence counts, so
        overlapping and repeated hits all count, exactly like
        ``AhoCorasick.search``.

        Scans the packed buffer with ``bytes.find`` per pattern (a C
        loop), attributing each hit to the packet whose payload region
        contains it and rejecting hits that straddle a packet boundary.
        ``bytes.find`` needs ``bytes``, so this is the one place the
        payload is copied — once per call, and replay calls it per
        chunk.
        """
        counts = np.zeros(self.num_packets, dtype=np.int64)
        buffer = self.payload_buffer.tobytes()
        offsets = self.payload_offsets
        for pattern in patterns:
            width = len(pattern)
            if width == 0:
                raise ValueError("empty patterns are not allowed")
            pos = buffer.find(pattern)
            while pos != -1:
                packet = int(np.searchsorted(offsets, pos,
                                             side="right")) - 1
                if pos + width <= offsets[packet + 1]:
                    counts[packet] += 1
                pos = buffer.find(pattern, pos + 1)
        return counts
