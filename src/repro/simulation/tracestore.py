"""Zero-copy on-disk trace storage and bounded-memory replay.

A :class:`TraceStore` persists every column of a
:class:`~repro.simulation.batch.PacketBatch` to a directory — one
``.npy`` file per numeric column, payload bytes as a raw
``payload.bin``, and a JSON manifest recording the format version,
per-column dtype/shape, class/node universes, path tables, and a
sha256 content fingerprint. Reopening maps each column back as a
read-only view (``np.load(..., mmap_mode="r")`` / a uint8
``np.memmap``), so a 10^8-packet trace costs O(1) memory to open and
pages in only what a replay touches. Opening fails closed: a manifest
whose row counts disagree with its columns, or with each other, is a
:class:`TraceStoreError` at :meth:`TraceStore.open`, checked from
shapes and one memmapped element, not from the data.

:class:`ChunkedReplay` streams a batch (memmapped or in-memory) as
session-aligned sub-batches of bounded packet count. Sub-batches carry
the *global* ``session_key`` universe, so the emulation's one
vectorized signature replay (``Emulation._replay``, behind both
``run_signature_chunked`` and ``run_signature(fast=True)``) can merge
per-chunk distinct (node, five-tuple) sets exactly — the report is
bit-identical at any chunk size, and replay memory is O(chunk), not
O(trace). :meth:`ChunkedReplay.partition` cuts the chunk list into
contiguous runs balanced by packet count, views that share the
columns, which that replay hands to forked worker processes.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Tuple,
                    Union)

import numpy as np

from repro.obs import get_registry
from repro.simulation.batch import PacketBatch, SessionBatch

FORMAT_NAME = "repro-trace-store"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "payload.bin"

#: session-level columns, persisted in this order (fingerprint order)
_SESSION_COLUMNS = ("proto", "src_ip", "src_port", "dst_ip",
                    "dst_port", "class_id", "trace_class_id",
                    "fwd_path_id", "rev_path_id", "session_key")
#: packet-level columns
_PACKET_COLUMNS = ("session_of_packet", "direction", "size_bytes",
                   "payload_offsets")


class TraceStoreError(ValueError):
    """Raised for missing, corrupt, or version-mismatched stores."""


def column_arrays(batch: PacketBatch) -> Dict[str, np.ndarray]:
    """Every numeric column of ``batch`` by name, in store order."""
    sess = batch.sessions
    columns = {name: getattr(sess, name) for name in _SESSION_COLUMNS}
    columns.update({name: getattr(batch, name)
                    for name in _PACKET_COLUMNS})
    return columns


def _header(sess: SessionBatch) -> Dict[str, object]:
    """The metadata a fingerprint covers, as the manifest records it
    (lists of plain ints and strings)."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "hash_seed": sess.hash_seed,
        "num_keys": sess.num_keys,
        "class_names": list(sess.class_names),
        "node_order": list(sess.node_order),
        "paths": [path.tolist() for path in sess.paths],
    }


def _fingerprint(batch: PacketBatch, header: Dict[str, object]) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(header, sort_keys=True).encode("ascii"))
    # hashlib reads the columns (memmaps included) through the buffer
    # protocol: nothing is copied to be hashed.
    for name, array in column_arrays(batch).items():
        digest.update(name.encode("ascii"))
        digest.update(memoryview(np.ascontiguousarray(array)))
    digest.update(memoryview(np.ascontiguousarray(batch.payload_buffer)))
    return digest.hexdigest()


def trace_fingerprint(batch: PacketBatch) -> str:
    """sha256 over the batch's metadata and every column's raw bytes,
    in a fixed order — the store's integrity/equality witness."""
    return _fingerprint(batch, _header(batch.sessions))


def _map_file(path: Path, data_bytes: int,
              mapper: Callable[[Path], np.ndarray]) -> np.ndarray:
    """Map one store file read-only. A file too short for what the
    manifest records (numpy: "mmap length is greater than file size"),
    missing or not an array at all is a corrupt store — reported here,
    at open, before any replay touches it."""
    try:
        return mapper(path)
    except (OSError, ValueError) as exc:
        actual = path.stat().st_size if path.is_file() else 0
        raise TraceStoreError(
            f"{path}: the manifest records {data_bytes} bytes of "
            f"data, the file holds {actual} bytes in all "
            f"({exc})") from exc


class TraceStore:
    """One packed trace on disk; see the module docstring.

    Construct via :meth:`pack` (write) or :meth:`open` (reopen);
    :meth:`batch` returns the memmap-backed ``PacketBatch`` view.
    """

    def __init__(self, path: Path, manifest: Dict[str, object],
                 batch: PacketBatch) -> None:
        self.path = path
        self.manifest = manifest
        self._batch = batch

    # -- write side ------------------------------------------------------

    @classmethod
    def pack(cls, batch: PacketBatch, path: Union[str, Path],
             meta: Optional[Dict[str, str]] = None) -> "TraceStore":
        """Persist ``batch`` under directory ``path`` and reopen it.

        ``meta`` is free-form caller context (topology name, seed, …)
        recorded in the manifest but excluded from the fingerprint.
        """
        root = Path(path)
        with get_registry().span("tracestore.write"):
            root.mkdir(parents=True, exist_ok=True)
            sess = batch.sessions
            columns_meta: Dict[str, Dict[str, object]] = {}
            for name, array in column_arrays(batch).items():
                filename = f"{name}.npy"
                np.save(root / filename,
                        np.ascontiguousarray(array))
                columns_meta[name] = {
                    "file": filename,
                    "dtype": str(array.dtype),
                    "shape": list(array.shape),
                }
            payload = np.ascontiguousarray(batch.payload_buffer)
            if len(payload):
                (root / PAYLOAD_NAME).write_bytes(payload)
            header = _header(sess)
            manifest: Dict[str, object] = {
                **header,
                "fingerprint": _fingerprint(batch, header),
                "num_sessions": sess.num_sessions,
                "num_packets": batch.num_packets,
                "payload": {"file": PAYLOAD_NAME,
                            "bytes": len(payload)},
                "columns": columns_meta,
                "meta": dict(meta or {}),
            }
            # Compact JSON goes through the C encoder; ``indent`` would
            # not.
            (root / MANIFEST_NAME).write_text(
                json.dumps(manifest, sort_keys=True,
                           separators=(",", ":")) + "\n")
        return cls.open(root)

    # -- read side -------------------------------------------------------

    @classmethod
    def open(cls, path: Union[str, Path]) -> "TraceStore":
        """Reopen a packed trace as read-only memmap views."""
        root = Path(path)
        with get_registry().span("tracestore.open"):
            manifest_path = root / MANIFEST_NAME
            if not manifest_path.is_file():
                raise TraceStoreError(
                    f"no trace store at {root} (missing "
                    f"{MANIFEST_NAME})")
            try:
                manifest = json.loads(manifest_path.read_text())
            except ValueError as exc:  # not UTF-8, or not JSON
                raise TraceStoreError(
                    f"{root}: {MANIFEST_NAME} is not JSON ({exc})"
                ) from exc
            if not isinstance(manifest, dict):
                raise TraceStoreError(
                    f"{root}: {MANIFEST_NAME} is not a JSON object")
            if manifest.get("format") != FORMAT_NAME:
                raise TraceStoreError(
                    f"{root}: not a {FORMAT_NAME} manifest")
            if manifest.get("version") != FORMAT_VERSION:
                raise TraceStoreError(
                    f"{root}: unsupported store version "
                    f"{manifest.get('version')!r} (expected "
                    f"{FORMAT_VERSION})")
            # Past the header, a missing or mistyped manifest entry is
            # a corrupt store too.
            try:
                columns = cls._open_columns(root, manifest)
                payload_meta = manifest["payload"]
                payload_len = int(payload_meta["bytes"])
                payload = np.zeros(0, dtype=np.uint8)
                if payload_len:
                    payload = _map_file(
                        root / str(payload_meta["file"]), payload_len,
                        lambda path: np.memmap(path, dtype=np.uint8,
                                               mode="r",
                                               shape=(payload_len,)))
                payload.flags.writeable = False
                cls._check_counts(root, manifest, columns, payload_len)
                sessions = SessionBatch(
                    columns["proto"], columns["src_ip"],
                    columns["src_port"], columns["dst_ip"],
                    columns["dst_port"], columns["class_id"],
                    columns["trace_class_id"],
                    tuple(manifest["class_names"]),
                    columns["fwd_path_id"], columns["rev_path_id"],
                    [np.array(p, dtype=np.int64)
                     for p in manifest["paths"]],
                    tuple(manifest["node_order"]),
                    hash_seed=int(manifest["hash_seed"]),
                    session_key=columns["session_key"],
                    num_keys=int(manifest["num_keys"]))
                batch = PacketBatch(
                    sessions, columns["session_of_packet"],
                    columns["direction"], columns["size_bytes"],
                    payload, columns["payload_offsets"])
            except TraceStoreError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceStoreError(
                    f"{root}: {MANIFEST_NAME} lacks an entry or holds "
                    f"a malformed one ({type(exc).__name__}: {exc})"
                ) from exc
        return cls(root, manifest, batch)

    @staticmethod
    def _open_columns(root: Path, manifest: Dict[str, object]
                      ) -> Dict[str, np.ndarray]:
        columns_meta = manifest["columns"]
        if not isinstance(columns_meta, dict):
            raise TraceStoreError(f"{root}: manifest columns are not "
                                  "a JSON object")
        columns: Dict[str, np.ndarray] = {}
        for name in _SESSION_COLUMNS + _PACKET_COLUMNS:
            spec = columns_meta.get(name)
            if spec is None:
                raise TraceStoreError(
                    f"{root}: manifest is missing column {name!r}")
            array = _map_file(
                root / str(spec["file"]),
                int(np.prod(spec["shape"], dtype=np.int64)) *
                np.dtype(str(spec["dtype"])).itemsize,
                lambda path: np.load(path, mmap_mode="r"))
            if str(array.dtype) != spec["dtype"] or \
                    list(array.shape) != list(spec["shape"]):
                raise TraceStoreError(
                    f"{root}: column {name!r} is "
                    f"{array.dtype}{array.shape}, manifest says "
                    f"{spec['dtype']}{tuple(spec['shape'])}")
            columns[name] = array
        return columns

    @staticmethod
    def _check_counts(root: Path, manifest: Dict[str, object],
                      columns: Dict[str, np.ndarray],
                      payload_len: int) -> None:
        """Each column's length against the manifest's session and
        packet counts, and the payload offsets' end against the
        payload. The fingerprint covers neither count, and a column
        cut together with its manifest shape passes the shape check,
        so ``verify`` alone would be the first to notice. Shapes and
        one memmapped element: O(1)."""
        num_packets = int(manifest["num_packets"])
        rows = dict.fromkeys(_SESSION_COLUMNS,
                             int(manifest["num_sessions"]))
        rows.update(dict.fromkeys(_PACKET_COLUMNS, num_packets))
        rows["payload_offsets"] = num_packets + 1
        for name, expected in rows.items():
            if columns[name].shape[:1] != (expected,):
                raise TraceStoreError(
                    f"{root}: column {name!r} has shape "
                    f"{columns[name].shape}, the manifest's counts "
                    f"need {expected} rows")
        end = int(columns["payload_offsets"][-1])
        if end != payload_len:
            raise TraceStoreError(
                f"{root}: payload offsets end at byte {end}, the "
                f"manifest records {payload_len} payload bytes")

    # -- accessors -------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        return str(self.manifest["fingerprint"])

    @property
    def num_sessions(self) -> int:
        return int(self.manifest["num_sessions"])

    @property
    def num_packets(self) -> int:
        return int(self.manifest["num_packets"])

    @property
    def payload_bytes(self) -> int:
        payload = self.manifest["payload"]
        assert isinstance(payload, dict)
        return int(payload["bytes"])

    def batch(self) -> PacketBatch:
        """The memmap-backed columnar view (read-only)."""
        return self._batch

    def verify(self) -> bool:
        """Recompute the content fingerprint (reads every column)."""
        return trace_fingerprint(self._batch) == self.fingerprint


class ChunkedReplay:
    """Streams a ``PacketBatch`` as session-aligned bounded slabs.

    Chunk boundaries never split a session's packets (packets are
    session-contiguous in generated traces; enforced here), and every
    sub-batch carries the global ``session_key`` space, which is what
    makes chunked distinct-session accounting exact. A chunk's columns
    and payload are views of the source's: slicing copies nothing.

    Args:
        batch: the source batch (in-memory or trace-store memmap).
        chunk_packets: target packets per chunk; a chunk may exceed it
            to reach the owning session's last packet.
    """

    def __init__(self, batch: PacketBatch, chunk_packets: int) -> None:
        if chunk_packets <= 0:
            raise ValueError("chunk_packets must be positive")
        # Plain-ndarray views of the columns, taken once: slicing an
        # ``np.memmap`` goes through ``memmap.__getitem__`` and builds
        # a new memmap object per slice, and a chunk slices them all.
        self._columns = {name: np.asarray(array) for name, array
                         in column_arrays(batch).items()}
        self._payload = np.asarray(batch.payload_buffer)
        sop = self._columns["session_of_packet"]
        if len(sop) and np.any(np.diff(sop) < 0):
            raise ValueError(
                "packets are not grouped by session; chunked replay "
                "requires a session-contiguous batch")
        self.batch = batch
        self.chunk_packets = chunk_packets
        self.bounds = self._chunk_bounds()

    def _chunk_bounds(self) -> List[Tuple[int, int]]:
        sop = self._columns["session_of_packet"]
        total = len(sop)
        bounds: List[Tuple[int, int]] = []
        cursor = 0
        while cursor < total:
            end = min(cursor + self.chunk_packets, total)
            # Extend to the last packet of the session owning end-1.
            end = int(np.searchsorted(sop, sop[end - 1],
                                      side="right"))
            bounds.append((cursor, end))
            cursor = end
        return bounds

    @property
    def num_chunks(self) -> int:
        return len(self.bounds)

    @property
    def num_packets(self) -> int:
        """Packets this replay streams (its bounds are contiguous)."""
        return self.bounds[-1][1] - self.bounds[0][0] if self.bounds \
            else 0

    def partition(self, parts: int) -> List["ChunkedReplay"]:
        """``parts`` replays over contiguous runs of :attr:`bounds`,
        balanced by packet count: run ``i`` ends at the first chunk
        boundary at or past ``i/parts`` of the packets. Together they
        stream every chunk once, in order; each shares this replay's
        columns (a view, not a copy). A run is empty where one chunk
        holds more than a share."""
        if parts <= 0:
            raise ValueError("parts must be positive")
        start = self.bounds[0][0] if self.bounds else 0
        ends = np.array([end for _, end in self.bounds], dtype=np.int64)
        inner = np.searchsorted(
            ends, start + self.num_packets * np.arange(1, parts) / parts)
        cuts = [0, *np.minimum(inner + 1, len(ends)).tolist(), len(ends)]
        views = []
        for lo, hi in zip(cuts, cuts[1:]):
            view = copy.copy(self)
            view.bounds = self.bounds[lo:hi]
            views.append(view)
        return views

    def _sub_batch(self, start: int, end: int) -> PacketBatch:
        sess = self.batch.sessions
        cols = self._columns
        sop = cols["session_of_packet"]
        lo = int(sop[start])
        hi = int(sop[end - 1]) + 1
        sub_sessions = SessionBatch(
            cols["proto"][lo:hi], cols["src_ip"][lo:hi],
            cols["src_port"][lo:hi], cols["dst_ip"][lo:hi],
            cols["dst_port"][lo:hi], cols["class_id"][lo:hi],
            cols["trace_class_id"][lo:hi], sess.class_names,
            cols["fwd_path_id"][lo:hi], cols["rev_path_id"][lo:hi],
            sess.paths, sess.node_order, sess.hash_seed,
            session_key=cols["session_key"][lo:hi],
            num_keys=sess.num_keys, path_table=sess.path_table())
        offsets = cols["payload_offsets"]
        byte_lo = int(offsets[start])
        byte_hi = int(offsets[end])
        return PacketBatch(
            sub_sessions, sop[start:end] - lo,
            cols["direction"][start:end],
            cols["size_bytes"][start:end],
            self._payload[byte_lo:byte_hi],
            offsets[start:end + 1] - byte_lo)

    def __iter__(self) -> Iterator[PacketBatch]:
        for start, end in self.bounds:
            yield self._sub_batch(start, end)
