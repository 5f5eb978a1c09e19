"""Synthetic trace generation (the reproduction's Scapy+seed-traces).

Given a set of traffic classes, the generator emits sessions whose
volumes are proportional to the classes' ``|T_c|`` (downsampled to a
tractable session budget), with synthetic per-PoP addressing, a small
number of packets per session, optional payloads seeded with signature
strings (so the Signature engine has something to find), and optional
injected scanners (sources contacting many distinct destinations across
paths, for the Scan/aggregation experiments).

All randomness is drawn up front into a :class:`_TracePlan` — a set of
phase-ordered, whole-array numpy draws (host pairs, ports, payload
sizes, one concatenated payload byte buffer). Both synthesis paths
consume the identical plan: :meth:`TraceGenerator.generate`
materializes Python ``Session`` objects from it (the scalar oracle),
while :meth:`TraceGenerator.generate_batch` with ``direct=True``
assembles the columnar :class:`~repro.simulation.batch.PacketBatch`
straight from the plan's arrays — bit-identical columns, no per-packet
Python objects, no per-session RNG calls. The parity suite
(`tests/test_tracestore.py`) pins the two paths column-for-column,
the same pattern as fast-vs-scalar replay parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.nids.signature import DEFAULT_SIGNATURES
from repro.obs import get_registry
from repro.shim.hashing import FiveTuple
from repro.simulation.packets import (
    _BASE_IP,
    Session,
    pop_index_of_ip,
    pop_prefix_ip,
)
from repro.traffic.classes import TrafficClass

if TYPE_CHECKING:
    from repro.simulation.batch import PacketBatch

#: destination ports drawn for classes without a declared port
_DEFAULT_DST_PORTS = (80, 443, 22, 25, 6667)


class PrefixClassifier:
    """Maps a 5-tuple to its traffic class via PoP /16 prefixes and,
    when several classes share a prefix pair (per-application classes,
    Section 3 footnote 1), the destination port.

    The emulation always presents the forward-oriented tuple (the real
    shim resolves direction from connection state), so no
    canonicalization is needed here.

    Args:
        pop_order: PoP names; their indices define the /16 prefixes.
        classes: traffic classes to register.
        class_ports: class name -> destination port, required for
            (and only consulted on) prefix pairs shared by multiple
            classes.
    """

    def __init__(self, pop_order: Sequence[str],
                 classes: Sequence[TrafficClass],
                 class_ports: Optional[Dict[str, int]] = None) -> None:
        self._pop_of_index = {i: pop for i, pop in enumerate(pop_order)}
        self._index_of_pop = {pop: i for i, pop in enumerate(pop_order)}
        self._class_of_pair: Dict[Tuple[str, str], str] = {}
        self._class_of_port: Dict[Tuple[str, str, int], str] = {}
        class_ports = class_ports or {}
        for cls in classes:
            key = (cls.source, cls.target)
            if key not in self._class_of_pair:
                self._class_of_pair[key] = cls.name
                continue
            # Shared pair: both the incumbent and newcomer must be
            # distinguishable by port.
            incumbent = self._class_of_pair[key]
            for name in (incumbent, cls.name):
                if name not in class_ports:
                    raise ValueError(
                        f"two classes share the prefix pair {key}; "
                        f"provide class_ports for {name!r}")
            self._class_of_port[key + (class_ports[incumbent],)] = \
                incumbent
            port_key = key + (class_ports[cls.name],)
            if port_key in self._class_of_port and \
                    self._class_of_port[port_key] != cls.name:
                raise ValueError(
                    f"classes {self._class_of_port[port_key]!r} and "
                    f"{cls.name!r} collide on {port_key}")
            self._class_of_port[port_key] = cls.name

    def pop_index(self, pop: str) -> int:
        return self._index_of_pop[pop]

    def __call__(self, tup: FiveTuple) -> Optional[str]:
        src_pop = self._pop_of_index.get(pop_index_of_ip(tup.src_ip))
        dst_pop = self._pop_of_index.get(pop_index_of_ip(tup.dst_ip))
        if src_pop is None or dst_pop is None:
            return None
        by_port = self._class_of_port.get(
            (src_pop, dst_pop, tup.dst_port))
        if by_port is not None:
            return by_port
        return self._class_of_pair.get((src_pop, dst_pop))


@dataclass
class TraceSpec:
    """Knobs for trace generation.

    ``payload_sigma`` > 0 draws each session's payload size from a
    lognormal around ``payload_bytes`` (heavy-tailed, like real flow
    size distributions) instead of a fixed size.
    """

    total_sessions: int = 5_000
    packets_per_session: Tuple[int, int] = (2, 2)  # (fwd, rev)
    payload_bytes: int = 120
    payload_sigma: float = 0.0
    signature_session_fraction: float = 0.02
    scanner_count: int = 0
    scanner_fanout: int = 40

    def __post_init__(self) -> None:
        if self.total_sessions < 0:
            raise ValueError("total_sessions must be non-negative")
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")
        if self.payload_sigma < 0:
            raise ValueError("payload_sigma must be non-negative")


@dataclass
class _TracePlan:
    """All randomness of one trace, drawn up front as whole arrays.

    One row per session, in generation order (normal sessions grouped
    by class, then scanner sessions). ``payload`` packs every packet's
    body contiguously (session-major, forward packets first) with
    signatures already pasted in; ``payload_offsets`` has one entry per
    packet plus a terminator, all-zero when payloads are disabled.
    """

    class_idx: np.ndarray  # int64[n] -> index into generator.classes
    src_ip: np.ndarray  # int64[n]
    dst_ip: np.ndarray  # int64[n]
    src_port: np.ndarray  # int64[n]
    dst_port: np.ndarray  # int64[n]
    malicious: np.ndarray  # bool[n]
    payload_size: np.ndarray  # int64[n] per-packet body bytes
    payload: np.ndarray  # uint8[total_bytes]
    payload_offsets: np.ndarray  # int64[num_packets + 1]

    @property
    def num_sessions(self) -> int:
        return len(self.class_idx)


class TraceGenerator:
    """Generates synthetic session traces over a topology's classes.

    Args:
        pop_order: all PoP names in a fixed order — their indices
            define the /16 prefixes (must match across generator,
            classifier, and emulation).
        classes: traffic classes (paths resolved); per-class session
            counts are ``|T_c|`` downsampled to ``spec.total_sessions``.
        spec: generation knobs.
        seed: RNG seed; generation is deterministic.
    """

    def __init__(self, pop_order: Sequence[str],
                 classes: Sequence[TrafficClass],
                 spec: Optional[TraceSpec] = None, seed: int = 7,
                 class_ports: Optional[Dict[str, int]] = None) -> None:
        self.pop_order = list(pop_order)
        self.classes = list(classes)
        self.spec = spec or TraceSpec()
        self.seed = seed
        self.class_ports = dict(class_ports or {})
        self.classifier = PrefixClassifier(self.pop_order, self.classes,
                                           self.class_ports)

    def _session_quota(self) -> Dict[str, int]:
        """Downsample class volumes to the session budget.

        Largest-remainder apportionment keeps the realized mix close to
        the target proportions even for small budgets.
        """
        total_volume = sum(cls.num_sessions for cls in self.classes)
        if total_volume <= 0:
            return {cls.name: 0 for cls in self.classes}
        raw = {cls.name: self.spec.total_sessions * cls.num_sessions /
               total_volume for cls in self.classes}
        quotas = {name: int(value) for name, value in raw.items()}
        shortfall = self.spec.total_sessions - sum(quotas.values())
        remainders = sorted(raw, key=lambda n: raw[n] - quotas[n],
                            reverse=True)
        for name in remainders[:shortfall]:
            quotas[name] += 1
        return quotas

    def _packets_per_session(self) -> int:
        fwd_count, rev_count = self.spec.packets_per_session
        return fwd_count + rev_count

    def _class_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-session class index plus host columns, in generation
        order: normal sessions grouped by class, then scanners.

        Normal hosts are placeholders (-1) to be drawn; scanner hosts
        are deterministic (source ``2**15 + id``, distinct victims
        ``2**14 + i``), outside the normal host range.
        """
        quotas = self._session_quota()
        idx_parts: List[np.ndarray] = []
        src_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        counts = np.array([quotas.get(cls.name, 0)
                           for cls in self.classes], dtype=np.int64)
        n_normal = int(counts.sum())
        if n_normal:
            idx_parts.append(np.repeat(
                np.arange(len(self.classes), dtype=np.int64), counts))
            src_parts.append(np.full(n_normal, -1, dtype=np.int64))
            dst_parts.append(np.full(n_normal, -1, dtype=np.int64))
        if self.spec.scanner_count > 0:
            by_source: Dict[str, List[int]] = {}
            for ci, cls in enumerate(self.classes):
                by_source.setdefault(cls.source, []).append(ci)
            source_pops = sorted(by_source)
            fanout = self.spec.scanner_fanout
            lanes = np.arange(fanout, dtype=np.int64)
            for scanner_id in range(self.spec.scanner_count):
                pop = source_pops[scanner_id % len(source_pops)]
                targets = np.array(by_source[pop], dtype=np.int64)
                idx_parts.append(targets[lanes % len(targets)])
                src_parts.append(np.full(
                    fanout, 2 ** 15 + scanner_id, dtype=np.int64))
                dst_parts.append(2 ** 14 + lanes)
        if not idx_parts:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        return (np.concatenate(idx_parts), np.concatenate(src_parts),
                np.concatenate(dst_parts))

    def _draw_plan(self, with_payloads: bool) -> _TracePlan:
        """Draw every random quantity of the trace, phase-ordered:
        hosts, destination ports, source ports, payload sizes,
        malicious flags, payload bodies, signature placements. Each
        phase is one whole-array draw, so the plan costs O(columns)
        numpy calls instead of O(sessions) scalar RNG calls.
        """
        rng = np.random.default_rng(self.seed)
        spec = self.spec
        class_idx, host_src, host_dst = self._class_rows()
        n = len(class_idx)
        fwd_count, _ = spec.packets_per_session
        ppcount = self._packets_per_session()

        normal = host_src < 0
        n_normal = int(normal.sum())
        host_src[normal] = rng.integers(1, 2 ** 12, size=n_normal)
        host_dst[normal] = rng.integers(1, 2 ** 12, size=n_normal)

        cls_src_pop = np.array(
            [self.classifier.pop_index(cls.source)
             for cls in self.classes], dtype=np.int64)
        cls_dst_pop = np.array(
            [self.classifier.pop_index(cls.target)
             for cls in self.classes], dtype=np.int64)
        src_pop = cls_src_pop[class_idx] if n else class_idx
        dst_pop = cls_dst_pop[class_idx] if n else class_idx
        src_ip = _BASE_IP | (src_pop << 16) | host_src
        dst_ip = _BASE_IP | (dst_pop << 16) | host_dst

        cls_port = np.array(
            [self.class_ports.get(cls.name, -1)
             for cls in self.classes], dtype=np.int64)
        dst_port = cls_port[class_idx] if n else class_idx.copy()
        unknown = dst_port < 0
        dst_port[unknown] = rng.choice(
            np.array(_DEFAULT_DST_PORTS, dtype=np.int64),
            size=int(unknown.sum()))
        src_port = rng.integers(1024, 65535, size=n)

        if spec.payload_sigma > 0:
            sigma = spec.payload_sigma
            mu = np.log(spec.payload_bytes) - sigma * sigma / 2.0
            payload_size = np.maximum(
                8, rng.lognormal(mu, sigma, n).astype(np.int64))
        else:
            payload_size = np.full(n, spec.payload_bytes,
                                   dtype=np.int64)

        if with_payloads:
            malicious = (rng.random(n) <
                         spec.signature_session_fraction)
        else:
            malicious = np.zeros(n, dtype=bool)

        if with_payloads and ppcount > 0:
            offsets = np.zeros(n * ppcount + 1, dtype=np.int64)
            np.cumsum(np.repeat(payload_size, ppcount),
                      out=offsets[1:])
            payload = rng.integers(0, 256, size=int(offsets[-1]),
                                   dtype=np.uint8)
        else:
            offsets = np.zeros(n * ppcount + 1, dtype=np.int64)
            payload = np.zeros(0, dtype=np.uint8)

        embed_rows = (np.flatnonzero(malicious)
                      if with_payloads and fwd_count > 0
                      else np.zeros(0, dtype=np.int64))
        if len(embed_rows):
            pat_idx = rng.integers(len(DEFAULT_SIGNATURES),
                                   size=len(embed_rows))
            pat_frac = rng.random(len(embed_rows))
            for row, pi, frac in zip(embed_rows, pat_idx, pat_frac):
                pattern = DEFAULT_SIGNATURES[int(pi)]
                size = int(payload_size[row])
                base = int(offsets[int(row) * ppcount])
                pat = np.frombuffer(pattern, dtype=np.uint8)
                if len(pattern) >= size:
                    payload[base:base + size] = pat[:size]
                    continue
                offset = int(frac * max(1, size - len(pattern)))
                payload[base + offset:
                        base + offset + len(pattern)] = pat
        return _TracePlan(class_idx, src_ip, dst_ip, src_port,
                          dst_port, malicious, payload_size, payload,
                          offsets)

    def _rev_path(self, cls: TrafficClass) -> Tuple[str, ...]:
        if cls.rev_path is not None:
            return tuple(cls.rev_path)
        return tuple(reversed(cls.path))

    def _materialize(self, plan: _TracePlan,
                     with_payloads: bool) -> List[Session]:
        """Scalar oracle: expand the plan into ``Session`` objects."""
        fwd_count, rev_count = self.spec.packets_per_session
        ppcount = fwd_count + rev_count
        offsets = plan.payload_offsets
        buf = plan.payload
        sessions: List[Session] = []
        for row in range(plan.num_sessions):
            cls = self.classes[int(plan.class_idx[row])]
            tup = FiveTuple(
                proto=6,
                src_ip=int(plan.src_ip[row]),
                src_port=int(plan.src_port[row]),
                dst_ip=int(plan.dst_ip[row]),
                dst_port=int(plan.dst_port[row]))
            session = Session(five_tuple=tup, class_name=cls.name,
                              fwd_path=cls.path,
                              rev_path=cls.rev_path)
            size = int(plan.payload_size[row])
            base = row * ppcount
            for i in range(ppcount):
                if with_payloads:
                    payload = buf[offsets[base + i]:
                                  offsets[base + i + 1]].tobytes()
                else:
                    payload = b""
                direction = "fwd" if i < fwd_count else "rev"
                session.add_packet(direction, size + 40, payload)
            sessions.append(session)
        return sessions

    def generate(self, with_payloads: bool = True) -> List[Session]:
        """Generate the trace: normal sessions plus injected scanners."""
        return self._materialize(self._draw_plan(with_payloads),
                                 with_payloads)

    def _direct_batch(self, plan: _TracePlan,
                      node_order: Sequence[str],
                      hash_seed: int) -> "PacketBatch":
        """Assemble the columnar batch straight from the plan —
        no per-packet Python objects. Must stay bit-identical to
        ``PacketBatch.from_sessions(self._materialize(plan), ...)``;
        the parity tests enforce it column by column.
        """
        from repro.simulation.batch import (
            DIR_FWD,
            DIR_REV,
            PacketBatch,
            SessionBatch,
        )

        n = plan.num_sessions
        fwd_count, rev_count = self.spec.packets_per_session
        ppcount = fwd_count + rev_count

        # Class-name universe: trace-declared names plus whatever the
        # classifier assigns. The classifier only looks at (src PoP,
        # dst PoP, dst port), so one call per unique (class, port)
        # pair covers every session. Ports are 16-bit, so a pair is
        # one integer and the pairs sort as (class, port) rows would.
        trace_names = {self.classes[int(ci)].name
                       for ci in np.unique(plan.class_idx)}
        assigned_of_pair: Dict[Tuple[int, int], Optional[str]] = {}
        if n:
            packed, inverse = np.unique(
                plan.class_idx * 65536 + plan.dst_port,
                return_inverse=True)
            pairs = np.stack([packed >> 16, packed & 0xFFFF], axis=1)
            for ci, port in pairs:
                cls = self.classes[int(ci)]
                probe = FiveTuple(
                    proto=6,
                    src_ip=pop_prefix_ip(
                        self.classifier.pop_index(cls.source), 1),
                    src_port=1024,
                    dst_ip=pop_prefix_ip(
                        self.classifier.pop_index(cls.target), 1),
                    dst_port=int(port))
                assigned_of_pair[(int(ci), int(port))] = \
                    self.classifier(probe)
        assigned_names = {name for name in assigned_of_pair.values()
                          if name is not None}
        names = sorted(trace_names | assigned_names)
        name_index = {name: i for i, name in enumerate(names)}

        if n:
            pair_class_id = np.array(
                [-1 if assigned_of_pair[(int(ci), int(port))] is None
                 else name_index[assigned_of_pair[(int(ci),
                                                   int(port))]]
                 for ci, port in pairs], dtype=np.int32)
            class_id = pair_class_id[inverse.reshape(-1)]
        else:
            class_id = np.full(0, -1, dtype=np.int32)
        cls_trace_id = np.array(
            [name_index.get(cls.name, -1) for cls in self.classes],
            dtype=np.int32)
        trace_class_id = (cls_trace_id[plan.class_idx]
                          if n else np.full(0, -1, dtype=np.int32))

        # Path registry in first-seen session order: every session of
        # a class shares its paths, so walking classes by first
        # occurrence (fwd then rev) reproduces from_sessions' ids.
        node_index = {name: i for i, name in enumerate(node_order)}
        paths: List[np.ndarray] = []
        path_index: Dict[Tuple[str, ...], int] = {}

        def path_id(path: Tuple[str, ...]) -> int:
            pid = path_index.get(path)
            if pid is None:
                pid = len(paths)
                path_index[path] = pid
                paths.append(np.array(
                    [node_index[node] for node in path],
                    dtype=np.int64))
            return pid

        cls_fwd_pid = np.zeros(len(self.classes), dtype=np.int32)
        cls_rev_pid = np.zeros(len(self.classes), dtype=np.int32)
        if n:
            _, first_pos = np.unique(plan.class_idx,
                                     return_index=True)
            for ci in plan.class_idx[np.sort(first_pos)]:
                cls = self.classes[int(ci)]
                cls_fwd_pid[int(ci)] = path_id(tuple(cls.path))
                cls_rev_pid[int(ci)] = path_id(self._rev_path(cls))
        fwd_path_id = (cls_fwd_pid[plan.class_idx]
                       if n else np.zeros(0, dtype=np.int32))
        rev_path_id = (cls_rev_pid[plan.class_idx]
                       if n else np.zeros(0, dtype=np.int32))

        sessions = SessionBatch(
            np.full(n, 6, dtype=np.uint32),
            plan.src_ip.astype(np.uint32),
            plan.src_port.astype(np.uint32),
            plan.dst_ip.astype(np.uint32),
            plan.dst_port.astype(np.uint32),
            class_id, trace_class_id, tuple(names),
            fwd_path_id, rev_path_id, paths,
            tuple(node_order), hash_seed)

        session_of_packet = np.repeat(
            np.arange(n, dtype=np.int64), ppcount)
        direction = np.tile(
            np.array([DIR_FWD] * fwd_count + [DIR_REV] * rev_count,
                     dtype=np.uint8), n)
        size_bytes = np.repeat(
            (plan.payload_size + 40).astype(np.float64), ppcount)
        # The batch takes the plan's buffer itself (signatures are
        # already embedded), read-only from here on: no second copy.
        plan.payload.flags.writeable = False
        return PacketBatch(sessions, session_of_packet, direction,
                           size_bytes, plan.payload,
                           plan.payload_offsets)

    def generate_batch(self, node_order: Sequence[str],
                       with_payloads: bool = True, hash_seed: int = 0,
                       direct: bool = False) -> "PacketBatch":
        """Generate the trace directly as a columnar
        :class:`~repro.simulation.batch.PacketBatch` for the
        vectorized replay engine.

        Both paths consume the identical draw plan, so a batch and a
        Session list from the same seed describe the identical trace.
        With ``direct=True`` the columns are assembled straight from
        the plan's arrays (no per-packet Python objects) — the fast
        path; ``direct=False`` materializes Sessions and columnarizes
        them, kept as the bit-exactness oracle.

        Args:
            node_order: node-name universe for observer indices —
                pass the emulating network's ``state.nids_nodes``.
            with_payloads: include payload bytes (needed for
                signature replay).
            hash_seed: network-wide hash seed for the hash columns.
            direct: vectorized column assembly (bit-identical,
                much faster).
        """
        from repro.simulation.batch import PacketBatch

        with get_registry().span("emulation.batch_build"):
            plan = self._draw_plan(with_payloads)
            if direct:
                return self._direct_batch(plan, node_order, hash_seed)
            return PacketBatch.from_sessions(
                self._materialize(plan, with_payloads),
                self.classifier, node_order, hash_seed)
