"""The trace-driven network emulator.

Replays a generated trace through per-node shims configured from an LP
solution and feeds the simulated NIDS engines, reproducing the paper's
Emulab methodology (Section 8.1) in-process:

- :meth:`Emulation.run_signature` — Signature detection under the
  replication architecture (Figure 10's per-node CPU usage).
- :meth:`Emulation.run_stateful` — stateful both-directions analysis
  under routing asymmetry (measures the *operational* miss rate the
  Section 5 LP predicts).
- :meth:`Emulation.run_scan` / :meth:`Emulation.run_flood` —
  distributed Scan/flood detection with report aggregation, checked
  for semantic equivalence against a centralized detector
  (Section 7.3).

The scalar ``run_*`` paths walk Python objects one packet at a time;
they are paper-faithful and the correctness oracle. Signature replay —
the one the pipeline benchmark, Figure 10 and the scenario loop run at
scale — also has a vectorized engine: ``run_signature(fast=True)`` and
:meth:`Emulation.run_signature_chunked` replay columnar batches
(:mod:`repro.simulation.batch`) through batch hashing and the compiled
decision kernel (:mod:`repro.shim.batch`), producing a report with
*identical* contents. When the installed configs cannot be compiled,
``run_signature(fast=True)`` falls back to the scalar path and counts
``emulation.fast.fallbacks``.

A vectorized replay of ``2 * MIN_PACKETS_PER_WORKER`` packets or more
uses the CPUs this process may run on: its chunks are cut into
session-aligned packet ranges (:meth:`ChunkedReplay.partition`),
forked children tally all but the first, and the partials merge in
range order. Every partial is an integer-valued sum or a set of
distinct (node, five-tuple) pairs, so the report is the one-process
report exactly. A batch not grouped by session replays in-process.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.inputs import NetworkState
from repro.obs import get_registry
from repro.nids.aggregator import (
    ScanAggregator,
    SplitStrategy,
    report_cost_record_hops,
)
from repro.nids.flood import FloodDetector
from repro.nids.scan import ScanDetector
from repro.nids.signature import DEFAULT_SIGNATURES, SignatureEngine
from repro.nids.stateful import StatefulSessionAnalyzer
from repro.shim.batch import (
    ACTION_REPLICATE,
    BatchShimKernel,
    MirrorLinkIndex,
    UnsupportedShimConfig,
    accumulate_per_node,
    delivery_nodes,
)
from repro.shim.config import ShimConfig
from repro.shim.shim import Classifier, Shim
from repro.simulation.batch import PacketBatch, SessionBatch
from repro.simulation.packets import Session
from repro.simulation.tracestore import ChunkedReplay
from repro.topology.topology import Link

Trace = Union[Sequence[Session], PacketBatch]

#: packets per chunk when ``run_signature(fast=True)`` streams a
#: whole batch through the kernel (the report does not depend on it)
REPLAY_CHUNK_PACKETS = 8192
#: fewest packets a forked replay worker is given. On tinet at
#: 1024-packet chunks (2 vCPUs), three series of 6-11 alternating
#: runs read one process vs two, median ms: 49/79, 47/64 and 65/54
#: at 1e5 packets; 110/137, 94/113 and 141/98 at 2e5; 208/248,
#: 274/202 and 204/182 at 4e5. Forking breaks even between 2e5 and
#: 4e5, where the first replay it splits (2^18 packets) lies.
MIN_PACKETS_PER_WORKER = 1 << 17


@dataclass
class _Tally:
    """One packet range's share of a signature replay. Every field is
    an integer-valued sum or a set, so partials merge exactly."""

    byte_work: np.ndarray  # payload bytes delivered, per node
    pairs: np.ndarray  # sorted distinct node * num_keys + session_key
    alerts: int
    replicated: float
    link_bytes: Dict[Link, float]
    bytes_total: float
    packets: int


def _distinct(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The sorted distinct values of the int64 ``arrays``: a sort and
    a compare with the left neighbour (np.unique's hash path costs
    5-40x this on 1e2-1e5 values)."""
    values = np.sort(np.concatenate([np.zeros(0, dtype=np.int64),
                                     *arrays]))
    fresh = np.ones(len(values), dtype=bool)
    fresh[1:] = values[1:] != values[:-1]
    return values[fresh]


def _replay_workers(replay: ChunkedReplay) -> int:
    """Processes to replay ``replay`` with: one per CPU this process
    may run on, while each gets ``MIN_PACKETS_PER_WORKER`` packets and
    a chunk. Where ``fork`` is unavailable, the replay stays here."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, replay.num_packets // MIN_PACKETS_PER_WORKER,
                      replay.num_chunks))


@dataclass
class EmulationReport:
    """Outcome of a signature-detection emulation run."""

    work_units: Dict[str, float]
    sessions_processed: Dict[str, int]
    alerts: int
    replicated_bytes: float
    link_replicated_bytes: Dict[Link, float]
    packets_total: int

    def max_work(self, exclude: Sequence[str] = ()) -> float:
        """Largest per-node work, optionally excluding nodes (e.g.,
        the datacenter, as Figure 10's text does)."""
        values = [w for node, w in self.work_units.items()
                  if node not in exclude]
        return max(values) if values else 0.0


@dataclass
class StatefulEmulationReport:
    """Outcome of a stateful (both-directions) emulation run."""

    covered_sessions: int
    total_sessions: int
    work_units: Dict[str, float]
    replicated_bytes: float

    @property
    def miss_rate(self) -> float:
        """Measured fraction of sessions no node fully observed."""
        if self.total_sessions == 0:
            return 0.0
        return 1.0 - self.covered_sessions / self.total_sessions


@dataclass
class ScanEmulationReport:
    """Outcome of a distributed-scan emulation run."""

    distributed_alerts: Dict[str, Tuple[int, ...]]
    centralized_alerts: Dict[str, Tuple[int, ...]]
    record_hops: float
    byte_hops: float
    work_units: Dict[str, float]

    @property
    def semantically_equivalent(self) -> bool:
        """True when aggregation flagged exactly the centralized set."""
        return self.distributed_alerts == self.centralized_alerts


# The two aggregated flow-level replays differ only in which detector
# runs, which report it ships, and which entity it flags. One spec per
# kind keeps the replay logic written once.
#
# Fields: detector factory, report method name, centralized flagged
# method name.
_AGG_KINDS = {
    "scan": (ScanDetector, "source_count_report", "flagged_sources"),
    "flood": (FloodDetector, "destination_count_report",
              "flagged_destinations"),
}


class Emulation:
    """Drives shims + engines over a session trace.

    Args:
        state: the calibrated network (for routing and link lookup).
        configs: per-node shim configurations compiled from an LP
            result (see :mod:`repro.shim.config`).
        classifier: packet-to-class mapping shared by all shims.
        hash_seed: network-wide hash seed.
    """

    def __init__(self, state: NetworkState,
                 configs: Dict[str, ShimConfig],
                 classifier: Classifier, hash_seed: int = 0) -> None:
        self.state = state
        self.configs = configs
        self.classifier = classifier
        self.hash_seed = hash_seed
        self.shims: Dict[str, Shim] = {
            node: Shim(configs[node], classifier, hash_seed)
            for node in state.nids_nodes
        }
        self._kernel_cache: Dict[Tuple[str, ...], object] = {}
        self._link_index: Optional[MirrorLinkIndex] = None

    def _publish_run_metrics(self, kind: str,
                             work_units: Dict[str, float],
                             packets: int, elapsed: float,
                             bytes_total: Optional[float] = None
                             ) -> None:
        """End-of-run observability: throughput and per-node work.

        Published once per replay (never per packet), so the emulation
        loop itself carries no instrumentation overhead. For the
        flow-level scan/flood replays ``packets`` counts flows.
        ``bytes_total`` (wire bytes replayed) additionally publishes
        byte throughput when the caller tracked it.
        """
        metrics = get_registry()
        if not metrics.enabled:
            return
        metrics.inc("emulation.runs")
        metrics.inc("emulation.packets", packets)
        metrics.observe(f"emulation.run_{kind}.seconds", elapsed)
        if elapsed > 0:
            metrics.gauge("emulation.packets_per_second",
                          packets / elapsed)
            if bytes_total is not None:
                metrics.gauge("emulation.bytes_per_second",
                              bytes_total / elapsed)
        for node, work in work_units.items():
            metrics.gauge(f"emulation.work_units.{node}", work)

    # -- fast-path plumbing ----------------------------------------------

    def _kernel(self, class_names: Tuple[str, ...]) -> BatchShimKernel:
        """The compiled decision kernel for one class-name universe.

        Compilation happens once per universe; an uncompilable config
        set is also cached (as the exception) so repeated fast-path
        attempts fall back without re-walking every rule list.
        """
        cached = self._kernel_cache.get(class_names)
        if cached is None:
            try:
                cached = BatchShimKernel(
                    self.configs, class_names,
                    tuple(self.state.nids_nodes), self.hash_seed)
            except UnsupportedShimConfig as exc:
                cached = exc
            self._kernel_cache[class_names] = cached
        if isinstance(cached, UnsupportedShimConfig):
            raise cached
        return cached

    def _links(self) -> MirrorLinkIndex:
        if self._link_index is None:
            self._link_index = MirrorLinkIndex(
                self.state.routing, tuple(self.state.nids_nodes))
        return self._link_index

    def _note_fallback(self) -> None:
        metrics = get_registry()
        if metrics.enabled:
            metrics.inc("emulation.fast.fallbacks")

    def _note_fast_run(self) -> None:
        metrics = get_registry()
        if metrics.enabled:
            metrics.inc("emulation.fast.runs")

    def _packet_batch(self, trace: Trace) -> PacketBatch:
        if isinstance(trace, PacketBatch):
            if tuple(trace.sessions.node_order) != \
                    tuple(self.state.nids_nodes):
                raise ValueError("batch node order does not match "
                                 "this network's NIDS nodes")
            return trace
        return PacketBatch.from_sessions(
            trace, self.classifier, tuple(self.state.nids_nodes),
            self.hash_seed)

    @staticmethod
    def _require_sessions(trace, label: str) -> Sequence[Session]:
        if isinstance(trace, (PacketBatch, SessionBatch)):
            raise TypeError(
                f"{label}'s scalar path needs Session objects; pass "
                f"the original trace instead of a prebuilt batch")
        return trace

    # -- signature / replication -----------------------------------------

    def run_signature(self, sessions: Trace, fast: bool = False
                      ) -> EmulationReport:
        """Replay the trace through Signature engines.

        Every packet visits each node on its direction's path; the
        node's shim decides process/replicate/ignore. Replicated
        packets are delivered to the mirror's engine and their bytes
        charged to every link on the node-to-mirror route.

        With ``fast=True`` the vectorized engine replays the batch and
        returns an identical report; an uncompilable config set falls
        back to the scalar oracle. The batch streams through the
        kernel in O(chunk) memory, one chunk if it is not grouped by
        session.
        """
        if fast:
            batch = self._packet_batch(sessions)
            try:
                replay: Union[ChunkedReplay, List[PacketBatch]] = \
                    ChunkedReplay(batch, REPLAY_CHUNK_PACKETS)
            except ValueError:  # not session-contiguous
                replay = [batch]
            try:
                return self._replay(replay, batch.sessions)
            except UnsupportedShimConfig:
                self._note_fallback()
        sessions = self._require_sessions(sessions, "run_signature")

        engines: Dict[str, SignatureEngine] = {
            node: SignatureEngine() for node in self.state.nids_nodes}
        link_bytes: Dict[Link, float] = {}
        replicated = 0.0
        packets = 0
        start = time.perf_counter()
        for session in sessions:
            key = session.five_tuple
            for packet in session.packets:
                packets += 1
                for node in session.observers(packet.direction):
                    decision = self.shims[node].handle(
                        session.five_tuple, packet.direction,
                        packet.size_bytes)
                    if decision.is_process:
                        engines[node].inspect(key, packet.payload)
                    elif decision.is_replicate:
                        engines[decision.target].inspect(
                            key, packet.payload)
                        replicated += packet.size_bytes
                        for link in self.state.routing.path_links(
                                node, decision.target):
                            link_bytes[link] = (link_bytes.get(link, 0.0)
                                                + packet.size_bytes)
        report = EmulationReport(
            work_units={n: e.stats.work_units
                        for n, e in engines.items()},
            sessions_processed={n: e.stats.sessions_seen
                                for n, e in engines.items()},
            alerts=sum(e.stats.alerts for e in engines.values()),
            replicated_bytes=replicated,
            link_replicated_bytes=link_bytes,
            packets_total=packets)
        self._publish_run_metrics("signature", report.work_units,
                                  packets, time.perf_counter() - start)
        return report

    def run_signature_chunked(self, replay: ChunkedReplay
                              ) -> EmulationReport:
        """Signature replay over a chunk stream of any chunk size —
        bit-identical to :meth:`run_signature` with ``fast=True`` on
        the whole batch (the same kernel over other chunk bounds).
        """
        # _packet_batch checks the node order against this network.
        return self._replay(
            replay, self._packet_batch(replay.batch).sessions)

    def _replay(self, replay: Union[ChunkedReplay, List[PacketBatch]],
                universe: SessionBatch) -> EmulationReport:
        """The vectorized signature replay (see the module docstring
        for how it splits). ``universe`` names the classes, nodes and
        ``session_key`` space every chunk shares. Work units decompose
        exactly as the scalar engine charges them: 1.0 x payload bytes
        per delivered packet plus 100.0 per distinct (node, five-tuple)
        delivery pair."""
        kernel = self._kernel(universe.class_names)
        self._links()  # compiled once, before any range forks
        start = time.perf_counter()
        ranges: Sequence[Iterable[PacketBatch]] = [replay]
        if isinstance(replay, ChunkedReplay):
            ranges = replay.partition(_replay_workers(replay))
        partials = self._tally_ranges(kernel, ranges, universe)

        node_order = universe.node_order
        keys = max(universe.num_keys, 1)
        byte_work = sum(part.byte_work for part in partials)
        link_bytes: Dict[Link, float] = {}
        for part in partials:
            for link, value in part.link_bytes.items():
                link_bytes[link] = link_bytes.get(link, 0.0) + value
        session_counts = np.bincount(
            _distinct([part.pairs for part in partials]) // keys,
            minlength=len(node_order))
        work = byte_work + 100.0 * session_counts
        packets = sum(part.packets for part in partials)
        report = EmulationReport(
            work_units={n: float(work[i])
                        for i, n in enumerate(node_order)},
            sessions_processed={n: int(session_counts[i])
                                for i, n in enumerate(node_order)},
            alerts=sum(part.alerts for part in partials),
            replicated_bytes=sum(part.replicated for part in partials),
            link_replicated_bytes=link_bytes,
            packets_total=packets)
        self._note_fast_run()
        self._publish_run_metrics(
            "signature", report.work_units, packets,
            time.perf_counter() - start,
            bytes_total=sum(part.bytes_total for part in partials))
        return report

    def _tally_ranges(self, kernel: BatchShimKernel,
                      ranges: Sequence[Iterable[PacketBatch]],
                      universe: SessionBatch) -> List[_Tally]:
        """Each range's :meth:`_tally`, in range order: ranges 1.. in
        forked children, each sending its partial over a one-way pipe,
        and range 0 here. A child that exits without sending raises
        ``RuntimeError``; every child is gone when this returns or
        raises."""
        children = []
        try:
            for chunks in ranges[1:]:
                context = multiprocessing.get_context("fork")
                receiver, sender = context.Pipe(duplex=False)
                child = context.Process(
                    target=lambda out, part: out.send(
                        self._tally(kernel, part, universe)),
                    args=(sender, chunks), daemon=True)
                child.start()
                sender.close()  # the child's end: EOF once it exits
                children.append((child, receiver))
            partials = [self._tally(kernel, ranges[0], universe)]
            for child, receiver in children:
                try:
                    partials.append(receiver.recv())
                except EOFError:
                    child.join()
                    raise RuntimeError(
                        f"replay worker {child.pid} exited with code "
                        f"{child.exitcode} before sending its "
                        f"tally") from None
            return partials
        finally:
            for child, receiver in children:
                receiver.close()
                child.terminate()
                child.join()

    def _tally(self, kernel: BatchShimKernel,
               chunks: Iterable[PacketBatch],
               universe: SessionBatch) -> _Tally:
        """One packet range's partial of the signature replay, chunk
        by chunk.

        Alerts multiply each session-direction group's precomputed
        pattern-occurrence count by its delivery count — the same
        total the scalar engine accumulates one ``inspect`` at a time.
        Distinct (node, five-tuple) delivery pairs are **not**
        additive — the same session's packets may recur in later
        chunks on another node's range, and duplicate five-tuples can
        span chunks — so each chunk contributes its distinct pairs over
        the shared ``num_keys`` universe and the union is taken once.
        """
        num_nodes = len(universe.node_order)
        keys = max(universe.num_keys, 1)
        byte_work = np.zeros(num_nodes, dtype=np.float64)
        pair_chunks: List[np.ndarray] = []
        alerts = 0
        replicated = 0.0
        bytes_total = 0.0
        packets = 0
        link_bytes: Dict[Link, float] = {}
        for chunk in chunks:
            sess = chunk.sessions
            # One observation per (session, direction, on-path node):
            # the decision is the same for every packet of the group,
            # whose bytes and matches are summed up front.
            obs_group, obs_node = chunk.group_observers()
            obs_sess = obs_group >> 1
            actions, targets = kernel.decide(
                obs_node, sess.class_id[obs_sess].astype(np.int64),
                obs_group & 1,
                {mode: sess.hash_column(mode)[obs_sess]
                 for mode in kernel.modes_used})
            deliver = delivery_nodes(actions, targets, obs_node)
            mask = deliver >= 0

            byte_work += accumulate_per_node(
                deliver,
                chunk.group_sums(chunk.payload_lengths)[obs_group],
                num_nodes)
            pair_chunks.append(_distinct(
                [deliver[mask] * keys + sess.session_key[obs_sess[mask]]]))

            matches = chunk.group_sums(
                chunk.payload_match_counts(DEFAULT_SIGNATURES))
            alerts += int(matches[obs_group[mask]].sum())

            repl = actions == ACTION_REPLICATE
            repl_sizes = chunk.group_sums(
                chunk.size_bytes)[obs_group[repl]]
            if repl.any():
                replicated += float(repl_sizes.sum())
            for link, value in self._links().link_bytes(
                    obs_node[repl], targets[repl].astype(np.int64),
                    repl_sizes).items():
                link_bytes[link] = link_bytes.get(link, 0.0) + value
            bytes_total += float(chunk.size_bytes.sum())
            packets += chunk.num_packets
        return _Tally(byte_work, _distinct(pair_chunks), alerts,
                      replicated, link_bytes, bytes_total, packets)

    # -- stateful / split traffic ------------------------------------------

    def run_stateful(self, sessions: Sequence[Session]
                     ) -> StatefulEmulationReport:
        """Replay an (asymmetric) trace through stateful analyzers.

        A session counts as covered when at least one location —
        on-path node or replication target — observed both directions.
        """
        sessions = self._require_sessions(sessions, "run_stateful")

        analyzers: Dict[str, StatefulSessionAnalyzer] = {
            node: StatefulSessionAnalyzer()
            for node in self.state.nids_nodes}
        replicated = 0.0
        packets = 0
        start = time.perf_counter()
        for session in sessions:
            key = session.five_tuple
            for packet in session.packets:
                packets += 1
                for node in session.observers(packet.direction):
                    decision = self.shims[node].handle(
                        session.five_tuple, packet.direction,
                        packet.size_bytes)
                    if decision.is_process:
                        analyzers[node].observe(
                            key, packet.direction, packet.size_bytes)
                    elif decision.is_replicate:
                        analyzers[decision.target].observe(
                            key, packet.direction, packet.size_bytes)
                        replicated += packet.size_bytes
        covered: Set = set()
        for analyzer in analyzers.values():
            covered |= analyzer.covered_sessions()
        report = StatefulEmulationReport(
            covered_sessions=len(covered),
            total_sessions=len(sessions),
            work_units={n: a.stats.work_units
                        for n, a in analyzers.items()},
            replicated_bytes=replicated)
        self._publish_run_metrics("stateful", report.work_units,
                                  packets, time.perf_counter() - start)
        return report

    # -- scan & flood / aggregation ---------------------------------------

    def run_scan(self, sessions: Sequence[Session], threshold: int,
                 class_gateway: Optional[Dict[str, str]] = None
                 ) -> ScanEmulationReport:
        """Distributed Scan detection with per-source splitting.

        Each on-path node counts the sources its hash range assigns it
        (local threshold 0), reports per-source counts to the class's
        gateway, and each gateway's aggregator applies the real
        threshold ``k``. A centralized detector per gateway provides
        the semantic-equivalence baseline.

        Args:
            sessions: the trace (each session is one flow).
            threshold: the aggregator's alert threshold ``k``.
            class_gateway: class name -> aggregation node; defaults to
                each class's ingress.
        """
        return self._run_aggregated("scan", sessions, threshold,
                                    class_gateway)

    def run_flood(self, sessions: Sequence[Session], threshold: int,
                  class_gateway: Optional[Dict[str, str]] = None
                  ) -> ScanEmulationReport:
        """Distributed flood/DoS detection with per-destination
        splitting (the Section 6 extension).

        Mirrors :meth:`run_scan` with the roles of source and
        destination swapped: nodes count distinct sources per assigned
        destination (shim rules compiled with
        ``HashMode.DESTINATION``), the gateway aggregator sums the
        per-destination counts, and a centralized detector provides
        the equivalence baseline.
        """
        return self._run_aggregated("flood", sessions, threshold,
                                    class_gateway)

    def _run_aggregated(self, kind: str, sessions: Sequence[Session],
                        threshold: int,
                        class_gateway: Optional[Dict[str, str]]
                        ) -> ScanEmulationReport:
        """Shared scan/flood replay (parameterized by ``_AGG_KINDS``)."""
        if class_gateway is None:
            class_gateway = {cls.name: cls.ingress
                             for cls in self.state.classes}
        sessions = self._require_sessions(sessions, f"run_{kind}")

        detector_cls, report_method, flagged_method = _AGG_KINDS[kind]
        detectors: Dict[Tuple[str, str], object] = {}
        central: Dict[str, object] = {}
        flows = 0
        start = time.perf_counter()
        for session in sessions:
            gateway = class_gateway.get(session.class_name)
            if gateway is None:
                continue
            flows += 1
            central.setdefault(
                gateway, detector_cls(threshold=threshold)).observe_flow(
                session.src_ip, session.dst_ip,
                flow_key=session.five_tuple)
            for node in session.fwd_path:
                decision = self.shims[node].handle(
                    session.five_tuple, "fwd", 0.0)
                if decision.is_process:
                    detectors.setdefault(
                        (node, gateway), detector_cls()).observe_flow(
                            session.src_ip, session.dst_ip,
                            flow_key=session.five_tuple)

        record_hops = 0.0
        byte_hops = 0.0
        distributed: Dict[str, Tuple[int, ...]] = {}
        for gateway in sorted(central):
            aggregator = ScanAggregator(
                threshold, SplitStrategy.SOURCE_LEVEL)
            reports = [getattr(det, report_method)(node)
                       for (node, gw), det in sorted(detectors.items())
                       if gw == gateway]
            aggregator.submit_all(reports)
            distances = {r.node: self.state.routing.hop_count(
                r.node, gateway) for r in reports}
            hops, bytes_ = report_cost_record_hops(reports, distances)
            record_hops += hops
            byte_hops += bytes_
            distributed[gateway] = tuple(aggregator.alerts())

        centralized = {
            gateway: tuple(getattr(detector, flagged_method)())
            for gateway, detector in central.items()
        }
        work: Dict[str, float] = {n: 0.0 for n in self.state.nids_nodes}
        for (node, _), det in detectors.items():
            work[node] += det.stats.work_units
        report = ScanEmulationReport(
            distributed_alerts=distributed,
            centralized_alerts=centralized,
            record_hops=record_hops,
            byte_hops=byte_hops,
            work_units=work)
        self._publish_run_metrics(kind, work, flows,
                                  time.perf_counter() - start)
        return report
