"""Trace-driven emulation substrate.

The paper's "live" evaluation generates traffic from seed traces with
Scapy, injects it into an Emulab testbed, and measures per-node Snort
CPU instructions. The reproduction's equivalent: a synthetic
session/packet :class:`TraceGenerator`, and an :class:`Emulation` that
replays packets past every on-path shim, forwards replicated packets to
mirrors, feeds the simulated NIDS engines, and collects per-node work
units, detection outcomes, and replication byte counts.
"""

from repro.simulation.batch import PacketBatch, SessionBatch
from repro.simulation.packets import Packet, Session, pop_prefix_ip
from repro.simulation.tracegen import (
    PrefixClassifier,
    TraceGenerator,
)
from repro.simulation.tracestore import (
    ChunkedReplay,
    TraceStore,
    TraceStoreError,
    trace_fingerprint,
)
from repro.simulation.emulation import (
    Emulation,
    EmulationReport,
    ScanEmulationReport,
    StatefulEmulationReport,
)
from repro.simulation.metrics import (
    peak_to_mean,
    predicted_work_shares,
    share_divergence,
    work_shares,
)

__all__ = [
    "ChunkedReplay",
    "Emulation",
    "EmulationReport",
    "Packet",
    "PacketBatch",
    "PrefixClassifier",
    "ScanEmulationReport",
    "SessionBatch",
    "Session",
    "StatefulEmulationReport",
    "TraceGenerator",
    "TraceStore",
    "TraceStoreError",
    "trace_fingerprint",
    "peak_to_mean",
    "pop_prefix_ip",
    "predicted_work_shares",
    "share_divergence",
    "work_shares",
]
