"""Figure 10 — per-node CPU usage in the (emulated) Internet2 network.

The paper's Emulab experiment: 11 Snort nodes plus a datacenter with
8x capacity, MaxLinkLoad = 0.4, comparing "Path, No replicate" [29]
against "Path, Replicate". The reproduction runs the same two LP
configurations, compiles them to shim configs, replays a synthetic
trace, and reports each node's Signature-engine work units (the PAPI
instruction-count proxy). The headline check: replication roughly
halves the work on the maximally loaded non-DC node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.experiments.common import format_table, setup_topology
from repro.experiments.parallel import ParallelSweepRunner, SlabChannel
from repro.shim.config import build_replication_configs
from repro.simulation.emulation import Emulation
from repro.simulation.tracegen import TraceGenerator, TraceSpec

_POLICIES = {
    "no_replicate": MirrorPolicy.none,
    "replicate": MirrorPolicy.datacenter,
}


@dataclass
class Fig10Result:
    """Per-node emulated work for both architectures."""

    nodes: List[str]                 # non-DC nodes in display order
    dc_node: str
    work_no_replicate: Dict[str, float]
    work_replicate: Dict[str, float]
    lp_max_no_replicate: float       # the LP's predicted max loads
    lp_max_replicate: float
    alerts_no_replicate: int
    alerts_replicate: int

    def max_work_reduction(self) -> float:
        """Ratio of max non-DC work: no-replicate over replicate."""
        top_plain = max(self.work_no_replicate[n] for n in self.nodes)
        top_repl = max(self.work_replicate[n] for n in self.nodes)
        return top_plain / top_repl if top_repl > 0 else float("inf")


def _fig10_policy(args: Tuple[str, int, int, float, float, str]
                  ) -> Tuple[str, Dict[str, float], float, int]:
    """One architecture's LP + replay, rebuilt from plain arguments
    (a picklable sweep point for :class:`ParallelSweepRunner`).

    ``trace_path`` names the parent's slab-channel trace store; the
    worker memmaps it instead of re-generating the trace.
    """
    (label, total_sessions, seed, dc_capacity_factor, max_link_load,
     trace_path) = args
    setup = setup_topology("internet2",
                           dc_capacity_factor=dc_capacity_factor)
    state = setup.state
    generator = TraceGenerator(
        state.topology.nodes, state.classes,
        spec=TraceSpec(total_sessions=total_sessions), seed=seed)
    result = ReplicationProblem(
        state, mirror_policy=_POLICIES[label](),
        max_link_load=max_link_load).solve()
    configs = build_replication_configs(state, result)
    emulation = Emulation(state, configs, generator.classifier)
    report = emulation.run_signature(
        SlabChannel.open_batch(trace_path), fast=True)
    return (label, report.work_units,
            result.max_load(exclude_dc=True), report.alerts)


def run_fig10(total_sessions: int = 4000, seed: int = 7,
              dc_capacity_factor: float = 8.0,
              max_link_load: float = 0.4,
              jobs: Optional[int] = None) -> Fig10Result:
    """Run the Internet2 emulation for both architectures.

    The trace is synthesized once (vectorized direct build), spilled to
    a slab channel, and memmapped by both architectures' workers — the
    trace is neither pickled nor built twice. The vectorized replay's
    reports are bit-identical to the scalar oracle's.

    Args:
        jobs: fan the two architectures across processes (``--jobs``
            on the CLI); results are identical to the serial run.
    """
    state = setup_topology(
        "internet2", dc_capacity_factor=dc_capacity_factor).state
    generator = TraceGenerator(
        state.topology.nodes, state.classes,
        spec=TraceSpec(total_sessions=total_sessions), seed=seed)
    with SlabChannel(
            generator.generate_batch(tuple(state.nids_nodes),
                                     direct=True),
            meta={"topology": "internet2", "seed": str(seed)}) as channel:
        points = [(label, total_sessions, seed, dc_capacity_factor,
                   max_link_load, channel.path)
                  for label in _POLICIES]
        results = ParallelSweepRunner(jobs).map(_fig10_policy, points)

    work: Dict[str, Dict[str, float]] = {}
    lp_max: Dict[str, float] = {}
    alerts: Dict[str, int] = {}
    for label, work_units, max_load, alert_count in results:
        work[label] = work_units
        lp_max[label] = max_load
        alerts[label] = alert_count

    nodes = [n for n in state.nids_nodes if n != state.dc_node]
    return Fig10Result(
        nodes=nodes, dc_node=state.dc_node,
        work_no_replicate=work["no_replicate"],
        work_replicate=work["replicate"],
        lp_max_no_replicate=lp_max["no_replicate"],
        lp_max_replicate=lp_max["replicate"],
        alerts_no_replicate=alerts["no_replicate"],
        alerts_replicate=alerts["replicate"])


def format_fig10(result: Fig10Result) -> str:
    rows = []
    for node in result.nodes + [result.dc_node]:
        rows.append([node,
                     f"{result.work_no_replicate[node]:.0f}",
                     f"{result.work_replicate[node]:.0f}"])
    table = format_table(
        ["Node", "Path,NoReplicate work", "Path,Replicate work"],
        rows, title="Figure 10: per-node NIDS work units (Internet2)")
    return (f"{table}\n"
            f"max non-DC work reduction: "
            f"{result.max_work_reduction():.2f}x "
            f"(LP predicted "
            f"{result.lp_max_no_replicate / result.lp_max_replicate:.2f}x)")
