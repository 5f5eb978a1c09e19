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
from typing import Dict, List, Optional

from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.experiments.common import (
    MAX_LINK_LOAD,
    format_table,
    full_scale,
    setup_topology,
)
from repro.shim.config import build_replication_configs
from repro.simulation.emulation import Emulation
from repro.simulation.tracegen import TraceGenerator, TraceSpec

#: The Emulab run's datacenter: 8x a NIDS node (Section 8.1).
DC_CAPACITY_FACTOR = 8.0
SEED = 7


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


def run_fig10(total_sessions: Optional[int] = None) -> Fig10Result:
    """Run the Internet2 emulation for both architectures.

    The trace is synthesized once (vectorized direct build) and both
    architectures replay that one batch. The vectorized replay's
    reports are bit-identical to the scalar oracle's.

    Args:
        total_sessions: trace size; 4,000 sessions at quick scale,
            20,000 at full scale.
    """
    if total_sessions is None:
        total_sessions = 20_000 if full_scale() else 4_000
    state = setup_topology(
        "internet2", dc_capacity_factor=DC_CAPACITY_FACTOR).state
    generator = TraceGenerator(
        state.topology.nodes, state.classes,
        spec=TraceSpec(total_sessions=total_sessions), seed=SEED)
    batch = generator.generate_batch(tuple(state.nids_nodes),
                                     direct=True)
    work: Dict[str, Dict[str, float]] = {}
    lp_max: Dict[str, float] = {}
    alerts: Dict[str, int] = {}
    for label, policy in (("no_replicate", MirrorPolicy.none()),
                          ("replicate", MirrorPolicy.datacenter())):
        result = ReplicationProblem(
            state, mirror_policy=policy,
            max_link_load=MAX_LINK_LOAD).solve()
        configs = build_replication_configs(state, result)
        emulation = Emulation(state, configs, generator.classifier)
        report = emulation.run_signature(batch, fast=True)
        work[label] = report.work_units
        lp_max[label] = result.max_load(exclude_dc=True)
        alerts[label] = report.alerts

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
