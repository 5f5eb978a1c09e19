"""Figure 13 — maximum compute load per NIDS architecture.

Compares, per topology (DC 10x, MaxLinkLoad 0.4): Ingress-only (1.0 by
construction), Path-No-Replicate [29], Path-Augmented (the DC's
aggregate capacity spread evenly over all nodes), and Path-Replicate.
The paper's shape: Path-Replicate wins everywhere — up to ~10x better
than Ingress and up to ~3x better than on-path distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.architectures import ArchitectureEvaluator, ArchitectureKind
from repro.experiments.common import (
    DC_CAPACITY_FACTOR,
    MAX_LINK_LOAD,
    evaluation_topologies,
    format_table,
    setup_topology,
)

FIG13_ARCHITECTURES = (
    ArchitectureKind.INGRESS,
    ArchitectureKind.PATH_NO_REPLICATE,
    ArchitectureKind.PATH_AUGMENTED,
    ArchitectureKind.PATH_REPLICATE,
)


@dataclass
class Fig13Row:
    """One topology's max compute load per architecture."""

    topology: str
    max_loads: Dict[ArchitectureKind, float]

    def replication_gain_vs_ingress(self) -> float:
        return (self.max_loads[ArchitectureKind.INGRESS] /
                self.max_loads[ArchitectureKind.PATH_REPLICATE])

    def replication_gain_vs_path(self) -> float:
        return (self.max_loads[ArchitectureKind.PATH_NO_REPLICATE] /
                self.max_loads[ArchitectureKind.PATH_REPLICATE])


def run_fig13(topologies: Optional[Sequence[str]] = None
              ) -> List[Fig13Row]:
    """Evaluate the four Figure 13 architectures per topology."""
    rows = []
    for name in topologies or evaluation_topologies():
        setup = setup_topology(name)
        evaluator = ArchitectureEvaluator(
            setup.topology, setup.classes,
            dc_capacity_factor=DC_CAPACITY_FACTOR,
            max_link_load=MAX_LINK_LOAD)
        loads = {kind: evaluator.evaluate(kind).load_cost
                 for kind in FIG13_ARCHITECTURES}
        rows.append(Fig13Row(name, loads))
    return rows


def format_fig13(rows: Sequence[Fig13Row]) -> str:
    headers = ["Topology"] + [k.value for k in FIG13_ARCHITECTURES]
    body = [[r.topology] + [f"{r.max_loads[k]:.3f}"
                            for k in FIG13_ARCHITECTURES]
            for r in rows]
    return format_table(
        headers, body,
        title="Figure 13: max compute load per architecture "
              "(DC=10x, MaxLinkLoad=0.4)")
