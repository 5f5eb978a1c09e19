"""Figure 12 — datacenter load vs maximum interior NIDS load.

For four configurations (MaxLinkLoad in {0.1, 0.4} x DC capacity in
{2x, 10x}), plots ``DCLoad - MaxNIDSLoad``. The paper's shape: at low
link load and high DC capacity the datacenter is underutilized (large
negative gap); with more allowed link load or a smaller datacenter the
gap closes to ~0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.experiments.common import (
    evaluation_topologies,
    format_table,
    setup_topology,
)

#: (MaxLinkLoad, DC capacity factor) pairs.
CONFIGS: Tuple[Tuple[float, float], ...] = (
    (0.1, 2.0), (0.1, 10.0), (0.4, 2.0), (0.4, 10.0))


@dataclass
class Fig12Row:
    """One topology's DC-load gaps across the four configurations."""

    topology: str
    gaps: Dict[Tuple[float, float], float]  # (link load, DC cap) -> gap


def run_fig12(topologies: Optional[Sequence[str]] = None
              ) -> List[Fig12Row]:
    """Compute DCLoad - MaxNIDSLoad per topology and configuration."""
    rows = []
    for name in topologies or evaluation_topologies():
        gaps: Dict[Tuple[float, float], float] = {}
        for max_link_load, dc_factor in CONFIGS:
            setup = setup_topology(name, dc_capacity_factor=dc_factor)
            result = ReplicationProblem(
                setup.state, mirror_policy=MirrorPolicy.datacenter(),
                max_link_load=max_link_load).solve()
            gaps[(max_link_load, dc_factor)] = (
                result.dc_load() - result.max_load(exclude_dc=True))
        rows.append(Fig12Row(name, gaps))
    return rows


def format_fig12(rows: Sequence[Fig12Row]) -> str:
    configs = sorted(rows[0].gaps)
    headers = ["Topology"] + [f"MLL={c[0]:.1f},DC={c[1]:.0f}x"
                              for c in configs]
    # Rounded first, and + 0.0 turns -0.0 into 0.0: LP noise of
    # either sign around a zero gap prints as +0.000.
    body = [[r.topology] + [f"{round(r.gaps[c], 3) + 0.0:+.3f}"
                            for c in configs]
            for r in rows]
    return format_table(
        headers, body,
        title="Figure 12: DCLoad - MaxNIDSLoad per configuration")
