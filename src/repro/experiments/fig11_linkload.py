"""Figure 11 — maximum compute load vs MaxLinkLoad (DC capacity 10x).

Sweeps the allowed replication link load from 0 to 1 for each topology.
The paper's shape: steep improvement up to around MaxLinkLoad = 0.4,
then diminishing returns — at that point the datacenter's load already
matches the maximum interior NIDS load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.experiments.common import (
    DC_CAPACITY_FACTOR,
    evaluation_topologies,
    format_table,
    setup_topology,
)

DEFAULT_LINK_LOADS: Tuple[float, ...] = (
    0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0)


@dataclass
class Fig11Series:
    """One topology's sweep: max load per MaxLinkLoad value."""

    topology: str
    link_loads: List[float]
    max_loads: List[float]

    def knee_gain(self, knee: float = 0.4) -> float:
        """Improvement still available after the knee (paper: small)."""
        at_knee = dict(zip(self.link_loads, self.max_loads))[knee]
        best = min(self.max_loads)
        return at_knee - best


def run_fig11(topologies: Optional[Sequence[str]] = None,
              link_loads: Sequence[float] = DEFAULT_LINK_LOADS
              ) -> List[Fig11Series]:
    """Sweep MaxLinkLoad for each topology."""
    series = []
    for name in topologies or evaluation_topologies():
        setup = setup_topology(name,
                               dc_capacity_factor=DC_CAPACITY_FACTOR)
        # One formulation per topology; each sweep step patches the
        # link bounds of the compiled LP and re-solves warm.
        problem = ReplicationProblem(
            setup.state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=link_loads[0])
        maxima = []
        for limit in link_loads:
            result = problem.resolve(max_link_load=limit)
            maxima.append(result.load_cost)
        series.append(Fig11Series(name, list(link_loads), maxima))
    return series


def format_fig11(series: Sequence[Fig11Series]) -> str:
    headers = ["Topology"] + [f"{x:.2f}" for x in series[0].link_loads]
    rows = [[s.topology] + [f"{v:.3f}" for v in s.max_loads]
            for s in series]
    return format_table(
        headers, rows,
        title="Figure 11: max compute load vs MaxLinkLoad (DC=10x)")
