"""Ablations for results the paper discusses but does not plot.

- Datacenter placement (Section 8.2, "Choice of datacenter location"):
  four strategies; the paper reports the gap between them is small and
  "most observed traffic" wins, deferring the figure to the extended
  report.
- Datacenter capacity (Section 8.2, "Increasing the data center
  capacity"): diminishing returns, with the knee around 8-10x and
  earlier at lower MaxLinkLoad.
- Aggregation split strategies (Figure 8's motivating example): the
  communication cost of flow-, destination-, and source-level splits
  on a concrete scenario, all of which must agree on the final counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.inputs import NetworkState
from repro.core.mirrors import MirrorPolicy
from repro.core.placement import PLACEMENT_STRATEGIES, place_datacenter
from repro.core.replication import ReplicationProblem
from repro.experiments.common import (
    DC_CAPACITY_FACTOR,
    MAX_LINK_LOAD,
    evaluation_topologies,
    format_table,
    setup_topology,
)


@dataclass
class PlacementRow:
    """Max load per datacenter placement strategy for one topology."""

    topology: str
    max_loads: Dict[str, float]   # strategy -> LoadCost
    anchors: Dict[str, str]       # strategy -> chosen PoP

    def spread(self) -> float:
        """Worst minus best strategy (paper: small)."""
        return max(self.max_loads.values()) - min(self.max_loads.values())

    def best_strategy(self) -> str:
        return min(self.max_loads, key=lambda s: self.max_loads[s])


def run_placement_ablation(topologies: Optional[Sequence[str]] = None
                           ) -> List[PlacementRow]:
    """Compare the four placement strategies per topology."""
    rows = []
    for name in topologies or evaluation_topologies():
        base = setup_topology(name)
        loads: Dict[str, float] = {}
        anchors: Dict[str, str] = {}
        for strategy in PLACEMENT_STRATEGIES:
            anchor = place_datacenter(base.topology, base.classes,
                                      strategy=strategy)
            anchors[strategy] = anchor
            state = NetworkState.calibrated(
                base.topology, base.classes,
                dc_capacity_factor=DC_CAPACITY_FACTOR,
                dc_anchor=anchor)
            result = ReplicationProblem(
                state, mirror_policy=MirrorPolicy.datacenter(),
                max_link_load=MAX_LINK_LOAD).solve()
            loads[strategy] = result.load_cost
        rows.append(PlacementRow(name, loads, anchors))
    return rows


def format_placement(rows: Sequence[PlacementRow]) -> str:
    headers = ["Topology"] + list(PLACEMENT_STRATEGIES) + ["spread"]
    body = [[r.topology] +
            [f"{r.max_loads[s]:.3f}" for s in PLACEMENT_STRATEGIES] +
            [f"{r.spread():.3f}"] for r in rows]
    return format_table(headers, body,
                        title="Ablation: datacenter placement strategy")


@dataclass
class DCCapacitySeries:
    """Max load vs datacenter capacity for one (topology, link load)."""

    topology: str
    max_link_load: float
    capacities: List[float]
    max_loads: List[float]

    def knee_capacity(self, tolerance: float = 0.02) -> float:
        """Smallest capacity within ``tolerance`` of the best load."""
        best = min(self.max_loads)
        for capacity, load in zip(self.capacities, self.max_loads):
            if load <= best + tolerance:
                return capacity
        return self.capacities[-1]


def run_dc_capacity_ablation(topologies: Optional[Sequence[str]] = None,
                             capacities: Sequence[float] =
                             (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 13.0, 16.0),
                             link_loads: Sequence[float] = (0.1, 0.4)
                             ) -> List[DCCapacitySeries]:
    """Sweep the datacenter capacity at two link-load budgets."""
    series = []
    for name in topologies or evaluation_topologies(quick_count=2):
        for max_link_load in link_loads:
            loads = []
            for capacity in capacities:
                setup = setup_topology(name,
                                       dc_capacity_factor=capacity)
                result = ReplicationProblem(
                    setup.state,
                    mirror_policy=MirrorPolicy.datacenter(),
                    max_link_load=max_link_load).solve()
                loads.append(result.load_cost)
            series.append(DCCapacitySeries(
                name, max_link_load, list(capacities), loads))
    return series


def format_dc_capacity(series: Sequence[DCCapacitySeries]) -> str:
    headers = (["Topology", "MaxLinkLoad"] +
               [f"{c:g}x" for c in series[0].capacities] + ["knee"])
    body = [[s.topology, f"{s.max_link_load:.1f}"] +
            [f"{v:.3f}" for v in s.max_loads] +
            [f"{s.knee_capacity():g}x"] for s in series]
    return format_table(headers, body,
                        title="Ablation: datacenter capacity knee")
