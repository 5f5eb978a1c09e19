"""Figure 14 — local one- and two-hop replication (no datacenter).

Compares pure on-path distribution against replication restricted to
1-hop / 2-hop neighbor mirror sets, MaxLinkLoad = 0.4. The paper's
shape: one-hop offload already buys up to ~5x over on-path-only, and
two hops add little beyond one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.experiments.common import (
    MAX_LINK_LOAD,
    evaluation_topologies,
    format_table,
    setup_topology,
)

FIG14_POLICIES = (
    ("path-no-replicate", MirrorPolicy.none()),
    ("one-hop", MirrorPolicy.neighbors(hops=1)),
    ("two-hop", MirrorPolicy.neighbors(hops=2)),
)


@dataclass
class Fig14Row:
    """One topology's max load per local-offload policy."""

    topology: str
    max_loads: Dict[str, float]

    def one_hop_gain(self) -> float:
        return (self.max_loads["path-no-replicate"] /
                self.max_loads["one-hop"])

    def two_hop_extra_gain(self) -> float:
        """How much two-hop improves over one-hop (paper: little)."""
        return self.max_loads["one-hop"] / self.max_loads["two-hop"]


def run_fig14(topologies: Optional[Sequence[str]] = None
              ) -> List[Fig14Row]:
    """Evaluate local-offload policies per topology (no DC)."""
    rows = []
    for name in topologies or evaluation_topologies():
        setup = setup_topology(name)
        loads = {}
        for label, policy in FIG14_POLICIES:
            result = ReplicationProblem(
                setup.state, mirror_policy=policy,
                max_link_load=MAX_LINK_LOAD).solve()
            loads[label] = result.load_cost
        rows.append(Fig14Row(name, loads))
    return rows


def format_fig14(rows: Sequence[Fig14Row]) -> str:
    labels = [label for label, _ in FIG14_POLICIES]
    headers = ["Topology"] + labels + ["1-hop gain"]
    body = [[r.topology] + [f"{r.max_loads[l]:.3f}" for l in labels] +
            [f"{r.one_hop_gain():.2f}x"] for r in rows]
    return format_table(
        headers, body,
        title="Figure 14: local 1/2-hop replication "
              "(MaxLinkLoad=0.4, no DC)")
