"""Ablations for the Section 9 extensions this library implements.

- **Slack provisioning** ("Robustness to dynamics"): compute the
  assignment from p80-inflated traffic instead of the mean and compare
  worst-case peak loads over time-varying matrices.
- **Piecewise link cost** (Section 4 extension): soft Fortz-Thorup
  link penalty vs the hard MaxLinkLoad bound.
- **NIPS rerouting** ("Extending to NIPS"): load reduction attainable
  when offloading must reroute, across latency budgets.
- **Combined replication+aggregation** ("Combining aggregation and
  replication"): objective improvement over pure aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.aggregation import AggregationProblem
from repro.core.combined import CombinedProblem
from repro.core.inputs import NetworkState
from repro.core.mirrors import MirrorPolicy
from repro.core.nips import NIPSProblem
from repro.core.replication import ReplicationProblem
from repro.core.robustness import slack_factor, with_slack
from repro.experiments.common import (
    DC_CAPACITY_FACTOR,
    MAX_LINK_LOAD,
    evaluation_topologies,
    format_table,
    full_scale,
    setup_topology,
)
from repro.traffic.gravity import classes_from_matrix
from repro.traffic.variability import TrafficVariabilityModel

SLACK_PERCENTILE = 80.0
SLACK_SEED = 80
LINK_COST_WEIGHT = 0.02
#: NIPS rerouting budgets, in extra hops.
LATENCY_BUDGETS = (0.0, 1.0, 2.0, 4.0)


@dataclass
class SlackRow:
    """Worst-case peaks with mean vs p80 provisioning."""

    topology: str
    percentile: float
    worst_mean_provisioned: float
    worst_slack_provisioned: float

    @property
    def improvement(self) -> float:
        if self.worst_slack_provisioned == 0:
            return float("inf")
        return (self.worst_mean_provisioned /
                self.worst_slack_provisioned)


def run_slack_ablation() -> List[SlackRow]:
    """Compare mean- vs percentile-provisioned assignments under
    traffic variability.

    Both provisionings are *evaluated* on the same family of varying
    matrices; the slack variant computed its node/link budgets from
    inflated inputs, so bursts overshoot it less.
    """
    num_matrices = 40 if full_scale() else 8
    model = TrafficVariabilityModel.default()
    factor = slack_factor(model, SLACK_PERCENTILE)
    rows = []
    for name in evaluation_topologies(quick_count=2):
        setup = setup_topology(name)
        mean_state = NetworkState.calibrated(
            setup.topology, setup.classes,
            dc_capacity_factor=DC_CAPACITY_FACTOR)
        slack_state = NetworkState.calibrated(
            setup.topology, with_slack(setup.classes, factor),
            dc_capacity_factor=DC_CAPACITY_FACTOR)
        rng = np.random.default_rng(SLACK_SEED)
        matrices = model.generate_matrices(setup.matrix, num_matrices,
                                           rng)
        worst = {"mean": 0.0, "slack": 0.0}
        for matrix in matrices:
            classes = classes_from_matrix(setup.topology, matrix,
                                          setup.routing)
            for label, state in (("mean", mean_state),
                                 ("slack", slack_state)):
                result = ReplicationProblem(
                    state.with_traffic(classes),
                    mirror_policy=MirrorPolicy.datacenter(),
                    max_link_load=MAX_LINK_LOAD).solve()
                worst[label] = max(worst[label], result.load_cost)
        rows.append(SlackRow(name, SLACK_PERCENTILE, worst["mean"],
                             worst["slack"]))
    return rows


def format_slack(rows: Sequence[SlackRow]) -> str:
    body = [[r.topology, f"p{r.percentile:.0f}",
             f"{r.worst_mean_provisioned:.3f}",
             f"{r.worst_slack_provisioned:.3f}",
             f"{r.improvement:.2f}x"] for r in rows]
    return format_table(
        ["Topology", "Slack", "Worst (mean prov.)",
         "Worst (slack prov.)", "improvement"],
        body, title="Ablation: percentile slack provisioning (Sec 9)")


@dataclass
class LinkCostRow:
    """Hard MaxLinkLoad bound vs soft piecewise link penalty."""

    topology: str
    hard_load: float
    hard_worst_link: float
    soft_load: float
    soft_worst_link: float


def run_link_cost_ablation() -> List[LinkCostRow]:
    """Section 4 extension: replace the hard link bound with the
    Fortz-Thorup penalty and compare load/link outcomes."""
    rows = []
    for name in evaluation_topologies(quick_count=2):
        setup = setup_topology(name,
                               dc_capacity_factor=DC_CAPACITY_FACTOR)
        hard = ReplicationProblem(
            setup.state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=MAX_LINK_LOAD).solve()
        soft = ReplicationProblem(
            setup.state, mirror_policy=MirrorPolicy.datacenter(),
            link_cost_weight=LINK_COST_WEIGHT).solve()
        rows.append(LinkCostRow(
            topology=name,
            hard_load=hard.load_cost,
            hard_worst_link=max(hard.link_loads.values()),
            soft_load=soft.load_cost,
            soft_worst_link=max(soft.link_loads.values())))
    return rows


def format_link_cost(rows: Sequence[LinkCostRow]) -> str:
    body = [[r.topology, f"{r.hard_load:.3f}",
             f"{r.hard_worst_link:.3f}", f"{r.soft_load:.3f}",
             f"{r.soft_worst_link:.3f}"] for r in rows]
    return format_table(
        ["Topology", "Hard: load", "Hard: worst link",
         "Soft: load", "Soft: worst link"],
        body,
        title="Ablation: hard MaxLinkLoad vs piecewise link cost")


@dataclass
class NIPSRow:
    """NIDS replication vs NIPS rerouting at several latency budgets."""

    topology: str
    nids_load: float
    nips_loads: Dict[float, float]  # latency budget -> load


def run_nips_ablation() -> List[NIPSRow]:
    """How much of replication's benefit survives when offloading must
    reroute (NIPS) under increasingly strict latency budgets."""
    rows = []
    for name in evaluation_topologies(quick_count=2):
        setup = setup_topology(name,
                               dc_capacity_factor=DC_CAPACITY_FACTOR)
        nids = ReplicationProblem(
            setup.state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=MAX_LINK_LOAD).solve()
        nips_loads = {}
        for budget in LATENCY_BUDGETS:
            result = NIPSProblem(
                setup.state, mirror_policy=MirrorPolicy.datacenter(),
                max_link_load=MAX_LINK_LOAD,
                max_latency_penalty=budget).solve()
            nips_loads[budget] = result.load_cost
        rows.append(NIPSRow(name, nids.load_cost, nips_loads))
    return rows


def format_nips(rows: Sequence[NIPSRow]) -> str:
    budgets = sorted(rows[0].nips_loads)
    headers = (["Topology", "NIDS (replicate)"] +
               [f"NIPS ≤{b:g} hops" for b in budgets])
    body = [[r.topology, f"{r.nids_load:.3f}"] +
            [f"{r.nips_loads[b]:.3f}" for b in budgets] for r in rows]
    return format_table(headers, body,
                        title="Ablation: NIPS rerouting vs NIDS "
                              "replication")


@dataclass
class FailureRow:
    """Impact of failing the node the most traffic transits."""

    topology: str
    failed_node: str
    load_before: float
    load_after: float
    lost_fraction: float
    rerouted_classes: int
    solve_seconds: float
    mirrors_after: str = "datacenter"  # "none" once the DC is cut off


def run_failure_ablation(topologies: Optional[Sequence[str]] = None
                         ) -> List[FailureRow]:
    """Fail each topology's busiest NIDS node and re-solve.

    Measures the operational story behind the min-max objective: how
    much headroom the replication architecture retains after losing
    its busiest node — the one most sessions transit, ties broken by
    name, so not whichever optimal vertex the LP returns — and how
    quickly the controller can recompute (with no mirror, if the loss
    cut the datacenter off).
    """
    from repro.core.failures import fail_node

    rows = []
    for name in topologies or evaluation_topologies(quick_count=2):
        state = setup_topology(
            name, dc_capacity_factor=DC_CAPACITY_FACTOR).state
        before = ReplicationProblem(
            state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=MAX_LINK_LOAD).solve()
        transit = {node: sum(cls.num_sessions for cls in state.classes
                             if node in cls.path[1:-1])
                   for node in state.nids_nodes
                   if node != state.dc_node}
        victim = min(transit, key=lambda node: (-transit[node], node))
        try:
            state, impact = fail_node(state, victim)
        except ValueError:
            # The busiest node is a cut vertex; skip rather than guess.
            continue
        mirrors = (MirrorPolicy.datacenter() if state.dc_node
                   else MirrorPolicy.none())
        after = ReplicationProblem(
            state, mirror_policy=mirrors,
            max_link_load=MAX_LINK_LOAD).solve()
        rows.append(FailureRow(
            topology=name, failed_node=victim,
            load_before=before.load_cost,
            load_after=after.load_cost,
            lost_fraction=impact.lost_fraction,
            rerouted_classes=len(impact.rerouted_classes),
            solve_seconds=after.stats.solve_seconds,
            mirrors_after=mirrors.describe()))
    return rows


def format_failures(rows: Sequence[FailureRow]) -> str:
    body = [[r.topology, r.failed_node, f"{r.load_before:.3f}",
             f"{r.load_after:.3f}", f"{r.lost_fraction:.1%}",
             r.rerouted_classes, r.mirrors_after,
             f"{r.solve_seconds:.3f}"]
            for r in rows]
    return format_table(
        ["Topology", "Failed", "Load before", "Load after",
         "Traffic lost", "Rerouted", "Mirrors after", "Re-solve (s)"],
        body, title="Ablation: busiest-node failure and recovery")


@dataclass
class CombinedRow:
    """Pure aggregation vs combined replication+aggregation."""

    topology: str
    pure_objective: float
    combined_objective: float
    pure_load: float
    combined_load: float

    @property
    def objective_gain(self) -> float:
        if self.combined_objective == 0:
            return float("inf")
        return self.pure_objective / self.combined_objective


def run_combined_ablation() -> List[CombinedRow]:
    """The Section 9 future-work formulation vs plain Figure 9."""
    rows = []
    for name in evaluation_topologies(quick_count=2):
        setup = setup_topology(name,
                               dc_capacity_factor=DC_CAPACITY_FACTOR)
        beta = AggregationProblem(setup.state).suggested_beta()
        pure = AggregationProblem(setup.state, beta=beta).solve()
        combined = CombinedProblem(setup.state, beta=beta,
                                   max_link_load=MAX_LINK_LOAD).solve()
        rows.append(CombinedRow(
            topology=name,
            pure_objective=pure.objective,
            combined_objective=combined.objective,
            pure_load=pure.load_cost,
            combined_load=combined.load_cost))
    return rows


def format_combined(rows: Sequence[CombinedRow]) -> str:
    body = [[r.topology, f"{r.pure_objective:.4f}",
             f"{r.combined_objective:.4f}",
             f"{r.pure_load:.3f}", f"{r.combined_load:.3f}",
             f"{r.objective_gain:.2f}x"] for r in rows]
    return format_table(
        ["Topology", "Pure objective", "Combined objective",
         "Pure load", "Combined load", "gain"],
        body,
        title="Ablation: combined replication+aggregation (Sec 9)")
