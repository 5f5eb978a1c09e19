"""NIDS deployment architectures compared throughout the evaluation.

The paper's figures compare fixed named configurations:

- ``INGRESS`` — today's single-vantage-point deployment (Figure 1):
  every class fully processed at its ingress gateway; max load is 1.0
  by construction under the Section 8.2 calibration.
- ``PATH_NO_REPLICATE`` — strict on-path distribution [29] (Figure 2).
- ``PATH_REPLICATE`` — on-path + replication to a datacenter cluster
  (Section 4); called "DC Only" in Figure 15.
- ``PATH_AUGMENTED`` — no datacenter, but the datacenter's aggregate
  capacity spread evenly across all NIDS nodes (Figure 13's fairness
  baseline).
- ``ONE_HOP`` / ``TWO_HOP`` — local replication to 1- or 2-hop
  neighbors, no datacenter (Figure 14).
- ``DC_PLUS_ONE_HOP`` — datacenter plus 1-hop neighbors (Figure 15).
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.inputs import NetworkState
from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.core.results import (FractionLayout, FractionTable, LPStats,
                                ReplicationResult)
from repro.topology.topology import Topology
from repro.traffic.classes import TrafficClass


class ArchitectureKind(enum.Enum):
    """Named NIDS deployment architectures from the paper's figures."""

    INGRESS = "ingress"
    PATH_NO_REPLICATE = "path-no-replicate"
    PATH_REPLICATE = "path-replicate"
    PATH_AUGMENTED = "path-augmented"
    ONE_HOP = "one-hop"
    TWO_HOP = "two-hop"
    DC_PLUS_ONE_HOP = "dc+one-hop"


_NEEDS_DC = {ArchitectureKind.PATH_REPLICATE,
             ArchitectureKind.DC_PLUS_ONE_HOP}


def ingress_result(state: NetworkState) -> ReplicationResult:
    """Evaluate the Ingress-only deployment (no LP needed).

    Every class is processed entirely at its ingress gateway, so the
    loads are fixed by the traffic and the result is exact.
    """
    node_loads = {resource: state.ingress_load(resource)
                  for resource in state.resources}
    code: Dict[str, int] = {}
    at = [code.setdefault(cls.ingress, len(code)) for cls in state.classes]
    load_cost = max(max(loads.values(), default=0.0)
                    for loads in node_loads.values())
    return ReplicationResult.from_table(
        FractionTable(FractionLayout(
            [cls.name for cls in state.classes], tuple(code),
            range(len(at)), at, [-1] * len(at)), np.ones(len(at))),
        load_cost=load_cost,
        node_loads=node_loads,
        link_loads={link: state.bg_load(link)
                    for link in state.topology.links},
        max_link_load=1.0,
        dc_node=state.dc_node,
        stats=LPStats(num_variables=0, num_constraints=0,
                      solve_seconds=0.0, iterations=0))


class ArchitectureEvaluator:
    """Evaluates the named architectures on a common calibration.

    Capacities are provisioned once from the *mean* traffic (matching
    the paper), so time-varying traffic (Figure 15) can be evaluated
    against fixed provisioning via the ``classes`` argument of
    :meth:`evaluate`.

    Args:
        topology: base network, no datacenter.
        classes: mean-traffic classes used for calibration.
        resources: resources to provision.
        dc_capacity_factor: datacenter capacity alpha (also the total
            extra capacity spread by ``PATH_AUGMENTED``).
        max_link_load: ``MaxLinkLoad`` for replication-enabled runs.
        dc_anchor: datacenter attachment PoP; defaults to the paper's
            most-observed-traffic placement.
    """

    def __init__(self, topology: Topology,
                 classes: Sequence[TrafficClass],
                 resources: Sequence[str] = ("cpu",),
                 dc_capacity_factor: float = 10.0,
                 max_link_load: float = 0.4,
                 dc_anchor: Optional[str] = None) -> None:
        self.topology = topology
        self.max_link_load = max_link_load
        self.dc_capacity_factor = dc_capacity_factor
        self.base_state = NetworkState.calibrated(
            topology, classes, resources=resources)
        self.dc_state = NetworkState.calibrated(
            topology, classes, resources=resources,
            dc_capacity_factor=dc_capacity_factor, dc_anchor=dc_anchor)
        self.augmented_state = self.base_state.with_augmented_capacity(
            dc_capacity_factor)
        # One cached formulation per architecture: the Figure 15 sweep
        # re-evaluates each architecture across ~100 traffic matrices,
        # and only the volumes change between them.
        self._problems: Dict[ArchitectureKind, ReplicationProblem] = {}

    def state_for(self, kind: ArchitectureKind) -> NetworkState:
        """The calibrated state an architecture is evaluated on."""
        if kind in _NEEDS_DC:
            return self.dc_state
        if kind is ArchitectureKind.PATH_AUGMENTED:
            return self.augmented_state
        return self.base_state

    def _mirror_policy(self, kind: ArchitectureKind) -> MirrorPolicy:
        if kind is ArchitectureKind.PATH_REPLICATE:
            return MirrorPolicy.datacenter()
        if kind is ArchitectureKind.DC_PLUS_ONE_HOP:
            return MirrorPolicy.datacenter_plus_neighbors(hops=1)
        if kind is ArchitectureKind.ONE_HOP:
            return MirrorPolicy.neighbors(hops=1)
        if kind is ArchitectureKind.TWO_HOP:
            return MirrorPolicy.neighbors(hops=2)
        return MirrorPolicy.none()

    def evaluate(self, kind: ArchitectureKind,
                 classes: Optional[Sequence[TrafficClass]] = None
                 ) -> ReplicationResult:
        """Evaluate one architecture, optionally on substitute traffic.

        Args:
            kind: which architecture.
            classes: alternate traffic (e.g., one time-varying matrix);
                provisioning stays calibrated to the mean traffic.
        """
        state = self.state_for(kind)
        if kind is ArchitectureKind.INGRESS:
            if classes is not None:
                state = state.with_traffic(classes)
            return ingress_result(state)
        problem = self._problems.get(kind)
        if problem is None:
            problem = ReplicationProblem(
                state, mirror_policy=self._mirror_policy(kind),
                max_link_load=self.max_link_load)
            self._problems[kind] = problem
        # Resolve to the requested traffic (back to the calibration
        # mean when classes is None) instead of rebuilding the LP.
        target = classes if classes is not None else state.classes
        return problem.resolve_traffic(target)


def evaluate_architecture(kind: ArchitectureKind, topology: Topology,
                          classes: Sequence[TrafficClass],
                          dc_capacity_factor: float = 10.0,
                          max_link_load: float = 0.4,
                          **evaluator_kwargs) -> ReplicationResult:
    """One-shot convenience wrapper around :class:`ArchitectureEvaluator`."""
    evaluator = ArchitectureEvaluator(
        topology, classes, dc_capacity_factor=dc_capacity_factor,
        max_link_load=max_link_load, **evaluator_kwargs)
    return evaluator.evaluate(kind)
