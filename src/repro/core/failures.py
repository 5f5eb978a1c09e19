"""NIDS node failure handling.

Surveys cited by the paper name overload as a leading cause of NIDS
appliance failure; the min-max objective is chosen for that headroom.
This module supplies the operational counterpart: when a node (or the
datacenter) dies, rebuild the network state — reroute the classes that
transited it, drop the classes it terminated, keep the surviving
provisioning — so the controller can re-solve and push fresh configs
(via :class:`~repro.runtime.rollout.RolloutDriver`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core.inputs import NetworkState, link_background_bytes
from repro.topology.routing import RoutingTable
from repro.traffic.classes import TrafficClass


@dataclass
class FailureImpact:
    """What a node failure did to the traffic."""

    failed_node: str
    rerouted_classes: List[str]
    dropped_classes: List[str]
    surviving_sessions: float
    lost_sessions: float
    #: the datacenter the failure cut off from every other node, and
    #: so dropped with it (a mirror nothing can reach is no mirror)
    dropped_datacenter: Optional[str] = None

    @property
    def lost_fraction(self) -> float:
        total = self.surviving_sessions + self.lost_sessions
        return self.lost_sessions / total if total else 0.0


def fail_node(state: NetworkState, failed_node: str
              ) -> "tuple[NetworkState, FailureImpact]":
    """Remove a NIDS node and rebuild a solvable state.

    Classes terminating at the failed PoP are dropped (their traffic
    has nowhere to go); classes merely transiting it are rerouted over
    the surviving topology. Asymmetric reverse paths through the failed
    node are likewise recomputed (symmetrically, since the synthetic
    reverse route is gone with its nodes). A datacenter the failure
    cuts off is dropped too (``dc_node=None``), and the impact names
    it.

    Returns:
        ``(new_state, impact)``. Raises ``ValueError`` if removing the
        node disconnects a class with no alternative route.
    """
    if failed_node not in state.topology.nodes:
        raise ValueError(f"node {failed_node!r} not in topology")

    topology = state.topology.subgraph_without(failed_node)
    dc_node = state.dc_node if state.dc_node != failed_node else None
    cut_off = None
    if dc_node is not None and len(
            topology.shortest_paths_from(dc_node)) < topology.num_nodes:
        topology = topology.subgraph_without(dc_node)
        cut_off, dc_node = dc_node, None
    gone = {failed_node, cut_off}
    routing = RoutingTable(topology)

    rerouted: List[str] = []
    dropped: List[str] = []
    survivors: List[TrafficClass] = []
    lost_sessions = 0.0
    for cls in state.classes:
        if failed_node in (cls.source, cls.target):
            dropped.append(cls.name)
            lost_sessions += cls.num_sessions
            continue
        touched = (failed_node in cls.path or
                   (cls.rev_path is not None and
                    failed_node in cls.rev_path))
        if not touched:
            survivors.append(cls)
            continue
        try:
            new_path = routing.path(cls.source, cls.target)
        except KeyError:
            raise ValueError(
                f"class {cls.name!r} is disconnected by the failure "
                f"of {failed_node!r}") from None
        survivors.append(replace(cls, path=new_path, rev_path=None))
        rerouted.append(cls.name)

    node_capacity = {
        resource: {node: cap for node, cap in caps.items()
                   if node not in gone}
        for resource, caps in state.node_capacity.items()
    }
    link_capacity = {link: cap for link, cap in
                     state.link_capacity.items()
                     if gone.isdisjoint(link)}

    new_state = NetworkState(
        topology, routing, survivors, node_capacity, link_capacity,
        link_background_bytes(survivors), dc_node=dc_node)
    impact = FailureImpact(
        failed_node=failed_node,
        rerouted_classes=sorted(rerouted),
        dropped_classes=sorted(dropped),
        surviving_sessions=sum(c.num_sessions for c in survivors),
        lost_sessions=lost_sessions,
        dropped_datacenter=cut_off)
    return new_state, impact


def fail_link(state: NetworkState, endpoint_a: str, endpoint_b: str
              ) -> "tuple[NetworkState, FailureImpact]":
    """Remove one link and reroute the classes that used it.

    Unlike a node failure no traffic is dropped unless the link was a
    bridge whose loss disconnects some pair, in which case a
    ``ValueError`` is raised.
    """
    from repro.topology.topology import Topology, canonical_link

    link = canonical_link(endpoint_a, endpoint_b)
    if link not in state.topology.links:
        raise ValueError(f"link {link} not in topology")
    topology = Topology(
        f"{state.topology.name}-{link[0]}={link[1]}",
        state.topology.nodes,
        [l for l in state.topology.links if l != link],
        state.topology.populations)
    routing = RoutingTable(topology)

    rerouted: List[str] = []
    survivors: List[TrafficClass] = []
    for cls in state.classes:
        used = (link in Topology.path_links(cls.path) or
                (cls.rev_path is not None and
                 link in Topology.path_links(cls.rev_path)))
        if not used:
            survivors.append(cls)
            continue
        try:
            new_path = routing.path(cls.source, cls.target)
        except KeyError:
            raise ValueError(
                f"class {cls.name!r} is disconnected by losing "
                f"link {link}") from None
        survivors.append(replace(cls, path=new_path, rev_path=None))
        rerouted.append(cls.name)

    link_capacity = {l: cap for l, cap in state.link_capacity.items()
                     if l != link}
    new_state = NetworkState(
        topology, routing, survivors, state.node_capacity,
        link_capacity, link_background_bytes(survivors),
        dc_node=state.dc_node)
    impact = FailureImpact(
        failed_node=f"{link[0]}-{link[1]}",
        rerouted_classes=sorted(rerouted),
        dropped_classes=[],
        surviving_sessions=sum(c.num_sessions for c in survivors),
        lost_sessions=0.0)
    return new_state, impact


def cascade_risk(state: NetworkState,
                 candidate_nodes: Sequence[str] = ()) -> List[str]:
    """Nodes whose failure would disconnect some surviving class.

    Useful for pre-computing which single failures the current routing
    cannot absorb (candidates default to every non-DC node).
    """
    risky = []
    candidates = list(candidate_nodes) or [
        n for n in state.topology.nodes if n != state.dc_node]
    for node in candidates:
        try:
            fail_node(state, node)
        except ValueError:
            risky.append(node)
    return risky
