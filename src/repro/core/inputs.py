"""Problem inputs: the network-wide state the controller optimizes over.

:class:`NetworkState` bundles everything Figure 6's management module
collects — topology, routing, traffic classes, per-node resource
capacities ``Cap_j^r``, link capacities and background link loads
``BG_l`` — plus the Section 8.2 calibration used throughout the
evaluation:

- every link's capacity is 3x the byte volume of the most congested
  link, so ``max_l BG_l == 1/3`` (the paper's ~0.3 typical utilization);
- every NIDS node's capacity equals the maximum per-node requirement of
  an Ingress-only deployment, so Ingress-only has max compute load 1.0
  by construction;
- an optional datacenter node with ``alpha`` times that capacity.
"""

from __future__ import annotations

import copy
from dataclasses import fields
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.topology.routing import RoutingTable
from repro.topology.topology import Link, Topology, canonical_link
from repro.traffic.classes import TrafficClass

DC_NODE_NAME = "DC"


def ingress_requirements(classes: Sequence[TrafficClass],
                         resources: Sequence[str]
                         ) -> Dict[str, Dict[str, float]]:
    """Per-node resource demand of today's Ingress-only deployment.

    Every class is fully processed at its ingress gateway (Figure 1),
    so node ``j`` needs ``sum_{c: ingress(c)=j} F_c^r |T_c|`` of each
    resource ``r``.
    """
    demand: Dict[str, Dict[str, float]] = {r: {} for r in resources}
    for cls in classes:
        for resource in resources:
            per_node = demand[resource]
            per_node[cls.ingress] = (per_node.get(cls.ingress, 0.0) +
                                     cls.footprint(resource) *
                                     cls.num_sessions)
    return demand


#: what a volume change leaves alone: every class field but the
#: session count
_STRUCTURAL_FIELDS = tuple(f.name for f in fields(TrafficClass)
                           if f.name != "num_sessions")
_structure = attrgetter(*_STRUCTURAL_FIELDS)


def same_structure(classes: Sequence[TrafficClass],
                   current: Sequence[TrafficClass]) -> bool:
    """True when ``classes`` matches ``current`` in everything except
    session counts (same order, names, paths, byte sizes,
    footprints)."""
    if len(classes) != len(current):
        return False
    # Tuples compare element by element, identity first: a copy that
    # shares its fields (``with_sessions``) costs no field ``==``.
    return all(new is old or (type(new) is type(old) and
                              _structure(new) == _structure(old))
               for new, old in zip(classes, current))


class LinkIncidence:
    """Which links each class's sessions cross, as index arrays.

    One ``(link, class, share)`` triple per link of every class's path
    — symmetric classes place their full session bytes on every link,
    asymmetric ones half on the forward and half on the reverse path —
    in walk order, so re-weighting by new volumes is one ``bincount``
    that accumulates each link's bytes in the order a walk over the
    classes would. It depends on the paths alone; states that differ
    only in session counts share one.
    """

    def __init__(self, classes: Sequence[TrafficClass]) -> None:
        ordinal: Dict[Link, int] = {}
        link: List[int] = []
        owner: List[int] = []
        share: List[float] = []
        for index, cls in enumerate(classes):
            parts = (((cls.path, 1.0),) if cls.is_symmetric else
                     ((cls.path, 0.5), (cls.rev_nodes, 0.5)))
            for path, part in parts:
                for hop in Topology.path_links(path):
                    link.append(ordinal.setdefault(hop, len(ordinal)))
                    owner.append(index)
                    share.append(part)
        self.links = list(ordinal)
        self._link = np.array(link, dtype=np.int64)
        self._class = np.array(owner, dtype=np.int64)
        self._share = np.array(share, dtype=np.float64)

    def background_bytes(self, classes: Sequence[TrafficClass]
                         ) -> Dict[Link, float]:
        """Bytes per link for ``classes`` (same paths, any volumes)."""
        total = np.array([cls.total_bytes for cls in classes],
                         dtype=np.float64)
        return dict(zip(self.links, np.bincount(
            self._link, weights=self._share * total[self._class],
            minlength=len(self.links)).tolist()))


def link_background_bytes(classes: Sequence[TrafficClass]
                          ) -> Dict[Link, float]:
    """Bytes each link carries before any replication.

    Symmetric classes place their full session bytes on every link of
    their path; asymmetric classes split half to the forward path and
    half to the reverse path.
    """
    return LinkIncidence(classes).background_bytes(classes)


class NetworkState:
    """Everything the optimization formulations need, in one object.

    Prefer the :meth:`calibrated` constructor, which applies the
    paper's Section 8.2 conventions. The raw constructor is available
    for tests and custom scenarios.

    Args:
        topology: the network (including any datacenter node).
        routing: symmetric routes over ``topology``.
        classes: traffic classes with resolved paths.
        node_capacity: ``Cap_j^r`` as ``{resource: {node: capacity}}``.
        link_capacity: ``LinkCap_l`` in bytes per epoch.
        bg_bytes: pre-replication bytes per link.
        dc_node: name of the datacenter node, if any.
    """

    def __init__(self, topology: Topology, routing: RoutingTable,
                 classes: Sequence[TrafficClass],
                 node_capacity: Dict[str, Dict[str, float]],
                 link_capacity: Dict[Link, float],
                 bg_bytes: Dict[Link, float],
                 dc_node: Optional[str] = None) -> None:
        self.topology = topology
        self.routing = routing
        self.classes: List[TrafficClass] = list(classes)
        self.node_capacity = {r: dict(caps)
                              for r, caps in node_capacity.items()}
        self.link_capacity = dict(link_capacity)
        self.bg_bytes = dict(bg_bytes)
        self.dc_node = dc_node
        self._incidence: Optional[LinkIncidence] = None
        self._validate()

    def _validate(self) -> None:
        nodes = set(self.topology.nodes)
        for cls in self.classes:
            unknown = set(cls.path) - nodes
            if cls.rev_path is not None:
                unknown |= set(cls.rev_path) - nodes
            if unknown:
                raise ValueError(
                    f"class {cls.name!r} references unknown nodes "
                    f"{sorted(unknown)}")
        for resource, caps in self.node_capacity.items():
            missing = nodes - set(caps)
            if missing:
                raise ValueError(
                    f"resource {resource!r} missing capacities for "
                    f"{sorted(missing)}")
            for node, cap in caps.items():
                if cap <= 0:
                    raise ValueError(
                        f"non-positive capacity for {node!r}/{resource!r}")
        for link in self.topology.links:
            if self.link_capacity.get(link, 0.0) <= 0:
                raise ValueError(f"link {link} has no capacity")
        if self.dc_node is not None and self.dc_node not in nodes:
            raise ValueError(f"datacenter {self.dc_node!r} not in topology")

    # -- calibrated construction -----------------------------------------

    @classmethod
    def calibrated(cls, topology: Topology,
                   classes: Sequence[TrafficClass],
                   resources: Sequence[str] = ("cpu",),
                   dc_capacity_factor: Optional[float] = None,
                   dc_anchor: Optional[str] = None,
                   link_headroom: float = 3.0) -> "NetworkState":
        """Build state with the paper's Section 8.2 calibration.

        Args:
            topology: base topology *without* a datacenter node.
            classes: traffic classes routed over ``topology``.
            resources: resource names to provision.
            dc_capacity_factor: when set, attach a datacenter node with
                this multiple (alpha) of the per-node capacity.
            dc_anchor: PoP the datacenter attaches to. Defaults to the
                paper's best strategy — the PoP observing the most
                traffic (including transit).
            link_headroom: link capacity as a multiple of the busiest
                link's background bytes (3.0 gives max BG = 1/3).
        """
        if link_headroom <= 1.0:
            raise ValueError("link_headroom must exceed 1.0")

        demand = ingress_requirements(classes, resources)
        base_capacity = {
            resource: max(per_node.values()) if per_node else 1.0
            for resource, per_node in demand.items()
        }

        dc_node = None
        if dc_capacity_factor is not None:
            if dc_capacity_factor <= 0:
                raise ValueError("dc_capacity_factor must be positive")
            if dc_anchor is None:
                from repro.core.placement import place_datacenter

                dc_anchor = place_datacenter(topology, classes,
                                             strategy="observed")
            topology = topology.with_datacenter(dc_anchor, DC_NODE_NAME)
            dc_node = DC_NODE_NAME
        routing = RoutingTable(topology)

        node_capacity: Dict[str, Dict[str, float]] = {}
        for resource in resources:
            caps = {node: base_capacity[resource]
                    for node in topology.nodes}
            if dc_node is not None:
                caps[dc_node] = (base_capacity[resource] *
                                 dc_capacity_factor)
            node_capacity[resource] = caps

        bg = link_background_bytes(classes)
        busiest = max(bg.values()) if bg else 1.0
        link_capacity = {link: link_headroom * busiest
                         for link in topology.links}
        return cls(topology, routing, classes, node_capacity,
                   link_capacity, bg, dc_node=dc_node)

    # -- accessors ---------------------------------------------------------

    @property
    def resources(self) -> List[str]:
        """Resource names with provisioned capacities."""
        return sorted(self.node_capacity)

    @property
    def nids_nodes(self) -> List[str]:
        """All NIDS nodes (PoPs plus any datacenter)."""
        return self.topology.nodes

    def capacity(self, resource: str, node: str) -> float:
        """``Cap_j^r``."""
        return self.node_capacity[resource][node]

    def bg_load(self, link: Link) -> float:
        """``BG_l`` — normalized pre-replication load on a link."""
        link = canonical_link(*link)
        return self.bg_bytes.get(link, 0.0) / self.link_capacity[link]

    def max_bg_load(self) -> float:
        """``max_l BG_l`` (1/3 under default calibration)."""
        return max((self.bg_load(link) for link in self.topology.links),
                   default=0.0)

    def ingress_load(self, resource: str = "cpu") -> Dict[str, float]:
        """Normalized per-node load of the Ingress-only deployment."""
        demand = ingress_requirements(self.classes, [resource])[resource]
        return {node: demand.get(node, 0.0) / self.capacity(resource, node)
                for node in self.nids_nodes}

    # -- derived states ------------------------------------------------------

    def with_traffic(self, classes: Sequence[TrafficClass]
                     ) -> "NetworkState":
        """Same provisioning, different traffic.

        Used for the variability study (Figure 15): capacities were
        provisioned for the mean matrix and stay fixed; background link
        bytes are recomputed for the new traffic. When only session
        counts changed the paths are not walked again
        (:meth:`with_volumes`).
        """
        classes = list(classes)
        if same_structure(classes, self.classes):
            return self.with_volumes(classes)
        return NetworkState(
            self.topology, self.routing, classes,
            self.node_capacity, self.link_capacity,
            link_background_bytes(classes), dc_node=self.dc_node)

    def with_volumes(self, classes: Sequence[TrafficClass]
                     ) -> "NetworkState":
        """:meth:`with_traffic` for classes the caller knows differ
        from the current ones in ``num_sessions`` alone: nothing a
        volume cannot invalidate is checked or copied again, and the
        background bytes re-weight the cached :class:`LinkIncidence`
        (the bits a walk over the paths would give)."""
        if self._incidence is None:
            self._incidence = LinkIncidence(self.classes)
        state = copy.copy(self)
        state.classes = list(classes)
        state.bg_bytes = self._incidence.background_bytes(classes)
        return state

    def with_augmented_capacity(self, extra_factor: float,
                                resources: Optional[Iterable[str]] = None
                                ) -> "NetworkState":
        """The "Path, Augmented" provisioning (Figure 13).

        Spreads ``extra_factor`` times the baseline per-node capacity
        evenly across all non-datacenter NIDS nodes (each gets an extra
        ``extra_factor / |N|`` share).
        """
        if extra_factor < 0:
            raise ValueError("extra_factor must be non-negative")
        targets = [n for n in self.nids_nodes if n != self.dc_node]
        node_capacity = {}
        for resource, caps in self.node_capacity.items():
            if resources is not None and resource not in resources:
                node_capacity[resource] = dict(caps)
                continue
            baseline = max(caps[n] for n in targets)
            extra = extra_factor * baseline / len(targets)
            node_capacity[resource] = {
                node: cap + (extra if node in targets else 0.0)
                for node, cap in caps.items()
            }
        return NetworkState(
            self.topology, self.routing, self.classes, node_capacity,
            self.link_capacity, self.bg_bytes, dc_node=self.dc_node)

    def class_by_name(self, name: str) -> TrafficClass:
        """Look up a class by its unique name."""
        for cls in self.classes:
            if cls.name == name:
                return cls
        raise KeyError(f"no class named {name!r}")

    def __repr__(self) -> str:
        return (f"NetworkState({self.topology.name!r}, "
                f"classes={len(self.classes)}, "
                f"resources={self.resources}, dc={self.dc_node!r})")
