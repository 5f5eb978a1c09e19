"""Deterministic region partitioning for the sharded control plane.

The sharded controller (ROADMAP item 4) decomposes the global
replication LP into per-region subproblems. This module produces the
regions: contiguous groups of PoPs grown by a balanced multi-source
BFS so that each region absorbs a comparable share of the
traffic-weighted node mass, plus an assignment of every traffic class
to the region that owns the majority of its path's hops.

Everything is deterministic for a given ``(topology, classes,
num_regions, seed)`` tuple — region membership feeds scenario
fingerprints and pinned acceptance tests, so ties are broken
lexicographically and the only effect of ``seed`` is rotating which
high-traffic PoP anchors the first region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.topology.topology import Topology
from repro.traffic.classes import TrafficClass


@dataclass(frozen=True)
class Region:
    """One shard of the control plane.

    Attributes:
        name: stable identifier (``region-0`` ... ``region-k``).
        nodes: the PoPs this region's controller owns.
        class_names: traffic classes planned by this region.
        traffic: total ``num_sessions`` over the region's classes.
    """

    name: str
    nodes: Tuple[str, ...]
    class_names: Tuple[str, ...]
    traffic: float

    @property
    def node_set(self) -> Set[str]:
        return set(self.nodes)


@dataclass(frozen=True)
class RegionPartition:
    """A complete, non-overlapping split of a topology into regions.

    Attributes:
        regions: the shards, ordered by name.
        node_region: node name -> owning region name. The datacenter
            node (off-path, shared by construction) belongs to no
            region and is absent here.
        class_region: class name -> owning region name.
        adjacency: region name -> neighboring region names (regions
            joined by at least one topology link), used to pick the
            adopter during controller failover.
        seed: the seed the partition was grown with.
    """

    regions: Tuple[Region, ...]
    node_region: Dict[str, str]
    class_region: Dict[str, str]
    adjacency: Dict[str, Tuple[str, ...]]
    seed: int

    def region(self, name: str) -> Region:
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(f"no region named {name!r}")

    def region_names(self) -> List[str]:
        return [region.name for region in self.regions]

    def region_of_class(self, class_name: str) -> str:
        return self.class_region[class_name]

    def adopter_for(self, dead_region: str) -> str:
        """The neighbor that should adopt a failed region's shard.

        Deterministic choice: the lightest-traffic adjacent region
        (ties broken by name) — adopting a shard adds its whole load,
        so the least-loaded neighbor keeps the shards balanced. Falls
        back to the lightest surviving region when the partition has
        no recorded adjacency (single-region or disconnected cases).
        """
        self.region(dead_region)  # raises KeyError for unknown names
        candidates = [name for name in self.adjacency.get(
            dead_region, ()) if name != dead_region]
        if not candidates:
            candidates = [region.name for region in self.regions
                          if region.name != dead_region]
        if not candidates:
            raise ValueError(
                f"region {dead_region!r} has no possible adopter")
        return min(candidates,
                   key=lambda name: (self.region(name).traffic, name))

    def merge(self, dead_region: str, into_region: str
              ) -> "RegionPartition":
        """Fold a failed region's nodes and classes into a neighbor.

        Returns a new partition where ``into_region`` owns both
        shards; all other regions are untouched. Region names are
        preserved so metrics and scenario timelines stay comparable
        across the failover.
        """
        dead = self.region(dead_region)
        into = self.region(into_region)
        if dead_region == into_region:
            raise ValueError("cannot merge a region into itself")
        merged = Region(
            name=into.name,
            nodes=tuple(sorted(dead.nodes + into.nodes)),
            class_names=tuple(sorted(dead.class_names +
                                     into.class_names)),
            traffic=dead.traffic + into.traffic)
        regions = tuple(merged if region.name == into.name else region
                        for region in self.regions
                        if region.name != dead.name)
        node_region = {node: (into.name if owner == dead.name
                              else owner)
                       for node, owner in self.node_region.items()}
        class_region = {name: (into.name if owner == dead.name
                               else owner)
                        for name, owner in self.class_region.items()}
        adjacency: Dict[str, Tuple[str, ...]] = {}
        for name, neighbors in self.adjacency.items():
            if name == dead.name:
                continue
            mapped = {into.name if n == dead.name else n
                      for n in neighbors}
            mapped.discard(name)
            adjacency[name] = tuple(sorted(mapped))
        if into.name in adjacency or dead.name in self.adjacency:
            extra = {into.name if n == dead.name else n
                     for n in self.adjacency.get(dead.name, ())}
            extra.update(adjacency.get(into.name, ()))
            extra.discard(into.name)
            adjacency[into.name] = tuple(sorted(extra))
        return RegionPartition(regions=regions,
                               node_region=node_region,
                               class_region=class_region,
                               adjacency=adjacency, seed=self.seed)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-region sizes for reports and metrics."""
        return {region.name: {"nodes": len(region.nodes),
                              "classes": len(region.class_names),
                              "traffic": region.traffic}
                for region in self.regions}


def _node_weights(candidates: Sequence[str],
                  classes: Sequence[TrafficClass]) -> Dict[str, float]:
    """Traffic-weighted node mass: each node counts the sessions of
    every class whose path crosses it."""
    weight = {node: 0.0 for node in candidates}
    for cls in classes:
        for node in cls.path:
            if node in weight:
                weight[node] += cls.num_sessions
    return weight


def _pick_seeds(topology: Topology, candidates: Sequence[str],
                weight: Dict[str, float], num_regions: int,
                seed: int) -> List[str]:
    """Region anchors: a seeded high-traffic start, then farthest-
    point sampling so regions begin well separated."""
    ranked = sorted(candidates, key=lambda n: (-weight[n], n))
    anchors = [ranked[seed % len(ranked)]]
    while len(anchors) < num_regions:
        def separation(node: str) -> int:
            return min(topology.hop_distance(node, anchor)
                       for anchor in anchors)
        remaining = [n for n in candidates if n not in anchors]
        anchors.append(min(
            remaining,
            key=lambda n: (-separation(n), -weight[n], n)))
    return anchors


def _grow_regions(topology: Topology, candidates: Sequence[str],
                  weight: Dict[str, float], anchors: Sequence[str]
                  ) -> List[Set[str]]:
    """Balanced multi-source BFS: the lightest region with a
    non-empty frontier absorbs its heaviest frontier node."""
    members: List[Set[str]] = [{anchor} for anchor in anchors]
    grown = [weight[anchor] for anchor in anchors]
    unassigned = set(candidates) - set(anchors)
    while unassigned:
        progressed = False
        for idx in sorted(range(len(anchors)),
                          key=lambda i: (grown[i], i)):
            frontier = [n for n in unassigned
                        if any(nb in members[idx]
                               for nb in topology.neighbors(n))]
            if not frontier:
                continue
            node = min(frontier, key=lambda n: (-weight[n], n))
            members[idx].add(node)
            grown[idx] += weight[node]
            unassigned.discard(node)
            progressed = True
            break
        if not progressed:
            # Disconnected leftovers (cannot happen on the built-in
            # topologies, which are connected): balance them onto the
            # lightest regions so the partition is always total.
            for node in sorted(unassigned,
                               key=lambda n: (-weight[n], n)):
                idx = min(range(len(anchors)),
                          key=lambda i: (grown[i], i))
                members[idx].add(node)
                grown[idx] += weight[node]
            unassigned.clear()
    return members


def _assign_classes(classes: Sequence[TrafficClass],
                    node_region: Dict[str, str],
                    region_names: Sequence[str]
                    ) -> Dict[str, str]:
    """Each class goes to the region owning the majority of its path
    hops; ties prefer the ingress node's region, then name order."""
    order = {name: i for i, name in enumerate(region_names)}
    assignment: Dict[str, str] = {}
    for cls in classes:
        hops: Dict[str, int] = {}
        for node in cls.path:
            owner = node_region.get(node)
            if owner is not None:
                hops[owner] = hops.get(owner, 0) + 1
        if not hops:
            raise ValueError(
                f"class {cls.name!r} touches no partitioned node")
        best = max(hops.values())
        tied = sorted((name for name, count in hops.items()
                       if count == best), key=lambda n: order[n])
        ingress_owner = node_region.get(cls.ingress)
        assignment[cls.name] = (ingress_owner
                                if ingress_owner in tied else tied[0])
    return assignment


def partition_topology(topology: Topology,
                       classes: Sequence[TrafficClass],
                       num_regions: int, seed: int = 0,
                       dc_node: Optional[str] = None
                       ) -> RegionPartition:
    """Split a topology into ``num_regions`` contiguous shards.

    Args:
        topology: the PoP graph (may include an off-path datacenter).
        classes: the traffic matrix used for balancing and class
            ownership.
        num_regions: how many shards to grow (>= 1 and at most the
            number of non-datacenter nodes).
        seed: rotates which high-traffic PoP anchors the first region;
            every other decision is deterministic.
        dc_node: the shared datacenter node, excluded from every
            region (its capacity is reconciled by the coordinator, not
            owned by any one shard).

    Returns:
        A :class:`RegionPartition` covering every non-datacenter node
        and every class.
    """
    candidates = [n for n in topology.nodes if n != dc_node]
    if num_regions < 1:
        raise ValueError("num_regions must be >= 1")
    if num_regions > len(candidates):
        raise ValueError(
            f"cannot grow {num_regions} regions from "
            f"{len(candidates)} nodes")
    if seed < 0:
        raise ValueError("seed must be non-negative")

    weight = _node_weights(candidates, classes)
    anchors = _pick_seeds(topology, candidates, weight, num_regions,
                          seed)
    members = _grow_regions(topology, candidates, weight, anchors)

    region_names = [f"region-{i}" for i in range(num_regions)]
    node_region = {node: region_names[i]
                   for i, nodes in enumerate(members)
                   for node in nodes}
    class_region = _assign_classes(classes, node_region, region_names)

    traffic: Dict[str, float] = {name: 0.0 for name in region_names}
    class_names: Dict[str, List[str]] = {
        name: [] for name in region_names}
    for cls in classes:
        owner = class_region[cls.name]
        traffic[owner] += cls.num_sessions
        class_names[owner].append(cls.name)

    regions = tuple(
        Region(name=name,
               nodes=tuple(sorted(members[i])),
               class_names=tuple(sorted(class_names[name])),
               traffic=traffic[name])
        for i, name in enumerate(region_names))

    adjacency: Dict[str, Set[str]] = {name: set()
                                      for name in region_names}
    for u, v in topology.links:
        ru, rv = node_region.get(u), node_region.get(v)
        if ru is None or rv is None or ru == rv:
            continue
        adjacency[ru].add(rv)
        adjacency[rv].add(ru)

    return RegionPartition(
        regions=regions,
        node_region=node_region,
        class_region=class_region,
        adjacency={name: tuple(sorted(neighbors))
                   for name, neighbors in adjacency.items()},
        seed=seed)


__all__ = ["Region", "RegionPartition", "partition_topology"]
