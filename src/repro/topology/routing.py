"""Shortest-path routing tables.

The paper assumes hop-count shortest-path routing with, by default, a
unique *symmetric* path per ingress-egress pair (Section 3, input 1).
Symmetry is guaranteed by computing each unordered pair once (in
canonical order) and reversing, so forward and reverse traffic traverse
identical node sequences; asymmetric scenarios are produced separately
by :mod:`repro.topology.asymmetry`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.topology.topology import Link, Topology


class RoutingTable:
    """Symmetric shortest-path routes for all node pairs of a topology.

    Also provides the inter-NIDS paths ``P_{j,j'}`` used to account for
    replication traffic on links (Eq (4) of the paper).
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._paths: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._links: Dict[Tuple[str, str], Tuple[Link, ...]] = {}
        nodes = topology.nodes
        for i, source in enumerate(nodes):
            reached = topology.shortest_paths_from(source)
            for target in nodes[i + 1:]:
                path = reached.get(target)
                if path is None:
                    continue  # disconnected pair (e.g., after failure)
                self._paths[(source, target)] = path
                self._paths[(target, source)] = tuple(reversed(path))
                links = tuple(Topology.path_links(path))
                self._links[(source, target)] = links
                self._links[(target, source)] = links[::-1]

    def path(self, source: str, target: str) -> Tuple[str, ...]:
        """The route from source to target (``(source,)`` if equal).

        Raises ``KeyError`` for pairs with no route (disconnected
        topologies, e.g., after a node failure).
        """
        if source == target:
            return (source,)
        return self._paths[(source, target)]

    def path_links(self, source: str, target: str) -> Tuple[Link, ...]:
        """Canonical links on the route between two nodes (none if
        equal; ``KeyError`` for pairs with no route)."""
        if source == target:
            return ()
        return self._links[(source, target)]

    def hop_count(self, source: str, target: str) -> int:
        """Number of links on the route between two nodes."""
        return len(self.path(source, target)) - 1

    def is_on_path(self, node: str, source: str, target: str) -> bool:
        """True when ``node`` lies on the route source -> target."""
        return node in self.path(source, target)

    def all_pairs(self) -> List[Tuple[str, str]]:
        """All ordered (source, target) pairs with source != target."""
        return sorted(self._paths)


def shortest_path_routing(topology: Topology) -> RoutingTable:
    """Convenience constructor mirroring the paper's default routing."""
    return RoutingTable(topology)
