"""The :class:`Topology` abstraction shared by every other subsystem.

A topology is an undirected PoP-level graph. Nodes are PoP names
(strings) carrying a *population* attribute used by the gravity traffic
model; links are undirected and canonically ordered. Off-path compute
clusters ("datacenters", Section 2.2 / Figure 3) are modeled as regular
nodes attached to an anchor PoP so replicated traffic has a concrete
routing path to traverse.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

Link = Tuple[str, str]


def canonical_link(u: str, v: str) -> Link:
    """Order a link's endpoints canonically so ``(a,b) == (b,a)``."""
    return (u, v) if u <= v else (v, u)


class Topology:
    """An undirected PoP-level network graph.

    Args:
        name: human-readable identifier (e.g., ``"internet2"``).
        nodes: PoP names.
        links: iterable of node pairs (undirected, deduplicated).
        populations: optional map node -> population weight for the
            gravity model; defaults to 1.0 per node.

    The class wraps a :class:`networkx.Graph` but exposes a small,
    stable API so the rest of the library never touches networkx
    directly.
    """

    def __init__(self, name: str, nodes: Iterable[str],
                 links: Iterable[Link],
                 populations: Optional[Dict[str, float]] = None) -> None:
        self.name = name
        self._graph = nx.Graph()
        nodes = list(nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"topology {name!r} has duplicate nodes")
        self._graph.add_nodes_from(nodes)
        for u, v in links:
            if u == v:
                raise ValueError(f"self-loop on node {u!r}")
            if u not in self._graph or v not in self._graph:
                raise ValueError(f"link ({u!r}, {v!r}) references an "
                                 "unknown node")
            self._graph.add_edge(*canonical_link(u, v))
        self._populations = {
            node: float((populations or {}).get(node, 1.0))
            for node in nodes
        }
        self._spl_cache: Optional[Dict[str, Dict[str, int]]] = None

    # -- basic accessors -------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        """PoP names in insertion order."""
        return list(self._graph.nodes)

    @property
    def links(self) -> List[Link]:
        """Canonically ordered undirected links."""
        return [canonical_link(u, v) for u, v in self._graph.edges]

    @property
    def num_nodes(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def num_links(self) -> int:
        return self._graph.number_of_edges()

    def population(self, node: str) -> float:
        """Gravity-model population weight of ``node``."""
        return self._populations[node]

    @property
    def populations(self) -> Dict[str, float]:
        return dict(self._populations)

    def has_link(self, u: str, v: str) -> bool:
        return self._graph.has_edge(u, v)

    def degree(self, node: str) -> int:
        return self._graph.degree[node]

    def neighbors(self, node: str) -> List[str]:
        return sorted(self._graph.neighbors(node))

    def is_connected(self) -> bool:
        return nx.is_connected(self._graph)

    # -- paths -----------------------------------------------------------

    def shortest_path(self, source: str, target: str) -> Tuple[str, ...]:
        """A deterministic hop-count shortest path from source to target.

        Ties are broken lexicographically by the node sequence so that
        repeated runs (and the forward/reverse directions) agree.
        """
        if source == target:
            return (source,)
        # networkx's single shortest path is deterministic for a fixed
        # adjacency order, but we make the tie-break explicit: among all
        # shortest paths choose the lexicographically smallest sequence.
        best: Optional[Tuple[str, ...]] = None
        for path in nx.all_shortest_paths(self._graph, source, target):
            tup = tuple(path)
            if best is None or tup < best:
                best = tup
        assert best is not None
        return best

    def shortest_paths_from(self, source: str
                            ) -> Dict[str, Tuple[str, ...]]:
        """:meth:`shortest_path` from ``source`` to every node it
        reaches (itself included), from one breadth-first search.

        Layer by layer: the candidates for a node are its predecessors'
        paths plus itself, all of one length, so the smallest
        predecessor path gives the lexicographically smallest one.
        """
        adjacency = self._graph.adj
        best: Dict[str, Tuple[str, ...]] = {source: (source,)}
        frontier = [source]
        while frontier:
            via: Dict[str, Tuple[str, ...]] = {}
            for node in frontier:
                path = best[node]
                for neighbor in adjacency[node]:
                    if neighbor not in best and (
                            neighbor not in via or path < via[neighbor]):
                        via[neighbor] = path
            for node, path in via.items():
                best[node] = path + (node,)
            frontier = list(via)
        return best

    def all_shortest_paths(self, source: str,
                           target: str) -> List[Tuple[str, ...]]:
        """Every hop-count shortest path, sorted deterministically."""
        return sorted(tuple(p) for p in
                      nx.all_shortest_paths(self._graph, source, target))

    def hop_distance(self, source: str, target: str) -> int:
        """Hop count of the shortest path between two nodes."""
        if self._spl_cache is None:
            self._spl_cache = dict(nx.all_pairs_shortest_path_length(
                self._graph))
        return self._spl_cache[source][target]

    def nodes_within(self, node: str, hops: int) -> List[str]:
        """Nodes (excluding ``node``) within ``hops`` hops of ``node``."""
        if hops < 0:
            raise ValueError("hops must be non-negative")
        reached = nx.single_source_shortest_path_length(
            self._graph, node, cutoff=hops)
        return sorted(n for n in reached if n != node)

    @staticmethod
    def path_links(path: Sequence[str]) -> List[Link]:
        """Canonical links traversed by a node path."""
        return [canonical_link(path[i], path[i + 1])
                for i in range(len(path) - 1)]

    def diameter(self) -> int:
        """Longest shortest-path hop count in the topology."""
        return nx.diameter(self._graph)

    def mean_path_length(self) -> float:
        """Average shortest-path hop count over all node pairs."""
        return float(nx.average_shortest_path_length(self._graph))

    # -- derived topologies ------------------------------------------------

    def with_datacenter(self, anchor: str,
                        dc_name: str = "DC") -> "Topology":
        """Return a copy with a datacenter node attached at ``anchor``.

        The datacenter is an off-path node (it originates no traffic:
        population 0) connected to its anchor PoP by one link, matching
        the paper's single-cluster deployments (Figure 3).
        """
        if anchor not in self._graph:
            raise ValueError(f"anchor {anchor!r} not in topology")
        if dc_name in self._graph:
            raise ValueError(f"node {dc_name!r} already exists")
        populations = dict(self._populations)
        populations[dc_name] = 0.0
        return Topology(
            name=f"{self.name}+{dc_name}@{anchor}",
            nodes=self.nodes + [dc_name],
            links=self.links + [(anchor, dc_name)],
            populations=populations)

    def subgraph_without(self, node: str) -> "Topology":
        """Copy of this topology with ``node`` and its links removed."""
        if node not in self._graph:
            raise ValueError(f"node {node!r} not in topology")
        remaining = [n for n in self.nodes if n != node]
        links = [(u, v) for u, v in self.links if node not in (u, v)]
        pops = {n: p for n, p in self._populations.items() if n != node}
        return Topology(f"{self.name}-{node}", remaining, links, pops)

    def __repr__(self) -> str:
        return (f"Topology({self.name!r}, nodes={self.num_nodes}, "
                f"links={self.num_links})")
