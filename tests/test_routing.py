"""Unit tests for the routing table."""

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.topology import builtin_topology, shortest_path_routing
from repro.topology.topology import Topology
from tests import strategies


@pytest.fixture
def line_routing(line_topology):
    return shortest_path_routing(line_topology)


class TestRoutingTable:
    def test_path_endpoints(self, line_routing):
        path = line_routing.path("A", "D")
        assert path[0] == "A"
        assert path[-1] == "D"

    def test_self_path(self, line_routing):
        assert line_routing.path("B", "B") == ("B",)

    def test_symmetry(self, line_routing):
        fwd = line_routing.path("A", "D")
        rev = line_routing.path("D", "A")
        assert rev == tuple(reversed(fwd))

    def test_symmetry_under_ties(self, diamond_topology):
        routing = shortest_path_routing(diamond_topology)
        fwd = routing.path("A", "D")
        rev = routing.path("D", "A")
        assert rev == tuple(reversed(fwd))

    def test_path_links(self, line_routing):
        assert line_routing.path_links("A", "C") == \
            (("A", "B"), ("B", "C"))
        assert line_routing.path_links("C", "A") == \
            (("B", "C"), ("A", "B"))
        assert line_routing.path_links("B", "B") == ()

    def test_hop_count(self, line_routing):
        assert line_routing.hop_count("A", "D") == 3
        assert line_routing.hop_count("C", "C") == 0

    def test_is_on_path(self, line_routing):
        assert line_routing.is_on_path("B", "A", "D")
        assert not line_routing.is_on_path("D", "A", "C")

    def test_all_pairs_count(self, line_routing):
        # 4 nodes -> 12 ordered pairs.
        assert len(line_routing.all_pairs()) == 12

    def test_paths_are_shortest(self):
        topo = builtin_topology("internet2")
        routing = shortest_path_routing(topo)
        for source, target in routing.all_pairs():
            assert (len(routing.path(source, target)) - 1 ==
                    topo.hop_distance(source, target))

    def test_paths_are_simple(self):
        topo = builtin_topology("geant")
        routing = shortest_path_routing(topo)
        for source, target in routing.all_pairs():
            path = routing.path(source, target)
            assert len(set(path)) == len(path)


class TestOneSearchPerSource:
    """The table is built from one breadth-first search per source
    (``Topology.shortest_paths_from``); ``Topology.shortest_path`` —
    every shortest path of the pair enumerated, the smallest taken —
    stays the reference."""

    @settings(max_examples=150, deadline=None)
    @given(topology=strategies.topologies())
    def test_table_is_the_per_pair_reference(self, topology):
        routing = shortest_path_routing(topology)
        nodes = topology.nodes
        for i, source in enumerate(nodes):
            for target in nodes[i + 1:]:
                try:
                    reference = topology.shortest_path(source, target)
                except nx.NetworkXNoPath:
                    for pair in ((source, target), (target, source)):
                        with pytest.raises(KeyError):
                            routing.path(*pair)
                        with pytest.raises(KeyError):
                            routing.path_links(*pair)
                    continue
                links = tuple(Topology.path_links(reference))
                assert routing.path(source, target) == reference
                assert routing.path(target, source) == reference[::-1]
                assert routing.path_links(source, target) == links
                assert routing.path_links(target, source) == links[::-1]

    @settings(max_examples=150, deadline=None)
    @given(topology=strategies.topologies())
    def test_one_search_finds_every_reference_path(self, topology):
        for source in topology.nodes:
            reached = topology.shortest_paths_from(source)
            assert reached[source] == (source,)
            for target in topology.nodes:
                try:
                    reference = topology.shortest_path(source, target)
                except nx.NetworkXNoPath:
                    assert target not in reached
                else:
                    assert reached[target] == reference
