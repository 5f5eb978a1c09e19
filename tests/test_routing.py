"""Unit tests for the routing table."""

import pytest

from repro.topology import builtin_topology, shortest_path_routing


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
