"""Property-based tests for the topology and traffic substrates."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.topology.generators import synthetic_isp_topology
from repro.topology.routing import shortest_path_routing
from repro.topology.topology import canonical_link
from repro.traffic.gravity import gravity_traffic_matrix


class TestGeneratorProperties:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000),
           num_pops=st.integers(10, 45),
           mean_degree=st.floats(2.2, 4.5))
    def test_generated_isp_always_connected(self, seed, num_pops,
                                            mean_degree):
        topo = synthetic_isp_topology("isp", num_pops, seed,
                                      mean_degree)
        assert topo.is_connected()
        assert topo.num_nodes == num_pops
        assert min(topo.degree(n) for n in topo.nodes) >= 2

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_routing_table_covers_all_pairs(self, seed):
        topo = synthetic_isp_topology("isp", 15, seed)
        routing = shortest_path_routing(topo)
        assert len(routing.all_pairs()) == 15 * 14
        for source, target in routing.all_pairs()[:30]:
            path = routing.path(source, target)
            assert path[0] == source and path[-1] == target


class TestGravityProperties:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000),
           total=st.floats(1e3, 1e8))
    def test_total_volume_conserved(self, seed, total):
        topo = synthetic_isp_topology("isp", 12, seed)
        matrix = gravity_traffic_matrix(topo, total_sessions=total)
        assert matrix.total == pytest.approx(total, rel=1e-9)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gravity_symmetric_in_volume(self, seed):
        """Gravity volumes are symmetric: T[s,t] == T[t,s]."""
        topo = synthetic_isp_topology("isp", 10, seed)
        matrix = gravity_traffic_matrix(topo, 1e6)
        for source, target in list(matrix.pairs())[:40]:
            assert matrix.volume(source, target) == pytest.approx(
                matrix.volume(target, source), rel=1e-9)


class TestLinkCanonicalization:
    names = st.text(alphabet="ABCDEFab", min_size=1, max_size=4)

    @given(u=names, v=names)
    def test_order_invariant(self, u, v):
        assert canonical_link(u, v) == canonical_link(v, u)

    @given(u=names, v=names)
    def test_idempotent(self, u, v):
        link = canonical_link(u, v)
        assert canonical_link(*link) == link
