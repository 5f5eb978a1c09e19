"""Unit tests for traffic classes, matrices, and the gravity model."""

import dataclasses

import pytest

from repro.topology import builtin_topology, shortest_path_routing
from repro.traffic import (
    TrafficClass,
    TrafficMatrix,
    classes_from_matrix,
    gravity_traffic,
    gravity_traffic_matrix,
    paper_total_sessions,
)


class TestTrafficClass:
    def test_basic_properties(self):
        cls = TrafficClass("A->C", "A", "C", ("A", "B", "C"), 100.0,
                           session_bytes=1000.0)
        assert cls.ingress == "A"
        assert cls.is_symmetric
        assert cls.rev_nodes == ("C", "B", "A")
        assert cls.common_nodes == ("A", "B", "C")
        assert cls.total_bytes == 100_000.0

    def test_path_must_start_at_source(self):
        with pytest.raises(ValueError):
            TrafficClass("x", "A", "C", ("B", "C"), 1.0)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            TrafficClass("x", "A", "A", (), 1.0)

    def test_negative_sessions_rejected(self):
        with pytest.raises(ValueError):
            TrafficClass("x", "A", "B", ("A", "B"), -1.0)

    def test_negative_footprint_rejected(self):
        with pytest.raises(ValueError):
            TrafficClass("x", "A", "B", ("A", "B"), 1.0,
                         footprints={"cpu": -1.0})

    def test_asymmetric_common_nodes(self):
        cls = TrafficClass("x", "A", "D", ("A", "B", "D"), 10.0,
                           rev_path=("D", "C", "A"))
        assert not cls.is_symmetric
        assert cls.common_nodes == ("A", "D")

    def test_footprint_default_zero(self):
        cls = TrafficClass("x", "A", "B", ("A", "B"), 1.0)
        assert cls.footprint("memory") == 0.0
        assert cls.footprint("cpu") == 1.0

    def test_scaled(self):
        cls = TrafficClass("x", "A", "B", ("A", "B"), 10.0)
        assert cls.scaled(2.5).num_sessions == 25.0
        with pytest.raises(ValueError):
            cls.scaled(-1.0)

    def test_scaled_is_the_validated_copy(self):
        """The cheap copy equals the dataclass copy it replaces and
        shares every other field with the original."""
        cls = TrafficClass("x", "A", "D", ("A", "B", "D"), 7,
                           session_bytes=300.0, footprints={"cpu": 2.0},
                           rev_path=("D", "C", "A"))
        scaled = cls.scaled(0.3)
        assert scaled == dataclasses.replace(cls, num_sessions=7 * 0.3)
        assert scaled.footprints is cls.footprints
        assert scaled.rev_path is cls.rev_path
        assert cls.scaled(0.0).num_sessions == 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            scaled.num_sessions = 1.0

    def test_with_paths(self):
        cls = TrafficClass("x", "A", "D", ("A", "B", "D"), 10.0)
        updated = cls.with_paths(("A", "C", "D"), ("D", "B", "A"))
        assert updated.path == ("A", "C", "D")
        assert updated.rev_path == ("D", "B", "A")
        assert updated.num_sessions == 10.0


class TestTrafficMatrix:
    def test_volume_lookup(self):
        m = TrafficMatrix({("A", "B"): 5.0})
        assert m.volume("A", "B") == 5.0
        assert m.volume("B", "A") == 0.0

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            TrafficMatrix({("A", "A"): 1.0})

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            TrafficMatrix({("A", "B"): -1.0})

    def test_total(self):
        m = TrafficMatrix({("A", "B"): 5.0, ("B", "C"): 3.0})
        assert m.total == 8.0

    def test_scaled(self):
        m = TrafficMatrix({("A", "B"): 5.0}).scaled(2.0)
        assert m.volume("A", "B") == 10.0

    def test_perturbed(self):
        m = TrafficMatrix({("A", "B"): 5.0, ("B", "C"): 3.0})
        p = m.perturbed({("A", "B"): 2.0})
        assert p.volume("A", "B") == 10.0
        assert p.volume("B", "C") == 3.0

    def test_perturbed_negative_factor_rejected(self):
        m = TrafficMatrix({("A", "B"): 5.0})
        with pytest.raises(ValueError):
            m.perturbed({("A", "B"): -0.5})

    def test_pairs_sorted_and_nonzero(self):
        m = TrafficMatrix({("B", "C"): 1.0, ("A", "B"): 2.0,
                           ("C", "D"): 0.0})
        assert list(m.pairs()) == [("A", "B"), ("B", "C")]


class TestGravity:
    def test_paper_scaling_rule(self):
        assert paper_total_sessions(11) == pytest.approx(8_000_000)
        assert paper_total_sessions(22) == pytest.approx(16_000_000)

    def test_total_volume(self, line_topology):
        m = gravity_traffic_matrix(line_topology, total_sessions=1000.0)
        assert m.total == pytest.approx(1000.0)

    def test_proportional_to_populations(self, line_topology):
        m = gravity_traffic_matrix(line_topology, total_sessions=1000.0)
        # pop(A)=4, pop(D)=2, pop(B)=pop(C)=1.
        assert m.volume("A", "D") > m.volume("B", "C")
        ratio = m.volume("A", "D") / m.volume("B", "C")
        assert ratio == pytest.approx(8.0)

    def test_zero_population_node_excluded(self, line_topology):
        topo = line_topology.with_datacenter("B", "DC")
        m = gravity_traffic_matrix(topo, total_sessions=100.0)
        assert all("DC" not in pair for pair in m.pairs())

    def test_classes_follow_routing(self, line_topology):
        routing = shortest_path_routing(line_topology)
        classes = gravity_traffic(line_topology, total_sessions=100.0,
                                  routing=routing)
        for cls in classes:
            assert cls.path == routing.path(cls.source, cls.target)

    def test_classes_cover_all_pairs(self, line_topology):
        classes = gravity_traffic(line_topology, total_sessions=100.0)
        assert len(classes) == 12  # 4*3 ordered pairs

    def test_default_volume_matches_paper(self):
        topo = builtin_topology("internet2")
        m = gravity_traffic_matrix(topo)
        assert m.total == pytest.approx(8_000_000)

    def test_classes_from_matrix_custom_parameters(self, line_topology):
        m = gravity_traffic_matrix(line_topology, 10.0)
        classes = classes_from_matrix(line_topology, m,
                                      session_bytes=5.0,
                                      cpu_footprint=2.0,
                                      record_bytes=32.0)
        assert all(c.session_bytes == 5.0 for c in classes)
        assert all(c.footprint("cpu") == 2.0 for c in classes)
        assert all(c.record_bytes == 32.0 for c in classes)
