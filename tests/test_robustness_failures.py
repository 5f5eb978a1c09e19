"""Unit tests for slack provisioning and failure handling (Section 9)."""

import numpy as np
import pytest

from repro.core import (
    MirrorPolicy,
    NetworkState,
    ReplicationProblem,
    cascade_risk,
    fail_node,
    provisioning_shortfall,
    slack_factor,
    with_slack,
)
from repro.core.inputs import link_background_bytes
from repro.topology.routing import RoutingTable
from repro.topology.topology import Topology
from repro.traffic import TrafficVariabilityModel


class TestSlack:
    def test_p80_factor_above_one(self):
        model = TrafficVariabilityModel.default()
        p80 = slack_factor(model, 80.0)
        assert p80 > 1.0

    def test_percentiles_monotone(self):
        model = TrafficVariabilityModel.default()
        p50 = slack_factor(model, 50.0)
        p80 = slack_factor(model, 80.0)
        p95 = slack_factor(model, 95.0)
        assert p50 < p80 < p95

    def test_percentile_validation(self):
        model = TrafficVariabilityModel.default()
        with pytest.raises(ValueError):
            slack_factor(model, 0.0)
        with pytest.raises(ValueError):
            slack_factor(model, 100.0)

    def test_with_slack_scales_volumes(self, line_classes):
        slacked = with_slack(line_classes, 1.5)
        for old, new in zip(line_classes, slacked):
            assert new.num_sessions == pytest.approx(
                1.5 * old.num_sessions)

    def test_with_slack_rejects_nonpositive(self, line_classes):
        with pytest.raises(ValueError):
            with_slack(line_classes, 0.0)

    def test_shortfall(self):
        assert provisioning_shortfall(0.8) == 0.0
        assert provisioning_shortfall(1.3) == pytest.approx(0.3)

    def test_slack_reduces_worst_case_overshoot(self, line_topology,
                                                line_classes):
        """Provision against p80 traffic, then evaluate bursts: the
        slacked provisioning overshoots less than mean provisioning."""
        model = TrafficVariabilityModel.default()
        factor = slack_factor(model, 80.0)

        mean_state = NetworkState.calibrated(
            line_topology, line_classes, dc_capacity_factor=10.0)
        slack_state = NetworkState.calibrated(
            line_topology, with_slack(line_classes, factor),
            dc_capacity_factor=10.0)

        rng = np.random.default_rng(0)
        burst = [c.scaled(model.sample_factor(rng) * 1.5)
                 for c in line_classes]
        mean_peak = ReplicationProblem(
            mean_state.with_traffic(burst),
            mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4).solve().load_cost
        slack_peak = ReplicationProblem(
            slack_state.with_traffic(burst),
            mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4).solve().load_cost
        assert slack_peak <= mean_peak + 1e-9


class TestFailures:
    def test_transit_failure_reroutes(self, diamond_topology):
        from repro.traffic.classes import TrafficClass

        cls = TrafficClass("A->D", "A", "D", ("A", "B", "D"), 100.0)
        state = NetworkState.calibrated(diamond_topology, [cls])
        new_state, impact = fail_node(state, "B")
        assert impact.rerouted_classes == ["A->D"]
        assert impact.dropped_classes == []
        assert impact.lost_fraction == 0.0
        rerouted = new_state.class_by_name("A->D")
        assert "B" not in rerouted.path
        assert rerouted.path == ("A", "C", "D")

    def test_endpoint_failure_drops_classes(self, line_state):
        new_state, impact = fail_node(line_state, "D")
        assert "A->D" in impact.dropped_classes
        assert impact.lost_fraction == pytest.approx(1000.0 / 1500.0)
        assert all("D" not in cls.path for cls in new_state.classes)

    def test_failed_state_is_solvable(self, diamond_topology):
        from repro.traffic.classes import TrafficClass

        classes = [
            TrafficClass("A->D", "A", "D", ("A", "B", "D"), 100.0),
            TrafficClass("B->C", "B", "C", ("B", "C"), 50.0),
        ]
        state = NetworkState.calibrated(diamond_topology, classes)
        new_state, _ = fail_node(state, "B")
        result = ReplicationProblem(
            new_state, mirror_policy=MirrorPolicy.none()).solve()
        assert result.load_cost > 0.0

    def test_disconnecting_failure_detected(self):
        from repro.traffic.classes import TrafficClass

        # A - B - C: losing B disconnects A from C.
        topo = Topology("chain3", ["A", "B", "C"],
                        [("A", "B"), ("B", "C")])
        cls = TrafficClass("A->C", "A", "C", ("A", "B", "C"), 10.0)
        state = NetworkState.calibrated(topo, [cls])
        with pytest.raises(ValueError):
            fail_node(state, "B")

    def test_unknown_node_rejected(self, line_state):
        with pytest.raises(ValueError):
            fail_node(line_state, "nope")

    def test_dc_failure_clears_dc_marker(self, line_state_dc):
        new_state, impact = fail_node(line_state_dc, "DC")
        assert new_state.dc_node is None
        assert impact.dropped_classes == []

    def test_capacities_carry_over(self, line_state):
        new_state, _ = fail_node(line_state, "D")
        for node in new_state.nids_nodes:
            assert new_state.capacity("cpu", node) == \
                line_state.capacity("cpu", node)

    def test_cascade_risk_on_chain(self):
        from repro.traffic.classes import TrafficClass

        topo = Topology("chain4", ["A", "B", "C", "D"],
                        [("A", "B"), ("B", "C"), ("C", "D")])
        cls = TrafficClass("A->D", "A", "D", ("A", "B", "C", "D"),
                           10.0)
        state = NetworkState.calibrated(topo, [cls])
        risky = cascade_risk(state)
        assert risky == ["B", "C"]

    def test_cascade_risk_on_redundant_topology(self, diamond_topology):
        from repro.traffic.classes import TrafficClass

        cls = TrafficClass("A->D", "A", "D", ("A", "B", "D"), 10.0)
        state = NetworkState.calibrated(diamond_topology, [cls])
        assert cascade_risk(state) == []


class TestIsolatedMirror:
    """Losing the datacenter's only attachment drops the datacenter
    instead of keeping a mirror nothing can reach."""

    @pytest.fixture(scope="class")
    def internet2(self):
        from repro.experiments.common import setup_topology

        return setup_topology("internet2", dc_capacity_factor=10.0).state

    def test_failing_the_anchor_drops_the_datacenter(self, internet2):
        assert internet2.topology.neighbors("DC") == ["ATLA"]
        new_state, impact = fail_node(internet2, "ATLA")
        assert impact.dropped_datacenter == "DC"
        assert new_state.dc_node is None
        assert "DC" not in new_state.nids_nodes
        assert all("DC" not in caps
                   for caps in new_state.node_capacity.values())
        with pytest.raises(ValueError, match="needs a datacenter"):
            ReplicationProblem(
                new_state, mirror_policy=MirrorPolicy.datacenter()
            ).solve()
        result = ReplicationProblem(
            new_state, mirror_policy=MirrorPolicy.none(),
            max_link_load=0.4).solve()
        assert result.load_cost <= 1.0

    def test_other_failures_keep_the_datacenter(self, internet2):
        new_state, impact = fail_node(internet2, "STTL")
        assert impact.dropped_datacenter is None
        assert new_state.dc_node == "DC"

    def test_unreachable_mirror_is_named(self, internet2):
        # The state fail_node used to build: DC kept, with no links.
        topology = internet2.topology.subgraph_without("ATLA")
        survivors = [cls for cls in internet2.classes
                     if "ATLA" not in cls.path]
        stale = NetworkState(
            topology, RoutingTable(topology), survivors,
            {resource: {node: cap for node, cap in caps.items()
                        if node != "ATLA"}
             for resource, caps in internet2.node_capacity.items()},
            {link: cap for link, cap in internet2.link_capacity.items()
             if "ATLA" not in link},
            link_background_bytes(survivors), dc_node="DC")
        with pytest.raises(ValueError, match="mirror 'DC' has no route"):
            ReplicationProblem(
                stale, mirror_policy=MirrorPolicy.datacenter()).solve()

    def test_ablation_fails_the_busiest_transit_node(self):
        from repro.experiments import run_failure_ablation

        (row,) = run_failure_ablation(["internet2"])
        assert row.failed_node == "ATLA"
        assert row.mirrors_after == "none"
        assert row.load_after <= 1.0


class TestLinkFailures:
    def test_link_failure_reroutes(self, diamond_topology):
        from repro.core import fail_link
        from repro.traffic.classes import TrafficClass

        cls = TrafficClass("A->D", "A", "D", ("A", "B", "D"), 100.0)
        state = NetworkState.calibrated(diamond_topology, [cls])
        new_state, impact = fail_link(state, "B", "D")
        assert impact.rerouted_classes == ["A->D"]
        assert impact.lost_sessions == 0.0
        assert new_state.class_by_name("A->D").path == ("A", "C", "D")

    def test_unused_link_failure_is_noop_for_classes(
            self, diamond_topology):
        from repro.core import fail_link
        from repro.traffic.classes import TrafficClass

        cls = TrafficClass("A->D", "A", "D", ("A", "B", "D"), 100.0)
        state = NetworkState.calibrated(diamond_topology, [cls])
        new_state, impact = fail_link(state, "A", "C")
        assert impact.rerouted_classes == []
        assert new_state.class_by_name("A->D").path == ("A", "B", "D")

    def test_bridge_link_failure_detected(self, line_state):
        from repro.core import fail_link

        with pytest.raises(ValueError):
            fail_link(line_state, "B", "C")

    def test_unknown_link_rejected(self, diamond_topology):
        from repro.core import fail_link
        from repro.traffic.classes import TrafficClass

        cls = TrafficClass("A->D", "A", "D", ("A", "B", "D"), 100.0)
        state = NetworkState.calibrated(diamond_topology, [cls])
        with pytest.raises(ValueError):
            fail_link(state, "A", "D")

    def test_failed_link_state_solvable(self, diamond_topology):
        from repro.core import (MirrorPolicy, ReplicationProblem,
                                fail_link)
        from repro.traffic.classes import TrafficClass

        cls = TrafficClass("A->D", "A", "D", ("A", "B", "D"), 100.0)
        state = NetworkState.calibrated(diamond_topology, [cls])
        new_state, _ = fail_link(state, "B", "D")
        result = ReplicationProblem(
            new_state, mirror_policy=MirrorPolicy.none()).solve()
        assert 0.0 < result.load_cost <= 1.0 + 1e-9
