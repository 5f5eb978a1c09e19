"""Unit tests for the Section 5 split-traffic LP."""

import pytest

from repro.analysis.modelcheck import check_model
from repro.core import (
    NetworkState,
    SplitTrafficProblem,
    ingress_split_result,
)
from repro.traffic.classes import TrafficClass


@pytest.fixture
def disjoint_topology():
    """Two node-disjoint A->D routes plus a DC anchor at B.

    Forward path A-B-D, reverse path D-C-A (only endpoints shared).
    """
    from repro.topology.topology import Topology

    return Topology(
        "disjoint", ["A", "B", "C", "D"],
        [("A", "B"), ("B", "D"), ("A", "C"), ("C", "D")],
        populations={"A": 1.0, "B": 1.0, "C": 1.0, "D": 1.0})


def make_state(topology, classes, dc_factor=10.0):
    return NetworkState.calibrated(topology, classes,
                                   dc_capacity_factor=dc_factor,
                                   dc_anchor="B")


class TestSymmetricDegeneratesToCoverage:
    def test_symmetric_classes_fully_covered(self, line_topology,
                                             line_classes):
        state = NetworkState.calibrated(line_topology, line_classes,
                                        dc_capacity_factor=10.0)
        result = SplitTrafficProblem(state, max_link_load=0.4).solve()
        assert result.miss_rate == pytest.approx(0.0, abs=1e-6)
        for cov in result.coverage.values():
            assert cov == pytest.approx(1.0, abs=1e-6)


class TestAsymmetricCoverage:
    @pytest.fixture
    def split_class(self):
        # Fwd A-B-D, rev D-C-A: common nodes are only the endpoints...
        # but endpoints A and D *are* common, so to model a truly
        # split session we use interior-disjoint paths where only
        # transit nodes are NIDS-capable via common set {A, D}.
        return TrafficClass(
            "A<->D", "A", "D", ("A", "B", "D"), 100.0,
            session_bytes=1000.0, rev_path=("D", "C", "A"))

    def test_common_nodes_give_coverage(self, disjoint_topology,
                                        split_class):
        state = make_state(disjoint_topology, [split_class])
        result = SplitTrafficProblem(state, allow_offload=False).solve()
        # A and D see both directions, so coverage is attainable.
        assert result.miss_rate == pytest.approx(0.0, abs=1e-6)

    @pytest.fixture
    def offload_only_state(self, disjoint_topology):
        """A class whose two directions share no observer (B sees fwd,
        C sees rev), plus a symmetric filler class that gives links a
        realistic background so calibration is meaningful."""
        split = TrafficClass("split", "B", "B", ("B",), 100.0,
                             session_bytes=1000.0, rev_path=("C",))
        filler = TrafficClass("fill", "A", "D", ("A", "B", "D"), 400.0,
                              session_bytes=1000.0)
        return make_state(disjoint_topology, [split, filler])

    def test_no_common_nodes_requires_offload(self, offload_only_state):
        no_offload = SplitTrafficProblem(offload_only_state,
                                         allow_offload=False).solve()
        # Only the split class (100 of 500 sessions) can miss.
        assert no_offload.miss_rate == pytest.approx(0.2, abs=1e-6)
        assert no_offload.coverage["split"] == pytest.approx(0.0,
                                                             abs=1e-6)
        with_offload = SplitTrafficProblem(offload_only_state,
                                           max_link_load=0.4).solve()
        assert with_offload.miss_rate == pytest.approx(0.0, abs=1e-6)

    def test_no_offload_model_has_no_duplicate_coverage_rows(
            self, offload_only_state):
        """Without offload columns both directions' coverage is one
        sum, so each class gets one pair of coverage rows, not two
        identical pairs."""
        model = SplitTrafficProblem(offload_only_state,
                                    allow_offload=False).build_model()
        duplicates = [finding for finding in check_model(model)
                      if finding.rule_id == "MDL002"
                      and "'cov" in finding.message]
        assert duplicates == []

    def test_coverage_is_min_of_directions(self, offload_only_state):
        result = SplitTrafficProblem(offload_only_state,
                                     max_link_load=0.4).solve()
        cov = result.coverage["split"]
        fwd = sum(result.fwd_offloads.get("split", {}).values())
        rev = sum(result.rev_offloads.get("split", {}).values())
        assert cov <= min(fwd, rev, 1.0) + 1e-6

    def test_link_budget_creates_misses(self, offload_only_state):
        # Offload-only coverage with a zero link budget is infeasible,
        # so the optimizer accepts misses instead.
        result = SplitTrafficProblem(offload_only_state,
                                     max_link_load=0.0).solve()
        assert result.coverage["split"] == pytest.approx(0.0, abs=1e-6)
        assert result.miss_rate == pytest.approx(0.2, abs=1e-6)

    def test_gamma_prioritizes_coverage(self, offload_only_state):
        state = offload_only_state
        high_gamma = SplitTrafficProblem(state, gamma=1000.0,
                                         max_link_load=0.4).solve()
        zero_gamma = SplitTrafficProblem(state, gamma=0.0,
                                         max_link_load=0.4).solve()
        assert high_gamma.miss_rate <= zero_gamma.miss_rate + 1e-9
        # With gamma=0 covering is pointless work; the LP skips it.
        assert zero_gamma.load_cost == pytest.approx(0.0, abs=1e-6)


class TestIngressBaseline:
    def test_symmetric_ingress_covers_everything(self, line_topology,
                                                 line_classes):
        state = NetworkState.calibrated(line_topology, line_classes)
        result = ingress_split_result(state)
        assert result.miss_rate == pytest.approx(0.0)
        assert result.load_cost == pytest.approx(1.0)

    def test_asymmetric_ingress_misses(self, disjoint_topology):
        cls = TrafficClass(
            "A<->D", "A", "D", ("A", "B", "D"), 100.0,
            session_bytes=1000.0, rev_path=("D", "C", "B"))
        state = make_state(disjoint_topology, [cls])
        result = ingress_split_result(state)
        # Gateway A never sees the reverse direction.
        assert result.miss_rate == pytest.approx(1.0)
        # And it only spends half the footprint (forward side only).
        gateway_load = result.node_loads["cpu"]["A"]
        full = (cls.footprint("cpu") * cls.num_sessions /
                state.capacity("cpu", "A"))
        assert gateway_load == pytest.approx(full / 2.0)

    def test_mixed_coverage(self, disjoint_topology):
        covered = TrafficClass(
            "cov", "A", "D", ("A", "B", "D"), 300.0,
            session_bytes=1000.0, rev_path=("D", "B", "A"))
        missed = TrafficClass(
            "miss", "A", "D", ("A", "C", "D"), 100.0,
            session_bytes=1000.0, rev_path=("D", "B", "C"))
        state = make_state(disjoint_topology, [covered, missed])
        result = ingress_split_result(state)
        assert result.coverage["cov"] == 1.0
        assert result.coverage["miss"] == 0.0
        assert result.miss_rate == pytest.approx(0.25)


class TestValidation:
    def test_offload_needs_datacenter(self, line_state):
        with pytest.raises(ValueError):
            SplitTrafficProblem(line_state)

    def test_no_offload_works_without_dc(self, line_state):
        result = SplitTrafficProblem(line_state,
                                     allow_offload=False).solve()
        assert result.miss_rate == pytest.approx(0.0, abs=1e-6)

    def test_negative_gamma_rejected(self, line_state_dc):
        with pytest.raises(ValueError):
            SplitTrafficProblem(line_state_dc, gamma=-1.0)


class TestSilentTraffic:
    def test_all_zero_volumes_miss_nothing(self, line_state_dc):
        """An all-zero matrix passes ``_check_volumes``; MissRate is
        then 0 (as ``ingress_split_result`` reads a zero total), warm
        and cold, not a division by the zero session total."""
        silent = {cls.name: 0.0 for cls in line_state_dc.classes}
        warm = SplitTrafficProblem(line_state_dc)
        warm.solve()
        cold = SplitTrafficProblem(line_state_dc)
        for result in (warm.resolve(volumes=silent),
                       cold.resolve(volumes=silent)):
            assert result.miss_rate == 0.0
            assert result.load_cost == pytest.approx(0.0, abs=1e-12)
