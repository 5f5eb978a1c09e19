"""Tests for the independent result validators and the Eq (3)/(4)
accountant."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AggregationProblem,
    CombinedProblem,
    MirrorPolicy,
    ReplicationProblem,
    SplitTrafficProblem,
    plan_loads,
    validate_aggregation,
    validate_replication,
    validate_split,
)
from repro.core.results import FractionTable, LPStats, ReplicationResult
from tests import strategies


def _first_p_moved(result, delta):
    process = {name: dict(per_node) for name, per_node in
               result.process_fractions.items()}
    first = next(iter(process))
    process[first][next(iter(process[first]))] += delta
    return dataclasses.replace(result, process_fractions=process)


def _replication_result(state, process, offload):
    """A replication result whose loads are its fractions' loads."""
    node_loads, _ = plan_loads(state, FractionTable.from_dicts(
        [cls.name for cls in state.classes], process, offload))
    return ReplicationResult(
        load_cost=max(node_loads["cpu"].values()),
        node_loads=node_loads, process_fractions=process,
        offload_fractions=offload, stats=LPStats(0, 0, 0.0, 0),
        dc_node="DC")


class TestValidators:
    def test_replication_result_valid(self, line_state_dc):
        result = ReplicationProblem(
            line_state_dc, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4).solve()
        assert validate_replication(line_state_dc, result) == []

    def test_on_path_result_valid(self, line_state):
        result = ReplicationProblem(
            line_state, mirror_policy=MirrorPolicy.none()).solve()
        assert validate_replication(line_state, result) == []

    def test_aggregation_result_valid(self, line_state):
        result = AggregationProblem(line_state, beta=1e-9).solve()
        assert validate_aggregation(line_state, result) == []

    def test_custom_aggregation_point_result_valid(self, line_state,
                                                   line_state_dc):
        # CommCost is charged to the point the LP used, not the
        # ingress: with beta this large the plan counts at D.
        result = AggregationProblem(
            line_state, beta=1e6,
            aggregation_point=lambda cls: "D").solve()
        assert result.aggregation_points == {"A->D": "D", "B->C": "D"}
        assert validate_aggregation(line_state, result) == []
        combined = CombinedProblem(
            line_state_dc, beta=1e6,
            aggregation_point=lambda cls: "D").solve()
        assert validate_aggregation(line_state_dc, combined) == []

    def test_split_result_valid(self, line_state_dc):
        result = SplitTrafficProblem(line_state_dc,
                                     max_link_load=0.4).solve()
        assert validate_split(line_state_dc, result) == []

    def test_tampered_coverage_detected(self, line_state):
        result = ReplicationProblem(
            line_state, mirror_policy=MirrorPolicy.none()).solve()
        problems = validate_replication(
            line_state, _first_p_moved(result, 0.5))
        assert any("coverage" in p for p in problems)

    def test_tampered_load_detected(self, line_state):
        result = ReplicationProblem(
            line_state, mirror_policy=MirrorPolicy.none()).solve()
        node = next(iter(result.node_loads["cpu"]))
        result.node_loads["cpu"][node] += 0.5
        problems = validate_replication(line_state, result)
        assert any("recomputed" in p for p in problems)

    def test_tampered_comm_cost_detected(self, line_state):
        result = AggregationProblem(line_state, beta=1e-9).solve()
        result.comm_cost *= 2.0
        problems = validate_aggregation(line_state, result)
        assert any("CommCost" in p for p in problems)

    def test_out_of_bounds_fraction_detected(self, line_state):
        result = ReplicationProblem(
            line_state, mirror_policy=MirrorPolicy.none()).solve()
        problems = validate_replication(
            line_state, _first_p_moved(result, 1.5))
        assert any("out of [0, 1]" in p for p in problems)

    def test_out_of_bounds_offload_detected(self, line_state_dc):
        """An ``o`` fraction below zero, offset by another: coverage is
        1 and every load is consistent, so only Eqs (6)/(7) catch it."""
        result = _replication_result(
            line_state_dc, {"A->D": {"A": 1.0}, "B->C": {"B": 1.0}},
            {"A->D": {("A", "DC"): -0.2, ("B", "DC"): 0.2}})
        assert validate_replication(line_state_dc, result) == [
            "o[A->D][('A', 'DC')] = -0.2 out of [0, 1]"]

    def test_out_of_bounds_fraction_detected_in_aggregation(
            self, line_state):
        result = AggregationProblem(line_state, beta=1e-9).solve()
        problems = validate_aggregation(
            line_state, _first_p_moved(result, 1.2))
        assert any("out of [0, 1]" in p for p in problems)

    def test_over_assigned_class_detected(self, line_state_dc):
        """Fractions in [0, 1] that sum past the class: Eq (2)."""
        result = _replication_result(
            line_state_dc, {"A->D": {"A": 0.7, "B": 0.5},
                            "B->C": {"B": 1.0}}, {})
        assert validate_replication(line_state_dc, result) == [
            "class 'A->D' coverage 1.200000 != 1"]

    def test_local_plus_offload_partition_is_clean(self, line_state_dc):
        result = _replication_result(
            line_state_dc, {"A->D": {"A": 0.6}, "B->C": {"B": 1.0}},
            {"A->D": {("A", "DC"): 0.4}})
        assert validate_replication(line_state_dc, result) == []

    def test_inflated_coverage_detected_in_split(self, line_state_dc):
        result = SplitTrafficProblem(line_state_dc,
                                     max_link_load=0.4).solve()
        name = next(iter(result.coverage))
        result.coverage[name] = 2.0
        problems = validate_split(line_state_dc, result)
        assert any("exceeds" in p for p in problems)

    def test_split_offload_past_the_class_detected(self, line_state_dc):
        """Local 0.6 plus forward offload 0.6 over-assigns the forward
        direction even though ``min(cov_fwd, cov_rev, 1)`` reads 1."""
        result = dataclasses.replace(
            SplitTrafficProblem(line_state_dc,
                                max_link_load=0.4).solve(),
            process_fractions={"A->D": {"A": 0.4, "B": 0.2},
                               "B->C": {"B": 1.0}},
            fwd_offloads={"A->D": {"A": 0.6}},
            rev_offloads={"A->D": {"A": 0.4}})
        assert validate_split(line_state_dc, result) == [
            "class 'A->D' local + fwd offload fractions sum to "
            "1.200000 > 1"]


class TestPlanLoads:
    @settings(max_examples=40, deadline=None)
    @given(state=strategies.paired_states(),
           policy=st.sampled_from([
               MirrorPolicy.datacenter(), MirrorPolicy.neighbors(1),
               MirrorPolicy.datacenter_plus_neighbors(),
               MirrorPolicy.all_nodes()]),
           bound=st.sampled_from([0.0, 0.4, 1.0]))
    def test_lp_table_charges_to_the_lp_loads(self, state, policy,
                                              bound):
        """Charging the LP's own fraction table reproduces the loads
        the LP reports: Eq (3) per node, Eq (4) minus ``BG_l``."""
        result = ReplicationProblem(state, mirror_policy=policy,
                                    max_link_load=bound).solve()
        node_loads, link_loads = plan_loads(state, result.fraction_table(
            cls.name for cls in state.classes))
        assert node_loads.keys() == result.node_loads.keys()
        for resource, loads in result.node_loads.items():
            assert node_loads[resource] == pytest.approx(loads, abs=1e-9)
        assert set(link_loads) <= set(result.link_loads)
        for link, load in result.link_loads.items():
            assert link_loads.get(link, 0.0) == pytest.approx(
                load - state.bg_load(link), abs=1e-9)

    def test_rows_in_another_order_are_refused(self, line_state_dc):
        result = ReplicationProblem(line_state_dc).solve()
        names = [cls.name for cls in line_state_dc.classes]
        with pytest.raises(ValueError, match="not the state's"):
            plan_loads(line_state_dc,
                       result.fraction_table(reversed(names)))
