"""Tests for the sharded control plane: regional LPs, the capacity
coordinator, planner merge/failover, and the global-planner identity.

Unit-scale checks run on the conftest line topology; the identity and
regional-problem equivalence checks run once on tinet (module-scoped
fixtures keep the LP count down).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MirrorPolicy, NIDSController
from repro.core.controller import (
    GlobalPlanner,
    RegionalReplicationProblem,
    ShardCoordinator,
    ShardedPlanner,
)
from repro.core.replication import ReplicationProblem
from repro.core.validation import plan_loads, validate_replication
from repro.experiments.common import setup_topology
from repro.shim.config import build_replication_configs
from tests import strategies


@pytest.fixture(scope="module")
def tinet():
    return setup_topology("tinet", dc_capacity_factor=1.0)


class TestGlobalPlannerIdentity:
    """The controller refactor must not change the global code path."""

    def test_bit_identical_to_direct_problem(self, tinet):
        planner = GlobalPlanner(tinet.state,
                                mirror_policy=MirrorPolicy.datacenter(),
                                max_link_load=0.4)
        outcome = planner.plan(tinet.classes)

        direct = ReplicationProblem(
            tinet.state.with_traffic(tinet.classes),
            mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4)
        expected = direct.solve()

        assert outcome.result.load_cost == expected.load_cost
        assert outcome.result.process_fractions == \
            expected.process_fractions
        assert outcome.result.offload_fractions == \
            expected.offload_fractions
        assert outcome.result.node_loads == expected.node_loads
        assert build_replication_configs(outcome.state,
                                         outcome.result) == \
            build_replication_configs(direct.state, expected)

    def test_controller_defaults_to_global_planner(self,
                                                   line_state_dc):
        controller = NIDSController(line_state_dc)
        assert isinstance(controller.planner, GlobalPlanner)

    def test_warm_replan_matches_cold(self, line_state_dc,
                                      line_classes):
        planner = GlobalPlanner(line_state_dc)
        planner.plan(line_classes)
        heavier = [cls.scaled(2.0) for cls in line_classes]
        warm = planner.plan(heavier)
        cold = GlobalPlanner(line_state_dc).plan(heavier)
        assert warm.result.load_cost == pytest.approx(
            cold.result.load_cost)


class TestCoordinator:
    SHARED = {"dc": ("region-0", "region-1")}

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardCoordinator(max_rounds=0)
        with pytest.raises(ValueError):
            ShardCoordinator(tolerance=0.0)
        with pytest.raises(ValueError):
            ShardCoordinator(demand_floor=1.0)

    def test_shared_elements_need_two_regions(self):
        coordinator = ShardCoordinator()
        surfaces = {"region-0": frozenset({"dc", "only-mine"}),
                    "region-1": frozenset({"dc"})}
        shared = coordinator.shared_elements(surfaces)
        assert shared == {"dc": ("region-0", "region-1")}

    def test_initial_shares_proportional_and_normalized(self):
        coordinator = ShardCoordinator()
        shares = coordinator.initial_shares(
            self.SHARED, {"region-0": 3000.0, "region-1": 1000.0})
        assert shares["region-0"]["dc"] == pytest.approx(0.75)
        assert shares["region-1"]["dc"] == pytest.approx(0.25)
        assert sum(s["dc"] for s in shares.values()) == \
            pytest.approx(1.0)

    def test_initial_shares_even_split_without_traffic(self):
        coordinator = ShardCoordinator()
        shares = coordinator.initial_shares(
            self.SHARED, {"region-0": 0.0, "region-1": 0.0})
        assert shares["region-0"]["dc"] == pytest.approx(0.5)

    def test_reallocate_moves_toward_demand(self):
        coordinator = ShardCoordinator()
        current = {"region-0": {"dc": 0.5}, "region-1": {"dc": 0.5}}
        shares = coordinator.reallocate(
            self.SHARED, current,
            {"region-0": {"dc": 0.9}, "region-1": {"dc": 0.1}})
        assert shares["region-0"]["dc"] == pytest.approx(0.9)
        assert shares["region-1"]["dc"] == pytest.approx(0.1)

    def test_reallocate_floors_idle_region(self):
        coordinator = ShardCoordinator(demand_floor=0.02)
        current = {"region-0": {"dc": 0.5}, "region-1": {"dc": 0.5}}
        shares = coordinator.reallocate(
            self.SHARED, current,
            {"region-0": {"dc": 1.0}, "region-1": {}})
        # The idle region keeps a re-entry floor; the sum stays one.
        assert shares["region-1"]["dc"] > 0.0
        assert sum(s["dc"] for s in shares.values()) == \
            pytest.approx(1.0)

    def test_reallocate_keeps_split_when_nobody_demands(self):
        coordinator = ShardCoordinator()
        current = {"region-0": {"dc": 0.7}, "region-1": {"dc": 0.3}}
        shares = coordinator.reallocate(self.SHARED, current,
                                        {"region-0": {},
                                         "region-1": {}})
        assert shares == {"region-0": {"dc": 0.7},
                          "region-1": {"dc": 0.3}}

    def test_converged(self):
        coordinator = ShardCoordinator(tolerance=1e-3)
        old = {"region-0": {"dc": 0.5}}
        assert coordinator.converged(old, {"region-0": {"dc": 0.5005}})
        assert not coordinator.converged(old, {"region-0": {"dc": 0.6}})


class TestRegionalProblem:
    def test_share_validation(self, line_state_dc):
        with pytest.raises(ValueError):
            RegionalReplicationProblem(
                line_state_dc, line_state_dc.bg_bytes,
                capacity_share={"DC": 1.5})
        with pytest.raises(ValueError):
            RegionalReplicationProblem(
                line_state_dc, line_state_dc.bg_bytes,
                link_share={("A", "B"): 0.0})

    def test_full_shares_match_plain_problem(self, line_state_dc):
        """With the whole traffic matrix and no shares the regional
        LP is exactly the plain replication LP."""
        plain = ReplicationProblem(line_state_dc).solve()
        regional = RegionalReplicationProblem(
            line_state_dc, line_state_dc.bg_bytes).solve()
        assert regional.load_cost == pytest.approx(plain.load_cost)
        for cls_name, fractions in plain.process_fractions.items():
            for node, value in fractions.items():
                assert regional.process_fractions[cls_name][node] == \
                    pytest.approx(value, abs=1e-6)

    def test_warm_share_patch_matches_cold(self, line_state_dc):
        """Re-solving with new shares patches the warm LP to the same
        answer a cold build with those shares produces."""
        shares = {"DC": 0.5}
        warm = RegionalReplicationProblem(line_state_dc,
                                          line_state_dc.bg_bytes)
        warm.solve()
        patched = warm.resolve(capacity_share=shares)
        cold = RegionalReplicationProblem(
            line_state_dc, line_state_dc.bg_bytes,
            capacity_share=shares).solve()
        assert patched.load_cost == pytest.approx(cold.load_cost)


class TestShardedAcceptance:
    """Pinned acceptance bar: tinet, 2 regions, seed 0."""

    @pytest.fixture(scope="class")
    def planned(self, tinet):
        oracle = GlobalPlanner(
            tinet.state, mirror_policy=MirrorPolicy.datacenter())
        global_cost = oracle.plan(tinet.classes).result.load_cost
        planner = ShardedPlanner(
            tinet.state, mirror_policy=MirrorPolicy.datacenter(),
            num_regions=2, seed=0, jobs=1)
        outcome = planner.plan(tinet.classes)
        return planner, outcome, global_cost

    def test_gap_within_ten_percent(self, planned):
        planner, outcome, global_cost = planned
        gap = (outcome.result.load_cost - global_cost) / global_cost
        assert gap <= 0.10
        assert outcome.result.load_cost >= global_cost - 1e-9

    def test_bounded_coordination_rounds(self, planned):
        planner, _, _ = planned
        assert 1 <= planner.last_rounds <= 5

    def test_merged_result_is_feasible(self, planned):
        _, outcome, _ = planned
        assert validate_replication(outcome.state,
                                    outcome.result) == []

    def test_regional_allocations_fit_capacity(self, planned, tinet):
        planner, _, _ = planned
        for resource in tinet.state.resources:
            totals = {}
            for per_node in planner.shard_allocations(
                    resource).values():
                for node, amount in per_node.items():
                    totals[node] = totals.get(node, 0.0) + amount
            for node, total in totals.items():
                capacity = tinet.state.capacity(resource, node)
                assert total <= capacity * (1.0 + 1e-6)

    def test_shard_loads_add_up_to_the_merged_loads(self, tinet):
        """One round, so the merged plan is the shards' current one:
        its node loads are the shards' accountant loads added up, bit
        for bit."""
        planner = ShardedPlanner(
            tinet.state, mirror_policy=MirrorPolicy.datacenter(),
            num_regions=2, seed=0, jobs=1,
            coordinator=ShardCoordinator(max_rounds=1))
        outcome = planner.plan(tinet.classes)
        state = outcome.state
        total = {resource: dict.fromkeys(state.nids_nodes, 0.0)
                 for resource in state.resources}
        for shard in planner._shards.values():
            region = shard.problem.state
            node_loads, _ = plan_loads(region, shard.result.fraction_table(
                cls.name for cls in region.classes))
            for resource, loads in node_loads.items():
                for node, load in loads.items():
                    total[resource][node] += load
        assert len(planner._shards) == 2
        assert total == outcome.result.node_loads

    def test_verify_hook_passes(self, planned, tinet, monkeypatch):
        planner, _, _ = planned
        monkeypatch.setenv("REPRO_VERIFY_MODELS", "1")
        outcome = planner.plan(tinet.classes)
        assert validate_replication(outcome.state,
                                    outcome.result) == []


class TestShardedSmall:
    def test_validation(self, line_state_dc):
        with pytest.raises(ValueError):
            ShardedPlanner(line_state_dc, num_regions=0)
        with pytest.raises(ValueError):
            ShardedPlanner(line_state_dc, jobs=0)

    @settings(max_examples=50, deadline=None)
    @given(state=strategies.paired_states(),
           policy=st.sampled_from([MirrorPolicy.datacenter(),
                                   MirrorPolicy.neighbors(1)]))
    def test_single_region_equals_global(self, state, policy):
        sharded = ShardedPlanner(state, mirror_policy=policy,
                                 num_regions=1, jobs=1).plan(
            state.classes).result
        global_cost = GlobalPlanner(state, mirror_policy=policy).plan(
            state.classes).result.load_cost
        assert sharded.load_cost == pytest.approx(global_cost, rel=1e-9)
        assert validate_replication(state, sharded) == []
        assert sharded.table.layout.class_names == tuple(
            cls.name for cls in state.classes)

    def test_controller_runs_with_sharded_planner(self, line_state_dc,
                                                  line_classes):
        planner = ShardedPlanner(line_state_dc, num_regions=2, jobs=1)
        controller = NIDSController(line_state_dc, planner=planner)
        rollout = controller.refresh(line_classes)
        assert rollout.previous is None
        second = controller.refresh(
            [cls.scaled(3.0) for cls in line_classes])
        assert second.previous is rollout.configs


class TestFailover:
    def test_neighbor_adopts_and_replans(self, line_state_dc,
                                         line_classes):
        planner = ShardedPlanner(line_state_dc, num_regions=2, jobs=1)
        planner.plan(line_classes)
        assert planner.partition is not None
        before = len(planner.partition.regions)
        victim = planner.partition.regions[0]
        adopter = planner.fail_region(victim.nodes[0])
        assert adopter in planner.partition.region_names()
        assert victim.name not in planner.partition.region_names()
        assert len(planner.partition.regions) == before - 1
        assert planner.failover_count == 1

        outcome = planner.plan(line_classes)
        assert validate_replication(outcome.state,
                                    outcome.result) == []

    def test_unknown_target_rejected(self, line_state_dc,
                                     line_classes):
        planner = ShardedPlanner(line_state_dc, num_regions=2, jobs=1)
        planner.plan(line_classes)
        with pytest.raises(ValueError):
            planner.fail_region("not-a-node")

    def test_failover_before_plan_rejected(self, line_state_dc):
        planner = ShardedPlanner(line_state_dc, num_regions=2)
        with pytest.raises(RuntimeError):
            planner.fail_region("A")
