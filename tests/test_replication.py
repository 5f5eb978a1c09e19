"""Unit tests for the Section 4 replication LP (Figure 7)."""

import pytest

from repro.core import MirrorPolicy, NetworkState, ReplicationProblem


@pytest.fixture
def no_replicate_result(line_state):
    return ReplicationProblem(
        line_state, mirror_policy=MirrorPolicy.none()).solve()


@pytest.fixture
def dc_result(line_state_dc):
    return ReplicationProblem(
        line_state_dc, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.4).solve()


class TestOnPathDistribution:
    def test_optimal_balance_on_line(self, no_replicate_result):
        # Work: A->D (1000) splittable over A,B,C,D; B->C (500) over
        # B,C. Perfect balance: 1500/4 = 375 per node; cap is 1000.
        assert no_replicate_result.load_cost == pytest.approx(0.375,
                                                              abs=1e-6)

    def test_coverage_sums_to_one(self, no_replicate_result, line_state):
        for cls in line_state.classes:
            total = sum(
                no_replicate_result.process_fractions[cls.name].values())
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_fractions_within_bounds(self, no_replicate_result):
        for fractions in no_replicate_result.process_fractions.values():
            for value in fractions.values():
                assert -1e-9 <= value <= 1 + 1e-9

    def test_only_on_path_nodes_process(self, no_replicate_result,
                                        line_state):
        for cls in line_state.classes:
            fractions = no_replicate_result.process_fractions[cls.name]
            assert set(fractions) == set(cls.path)

    def test_no_offloads_under_none_policy(self, no_replicate_result):
        assert no_replicate_result.offload_fractions == {}

    def test_beats_ingress_only(self, no_replicate_result, line_state):
        ingress_max = max(line_state.ingress_load().values())
        assert no_replicate_result.load_cost < ingress_max


class TestReplication:
    def test_coverage_includes_offloads(self, dc_result, line_state_dc):
        for cls in line_state_dc.classes:
            local = sum(dc_result.process_fractions[cls.name].values())
            offloaded = dc_result.replicated_fraction(cls.name)
            assert local + offloaded == pytest.approx(1.0, abs=1e-6)

    def test_replication_reduces_max_load(self, dc_result,
                                          no_replicate_result):
        assert dc_result.load_cost < no_replicate_result.load_cost

    def test_link_loads_respect_bound(self, dc_result, line_state_dc):
        for link, load in dc_result.link_loads.items():
            bound = max(0.4, line_state_dc.bg_load(link))
            assert load <= bound + 1e-6

    def test_node_loads_below_load_cost(self, dc_result):
        for loads in dc_result.node_loads.values():
            for load in loads.values():
                assert load <= dc_result.load_cost + 1e-6

    def test_load_cost_attained(self, dc_result):
        top = max(max(loads.values())
                  for loads in dc_result.node_loads.values())
        assert top == pytest.approx(dc_result.load_cost, abs=1e-6)

    def test_zero_link_budget_disables_replication(self, line_state_dc,
                                                   line_state):
        strangled = ReplicationProblem(
            line_state_dc, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.0).solve()
        plain = ReplicationProblem(
            line_state, mirror_policy=MirrorPolicy.none()).solve()
        # With zero budget the DC is unreachable except over links that
        # already exceed the bound via background (none here can carry
        # *new* traffic), so the result matches pure on-path.
        assert strangled.load_cost == pytest.approx(plain.load_cost,
                                                    abs=1e-6)

    def test_monotone_in_link_budget(self, line_state_dc):
        costs = []
        for limit in (0.0, 0.2, 0.4, 0.8):
            result = ReplicationProblem(
                line_state_dc, mirror_policy=MirrorPolicy.datacenter(),
                max_link_load=limit).solve()
            costs.append(result.load_cost)
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_monotone_in_dc_capacity(self, line_topology, line_classes):
        costs = []
        for factor in (1.0, 4.0, 10.0):
            state = NetworkState.calibrated(
                line_topology, line_classes, dc_capacity_factor=factor)
            result = ReplicationProblem(
                state, mirror_policy=MirrorPolicy.datacenter(),
                max_link_load=1.0).solve()
            costs.append(result.load_cost)
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_stats_populated(self, dc_result):
        assert dc_result.stats.num_variables > 0
        assert dc_result.stats.num_constraints > 0
        assert dc_result.stats.solve_seconds >= 0.0


class TestLocalOffload:
    def test_one_hop_improves_on_path_only(self, line_state):
        plain = ReplicationProblem(
            line_state, mirror_policy=MirrorPolicy.none()).solve()
        one_hop = ReplicationProblem(
            line_state, mirror_policy=MirrorPolicy.neighbors(1),
            max_link_load=0.4).solve()
        assert one_hop.load_cost <= plain.load_cost + 1e-9

    def test_offloads_target_mirror_set_only(self, line_state):
        policy = MirrorPolicy.neighbors(1)
        result = ReplicationProblem(
            line_state, mirror_policy=policy,
            max_link_load=0.4).solve()
        sets = policy.mirror_sets(line_state)
        for cls_name, offloads in result.offload_fractions.items():
            for (node, mirror) in offloads:
                assert mirror in sets[node]

    def test_no_offload_to_on_path_mirror(self, line_state_dc):
        # Mirrors already on a class's path must not receive offloads.
        result = ReplicationProblem(
            line_state_dc, mirror_policy=MirrorPolicy.all_nodes(),
            max_link_load=0.4).solve()
        for cls in line_state_dc.classes:
            for (node, mirror) in result.offload_fractions.get(
                    cls.name, {}):
                assert mirror not in cls.path


class TestValidation:
    def test_bad_link_load_rejected(self, line_state):
        with pytest.raises(ValueError):
            ReplicationProblem(line_state, max_link_load=1.5)
