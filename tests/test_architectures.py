"""Unit tests for the named architecture presets and extensions."""

import pytest

from repro.core import (
    ArchitectureEvaluator,
    ArchitectureKind,
    evaluate_architecture,
    ingress_result,
)
from repro.core.extensions import FORTZ_THORUP_SEGMENTS, piecewise_link_cost
from repro.lpsolve import Model


@pytest.fixture
def evaluator(line_topology, line_classes):
    return ArchitectureEvaluator(line_topology, line_classes,
                                 dc_capacity_factor=10.0,
                                 max_link_load=0.4)


class TestIngressResult:
    def test_max_load_one_by_construction(self, line_state):
        result = ingress_result(line_state)
        assert result.load_cost == pytest.approx(1.0)

    def test_fractions_at_gateways(self, line_state):
        result = ingress_result(line_state)
        for cls in line_state.classes:
            assert result.process_fractions[cls.name] == \
                {cls.ingress: 1.0}

    def test_link_loads_are_background(self, line_state):
        result = ingress_result(line_state)
        for link, load in result.link_loads.items():
            assert load == pytest.approx(line_state.bg_load(link))


class TestEvaluator:
    def test_ordering_matches_paper(self, evaluator):
        """Figure 13's ordering: replicate <= no-replicate <= ingress."""
        ingress = evaluator.evaluate(ArchitectureKind.INGRESS)
        no_rep = evaluator.evaluate(ArchitectureKind.PATH_NO_REPLICATE)
        rep = evaluator.evaluate(ArchitectureKind.PATH_REPLICATE)
        assert rep.load_cost <= no_rep.load_cost + 1e-9
        assert no_rep.load_cost <= ingress.load_cost + 1e-9

    def test_dc_plus_one_hop_at_least_as_good_as_dc(self, evaluator):
        dc = evaluator.evaluate(ArchitectureKind.PATH_REPLICATE)
        both = evaluator.evaluate(ArchitectureKind.DC_PLUS_ONE_HOP)
        assert both.load_cost <= dc.load_cost + 1e-9

    def test_two_hop_at_least_as_good_as_one_hop(self, evaluator):
        one = evaluator.evaluate(ArchitectureKind.ONE_HOP)
        two = evaluator.evaluate(ArchitectureKind.TWO_HOP)
        assert two.load_cost <= one.load_cost + 1e-9

    def test_augmented_uses_spread_capacity(self, evaluator):
        plain = evaluator.evaluate(ArchitectureKind.PATH_NO_REPLICATE)
        augmented = evaluator.evaluate(ArchitectureKind.PATH_AUGMENTED)
        assert augmented.load_cost < plain.load_cost

    def test_alternate_traffic_uses_fixed_provisioning(self, evaluator,
                                                       line_classes):
        doubled = [c.scaled(2.0) for c in line_classes]
        base = evaluator.evaluate(ArchitectureKind.INGRESS)
        heavy = evaluator.evaluate(ArchitectureKind.INGRESS,
                                   classes=doubled)
        assert heavy.load_cost == pytest.approx(2 * base.load_cost)

    def test_one_shot_wrapper(self, line_topology, line_classes):
        result = evaluate_architecture(
            ArchitectureKind.PATH_REPLICATE, line_topology,
            line_classes, dc_capacity_factor=10.0, max_link_load=0.4)
        assert result.load_cost < 1.0
        assert result.dc_node is not None


class TestExtensions:
    def test_piecewise_cost_matches_fortz_thorup(self):
        """phi equals the piecewise function at a few known points."""
        def closed_form(u):
            cost, prev_slope, prev_start = 0.0, 0.0, 0.0
            best = 0.0
            for slope, start in FORTZ_THORUP_SEGMENTS:
                cost += prev_slope * (start - prev_start)
                best = max(best, slope * (u - start) + cost)
                prev_slope, prev_start = slope, start
            return best

        for u in (0.1, 0.5, 0.95, 1.05):
            m = Model()
            x = m.add_variable("x", lb=u, ub=u)
            phi = piecewise_link_cost(m, x + 0.0, "l")
            m.minimize(phi)
            sol = m.solve()
            assert sol.value(phi) == pytest.approx(closed_form(u),
                                                   rel=1e-6)

    def test_piecewise_cost_convex_increasing(self):
        values = []
        for u in (0.2, 0.5, 0.8, 1.0, 1.2):
            m = Model()
            x = m.add_variable("x", lb=u, ub=u)
            phi = piecewise_link_cost(m, x + 0.0, "l")
            m.minimize(phi)
            values.append(m.solve().value(phi))
        assert values == sorted(values)
        # Steeply super-linear past utilization 1.
        assert values[-1] > 10 * values[1]

    def test_replication_with_piecewise_link_cost(self, line_state_dc):
        from repro.core import MirrorPolicy, ReplicationProblem

        hard = ReplicationProblem(
            line_state_dc, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4).solve()
        soft = ReplicationProblem(
            line_state_dc, mirror_policy=MirrorPolicy.datacenter(),
            link_cost_weight=1e-3).solve()
        # The soft version still replicates and keeps load comparable.
        assert soft.load_cost <= 1.0
        assert soft.load_cost == pytest.approx(hard.load_cost,
                                               abs=0.25)
