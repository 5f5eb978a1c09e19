"""Tests for the experiment runners (small parameterizations).

These check the *shapes* the paper reports, on fast configurations;
the benchmark harness runs the full versions.
"""

import pytest

from repro.core import ArchitectureKind
from repro.experiments import (
    Fig12Row,
    format_dc_capacity,
    format_fig10,
    format_fig11,
    format_fig12,
    format_fig13,
    format_fig14,
    format_fig15,
    format_fig16,
    format_fig17,
    format_fig18,
    format_fig19,
    format_placement,
    format_table1,
    run_dc_capacity_ablation,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_fig16_17,
    run_fig18,
    run_fig19,
    run_placement_ablation,
    run_table1,
)

SMALL = ["internet2"]


class TestTable1:
    def test_solve_times_small(self):
        rows = run_table1(topologies=["internet2", "geant"])
        assert len(rows) == 2
        for row in rows:
            # Well within "timescales of network reconfigurations".
            assert row.replication_solve_s < 30.0
            assert row.aggregation_solve_s < 30.0
        assert "Table 1" in format_table1(rows)

    def test_pop_counts_match_paper(self):
        rows = run_table1(topologies=["internet2"])
        assert rows[0].num_pops == 11


class TestFig10:
    def test_replication_halves_peak_work(self):
        result = run_fig10(total_sessions=1200)
        # Paper: ~2x reduction on the maximally loaded node (DC 8x).
        assert result.max_work_reduction() > 1.3
        # Emulated reduction tracks the LP prediction.
        lp_gain = result.lp_max_no_replicate / result.lp_max_replicate
        assert result.max_work_reduction() == pytest.approx(lp_gain,
                                                            rel=0.35)
        assert "Figure 10" in format_fig10(result)

    def test_dc_does_work_only_under_replication(self):
        result = run_fig10(total_sessions=800)
        assert result.work_no_replicate[result.dc_node] == 0.0
        assert result.work_replicate[result.dc_node] > 0.0


class TestFig11:
    def test_monotone_and_diminishing(self):
        series = run_fig11(topologies=SMALL,
                           link_loads=(0.0, 0.1, 0.4, 1.0))[0]
        # To 1e-9: once the link bound stops binding, two budgets give
        # the same LoadCost up to which optimal vertex the solver names.
        assert all(b <= a + 1e-9 for a, b in zip(
            series.max_loads, series.max_loads[1:]))
        # Diminishing returns past 0.4 (paper's knee).
        assert series.knee_gain(0.4) < 0.1
        assert "Figure 11" in format_fig11([series])


class TestFig12:
    def test_gap_closes_with_link_budget(self):
        rows = run_fig12(topologies=SMALL)
        gaps = rows[0].gaps
        # More link budget -> DC more utilized -> gap less negative.
        assert gaps[(0.4, 10.0)] >= gaps[(0.1, 10.0)] - 1e-9
        # All gaps are <= 0 + tolerance (DC never exceeds max-NIDS in
        # these calibrated scenarios by more than noise).
        assert "Figure 12" in format_fig12(rows)

    def test_zero_gap_prints_one_sign(self):
        configs = ((0.1, 2.0), (0.4, 2.0), (0.4, 10.0))
        table = format_fig12([Fig12Row("internet2", dict(
            zip(configs, (-1e-12, 1e-12, -0.0004))))])
        assert table.splitlines()[-1].split()[1:] == ["+0.000"] * 3


class TestFig13:
    def test_replication_wins(self):
        rows = run_fig13(topologies=["internet2", "geant"])
        for row in rows:
            assert row.max_loads[ArchitectureKind.INGRESS] == \
                pytest.approx(1.0)
            assert row.replication_gain_vs_ingress() > 2.0
            assert row.replication_gain_vs_path() > 1.0
        assert "Figure 13" in format_fig13(rows)


class TestFig14:
    def test_one_hop_helps_two_hop_adds_little(self):
        rows = run_fig14(topologies=["internet2", "geant"])
        for row in rows:
            assert row.one_hop_gain() >= 1.0 - 1e-9
            # "Going to two hops does not add significant value."
            assert row.two_hop_extra_gain() < 1.15
        # Where on-path balancing is imperfect, one hop buys real gains.
        geant = next(r for r in rows if r.topology == "geant")
        assert geant.one_hop_gain() > 1.2
        assert "Figure 14" in format_fig14(rows)


class TestFig15:
    def test_replication_dominates_under_variability(self):
        rows = run_fig15(topologies=SMALL, num_matrices=6)
        by_arch = {r.architecture: r.summary for r in rows}
        ing = by_arch[ArchitectureKind.INGRESS]
        rep = by_arch[ArchitectureKind.PATH_REPLICATE]
        both = by_arch[ArchitectureKind.DC_PLUS_ONE_HOP]
        assert rep["median"] < ing["median"]
        assert rep["max"] < ing["max"]
        assert both["median"] <= rep["median"] + 1e-9
        assert "Figure 15" in format_fig15(rows)

    def test_no_replication_worst_case_can_exceed_one(self):
        rows = run_fig15(topologies=SMALL, num_matrices=10, seed=2)
        by_arch = {r.architecture: r.summary for r in rows}
        assert by_arch[ArchitectureKind.INGRESS]["max"] > 1.0


class TestFig16And17:
    def test_shapes(self):
        points = run_fig16_17(thetas=(0.1, 0.5, 0.9),
                              runs_per_theta=2)
        by = {(p.config, p.theta): p for p in points}
        # Ingress misses a lot at low overlap; DC misses ~nothing.
        assert by[("ingress", 0.1)].miss_rate > 0.4
        assert by[("dc-0.4", 0.1)].miss_rate < 0.05
        assert by[("dc-0.4", 0.9)].miss_rate < 0.05
        # Miss rates fall (weakly) as overlap grows.
        assert by[("ingress", 0.9)].miss_rate <= \
            by[("ingress", 0.1)].miss_rate
        assert by[("path", 0.9)].miss_rate <= \
            by[("path", 0.1)].miss_rate + 1e-9
        # DC architecture carries its load below the path-only one.
        assert by[("dc-0.4", 0.5)].max_load < \
            by[("path", 0.5)].max_load
        assert "Figure 16" in format_fig16(points)
        assert "Figure 17" in format_fig17(points)


class TestFig18And19:
    def test_tradeoff_curve(self):
        series = run_fig18(topologies=SMALL, num_points=5)[0]
        load_best, comm_best = series.best_point()
        # Some beta gets both normalized costs well below 1.
        assert load_best < 1.0
        assert comm_best < 1.0
        assert "Figure 18" in format_fig18([series])

    def test_aggregation_reduces_imbalance(self):
        rows = run_fig19(topologies=["internet2", "geant"],
                         num_beta_points=5)
        for row in rows:
            assert row.improvement >= 1.0
        assert "Figure 19" in format_fig19(rows)


class TestAblations:
    def test_placement_spread_small(self):
        rows = run_placement_ablation(topologies=SMALL)
        # Paper: "the gap between the different placement strategies is
        # very small".
        assert rows[0].spread() < 0.25
        assert "placement" in format_placement(rows)

    def test_dc_capacity_knee(self):
        series = run_dc_capacity_ablation(
            topologies=SMALL, capacities=(1.0, 4.0, 8.0, 12.0),
            link_loads=(0.1, 0.4))
        for s in series:
            # To 1e-9: once the DC stops binding, two capacities give
            # the same LoadCost up to which optimal vertex is returned.
            assert all(b <= a + 1e-9
                       for a, b in zip(s.max_loads, s.max_loads[1:]))
        # Lower link budget -> knee at or below the high-budget knee.
        low = next(s for s in series if s.max_link_load == 0.1)
        high = next(s for s in series if s.max_link_load == 0.4)
        assert low.knee_capacity() <= high.knee_capacity() + 1e-9
        assert "capacity" in format_dc_capacity(series)
