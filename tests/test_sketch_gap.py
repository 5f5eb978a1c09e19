"""Tests for the sketch-gap experiment (estimator vs oracle LP).

This carries the pinned acceptance bar for the streaming estimation
subsystem: on tinet (1640 classes, seed 0, 6000 sampled sessions) the
LP solved on count-min estimates at a **4 KB-per-class state budget**
must realize a LoadCost within 10% of the exact-matrix oracle.
"""

from __future__ import annotations

import json

import pytest

from repro.core.validation import plan_loads
from repro.experiments import format_gap, gap_to_json, run_sketch_gap


def sketch_gap_series():
    """The run ``tests/golden/sketch_gap_tinet.json`` pins
    (``tests/regen_goldens.py`` rewrites it)."""
    # Two widths keep the module fast; 4096 is the 4 KB/class budget
    # point (160 B/class of actual sketch state on tinet).
    (series,) = run_sketch_gap(topologies=["tinet"],
                               widths=(1024, 4096), seed=0)
    return series


@pytest.fixture(scope="module")
def tinet_series():
    return sketch_gap_series()


class TestAcceptanceBar:
    def test_gap_within_ten_percent_at_budget(self, tinet_series):
        point = tinet_series.budget_point(4096.0)
        assert point.gap <= 0.10
        assert point.width == 4096

    def test_realized_cost_dominates_lp_estimate_cost(self,
                                                      tinet_series):
        # The LP on overestimates is pessimistic in its own cost, but
        # what matters is realized: it must be >= the oracle optimum.
        oracle = tinet_series.oracle_load_cost
        for point in tinet_series.points:
            assert point.realized_load_cost >= oracle - 1e-9
            assert point.gap == pytest.approx(
                (point.realized_load_cost - oracle) / oracle)

    def test_wider_sketch_estimates_better(self, tinet_series):
        narrow = tinet_series.point(1024)
        wide = tinet_series.point(4096)
        assert wide.error_l1_rel <= narrow.error_l1_rel
        assert wide.state_bytes == 4 * narrow.state_bytes

    def test_sampling_floor_is_separated(self, tinet_series):
        # The sampled trace itself carries irreducible error; the
        # series reports it so sketch collisions can be judged
        # against the honest floor.
        assert tinet_series.sampling_gap >= 0.0
        assert tinet_series.sampling_gap <= 0.10

    def test_series_metadata(self, tinet_series):
        assert tinet_series.topology == "tinet"
        assert tinet_series.num_classes > 1000
        assert tinet_series.oracle_load_cost > 0
        for point in tinet_series.points:
            assert point.bytes_per_class == pytest.approx(
                point.state_bytes / tinet_series.num_classes)


class TestArtifacts:
    def test_matches_golden_document(self, tinet_series,
                                     assert_matches_golden):
        assert_matches_golden(gap_to_json([tinet_series]),
                              "sketch_gap_tinet.json")

    def test_json_schema(self, tinet_series):
        payload = json.loads(gap_to_json([tinet_series]))
        assert payload["schema"] == 1
        assert payload["experiment"] == "sketch-gap"
        (entry,) = payload["series"]
        assert entry["topology"] == "tinet"
        assert len(entry["points"]) == 2
        for point in entry["points"]:
            assert set(point) >= {"width", "depth", "state_bytes",
                                  "gap", "error_l1_rel",
                                  "realized_load_cost"}

    def test_text_table(self, tinet_series):
        text = format_gap([tinet_series])
        assert "sampling floor" in text
        assert "4096" in text

    def test_budget_point_rejects_impossible_budget(self,
                                                    tinet_series):
        with pytest.raises(KeyError):
            tinet_series.budget_point(0.001)


class TestValidation:
    def test_bad_mirror(self):
        with pytest.raises(ValueError):
            run_sketch_gap(mirror="bogus")

    def test_bad_widths(self):
        with pytest.raises(ValueError):
            run_sketch_gap(widths=())
        with pytest.raises(ValueError):
            run_sketch_gap(widths=(0,))

    def test_bad_depth_and_sessions(self):
        with pytest.raises(ValueError):
            run_sketch_gap(depth=0)
        with pytest.raises(ValueError):
            run_sketch_gap(sessions=0)


class TestRealizedLoadCost:
    def test_oracle_assignment_realizes_its_own_cost(self):
        # Solving on the exact matrix and re-charging the assignment
        # with the same volumes must reproduce the LP's LoadCost.
        from repro.core.controller import GlobalPlanner
        from repro.experiments.common import setup_topology

        setup = setup_topology("internet2",
                               dc_capacity_factor=1.0)
        planner = GlobalPlanner(setup.state, max_link_load=0.4)
        outcome = planner.plan(list(setup.state.classes))
        node_loads, _ = plan_loads(outcome.state,
                                   outcome.result.fraction_table(
                                       cls.name for cls in
                                       outcome.state.classes))
        realized = max(node_loads["cpu"].values())
        assert realized == pytest.approx(outcome.result.load_cost,
                                         rel=1e-6)
