"""Tests for the sketch-gap experiment (estimator vs oracle LP).

Its acceptance bar — on tinet (1640 classes, seed 0, 6000 sampled
sessions) the LP solved on count-min estimates at a **4 KB-per-class
state budget** realizes a LoadCost within 10% of the exact-matrix
oracle — is a claim of the ``sketch-gap`` entry of
:data:`repro.experiments.registry.EXPERIMENTS`, checked by
``benchmarks/test_paper_claims.py``.
"""

from __future__ import annotations

import pytest

from repro.core.validation import plan_loads
from repro.experiments import run_sketch_gap


class TestValidation:
    def test_bad_depth_and_sessions(self):
        with pytest.raises(ValueError):
            run_sketch_gap(depth=0)
        with pytest.raises(ValueError, match="sessions"):
            run_sketch_gap(sessions=0)

    def test_gap_gauge_published(self):
        from repro.obs import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as metrics:
            run_sketch_gap(widths=(4096,))
            gauges = metrics.snapshot()["gauges"]
        assert "sketch.gap" in gauges


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
