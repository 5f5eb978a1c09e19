"""Acceptance: epoch-to-epoch delta rollouts install strictly fewer
rules than full-table rollouts on the steady-drift scenario.

This is the churn claim the diff compiler exists for — after the
bootstrap epoch (identical by construction: there is no base table to
patch), every delta refresh ships only the rules the LP re-solve
actually moved.
"""

import dataclasses

import pytest

from repro.runtime.scenario import run_scenario, steady_drift_scenario

EPOCHS = 5


@pytest.fixture(scope="module")
def reports():
    out = {}
    for strategy in ("overlap", "delta"):
        scenario = dataclasses.replace(
            steady_drift_scenario(epochs=EPOCHS), strategy=strategy)
        out[strategy] = run_scenario(scenario)
    return out


class TestDeltaVsFullTableRollouts:
    def test_delta_installs_strictly_fewer_rules(self, reports):
        overlap = reports["overlap"].summary()
        delta = reports["delta"].summary()
        assert delta["rules_installed"] < overlap["rules_installed"]

    def test_every_refresh_after_bootstrap_is_cheaper(self, reports):
        """Not just the total: each post-bootstrap epoch's delta
        refresh installs strictly fewer rules than the corresponding
        full-table refresh."""
        overlap = reports["overlap"].records
        delta = reports["delta"].records
        pairs = [(o.rules_installed, d.rules_installed)
                 for o, d in zip(overlap, delta, strict=True)
                 if o.rules_installed is not None
                 and d.rules_installed is not None]
        assert len(pairs) >= 2  # bootstrap + at least one refresh
        assert pairs[0][0] == pairs[0][1]  # bootstrap: no base table
        for full, incremental in pairs[1:]:
            assert incremental < full

    def test_delta_rollouts_complete_with_full_coverage(self,
                                                        reports):
        """The cheaper rollout is not buying churn with gaps: every
        delta epoch ends fully covered, like overlap does."""
        for report in reports.values():
            for record in report.records:
                assert record.coverage_end == pytest.approx(1.0)
