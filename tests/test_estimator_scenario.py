"""End-to-end tests for the sketch-estimator closed loop.

The acceptance contract for the streaming estimation subsystem:
the canned ``sketch-estimator`` scenario runs the controller entirely
on count-min estimates, fires at least one sketch-driven drift
refresh, keeps the ingest working set at O(sketch + chunk) — asserted
from measured bytes, not eyeballed — and reproduces bit-identically
run over run.
"""

import dataclasses

import pytest

from repro.core.formulation import Formulation
from repro.obs import MetricsRegistry, use_registry
from repro.runtime import ChannelSpec
from repro.runtime.scenario import (
    CANNED_SCENARIOS,
    run_scenario,
    sketch_estimator_scenario,
)


@pytest.fixture(scope="module")
def scenario():
    # internet2 keeps the module fast; the class universe is small
    # but the whole estimator pipeline (pack -> chunked stream ->
    # sketch -> drift trigger -> resolve) is identical to tinet's.
    return sketch_estimator_scenario(topology="internet2", epochs=5)


@pytest.fixture(scope="module")
def outcome(scenario):
    with use_registry(MetricsRegistry()) as metrics:
        report = run_scenario(scenario)
    return report, metrics


class TestEstimatorLoop:
    def test_registered_as_canned_scenario(self):
        assert "sketch-estimator" in CANNED_SCENARIOS

    def test_all_epochs_solve_on_estimates(self, outcome):
        report, _ = outcome
        assert len(report.records) == 5
        assert all(rec.solve_ok for rec in report.records)
        # Estimator bookkeeping present on every epoch record.
        assert all(rec.estimate_l1_rel is not None
                   for rec in report.records)
        assert all(rec.ingest_chunks and rec.ingest_chunks > 0
                   for rec in report.records)

    def test_sketch_driven_drift_refresh_fires(self, outcome):
        report, metrics = outcome
        reasons = [rec.refresh_reason for rec in report.records]
        assert reasons[0] == "bootstrap"
        # The periodic trigger is off in this scenario, so any other
        # refresh is the estimator's drift view firing.
        assert reasons.count("drift") >= 1
        assert metrics.counter_value(
            "runtime.estimator.drift_refreshes") >= 1

    def test_every_refresh_after_bootstrap_is_a_warm_patch(
            self, outcome, scenario, monkeypatch):
        # A class the sketch saw no session of one epoch and some the
        # next changes a coefficient's value, never the LP's
        # structure: one compile, then patches only. The sparse feed
        # leaves most classes unseen in any one epoch.
        sparse = dataclasses.replace(scenario, sessions_per_epoch=100)
        with use_registry(MetricsRegistry()) as sparse_metrics:
            sparse_report = run_scenario(sparse)
        for report, metrics in (outcome,
                                (sparse_report, sparse_metrics)):
            assert all(rec.refresh_reason for rec in report.records)
            assert metrics.counter_value("lp.compile_cache.hits") == \
                scenario.epochs - 1
            assert metrics.counter_value("lp.resolve.fallbacks") == 0

        # ... and the patched loop is the cold-rebuilt one, bit for bit.
        monkeypatch.setattr(Formulation, "_traffic_compatible",
                            lambda self, classes: False)
        with use_registry(MetricsRegistry()) as cold_metrics:
            cold_report = run_scenario(sparse)
        assert cold_metrics.counter_value("lp.compile_cache.hits") == 0
        assert cold_report.fingerprint() == sparse_report.fingerprint()

    def test_estimates_track_the_feed(self, outcome):
        report, _ = outcome
        # A 2048-wide sketch over a small universe: per-epoch L1
        # error stays in the low percent range.
        assert all(rec.estimate_l1_rel < 0.05
                   for rec in report.records)

    def test_resident_state_is_sketch_plus_chunk(self, outcome,
                                                 scenario):
        report, _ = outcome
        # Per-worker sketch state: one int64 class table.
        per_sketch = scenario.sketch_width * scenario.sketch_depth * 8
        # workers + the snapshot aggregate, plus one in-flight slab
        # (generous per-packet allowance covers session alignment
        # and payload bytes).
        sketches = (scenario.ingest_workers + 1) * per_sketch
        chunk_allowance = 600 * scenario.chunk_packets
        for rec in report.records:
            assert rec.estimator_state_bytes == per_sketch
            assert rec.ingest_max_resident_bytes <= \
                sketches + chunk_allowance
        # And the bound is meaningfully below the full epoch trace
        # (~sessions * packets * payload): the daemon never held the
        # whole epoch.
        full_epoch_floor = scenario.sessions_per_epoch * 400
        assert all(rec.ingest_max_resident_bytes <
                   sketches + full_epoch_floor
                   for rec in report.records)

    def test_fingerprint_reproducible(self, scenario, outcome):
        report, _ = outcome
        again = run_scenario(scenario)
        assert again.fingerprint() == report.fingerprint()

    def test_overlap_union_at_an_epoch_boundary_replays(self):
        # A channel lossy enough that some node still runs the
        # old/new overlap union when the next epoch's feed replays:
        # the chunked replay (which has no scalar fallback) lowers the
        # union's overlapping ranges instead of raising, and the
        # exact-mode replay no longer needs the scalar oracle either.
        lossy = dataclasses.replace(
            sketch_estimator_scenario("internet2", epochs=4),
            sessions_per_epoch=300,
            channel=ChannelSpec(base_delay=2, jitter=2, loss=0.6,
                                retransmit_timeout=8, max_retries=1))
        estimated = run_scenario(lossy)
        assert len(estimated.records) == 4
        assert all(rec.solve_ok and rec.emulated_max_work > 0
                   for rec in estimated.records)
        # No rollout completed, so every later epoch replayed unions.
        assert all(rec.rollout_latency is None
                   for rec in estimated.records)
        with use_registry(MetricsRegistry()) as metrics:
            run_scenario(dataclasses.replace(lossy, estimator=None))
        assert metrics.counter_value("emulation.fast.fallbacks") == 0

    def test_estimator_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(sketch_estimator_scenario(),
                                estimator="bogus")
