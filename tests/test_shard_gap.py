"""Tests for the shard-gap experiment (sharded vs global LP).

Its acceptance bar — on tinet, 2 regions land within 10% of the global
LoadCost in 1 to 5 coordination rounds — is a claim of the
``shard-gap`` entry of :data:`repro.experiments.registry.EXPERIMENTS`,
checked by ``benchmarks/test_paper_claims.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_shard_gap


class TestValidation:
    def test_bad_region_count(self):
        with pytest.raises(ValueError):
            run_shard_gap(regions=(0,))

    def test_gap_gauge_published(self):
        from repro.obs import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as metrics:
            run_shard_gap(regions=(2,))
            gauges = metrics.snapshot()["gauges"]
        assert "controller.shard.gap" in gauges
