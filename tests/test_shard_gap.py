"""Tests for the shard-gap experiment (sharded vs global LP).

This also carries the pinned acceptance bar for the sharded control
plane: on tinet with 2 regions (seed 0, DC capacity factor 1.0) the
merged sharded assignment must land within 10% of the global LoadCost
using at most 5 coordination rounds.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    format_gap,
    gap_to_json,
    run_shard_gap,
)


def shard_gap_series():
    """The run ``tests/golden/shard_gap_tinet.json`` pins
    (``tests/regen_goldens.py`` rewrites it)."""
    (series,) = run_shard_gap(topologies=["tinet"], regions=(2,),
                              jobs=1)
    return series


@pytest.fixture(scope="module")
def tinet_series():
    return shard_gap_series()


class TestAcceptanceBar:
    def test_gap_within_ten_percent(self, tinet_series):
        point = tinet_series.point(2)
        assert point.gap <= 0.10
        assert point.load_cost >= tinet_series.global_load_cost - 1e-9

    def test_coordination_rounds_bounded(self, tinet_series):
        assert 1 <= tinet_series.point(2).rounds <= 5

    def test_partition_covers_topology(self, tinet_series):
        point = tinet_series.point(2)
        assert len(point.region_sizes) == 2
        assert all(size >= 1 for size in point.region_sizes)
        assert point.lp_solves >= 2  # at least one solve per region

    def test_series_metadata(self, tinet_series):
        assert tinet_series.topology == "tinet"
        assert tinet_series.mirror == "dc"
        assert tinet_series.global_load_cost > 0
        assert tinet_series.global_wall_seconds > 0
        point = tinet_series.point(2)
        assert point.solve_wall_seconds > 0
        assert point.speedup > 0


class TestArtifacts:
    def test_matches_golden_document(self, tinet_series,
                                     assert_matches_golden):
        assert_matches_golden(gap_to_json([tinet_series]),
                              "shard_gap_tinet.json")

    def test_json_schema(self, tinet_series):
        payload = json.loads(gap_to_json([tinet_series]))
        assert payload["schema"] == 1
        assert payload["experiment"] == "shard-gap"
        (entry,) = payload["series"]
        assert entry["topology"] == "tinet"
        (point,) = entry["points"]
        assert set(point) == {"regions", "load_cost", "gap", "rounds",
                              "lp_solves", "region_sizes",
                              "solve_wall_seconds", "speedup"}

    def test_table_render(self, tinet_series):
        table = format_gap([tinet_series])
        assert "sharded control plane on tinet" in table
        assert "Rounds" in table
        assert "Speedup" in table

    def test_unknown_point_raises(self, tinet_series):
        with pytest.raises(KeyError):
            tinet_series.point(7)


class TestValidation:
    def test_unknown_mirror(self):
        with pytest.raises(ValueError):
            run_shard_gap(topologies=["tinet"], mirror="teleport")

    def test_empty_regions(self):
        with pytest.raises(ValueError):
            run_shard_gap(topologies=["tinet"], regions=())

    def test_bad_region_count(self):
        with pytest.raises(ValueError):
            run_shard_gap(topologies=["tinet"], regions=(0,))

    def test_gap_gauge_published(self, tinet_series):
        from repro.obs import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()) as metrics:
            run_shard_gap(topologies=["tinet"], regions=(2,), jobs=1)
            gauges = metrics.snapshot()["gauges"]
        assert "controller.shard.gap" in gauges
