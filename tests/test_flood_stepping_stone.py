"""Tests for flood detection."""

import pytest

from repro.nids import FloodDetector, ScanAggregator, SplitStrategy


class TestFloodDetector:
    def test_distinct_source_counting(self):
        det = FloodDetector()
        det.observe_flow(1, 99)
        det.observe_flow(2, 99)
        det.observe_flow(1, 99)  # duplicate source
        det.observe_flow(1, 50)
        assert det.source_count(99) == 2
        assert det.source_count(50) == 1
        assert det.source_count(7) == 0

    def test_threshold(self):
        det = FloodDetector(threshold=2)
        for src in range(5):
            det.observe_flow(src, 99)
        det.observe_flow(1, 50)
        assert det.flagged_destinations() == [99]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            FloodDetector(threshold=-1)

    def test_per_destination_split_aggregates_correctly(self):
        """Each node owns a destination partition; per-destination
        counts sum across nodes/paths — the Section 6 extension."""
        node_a = FloodDetector()   # owns destination 99
        node_b = FloodDetector()   # owns destination 50
        victims = {99: node_a, 50: node_b}
        flows = [(s, 99) for s in range(10)] + [(7, 50), (8, 50)]
        for src, dst in flows:
            victims[dst].observe_flow(src, dst)

        aggregator = ScanAggregator(threshold=5,
                                    strategy=SplitStrategy.SOURCE_LEVEL)
        aggregator.submit(node_a.destination_count_report("N1"))
        aggregator.submit(node_b.destination_count_report("N2"))
        assert aggregator.alerts() == [99]

    def test_cross_path_counts_add(self):
        """The same victim reached over two paths: the aggregate count
        is the sum when sources are disjoint across paths."""
        path1 = FloodDetector()
        path2 = FloodDetector()
        for src in range(4):
            path1.observe_flow(src, 99)
        for src in range(100, 104):
            path2.observe_flow(src, 99)
        aggregator = ScanAggregator(threshold=6)
        aggregator.submit(path1.destination_count_report("N1"))
        aggregator.submit(path2.destination_count_report("N2"))
        assert aggregator.combined_counts()[99] == 8
        assert aggregator.alerts() == [99]

    def test_reset(self):
        det = FloodDetector()
        det.observe_flow(1, 99)
        det.reset()
        assert det.source_count(99) == 0
