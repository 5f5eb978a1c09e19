"""Unit tests for the count-min sketch and the class-volume layer."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.common import setup_topology
from repro.simulation import ChunkedReplay, TraceGenerator
from repro.simulation.tracegen import TraceSpec
from repro.sketch import (
    ClassVolumeSketch,
    CountMinSketch,
    SketchMismatchError,
)

GOLDEN = Path(__file__).parent / "golden" / "dataplane_parent.json"


def chunked_sketch_digests():
    """sha256 of the counter tables after a trace is fed chunk by
    chunk. The golden copy (``tests/golden/dataplane_parent.json``) was
    written by this function at the commit before the sketch hashed
    all its rows in one call and scattered them in one ``add.at``: the
    tables must stay byte-identical. Covers a seed beyond 32 bits, a
    width that is not a power of two, and 1-, 3- and 5-word keys (each
    lookup3 tail length)."""
    state = setup_topology("internet2").state
    batch = TraceGenerator(
        state.topology.nodes, state.classes,
        spec=TraceSpec(total_sessions=600, scanner_count=2,
                       scanner_fanout=9), seed=13).generate_batch(
            tuple(state.nids_nodes), with_payloads=False, direct=True)
    volumes = ClassVolumeSketch(
        [cls.name for cls in state.classes], width=48, depth=4,
        seed=2 ** 33 + 17)
    words3 = CountMinSketch(37, 5, seed=9)
    words5 = CountMinSketch(64, 3, seed=2 ** 31 - 1)
    for chunk in ChunkedReplay(batch, 50):
        volumes.observe_batch(chunk)
        sess = chunk.sessions
        words3.update([sess.src_ip, sess.dst_ip, sess.dst_port])
        words5.update([sess.proto, sess.src_ip, sess.src_port,
                       sess.dst_ip, sess.dst_port],
                      np.arange(sess.num_sessions, dtype=np.int64) % 7)
    tables = {"classes": volumes.classes, "words3": words3,
              "words5": words5}
    return {name: {"total": sketch.total,
                   "table": hashlib.sha256(
                       sketch.table.tobytes()).hexdigest()}
            for name, sketch in tables.items()}


class TestCountMin:
    def test_small_universe_is_exact(self):
        # Far fewer keys than counters: the min over rows recovers
        # every count exactly.
        sketch = CountMinSketch(256, 4, seed=1)
        keys = np.arange(10, dtype=np.uint32)
        counts = np.arange(1, 11, dtype=np.int64)
        sketch.update(keys, counts)
        assert np.array_equal(sketch.estimate(keys), counts)
        assert sketch.total == int(counts.sum())

    def test_estimates_are_one_sided(self):
        # Even under heavy collision pressure (universe >> width),
        # count-min never underestimates.
        sketch = CountMinSketch(8, 2, seed=3)
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 2**32, size=500, dtype=np.uint32)
        sketch.update(keys)
        uniq, true_counts = np.unique(keys, return_counts=True)
        assert np.all(sketch.estimate(uniq) >= true_counts)

    def test_unit_counts_default(self):
        sketch = CountMinSketch(64, 3, seed=0)
        keys = np.array([7, 7, 9], dtype=np.uint32)
        sketch.update(keys)
        assert sketch.estimate(
            np.array([7], dtype=np.uint32))[0] == 2
        assert sketch.total == 3

    def test_negative_counts_rejected(self):
        sketch = CountMinSketch(64, 3, seed=0)
        with pytest.raises(ValueError):
            sketch.update(np.array([1], dtype=np.uint32),
                          np.array([-1]))

    def test_empty_update_is_noop(self):
        sketch = CountMinSketch(64, 3, seed=0)
        sketch.update(np.zeros(0, dtype=np.uint32))
        assert sketch.total == 0
        assert not sketch.table.any()

    def test_merge_is_lossless(self):
        # merged(a, b) must be bit-exactly the sketch of the
        # concatenated stream — the OctoSketch invariant.
        rng = np.random.default_rng(11)
        left = rng.integers(0, 1000, size=300, dtype=np.uint32)
        right = rng.integers(0, 1000, size=400, dtype=np.uint32)
        a = CountMinSketch(128, 4, seed=9)
        b = CountMinSketch(128, 4, seed=9)
        whole = CountMinSketch(128, 4, seed=9)
        a.update(left)
        b.update(right)
        whole.update(np.concatenate([left, right]))
        merged = a.copy().merge(b)
        assert np.array_equal(merged.table, whole.table)
        assert merged.total == whole.total

    @pytest.mark.parametrize("other", [
        dict(width=64, depth=4, seed=9),
        dict(width=128, depth=3, seed=9),
        dict(width=128, depth=4, seed=10),
    ])
    def test_merge_mismatch_raises(self, other):
        base = CountMinSketch(128, 4, seed=9)
        with pytest.raises(SketchMismatchError):
            base.merge(CountMinSketch(other["width"], other["depth"],
                                      seed=other["seed"]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CountMinSketch(0, 4, seed=1)
        with pytest.raises(ValueError):
            CountMinSketch(16, 0, seed=1)

    def test_seed_is_keyword_only(self):
        with pytest.raises(TypeError):
            CountMinSketch(16, 4, 1)  # noqa — the contract under test

    def test_state_accounting(self):
        sketch = CountMinSketch(1024, 4, seed=2)
        assert sketch.state_bytes == 1024 * 4 * 8
        assert sketch.epsilon == pytest.approx(np.e / 1024)
        assert sketch.delta == pytest.approx(np.exp(-4))
        sketch.update(np.array([1], dtype=np.uint32),
                      np.array([100]))
        assert sketch.error_bound() == pytest.approx(
            sketch.epsilon * 100)

    def test_reset_clears_window(self):
        sketch = CountMinSketch(64, 2, seed=4)
        sketch.update(np.array([5, 6], dtype=np.uint32))
        sketch.reset()
        assert sketch.total == 0
        assert not sketch.table.any()

    def test_multi_column_keys(self):
        sketch = CountMinSketch(256, 4, seed=8)
        cols = [np.array([1, 2], dtype=np.uint32),
                np.array([3, 4], dtype=np.uint32)]
        sketch.update(cols, np.array([10, 20]))
        assert np.array_equal(sketch.estimate(cols), [10, 20])


    def test_chunk_fed_tables_are_the_parents(self):
        golden = json.loads(GOLDEN.read_text())["sketch_tables"]
        assert chunked_sketch_digests() == golden


class TestClassVolumeSketch:
    def make(self, **kwargs):
        kwargs.setdefault("width", 256)
        kwargs.setdefault("depth", 4)
        kwargs.setdefault("seed", 7)
        return ClassVolumeSketch(["a->b", "b->a", "a->c"], **kwargs)

    def test_observe_classes_and_volumes(self):
        sketch = self.make()
        sketch.observe_classes(["a->b", "a->c"], [120.0, 30.0])
        assert sketch.class_volume("a->b") == 120
        assert sketch.class_volume("a->c") == 30
        assert sketch.class_volume("b->a") == 0
        assert sketch.sessions == 150

    def test_unknown_class_rejected(self):
        sketch = self.make()
        with pytest.raises(ValueError):
            sketch.observe_classes(["nope"], [1.0])

    def test_duplicate_universe_rejected(self):
        with pytest.raises(ValueError):
            ClassVolumeSketch(["x", "x"], seed=1)

    def test_merge_matches_single_worker(self):
        a = self.make()
        b = self.make()
        whole = self.make()
        a.observe_classes(["a->b"], [10.0])
        b.observe_classes(["a->b", "b->a"], [5.0, 7.0])
        whole.observe_classes(["a->b", "a->b", "b->a"],
                              [10.0, 5.0, 7.0])
        a.merge(b)
        assert np.array_equal(a.class_volumes(),
                              whole.class_volumes())
        assert a.sessions == whole.sessions
        assert a.merges == 1

    def test_merge_requires_same_universe(self):
        a = self.make()
        b = ClassVolumeSketch(["other"], width=256, depth=4, seed=7)
        with pytest.raises(SketchMismatchError):
            a.merge(b)

    def test_estimate_errors(self):
        sketch = self.make()
        sketch.observe_classes(["a->b"], [100.0])
        errors = sketch.estimate_errors(
            {"a->b": 90.0, "b->a": 0.0})
        assert errors["l1"] == pytest.approx(10.0)
        assert errors["linf"] == pytest.approx(10.0)
        assert errors["l1_rel"] == pytest.approx(10.0 / 90.0)

    def test_state_bytes_is_the_class_table(self):
        sketch = ClassVolumeSketch(["a->b"], width=101, depth=3, seed=7)
        assert sketch.state_bytes == 101 * 3 * 8


class TestEstimatedClasses:
    def test_estimated_classes_keep_structure(self, line_state_dc):
        classes = list(line_state_dc.classes)
        sketch = ClassVolumeSketch([cls.name for cls in classes],
                                   width=256, depth=4, seed=3)
        sketch.observe_classes([classes[0].name], [50.0])
        estimated = sketch.estimated_classes(classes, scale=2.0)
        assert estimated[0].num_sessions == pytest.approx(100.0)
        # Structure is untouched — only volumes are estimated.
        assert estimated[0].source == classes[0].source
        assert estimated[0].target == classes[0].target
