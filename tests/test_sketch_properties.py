"""Property tests for the count-min sketch (hypothesis).

The invariants the estimator mode leans on:

- merge is associative and commutative (worker order and merge tree
  shape never change the aggregate);
- estimates are one-sided (``estimate >= truth`` for every key);
- the classic epsilon-delta bound holds even on adversarial key sets
  (every overestimate is within ``epsilon * total`` with probability
  ``>= 1 - delta`` per query, checked in aggregate);
- a sketch far wider than the class universe is the exact estimator,
  however the stream is chunked and spread over ingest workers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ingest import IngestDaemon
from repro.simulation import ChunkedReplay, TraceGenerator
from repro.simulation.tracegen import TraceSpec
from repro.sketch import ClassVolumeSketch, CountMinSketch
from tests import strategies


streams = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1),
    min_size=0, max_size=200)
shapes = st.tuples(st.integers(min_value=4, max_value=64),
                   st.integers(min_value=1, max_value=5),
                   st.integers(min_value=0, max_value=1000))


def _sketch_of(stream, width, depth, seed):
    sketch = CountMinSketch(width, depth, seed=seed)
    if stream:
        sketch.update(np.array(stream, dtype=np.uint32))
    return sketch


@settings(max_examples=40, deadline=None)
@given(streams, streams, shapes)
def test_merge_commutes(left, right, shape):
    width, depth, seed = shape
    ab = _sketch_of(left, width, depth, seed).merge(
        _sketch_of(right, width, depth, seed))
    ba = _sketch_of(right, width, depth, seed).merge(
        _sketch_of(left, width, depth, seed))
    assert np.array_equal(ab.table, ba.table)
    assert ab.total == ba.total


@settings(max_examples=40, deadline=None)
@given(streams, streams, streams, shapes)
def test_merge_is_associative(a, b, c, shape):
    width, depth, seed = shape

    def sk(stream):
        return _sketch_of(stream, width, depth, seed)

    left_first = sk(a).merge(sk(b)).merge(sk(c))
    right_first = sk(a).merge(sk(b).merge(sk(c)))
    assert np.array_equal(left_first.table, right_first.table)
    assert left_first.total == right_first.total


@settings(max_examples=40, deadline=None)
@given(streams, streams, shapes)
def test_merge_equals_concatenated_stream(left, right, shape):
    width, depth, seed = shape
    merged = _sketch_of(left, width, depth, seed).merge(
        _sketch_of(right, width, depth, seed))
    whole = _sketch_of(left + right, width, depth, seed)
    assert np.array_equal(merged.table, whole.table)


@settings(max_examples=60, deadline=None)
@given(streams, shapes)
def test_estimates_never_underestimate(stream, shape):
    width, depth, seed = shape
    sketch = _sketch_of(stream, width, depth, seed)
    if not stream:
        return
    uniq, truth = np.unique(np.array(stream, dtype=np.uint32),
                            return_counts=True)
    assert np.all(sketch.estimate(uniq) >= truth)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=10_000))
def test_epsilon_delta_bound_on_adversarial_keys(seed, key_base):
    # Adversarial universe: 4096 consecutive keys (maximally regular
    # structure) hammered into a narrow sketch. The classic bound —
    # overestimate <= epsilon * total with probability >= 1 - delta
    # per key — must still hold in aggregate, because lookup3's rows
    # behave like independent hashes.
    width, depth = 32, 4
    sketch = CountMinSketch(width, depth, seed=seed)
    keys = (np.arange(4096, dtype=np.uint64) + key_base).astype(
        np.uint32)
    sketch.update(keys)
    estimates = sketch.estimate(keys)
    overshoot = estimates - 1  # every key was inserted exactly once
    bound = sketch.epsilon * sketch.total
    failures = int(np.count_nonzero(overshoot > bound))
    # Expected failure mass is delta * n; allow 3x slack so the test
    # is a guardrail, not a coin flip.
    allowed = max(8.0, 3.0 * sketch.delta * len(keys))
    assert failures <= allowed


@settings(max_examples=150, deadline=None)
@given(state=st.one_of(strategies.small_states(),
                       strategies.paired_states()),
       trace_seed=st.integers(min_value=0, max_value=10_000),
       sessions=st.integers(min_value=1, max_value=400),
       workers=st.integers(min_value=1, max_value=4),
       chunk_packets=st.integers(min_value=1, max_value=300),
       seed=st.integers(min_value=0, max_value=2**33))
def test_wide_sketch_is_the_exact_estimator(state, trace_seed, sessions,
                                            workers, chunk_packets,
                                            seed):
    # A dozen keys at most never share a counter in all four rows of
    # 2**16, so the streamed, per-worker, merged estimate is the exact
    # count: chunking, worker assignment and merging lose nothing.
    batch = TraceGenerator(
        state.topology.nodes, state.classes,
        spec=TraceSpec(total_sessions=sessions),
        seed=trace_seed).generate_batch(
            tuple(state.nids_nodes), with_payloads=False, direct=True)
    names = [cls.name for cls in state.classes]
    daemon = IngestDaemon(names, width=2**16, depth=4, seed=seed,
                          workers=workers)
    for chunk in ChunkedReplay(batch, chunk_packets):
        daemon.consume(chunk)
    merged = daemon.snapshot()
    whole = ClassVolumeSketch(names, width=2**16, depth=4, seed=seed)
    whole.observe_batch(batch)
    assert (merged.classes.table.tobytes() ==
            whole.classes.table.tobytes())

    # The trace names only the classes it drew sessions for; the rest
    # of the universe counts zero.
    exact = dict.fromkeys(names, 0.0)
    exact.update(batch.sessions.class_counts())
    assert dict(zip(names, merged.class_volumes().tolist())) == exact
    assert daemon.estimated_classes(state.classes) == [
        cls.with_sessions(exact[cls.name]) for cls in state.classes]
