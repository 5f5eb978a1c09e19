"""Property-based tests on the system's core invariants."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    AggregationProblem,
    MirrorPolicy,
    NetworkState,
    ReplicationProblem,
    validate_aggregation,
    validate_replication,
)
from repro.nids import AhoCorasick
from repro.shim import (
    FiveTuple,
    canonical_five_tuple,
    compile_hash_ranges,
    session_hash,
)
from repro.topology.asymmetry import jaccard_overlap
from tests import strategies

ips = st.integers(min_value=0, max_value=2 ** 32 - 1)
ports = st.integers(min_value=0, max_value=2 ** 16 - 1)
five_tuples = st.builds(FiveTuple,
                        proto=st.sampled_from([6, 17]),
                        src_ip=ips, src_port=ports,
                        dst_ip=ips, dst_port=ports)


class TestHashProperties:
    @given(tup=five_tuples)
    def test_session_hash_direction_invariant(self, tup):
        assert session_hash(tup) == session_hash(tup.reversed())

    @given(tup=five_tuples)
    def test_canonicalization_idempotent(self, tup):
        canon = canonical_five_tuple(tup)
        assert canonical_five_tuple(canon) == canon

    @given(tup=five_tuples)
    def test_canonical_form_shared_by_both_directions(self, tup):
        assert (canonical_five_tuple(tup) ==
                canonical_five_tuple(tup.reversed()))

    @given(tup=five_tuples, seed=st.integers(0, 1000))
    def test_hash_in_unit_interval(self, tup, seed):
        assert 0.0 <= session_hash(tup, seed=seed) < 1.0


class TestRangeProperties:
    @given(row=strategies.fraction_rows())
    def test_full_coverage_partition(self, row):
        """Normalized fractions compile to a partition of [0,1)."""
        ranges = compile_hash_ranges(list(enumerate(row)))
        for i in range(101):
            value = min(i / 100.0, 0.999999)
            owners = [r.key for r in ranges if r.contains(value)]
            assert len(owners) == 1

    @given(row=strategies.fraction_rows())
    def test_widths_match_fractions(self, row):
        ranges = compile_hash_ranges(list(enumerate(row)))
        by_key = {r.key: r.width for r in ranges}
        for key, fraction in enumerate(row):
            if fraction > 1e-9:
                assert by_key[key] == pytest.approx(fraction, abs=1e-6)


class TestJaccardProperties:
    node_lists = st.lists(st.sampled_from("ABCDEFGH"), min_size=1,
                          max_size=6, unique=True)

    @given(a=node_lists, b=node_lists)
    def test_symmetric(self, a, b):
        assert jaccard_overlap(a, b) == jaccard_overlap(b, a)

    @given(a=node_lists)
    def test_identity(self, a):
        assert jaccard_overlap(a, a) == 1.0

    @given(a=node_lists, b=node_lists)
    def test_bounds(self, a, b):
        assert 0.0 <= jaccard_overlap(a, b) <= 1.0


class TestAhoCorasickProperties:
    @settings(max_examples=50, deadline=None)
    @given(payload=st.binary(min_size=0, max_size=200),
           patterns=st.lists(st.binary(min_size=1, max_size=5),
                             min_size=1, max_size=5, unique=True))
    def test_matches_naive_reference(self, payload, patterns):
        ac = AhoCorasick(patterns)
        expected = sum(payload.startswith(p, i)
                       for p in patterns for i in range(len(payload)))
        assert len(ac.search(payload)) == expected


class TestReplicationLPProperties:
    @settings(max_examples=15, deadline=None)
    @given(state=strategies.small_states())
    def test_work_conservation(self, state):
        """Total processed work equals total offered work: fractions
        sum to one per class and loads integrate them exactly."""
        result = ReplicationProblem(
            state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.5).solve()
        total_offered = sum(c.footprint("cpu") * c.num_sessions
                            for c in state.classes)
        total_processed = sum(
            load * state.capacity("cpu", node)
            for node, load in result.node_loads["cpu"].items())
        assert total_processed == pytest.approx(total_offered,
                                                rel=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(state=strategies.small_states())
    def test_never_worse_than_ingress(self, state):
        result = ReplicationProblem(
            state, mirror_policy=MirrorPolicy.none()).solve()
        assert result.load_cost <= 1.0 + 1e-6

    @settings(max_examples=10, deadline=None)
    @given(state=strategies.small_states(),
           budget=st.sampled_from([0.0, 0.3, 0.7]))
    def test_link_bounds_hold(self, state, budget):
        result = ReplicationProblem(
            state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=budget).solve()
        for link, load in result.link_loads.items():
            assert load <= max(budget, state.bg_load(link)) + 1e-6

    @settings(max_examples=10, deadline=None)
    @given(state=strategies.small_states(),
           budget=st.sampled_from([0.0, 0.4, 1.0]))
    def test_results_pass_independent_validation(self, state, budget):
        """Random instances validate clean through core.validation."""
        result = ReplicationProblem(
            state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=budget).solve()
        assert validate_replication(state, result) == []

    @settings(max_examples=10, deadline=None)
    @given(state=strategies.small_states())
    def test_aggregation_validates_on_random_instances(self, state):
        beta = AggregationProblem(state).suggested_beta()
        result = AggregationProblem(state, beta=beta).solve()
        assert validate_aggregation(state, result) == []

    @settings(max_examples=8, deadline=None)
    @given(theta=st.floats(min_value=0.05, max_value=0.95),
           seed=st.integers(0, 500))
    def test_split_validates_on_random_asymmetry(self, theta, seed):
        """Random asymmetric configurations on Internet2 produce split
        results that pass independent validation with ~zero misses."""
        import numpy as np

        from repro.core import SplitTrafficProblem, validate_split
        from repro.experiments.common import (asymmetric_classes,
                                              setup_topology)
        from repro.topology import AsymmetricRoutingModel

        setup = setup_topology("internet2")
        model = AsymmetricRoutingModel(setup.topology, setup.routing)
        classes = asymmetric_classes(setup, model, theta,
                                     np.random.default_rng(seed))
        state = NetworkState.calibrated(setup.topology, classes,
                                        dc_capacity_factor=10.0)
        result = SplitTrafficProblem(state, max_link_load=0.4).solve()
        assert validate_split(state, result) == []
        # At extreme asymmetry (theta < ~0.2) the link budget itself
        # can cap coverage (the Figure 16/17 low-overlap regime), so
        # only assert near-zero misses away from that edge.
        if theta >= 0.2:
            assert result.miss_rate < 0.05
