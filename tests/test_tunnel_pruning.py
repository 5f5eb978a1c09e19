"""Only the tunnels worth taking get an offload variable.

``ReplicationProblem`` states ``o[c,j,j']`` only for the on-path nodes
``j`` whose tunnel to the off-path mirror ``j'`` does not contain
another on-path node's tunnel to it: the copy costs the mirror the
same whoever makes it, and the longer tunnel loads every link of the
shorter one and more. The optimum is Figure 7's — pinned against the
LP with every tunnel (``tests/test_class_groups.EveryTunnel``, the
test-only opt-out) on generated instances here, and against LoadCosts
generated before either grouping or pruning existed
(``tests/golden/load_costs.json``, read by ``tests/test_class_groups.py``,
which also pins ntt's 13 371 columns).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inputs import NetworkState
from repro.core.mirrors import MirrorPolicy
from repro.core.nips import NIPSProblem
from repro.core.replication import ReplicationProblem
from repro.core.validation import validate_replication
from repro.experiments.common import setup_topology
from repro.runtime.rollout import coverage_report
from repro.shim.config import build_replication_configs
from repro.topology.routing import shortest_path_routing
from repro.traffic.classes import TrafficClass
from tests import strategies
from tests.test_class_groups import (EveryTunnel, fraction_columns,
                                     fraction_count)
from tests.test_formulation import _replication

POLICIES = [MirrorPolicy.datacenter(), MirrorPolicy.neighbors(1),
            MirrorPolicy.datacenter_plus_neighbors(),
            MirrorPolicy.all_nodes()]


def tunnel_links(state, node, mirror):
    return frozenset(state.routing.path_links(node, mirror))


def offloads(problem):
    """``(class, node, mirror)`` of every ``o`` fraction of a built
    problem's layout, in layout order."""
    layout = problem._layout
    names = layout.node_names
    return [(layout.class_names[cls], names[node], names[mirror])
            for cls, node, mirror in zip(layout.cls.tolist(),
                                         layout.node.tolist(),
                                         layout.mirror.tolist())
            if mirror >= 0]


class TestPrunedEqualsUnpruned:
    @settings(max_examples=60, deadline=None)
    @given(state=strategies.paired_states(),
           policy=st.sampled_from(POLICIES),
           max_link_load=st.sampled_from([0.0, 0.4, 1.0]))
    def test_same_optimum_valid_plan_no_nested_tunnels(
            self, state, policy, max_link_load):
        problem = ReplicationProblem(state, mirror_policy=policy,
                                     max_link_load=max_link_load)
        every = EveryTunnel(state, mirror_policy=policy,
                            max_link_load=max_link_load)
        result, reference = problem.solve(), every.solve()
        assert result.load_cost == pytest.approx(reference.load_cost,
                                                 abs=1e-9)
        assert validate_replication(state, result) == []
        configs = build_replication_configs(state, result)
        assert coverage_report(state.classes, configs).coverage == \
            pytest.approx(1.0, abs=1e-9)

        mirror_sets = policy.mirror_sets(state)
        offered, kept = {}, {}
        for cls in state.classes:
            for node in cls.path:
                for mirror in set(mirror_sets[node]) - set(cls.path):
                    offered.setdefault((cls.name, mirror),
                                       []).append(node)
        for name, node, mirror in offloads(problem):
            kept.setdefault((name, mirror), []).append(node)
        # Every class keeps a way to each mirror Figure 7 gives it...
        assert set(kept) == set(offered)
        for (name, mirror), nodes in kept.items():
            assert set(nodes) <= set(offered[name, mirror])
            links = [tunnel_links(state, node, mirror)
                     for node in nodes]
            # ...no kept tunnel contains another kept one's links...
            assert not any(a <= b for i, a in enumerate(links)
                           for j, b in enumerate(links) if i != j)
            # ...and every dropped one contains a kept one's.
            for node in set(offered[name, mirror]) - set(nodes):
                dropped = tunnel_links(state, node, mirror)
                assert any(link_set <= dropped for link_set in links)
        assert fraction_columns(problem.build_model()) <= \
            fraction_columns(every.build_model())

    def test_a_volume_refresh_never_reprunes(self, line_state_dc):
        """The rule reads routes only: the columns of a state and of
        the same state at other volumes — zero included — are the
        same, so a refresh stays a patch."""
        names = [var.name for var in
                 _replication(line_state_dc).build_model().variables]
        for factors in ((0.0, 3.0), (2.5, 0.0)):
            moved = line_state_dc.with_traffic(
                [cls.scaled(factor) for cls, factor in
                 zip(line_state_dc.classes, factors)])
            assert [var.name for var in _replication(moved)
                    .build_model().variables] == names


def test_the_line_keeps_the_tunnel_from_the_anchor(line_state_dc):
    """``A - B - C - D`` with the datacenter at ``B``: ``A->D`` copies
    at ``B`` (from ``A``, ``C`` or ``D`` the copy would cross ``B``
    anyway), so the one link a tunnel loads is ``B - DC``."""
    problem = _replication(line_state_dc)
    model = problem.build_model()
    assert sorted(offloads(problem)) == [("A->D", "B", "DC"),
                                         ("B->C", "B", "DC")]
    assert [con.name for con in model.constraints
            if con.name.startswith("linkload[")] == ["linkload[B,DC]"]
    result = problem.solve()
    assert set(result.offload_fractions["A->D"]) == {("B", "DC")}


def test_disjoint_tunnels_are_both_kept():
    """On the ring ``A - B - C - D - E - A`` the class ``B->C`` can
    reach mirror ``E`` from ``B`` over ``A`` or from ``C`` over ``D``:
    neither tunnel contains the other, both stay."""
    topology = strategies.TOPOLOGIES[2]
    routing = shortest_path_routing(topology)
    state = NetworkState.calibrated(topology, [TrafficClass(
        "B->C", "B", "C", routing.path("B", "C"), 100.0)])
    problem = ReplicationProblem(
        state, mirror_policy=MirrorPolicy.all_nodes())
    problem.build_model()
    assert {node for _, node, mirror in offloads(problem)
            if mirror == "E"} == {"B", "C"}
    # ...while A is reached from B alone (C's tunnel runs through B).
    assert {node for _, node, mirror in offloads(problem)
            if mirror == "A"} == {"B"}


def test_nips_keeps_every_reroute():
    state = setup_topology("internet2", dc_capacity_factor=10.0).state
    policy = MirrorPolicy.datacenter()
    model = NIPSProblem(state, mirror_policy=policy).build_model()
    assert fraction_columns(model) == fraction_count(state, policy)
