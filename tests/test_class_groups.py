"""Classes that cross the same nodes share their fraction variables.

``ReplicationProblem`` gives one set of ``p`` / ``o`` columns and one
``cover[...]`` row to every group of symmetric classes with the same
node set, footprints and session bytes (``a->b`` and ``b->a`` under
symmetric routing). The optimum is the un-grouped LP's: pinned against
LoadCosts generated at the commit before grouping existed
(``tests/golden/load_costs.json``), and against the un-grouped LP the
inputs still reach — scale one member's ``session_bytes`` and
``footprints`` by *k* and its ``num_sessions`` by 1/*k*: every
coefficient is unchanged, the group key differs. (The reference also
keeps every tunnel — :class:`EveryTunnel` — so it is Figure 7 as
printed; ``tests/test_tunnel_pruning.py`` pins the pruning by itself.)
Regenerate the golden (at a commit whose LoadCosts are trusted) with::

    PYTHONPATH=src:. python tests/test_class_groups.py
"""

import collections
import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.modelcheck import check_model
from repro.core.mirrors import MirrorPolicy
from repro.core.nips import NIPSProblem
from repro.core.replication import ReplicationProblem
from repro.core.validation import validate_replication
from repro.experiments.common import setup_topology
from repro.runtime.rollout import coverage_report
from repro.shim.config import build_replication_configs
from repro.topology.library import builtin_topology_names
from repro.traffic.variability import TrafficVariabilityModel
from tests import strategies
from tests.test_formulation import _replication
from tests.test_lp_writer_golden import _paired_instance

LOAD_COSTS = pathlib.Path(__file__).parent / "golden" / "load_costs.json"


def builtin_load_costs():
    """``{topology: {"baseline": LoadCost, "drifted": LoadCost}}`` on
    the eight builtin topologies (datacenter mirrors, the default
    ``max_link_load`` 0.4): gravity traffic, and one seeded per-class
    drift draw of it (the pipeline benchmark's sigma)."""
    drift = TrafficVariabilityModel.default(sigma=0.35)
    costs = {}
    for name in builtin_topology_names():
        state = setup_topology(name, dc_capacity_factor=10.0).state
        rng = np.random.default_rng([23, 0])
        drifted = state.with_traffic(
            [cls.scaled(drift.sample_factor(rng))
             for cls in state.classes])
        costs[name] = {
            "baseline": _replication(state).solve().load_cost,
            "drifted": _replication(drifted).solve().load_cost}
    return costs


class EveryTunnel(ReplicationProblem):
    """The LP with every ``o[c,j,j']`` of Figure 7: no tunnel is
    dropped for containing another's links (test-only, the way
    ``NIPSProblem`` opts out)."""

    _prune_tunnels = False


def group_key(cls):
    """The key classes share their columns by: the node set, session
    bytes and footprints of a symmetric class; the class itself for
    one with its own ``rev_path``."""
    if cls.rev_path is not None:
        return cls.name
    return (frozenset(cls.path), cls.session_bytes,
            frozenset(cls.footprints.items()))


def fraction_columns(model):
    """How many ``p`` / ``o`` columns a model has."""
    return sum(var.name[:2] in ("p[", "o[") for var in model.variables)


def ungrouped(state):
    """The same LP with one variable set per class: the i-th class of
    a group gets ``session_bytes`` and ``footprints`` times ``2**i``
    and ``num_sessions`` divided by it (a power of two: every
    coefficient keeps its bits, the group key differs)."""
    seen = collections.Counter()
    classes = []
    for cls in state.classes:
        key = (frozenset(cls.path), cls.rev_path, cls.session_bytes,
               frozenset(cls.footprints.items()))
        k = 2.0 ** seen[key]
        seen[key] += 1
        classes.append(replace(
            cls, num_sessions=cls.num_sessions / k,
            session_bytes=cls.session_bytes * k,
            footprints={resource: cost * k for resource, cost
                        in cls.footprints.items()}))
    return state.with_traffic(classes)


def fraction_count(state, policy):
    """Fractions the Figure 7 LP states, class by class."""
    mirrors = policy.mirror_sets(state)
    return sum(len(cls.path) + sum(len(set(mirrors[node]) -
                                       set(cls.path))
                                   for node in cls.path)
               for cls in state.classes)


def test_load_costs_equal_the_parent_generated_ones():
    golden = json.loads(LOAD_COSTS.read_text())
    current = builtin_load_costs()
    assert set(current) == set(golden)
    for name, costs in golden.items():
        assert current[name] == pytest.approx(costs, abs=1e-9), name


def test_ntt_gets_half_the_columns():
    """...of the tunnels worth taking: Figure 7 states 37 072
    fractions, one variable set per group 18 536, and 13 370 of those
    are not dominated."""
    state = setup_topology("ntt", dc_capacity_factor=10.0).state
    model = _replication(state).build_model()
    assert len(state.classes) == 4830
    assert fraction_count(state, MirrorPolicy.datacenter()) == 37072
    assert EveryTunnel(
        state, mirror_policy=MirrorPolicy.datacenter()
    ).build_model().num_variables == 18537
    assert model.num_variables == 13371
    assert model.num_constraints == 2556


class TestGroupedEqualsUngrouped:
    @settings(max_examples=40, deadline=None)
    @given(state=strategies.paired_states(),
           policy=st.sampled_from([MirrorPolicy.datacenter(),
                                   MirrorPolicy
                                   .datacenter_plus_neighbors(),
                                   MirrorPolicy.none()]),
           max_link_load=st.sampled_from([0.0, 0.4, 1.0]))
    def test_same_optimum_valid_plan_full_coverage(
            self, state, policy, max_link_load):
        problem = _replication(state, mirror_policy=policy,
                               max_link_load=max_link_load)
        apart = EveryTunnel(ungrouped(state), mirror_policy=policy,
                            max_link_load=max_link_load)
        # What ``REPRO_VERIFY_MODELS=1`` runs, minus MDL002: a drawn
        # instance may leave two nodes idle, and their load rows are
        # then both ``LoadCost >= 0`` (with or without grouping) — so
        # the guard itself, which raises on any finding, stays off.
        with pytest.MonkeyPatch.context() as patch:
            patch.delenv("REPRO_VERIFY_MODELS", raising=False)
            result, reference = problem.solve(), apart.solve()
        assert [finding for finding in check_model(problem.build_model())
                if finding.rule_id != "MDL002"] == []
        fractions = fraction_count(state, policy)
        assert apart.build_model().num_variables == 1 + fractions
        assert problem.build_model().num_variables < 1 + fractions
        assert result.load_cost == pytest.approx(reference.load_cost,
                                                 abs=1e-9)
        assert validate_replication(state, result) == []

        rows = {}
        for cls in state.classes:
            row = (result.process_fractions[cls.name],
                   result.offload_fractions.get(cls.name, {}))
            assert rows.setdefault(group_key(cls), row) == row
        assert len(rows) == sum(
            1 for con in problem.build_model().constraints
            if con.name.startswith("cover["))

        configs = build_replication_configs(state, result)
        assert coverage_report(state.classes, configs).coverage == \
            pytest.approx(1.0, abs=1e-9)


def test_the_link_cost_extension_inherits_the_grouping():
    """Link penalties are linear in the shared columns too, and a
    longer tunnel only adds to them: the plain LP's fraction columns —
    half of those worth taking — and the same objective as Figure
    7's."""
    state = setup_topology("internet2", dc_capacity_factor=10.0).state
    shared = _replication(state, link_cost_weight=0.05).build_model()
    apart = EveryTunnel(ungrouped(state), mirror_policy=MirrorPolicy
                        .datacenter(),
                        link_cost_weight=0.05).build_model()
    fractions = fraction_count(state, MirrorPolicy.datacenter())
    assert fraction_columns(apart) == fractions
    assert fraction_columns(shared) == fraction_columns(
        _replication(state).build_model()) < fractions // 2
    assert fraction_columns(_replication(
        ungrouped(state), link_cost_weight=0.05).build_model()) == \
        2 * fraction_columns(shared)
    assert shared.solve().objective_value == pytest.approx(
        apart.solve().objective_value, abs=1e-9)


class TestOptOuts:
    """Whatever breaks the proportionality of two classes' columns
    keeps them apart: one variable set per class. On the paired
    triangle (datacenter at ``A``, every class through ``A``) a class
    has 2 ``p`` and, of Figure 7's 2 ``o``, the one from ``A``."""

    POLICY = MirrorPolicy.datacenter()

    def _variables(self, state, factory=ReplicationProblem):
        return factory(state, mirror_policy=self.POLICY,
                       max_link_load=0.5).build_model().num_variables

    def _paired(self, change):
        """The paired triangle with the reverse classes changed."""
        state = _paired_instance()
        return state.with_traffic(
            state.classes[:2] + [replace(cls, **change(cls))
                                 for cls in state.classes[2:]])

    def test_pairs_share(self):
        state = _paired_instance()
        assert fraction_count(state, self.POLICY) == 16
        assert self._variables(state, EveryTunnel) == 1 + 8
        assert self._variables(state) == 1 + 6

    @pytest.mark.parametrize("change", [
        lambda cls: dict(rev_path=tuple(reversed(cls.path))),
        lambda cls: dict(session_bytes=cls.session_bytes * 2),
        lambda cls: dict(footprints={"cpu": 2.0}),
    ], ids=["asymmetric", "session_bytes", "footprints"])
    def test_unequal_classes_keep_their_own_variables(self, change):
        assert self._variables(self._paired(change)) == 1 + 12

    def test_asymmetric_twins_do_not_share_with_each_other(self):
        # Two asymmetric classes over the same nodes: the key is the
        # class, whatever else is equal.
        state = _paired_instance()
        twins = [replace(cls, rev_path=tuple(reversed(cls.path)))
                 for cls in state.classes]
        assert self._variables(state.with_traffic(twins)) == 1 + 12

    def test_nips_never_shares(self):
        # ...nor drops a tunnel: Figure 7's count.
        state = _paired_instance()
        assert self._variables(state, NIPSProblem) == 1 + 16
        assert self._variables(state) == 1 + 6


@pytest.mark.parametrize("factory", [ReplicationProblem, NIPSProblem])
def test_a_state_without_classes_builds_the_load_rows_alone(factory):
    state = _paired_instance().with_traffic([])
    problem = factory(state, mirror_policy=MirrorPolicy.datacenter())
    model = problem.build_model()
    assert [var.name for var in model.variables] == ["LoadCost"]
    assert {con.name.split("[")[0] for con in model.constraints} == {
        "loadcost"}
    assert problem.solve().load_cost == 0.0


if __name__ == "__main__":
    LOAD_COSTS.write_text(json.dumps(builtin_load_costs(), indent=2)
                          + "\n")
    print(f"wrote {LOAD_COSTS}")
