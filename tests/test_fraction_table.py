"""A plan's fractions as arrays: the result's table and dict views,
the vector validator, and a controller that fails closed.

The LP unpacks ``x`` into a :class:`~repro.core.results.FractionTable`,
the result's one storage; ``process_fractions`` / ``offload_fractions``
are read-only views of it, and hand-built or merged results are tables
too. The references here are the dict walks the arrays replaced.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MirrorPolicy, NIDSController, ReplicationProblem
from repro.core.architectures import ingress_result
from repro.core.controller import ShardedPlanner
from repro.core.controller.planner import PlanOutcome
from repro.core.inputs import (LinkIncidence, NetworkState,
                               link_background_bytes)
from repro.core.results import FractionTable
from repro.core.validation import validate_replication
from repro.topology.topology import Topology
from repro.traffic.classes import TrafficClass
from tests.strategies import small_states, volumes

_TOL = 1e-6


def _problem(state):
    return ReplicationProblem(
        state, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.4)


def _walked_views(problem, x):
    """The dict views as a walk over the problem's layout builds them:
    each fraction reads its LP column."""
    process, offload = {}, {}
    layout = problem._layout
    names = layout.node_names
    for cls, node, mirror, column in zip(
            layout.cls.tolist(), layout.node.tolist(),
            layout.mirror.tolist(), problem._columns.tolist()):
        cls_name = layout.class_names[cls]
        if mirror < 0:
            process.setdefault(cls_name, {})[names[node]] = x[column]
        else:
            offload.setdefault(cls_name, {})[
                (names[node], names[mirror])] = x[column]
    return process, offload


def _ordered(views):
    return [[(name, list(per_key.items()))
             for name, per_key in view.items()] for view in views]


class TestDictViews:
    @settings(max_examples=25, deadline=None)
    @given(state=small_states())
    def test_views_are_the_walk_in_contents_and_key_order(self, state):
        problem = _problem(state)
        result = problem.solve()
        x = problem.build_model().solve().x.tolist()
        names = [cls.name for cls in state.classes]
        table = result.fraction_table(names)
        assert table is result.table
        walked = _walked_views(problem, x)
        assert _ordered(table.to_dicts()) == _ordered(walked)
        assert _ordered((result.process_fractions,
                         result.offload_fractions)) == _ordered(walked)
        # A gather in another order holds the same rows; a class the
        # result does not know gets an empty one.
        gathered = result.fraction_table([*reversed(names), "nobody"])
        assert _ordered(gathered.to_dicts()) == _ordered(
            ({name: walked[0].get(name, {})
              for name in [*reversed(names), "nobody"]},
             {name: walked[1][name] for name in reversed(names)
              if name in walked[1]}))
        assert np.array_equal(gathered.matrix()[-2::-1], table.matrix())

    def test_emit_order_is_sorted_p_then_sorted_pairs(self):
        table = FractionTable.from_dicts(
            ["c", "idle"],
            {"c": {"B": 0.2, "A": 0.3}},
            {"c": {("B", "DC"): 0.1, ("A", "DC"): 0.15,
                   ("A", "B2"): 0.25}})
        layout = table.layout
        assert [layout.keys[k] for k in
                layout.key[layout.slots[0]].tolist()] == [
            ("process", "A"), ("process", "B"),
            ("replicate", "A", "B2"), ("replicate", "A", "DC"),
            ("replicate", "B", "DC")]
        assert table.matrix().tolist() == [
            [0.3, 0.2, 0.25, 0.15, 0.1], [0.0] * 5]
        assert (layout.slots[1] == -1).all()

    def test_the_table_is_the_one_storage(self, line_state_dc):
        result = _problem(line_state_dc).solve()
        names = [cls.name for cls in line_state_dc.classes]
        table = result.fraction_table(names)
        for use in (lambda: result.process_fractions["A->D"],
                    lambda: result == _problem(line_state_dc).solve(),
                    lambda: repr(result),
                    lambda: dataclasses.replace(result, load_cost=0.0)):
            use()
            assert result.fraction_table(names) is table
        with pytest.raises(TypeError):
            result.process_fractions["A->D"]["A"] = 0.5
        with pytest.raises(TypeError):
            result.offload_fractions["A->D"] = {}
        with pytest.raises(ValueError):
            table.values[0] = 0.5
        assert pickle.loads(pickle.dumps(result)) == result

    def test_a_replaced_view_is_encoded_once(self, line_state_dc):
        result = _problem(line_state_dc).solve()
        moved = {name: dict(per_node) for name, per_node in
                 result.process_fractions.items()}
        first = next(iter(moved))
        moved[first][next(iter(moved[first]))] += 0.5
        replaced = dataclasses.replace(result, process_fractions=moved)
        moved[first].clear()  # the result keeps what it was given
        assert replaced.offload_fractions == result.offload_fractions
        assert [problem for problem in validate_replication(
            line_state_dc, replaced) if "coverage" in problem] == [
            f"class {first!r} coverage 1.500000 != 1"]

    def test_sharded_merge_and_ingress_results_are_tables(
            self, line_state_dc):
        names = tuple(cls.name for cls in line_state_dc.classes)
        merged = ShardedPlanner(
            line_state_dc, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4, num_regions=2, seed=0,
            jobs=1).plan(line_state_dc.classes).result
        ingress = ingress_result(line_state_dc)
        for result in (merged, ingress):
            assert result.table.layout.class_names == names
            assert _ordered(result.table.to_dicts()) == _ordered(
                (result.process_fractions, result.offload_fractions))
            assert validate_replication(line_state_dc, result) == []


# -- the vector validator against the walk it replaced ----------------------


def _check_fraction_bounds(fractions, label, problems):
    for class_name, per_key in fractions.items():
        for key, value in per_key.items():
            if value < -_TOL or value > 1.0 + _TOL:
                problems.append(
                    f"{label}[{class_name}][{key}] = {value} out of "
                    f"[0, 1]")


def _walked_validate(state, result):
    """``validate_replication`` at the parent commit, verbatim."""
    problems = []
    _check_fraction_bounds(result.process_fractions, "p", problems)
    offload_by_class = {
        name: sum(values.values())
        for name, values in result.offload_fractions.items()
    }
    for cls in state.classes:
        local = sum(result.process_fractions.get(cls.name, {}).values())
        total = local + offload_by_class.get(cls.name, 0.0)
        if abs(total - 1.0) > 1e-5:
            problems.append(
                f"class {cls.name!r} coverage {total:.6f} != 1")
    loads = {r: {n: 0.0 for n in state.nids_nodes}
             for r in state.resources}
    for cls in state.classes:
        for resource in state.resources:
            work = cls.footprint(resource) * cls.num_sessions
            for node, fraction in result.process_fractions.get(
                    cls.name, {}).items():
                loads[resource][node] += (work * fraction /
                                          state.capacity(resource, node))
            for (_, mirror), fraction in result.offload_fractions.get(
                    cls.name, {}).items():
                loads[resource][mirror] += (
                    work * fraction / state.capacity(resource, mirror))
    for resource in state.resources:
        for node in state.nids_nodes:
            reported = result.node_loads[resource][node]
            if abs(loads[resource][node] - reported) > 1e-5:
                problems.append(
                    f"load[{resource}][{node}] recomputed "
                    f"{loads[resource][node]:.6f} != reported "
                    f"{reported:.6f}")
            if loads[resource][node] > result.load_cost + 1e-5:
                problems.append(
                    f"load[{resource}][{node}] exceeds LoadCost")
    link_bytes = {}
    class_by_name = {cls.name: cls for cls in state.classes}
    for cls_name, offloads in result.offload_fractions.items():
        cls = class_by_name[cls_name]
        for (node, mirror), fraction in offloads.items():
            for link in state.routing.path_links(node, mirror):
                link_bytes[link] = (link_bytes.get(link, 0.0) +
                                    fraction * cls.total_bytes)
    for link, extra in link_bytes.items():
        load = state.bg_load(link) + extra / state.link_capacity[link]
        bound = max(result.max_link_load, state.bg_load(link))
        if load > bound + 1e-5:
            problems.append(
                f"link {link} load {load:.6f} exceeds bound "
                f"{bound:.6f}")
    return problems


def _corrupt(result, how, pick):
    """``result`` broken one way; ``pick`` chooses where."""
    process = {name: dict(per_node) for name, per_node in
               result.process_fractions.items()}
    offload = {name: dict(per_pair) for name, per_pair in
               result.offload_fractions.items()}
    node_loads = {resource: dict(per_node) for resource, per_node in
                  result.node_loads.items()}
    changes = dict(process_fractions=process, offload_fractions=offload,
                   node_loads=node_loads)
    name = sorted(process)[pick % len(process)]
    node = sorted(process[name])[pick % len(process[name])]
    if how == "fraction above 1":
        process[name][node] = 1.7
    elif how == "fraction below 0":
        process[name][node] = -0.3
    elif how == "coverage off":
        process[name][node] += 0.25
    elif how == "reported load off":
        at = sorted(node_loads["cpu"])[pick % len(node_loads["cpu"])]
        node_loads["cpu"][at] += 0.5
    elif how == "load above LoadCost":
        changes["load_cost"] = result.load_cost / 2.0
    elif how == "link over bound":
        changes["max_link_load"] = 0.0
        for per_pair in offload.values():
            for pair in per_pair:
                per_pair[pair] = min(1.0, per_pair[pair] + 0.6)
    return dataclasses.replace(result, **changes)


CORRUPTIONS = ("fraction above 1", "fraction below 0", "coverage off",
               "reported load off", "load above LoadCost",
               "link over bound")


class TestVectorValidation:
    @settings(max_examples=25, deadline=None)
    @given(state=small_states(resources=("cpu", "mem")),
           pick=st.integers(0, 50))
    def test_same_strings_as_the_walk(self, state, pick):
        result = _problem(state).solve()
        assert validate_replication(state, result) == []
        flagged = 0
        for how in CORRUPTIONS:
            broken = _corrupt(result, how, pick)
            problems = validate_replication(state, broken)
            assert problems == _walked_validate(state, broken), how
            flagged += bool(problems)
        assert flagged >= 4  # the corruptions do bite

    def test_each_corruption_is_reported(self, line_state_dc):
        result = _problem(line_state_dc).solve()
        for how, needle in zip(CORRUPTIONS, (
                "out of [0, 1]", "out of [0, 1]", "coverage",
                "recomputed", "exceeds LoadCost", "exceeds bound")):
            problems = validate_replication(
                line_state_dc, _corrupt(result, how, 0))
            assert any(needle in problem for problem in problems), how


# -- volume-only state changes ----------------------------------------------


def _walked_background(classes):
    """``link_background_bytes`` at the parent commit, verbatim."""
    totals = {}
    for cls in classes:
        if cls.is_symmetric:
            for link in Topology.path_links(cls.path):
                totals[link] = totals.get(link, 0.0) + cls.total_bytes
        else:
            for path, share in ((cls.path, 0.5), (cls.rev_nodes, 0.5)):
                for link in Topology.path_links(path):
                    totals[link] = (totals.get(link, 0.0) +
                                    share * cls.total_bytes)
    return totals


class TestVolumeOnlyStates:
    @settings(max_examples=40, deadline=None)
    @given(state=small_states(),
           drawn=st.lists(volumes, min_size=6, max_size=6))
    def test_reweighted_incidence_is_the_walk_bit_for_bit(self, state,
                                                          drawn):
        classes = [dataclasses.replace(cls, num_sessions=count)
                   for cls, count in zip(state.classes, drawn)]
        # One class routed asymmetrically: half the bytes each way.
        first = classes[0]
        classes[0] = first.with_paths(first.path,
                                      tuple(reversed(first.path)))
        walked = _walked_background(classes)
        assert list(link_background_bytes(classes).items()) == \
            list(walked.items())
        assert LinkIncidence(classes).background_bytes(classes) == walked

    @settings(max_examples=25, deadline=None)
    @given(state=small_states(),
           drawn=st.lists(volumes, min_size=6, max_size=6))
    def test_with_traffic_takes_the_volume_path_when_it_can(self, state,
                                                            drawn):
        scaled = [dataclasses.replace(cls, num_sessions=count)
                  for cls, count in zip(state.classes, drawn)]
        warm = state.with_traffic(scaled)
        cold = NetworkState(
            state.topology, state.routing, scaled, state.node_capacity,
            state.link_capacity, _walked_background(scaled),
            dc_node=state.dc_node)
        assert warm.classes == cold.classes
        assert list(warm.bg_bytes.items()) == list(cold.bg_bytes.items())
        assert warm.node_capacity is state.node_capacity  # not copied
        assert state._incidence is warm._incidence is not None
        # A structural change still rebuilds and revalidates.
        renamed = [dataclasses.replace(scaled[0], name="other")] + \
            scaled[1:]
        assert state.with_traffic(renamed).node_capacity \
            is not state.node_capacity
        with pytest.raises(ValueError, match="unknown nodes"):
            state.with_traffic(
                [TrafficClass("x", "Q", "A", ("Q", "A"), 1.0)])


# -- fail closed --------------------------------------------------------------


class _BrokenPlanner:
    """Plans normally until told to spoil one class's fractions."""

    def __init__(self, state):
        self.problem = _problem(state)
        self.spoil = None

    def plan(self, classes):
        result = self.problem.resolve_traffic(classes)
        if self.spoil is not None:
            layout = result.table.layout
            values = result.table.values.copy()
            values[np.flatnonzero(layout.cls == 1)[0]] = self.spoil
            process, offload = FractionTable(layout, values).to_dicts()
            result = dataclasses.replace(
                result, process_fractions=process,
                offload_fractions=offload)
        return PlanOutcome(state=self.problem.state, result=result)


class TestRefreshFailsClosed:
    @pytest.mark.parametrize("spoil, error, message", [
        (math.nan, ValueError, "non-finite fraction nan for class"),
        (math.inf, RuntimeError, "invalid assignment"),
        (-0.5, RuntimeError, "invalid assignment"),
        (0.999, RuntimeError, "invalid assignment"),
    ])
    def test_a_bad_plan_leaves_the_last_good_one_current(
            self, line_state_dc, spoil, error, message):
        planner = _BrokenPlanner(line_state_dc)
        controller = NIDSController(
            line_state_dc, mirror_policy=MirrorPolicy.datacenter(),
            planner=planner)
        good = controller.refresh()
        drifted = [cls.scaled(3.0) for cls in line_state_dc.classes]
        planner.spoil = spoil
        with pytest.raises(error, match=message):
            controller.refresh(drifted)
        assert controller.current_configs is good.configs
        assert controller.current_result is good.result
        assert controller.refresh_count == 1
        # ... and the traffic it was optimised for is still the old
        # one, so the drift trigger keeps asking for a refresh.
        assert controller.needs_refresh(drifted)
        planner.spoil = None
        assert controller.refresh(drifted).configs is \
            controller.current_configs
        assert controller.refresh_count == 2

    def test_the_error_names_the_class_and_the_sum(self, line_state_dc):
        from repro.shim.config import build_replication_configs

        result = _problem(line_state_dc).solve()
        short = {name: dict(per_node) for name, per_node in
                 result.process_fractions.items()}
        name, node = max(
            ((name, node) for name in short for node in short[name]),
            key=lambda at: short[at[0]][at[1]])
        short[name][node] -= 0.03
        total = sum(short[name].values()) + sum(
            result.offload_fractions.get(name, {}).values())
        with pytest.raises(ValueError) as raised:
            build_replication_configs(
                line_state_dc,
                dataclasses.replace(result, process_fractions=short))
        assert f"class {name!r}" in str(raised.value)
        assert "below 1" in str(raised.value)
        assert f"{total:.3f}"[:4] in str(raised.value)
