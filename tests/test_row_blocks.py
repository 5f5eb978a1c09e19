"""Row blocks: one coefficient vector per row family.

The load and link rows of every formulation live in a
:class:`~repro.lpsolve.RowBlock`; the per-row constraints the model
lists are views of it. These tests pin what the array path must keep:
the unpacked loads equal ``Solution.value`` on the materialised view
bit for bit, duplicate terms accumulate in term order (cold and warm),
and a patch the compiled structure cannot take still fails closed.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.aggregation import AggregationProblem
from repro.core.combined import CombinedProblem
from repro.core.controller.sharded import RegionalReplicationProblem
from repro.core.formulation import Formulation, TermIndex
from repro.core.inputs import NetworkState
from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.core.split import SplitTrafficProblem
from repro.lpsolve import (BlockRow, Model, ModelError, RowBlock,
                           StructureError, lin_sum, lp_string)
from repro.obs import MetricsRegistry, use_registry
from repro.topology.topology import Topology
from repro.traffic.classes import TrafficClass

RESOLVABLE = {
    "replication": lambda state: ReplicationProblem(
        state, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.5),
    "regional": lambda state: RegionalReplicationProblem(
        state, state.bg_bytes, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.5, capacity_share={"A": 0.5, "DC": 0.6},
        link_share={("A", "DC"): 0.7}),
    "split": lambda state: SplitTrafficProblem(
        state, max_link_load=0.5, gamma=50.0),
    "combined": lambda state: CombinedProblem(
        state, beta=2e-5, max_link_load=0.5),
    "aggregation": lambda state: AggregationProblem(state, beta=2e-5),
}

_SEGMENTS = (("A", "D", ("A", "B", "C", "D")),
             ("B", "D", ("B", "C", "D")),
             ("A", "C", ("A", "B", "C")))
volume = st.one_of(st.just(0.0),
                   st.floats(min_value=1.0, max_value=5000.0))


@st.composite
def chain_states(draw):
    """A 4-node chain (plus datacenter) with 1-3 classes of random
    volume, session size and — for two resources — footprints (the
    later classes may be exempt from ``mem``)."""
    topology = Topology("line", ["A", "B", "C", "D"],
                        [("A", "B"), ("B", "C"), ("C", "D")])
    classes = []
    for index in range(draw(st.integers(1, 3))):
        source, target, path = _SEGMENTS[index]
        classes.append(TrafficClass(
            f"c{index}", source, target, path,
            draw(st.floats(min_value=10.0, max_value=1e4)),
            session_bytes=draw(st.floats(min_value=100.0,
                                         max_value=1e5)),
            footprints={"cpu": draw(st.floats(0.5, 4.0)),
                        "mem": draw(st.sampled_from(
                            [0.0, 1.0, 2.5][index == 0:]))}))
    return NetworkState.calibrated(topology, classes,
                                   resources=("cpu", "mem"),
                                   dc_capacity_factor=5.0)


def _view_values(problem, solution):
    """node_loads / link_loads the per-term way: ``Solution.value`` on
    each materialised expression."""
    node_loads = {}
    for ordinal, (resource, node) in enumerate(problem._load_keys):
        node_loads.setdefault(resource, {})[node] = solution.value(
            problem._load_block.expr(ordinal))
    link_loads = None
    if problem._link_block is not None:
        link_loads = {
            link: solution.value(problem._link_block.expr(ordinal))
            for ordinal, link in enumerate(problem.state.topology.links)}
    return node_loads, link_loads


class TestUnpackEqualsViews:
    @pytest.mark.parametrize("kind", sorted(RESOLVABLE))
    @settings(max_examples=15, deadline=None)
    @given(state=chain_states(), volumes=st.tuples(volume, volume, volume))
    def test_array_loads_equal_value_of_the_row_view(self, kind, state,
                                                     volumes):
        problem = RESOLVABLE[kind](state)
        problem.solve()
        # Once cold, once after a warm volume patch.
        for patch in ({}, {"volumes": dict(zip(problem.volumes,
                                               volumes))}):
            problem.resolve(**patch)
            model = problem.build_model()
            solution = model.solve()
            fields = problem._assignment_fields(model, solution)
            node_loads, link_loads = _view_values(problem, solution)
            assert fields["node_loads"] == node_loads  # exact equality
            if link_loads is not None:
                assert problem._link_loads(solution) == link_loads

    def test_row_views_are_what_the_model_lists(self, line_state_dc):
        problem = RESOLVABLE["replication"](line_state_dc)
        model = problem.build_model()
        values = model.solve().values()
        rows = [con for con in model.constraints
                if isinstance(con, BlockRow)]
        assert {con.name.split("[")[0] for con in rows} == {
            "cover", "loadcost", "linkload"}
        for con in rows:
            assert con.violation(values) < 1e-7
            # A view is a copy: editing it changes nothing.
            var = next(iter(con.expr.coeffs))
            con.expr.coeffs[var] = 123.0
            assert con.expr.coeffs[var] != 123.0


class _Thrice(Formulation):
    """Every class loads each on-path node through one variable named
    three times — sums where the order of addition shows."""

    kind = "thrice"
    parts = (0.1, 0.2, 0.3)  # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)

    def _load_term_index(self):
        def terms():
            for index, cls in enumerate(self.state.classes):
                for node in cls.path:
                    for part in self.parts:
                        yield (("cpu", node),
                               self._p[(cls.name, node)], index, part)

        return TermIndex.from_terms(self._load_keys, terms())

    def _build(self, model):
        for cls in self.state.classes:
            for node in cls.path:
                self._p[(cls.name, node)] = model.add_variable(
                    f"p[{cls.name},{node}]", ub=1.0)
            model.add_constraint(
                lin_sum(self._p[(cls.name, node)]
                        for node in cls.path) == 1.0,
                name=f"cover[{cls.name}]")
        model.minimize(self._emit_load_rows(model))

    def _unpack(self, model, solution):
        return self._assignment_fields(model, solution)


def _loadcost_lines(model):
    return [line for line in lp_string(model).splitlines()
            if line.startswith(" loadcost")]


class TestDuplicateTerms:
    def test_accumulate_in_term_order_cold_and_warm(self, line_state_dc):
        doubled = {cls.name: cls.num_sessions * 2.0
                   for cls in line_state_dc.classes}
        warm = _Thrice(line_state_dc)
        warm.solve()
        with use_registry(MetricsRegistry()) as reg:
            patched = warm.resolve(volumes=doubled)
        assert reg.counter_value("lp.resolve.fallbacks") == 0
        assert reg.counter_value("lp.compile_cache.misses") == 0
        cold = _Thrice(line_state_dc)
        rebuilt = cold.resolve(volumes=doubled)

        # One entry per (row, variable), summed the way a dict would:
        # 0.0 + c1 + c2 + c3.
        block = cold._load_block
        cls = cold.state.classes[0]
        node = cls.path[0]
        ordinal = cold._load_keys.index(("cpu", node))
        expr = block.expr(ordinal)
        expected = 0.0
        for part in _Thrice.parts:
            expected += (part * cls.num_sessions
                         / cold.state.capacity("cpu", node))
        assert expr.coeffs[cold._p[(cls.name, node)]] == expected
        assert len(block.coeffs) * 3 == sum(
            3 * len(c.path) for c in cold.state.classes)

        assert _loadcost_lines(warm.build_model()) == \
            _loadcost_lines(cold.build_model())
        ours, theirs = (problem.build_model().compiled
                        for problem in (warm, cold))
        assert np.array_equal(ours.a_ub.data, theirs.a_ub.data)
        assert np.array_equal(ours.a_ub.indices, theirs.a_ub.indices)
        assert np.array_equal(ours.b_ub, theirs.b_ub)
        assert patched["node_loads"] == rebuilt["node_loads"]


class TestStructureStillFailsClosed:
    def test_block_rejects_a_changed_term_count(self):
        model = Model("count")
        x = model.add_variable("x")
        block = RowBlock(model, [0, 0], [x.index, x.index], [1.0, 2.0],
                         [0.0])
        model.add_block_row(block, 0, 5.0, name="cap")
        assert block.coeffs.tolist() == [3.0]
        with pytest.raises(StructureError):
            model.set_block_coefficients(block, [1.0, 2.0, 3.0])
        model.set_block_coefficients(block, [0.5, 0.25])
        assert block.coeffs.tolist() == [0.75]

    def test_block_rejects_its_lead_and_foreign_indices(self):
        model = Model("lead")
        x = model.add_variable("x")
        with pytest.raises(ModelError):
            RowBlock(model, [0], [x.index], [1.0], [0.0], lead=x)
        with pytest.raises(ModelError, match="column index"):
            RowBlock(model, [0], [7], [1.0], [0.0])
        with pytest.raises(ModelError, match="row index"):
            RowBlock(model, [1], [x.index], [1.0], [0.0])

    def test_vacuous_block_row_is_dropped_or_refused(self):
        model = Model("vacuous")
        x = model.add_variable("x")
        block = RowBlock(model, [0, 1], [x.index, x.index], [0.0, 0.0],
                         [0.0, 0.0])
        dropped = model.add_block_row(block, 0, 1.0, name="fine")
        assert model.num_constraints == 0
        assert dropped.rhs == 1.0
        with pytest.raises(ModelError, match="trivially infeasible"):
            model.add_block_row(block, 1, -1.0, name="never")
        # Waking a row the model does not list is a structure change.
        with pytest.raises(StructureError):
            model.set_block_coefficients(block, [1.0, 0.0])


class TestEqualityBlocks:
    def test_listed_rows_are_the_symbolic_equalities(self):
        """``add_block_rows`` on an equality block compiles and writes
        what one ``add_constraint(lin_sum(...) == 1.0)`` per row
        would."""
        def build(bulk):
            model = Model("cover")
            xs = model.add_variables(["a", "b", "c"], ub=1.0)
            if bulk:
                block = RowBlock(model, [0, 0, 1], [0, 1, 2],
                                 [1.0, 1.0, 1.0], [0.0, 0.0],
                                 equality=True)
                model.add_block_rows(block, [1.0, 1.0],
                                     ["cover[p]", "cover[q]"])
            else:
                model.add_constraint(xs[0] + xs[1] == 1.0,
                                     name="cover[p]")
                model.add_constraint(lin_sum(xs[2:]) == 1.0,
                                     name="cover[q]")
            model.minimize(xs[0] + 2 * xs[2])
            return model

        bulk, symbolic = build(True), build(False)
        assert lp_string(bulk) == lp_string(symbolic)
        ours, theirs = bulk._compile(), symbolic._compile()
        assert ours.a_ub is None and theirs.a_ub is None
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ours.a_eq, name),
                                  getattr(theirs.a_eq, name))
        assert np.array_equal(ours.b_eq, theirs.b_eq)
        assert bulk.solve().x.tolist() == symbolic.solve().x.tolist()

    def test_an_equality_block_has_no_lead(self):
        model = Model("lead")
        x, y = model.add_variables(["x", "y"])
        with pytest.raises(ModelError, match="no lead"):
            RowBlock(model, [0], [x.index], [1.0], [0.0], lead=y,
                     equality=True)

    def test_bulk_listing_drops_or_refuses_like_one_row(self):
        model = Model("vacuous")
        x = model.add_variable("x")
        block = RowBlock(model, [0, 1, 2], [x.index] * 3,
                         [0.0, 1.0, 0.0], [0.0, 0.0, 0.0])
        rows = model.add_block_rows(block, [1.0, 2.0, 0.0],
                                    ["fine", "kept", "also fine"])
        assert [con.name for con in model.constraints] == ["kept"]
        assert [row.rhs for row in rows] == [1.0, 2.0, 0.0]
        assert block.live.tolist() == [False, True, False]
        with pytest.raises(ModelError, match="trivially infeasible"):
            model.add_block_rows(block, [1.0, 2.0, -1.0],
                                 ["fine", "kept", "never"])


class TestAddVariables:
    def test_bulk_add_keeps_name_deduplication(self):
        model = Model("names")
        first = model.add_variables(["x", "x", "y"], ub=1.0)
        assert [var.name for var in first] == ["x", "x#1", "y"]
        assert [var.index for var in first] == [0, 1, 2]
        assert model.add_variable("x").name == "x#2"
        assert model.add_variables(["y", "z"])[0].name == "y#1"
        assert model.num_variables == 6

    def test_bulk_add_keeps_bound_checks(self):
        model = Model("bounds")
        with pytest.raises(ModelError, match="NaN"):
            model.add_variables(["a"], lb=float("nan"))
        with pytest.raises(ModelError, match="NaN"):
            model.add_variables(["a"], ub=float("nan"))
        with pytest.raises(ModelError, match="below lower"):
            model.add_variables(["a", "b"], lb=2.0, ub=1.0)

    def test_bulk_add_invalidates_the_compiled_model(self):
        model = Model("cache")
        x = model.add_variable("x", lb=1.0)
        model.minimize(x)
        model.solve()
        assert model.compiled is not None
        model.add_variables(["y"])
        assert model.compiled is None


class TestSolutionVector:
    def test_x_is_a_read_only_view_of_the_values(self):
        model = Model("vector")
        x, y = model.add_variables(["x", "y"], lb=1.0, ub=2.0)
        model.minimize(x - y)
        solution = model.solve()
        assert solution.x.tolist() == [solution.value(x),
                                       solution.value(y)]
        with pytest.raises(ValueError, match="read-only"):
            solution.x[0] = 7.0
        assert solution.value(x) == 1.0
