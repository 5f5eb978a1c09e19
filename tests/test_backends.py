"""Backend equivalence and incremental re-solve regression tests.

Both solver backends must agree (to LP tolerance) on a golden
replication instance and on drawn ones, and ``Formulation.resolve``
after parameter patches must reproduce a cold rebuild on every
parameter path the experiments exercise (Figures 11, 15, 18 and the
controller loop).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.modelcheck import check_shim_configs
from repro.core.aggregation import AggregationProblem
from repro.core.controller import NIDSController
from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.core.validation import validate_replication
from repro.lpsolve import (
    BACKENDS,
    LPError,
    Model,
    RowBlock,
    SolverBackend,
    default_backend_name,
    get_backend,
    set_default_backend,
)
from repro.shim.config import build_replication_configs
from tests import strategies


def _scaled(classes, factor):
    return [replace(cls, num_sessions=cls.num_sessions * factor)
            for cls in classes]


def _replication(state, max_link_load=0.4):
    return ReplicationProblem(
        state, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=max_link_load)


class TestBackendEquivalence:
    """The dense fallback must match scipy/HiGHS on the golden
    replication instance (same optimum; both primal-feasible)."""

    def test_objectives_agree(self, line_state_dc, use_backend):
        objectives = []
        for name in BACKENDS:
            use_backend(name)
            objectives.append(
                _replication(line_state_dc).solve().load_cost)
        assert objectives[0] == pytest.approx(objectives[1], abs=1e-6)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_solution_is_primal_feasible(self, line_state_dc, name,
                                         use_backend):
        use_backend(name)
        model = _replication(line_state_dc).build_model()
        values = model.solve().values()
        for con in model.constraints:
            assert con.violation(values) < 1e-7, con

    @pytest.mark.parametrize("name", BACKENDS)
    def test_small_lp_agrees_with_known_optimum(self, name, use_backend):
        # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> obj 12.
        use_backend(name)
        m = Model()
        x = m.add_variable("x")
        y = m.add_variable("y")
        m.add_constraint(x + y <= 4)
        m.add_constraint(x + 3 * y <= 6)
        m.maximize(3 * x + 2 * y)
        sol = m.solve()
        assert sol.objective_value == pytest.approx(12.0, abs=1e-6)

    @pytest.mark.parametrize("sense", ("minimize", "maximize"))
    @pytest.mark.parametrize("name", BACKENDS)
    def test_objective_value_includes_the_constant_term(self, name,
                                                        sense,
                                                        use_backend):
        use_backend(name)
        m = Model()
        x = m.add_variable("x", lb=1.0, ub=3.0)
        getattr(m, sense)(x + 5)
        sol = m.solve()
        expected = 6.0 if sense == "minimize" else 8.0
        assert sol.objective_value == pytest.approx(expected, abs=1e-9)
        assert sol.objective_value == pytest.approx(
            sol.value(m.objective), abs=1e-9)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_resolve_after_patch_matches_cold_rebuild(
            self, line_state_dc, name, use_backend):
        use_backend(name)
        problem = _replication(line_state_dc)
        problem.solve()
        warm = problem.resolve(max_link_load=0.1)
        cold = _replication(line_state_dc, max_link_load=0.1).solve()
        assert warm.load_cost == pytest.approx(cold.load_cost,
                                               abs=1e-6)


def _solved_under(name, state):
    """The dc replication plan of ``state`` at MaxLinkLoad 0.4 under
    backend ``name``, or the class of the error the solve raised."""
    set_default_backend(name)
    try:
        return _replication(state).solve()
    except LPError as exc:
        return type(exc)
    finally:
        set_default_backend(None)


class TestBackendsOnDrawnStates:
    """scipy ≡ dense on drawn instances: the same LoadCost, and each
    plan valid and lowered to shim tables that tile the hash space."""

    @settings(max_examples=60, deadline=None)
    @given(state=st.one_of(strategies.small_states(),
                           strategies.paired_states()))
    def test_same_optimum_and_valid_plans(self, state):
        scipy, dense = (_solved_under(name, state)
                        for name in ("scipy", "dense"))
        if isinstance(scipy, type) or isinstance(dense, type):
            assert scipy is dense
            return
        assert dense.load_cost == pytest.approx(scipy.load_cost,
                                                abs=1e-9)
        for result in (scipy, dense):
            assert validate_replication(state, result) == []
            assert check_shim_configs(
                build_replication_configs(state, result)) == []


def _capped_lp(y_coeff, sense):
    """max 3x + 2y on [0, 4]^2 under one block row joining x and y:
    ``x + y_coeff*y <= 4`` (``le``), or ``lead - (x + y_coeff*y) >=
    0`` with ``lead <= 4`` and ``lead`` priced at 0.5 (``ge``)."""
    m = Model()
    x, y = m.add_variables(["x", "y"], ub=4.0)
    objective = 3 * x + 2 * y
    lead = None
    if sense == "ge":
        lead = m.add_variable("lead", ub=4.0)
        objective = objective - 0.5 * lead
    block = RowBlock(m, [0, 0], [x.index, y.index], [1.0, y_coeff],
                     [0.0], lead=lead)
    row = m.add_block_row(block, 0, 4.0 if lead is None else 0.0,
                          name="cap")
    m.maximize(objective)
    return m, block, row, y


class TestStructuralSparsity:
    """The compiled pattern follows a block's terms, not their
    values."""

    @pytest.mark.parametrize("sense", ("le", "ge"))
    @pytest.mark.parametrize("name", BACKENDS)
    def test_zero_compiled_term_patches_like_a_cold_rebuild(
            self, name, sense, use_backend):
        use_backend(name)
        model, block, row, y = _capped_lp(0.0, sense)
        model.solve()
        compiled = model.compiled
        model.set_block_coefficients(block, [1.0, 1.0])
        assert row.expr.coefficient(y) == (1.0 if sense == "le"
                                           else -1.0)
        warm = model.solve()
        assert model.compiled is compiled  # patched, not recompiled
        rebuilt = _capped_lp(1.0, sense)[0]
        cold = rebuilt.solve()
        for attr in ("c", "b_ub", "bounds"):
            assert np.array_equal(getattr(compiled, attr),
                                  getattr(rebuilt.compiled, attr))
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(compiled.a_ub, attr),
                                  getattr(rebuilt.compiled.a_ub, attr))
        assert warm.objective_value == cold.objective_value
        assert list(warm.values().values()) == \
            list(cold.values().values())

    def test_linprog_never_sees_an_explicit_zero(self, monkeypatch,
                                                 use_backend):
        from repro.lpsolve.backends import scipy_highs

        handed = []

        def spy(c, A_ub=None, A_eq=None, **kwargs):
            handed.extend(m for m in (A_ub, A_eq) if m is not None)
            return linprog(c, A_ub=A_ub, A_eq=A_eq, **kwargs)

        linprog = scipy_highs.linprog
        monkeypatch.setattr(scipy_highs, "linprog", spy)
        use_backend("scipy")
        for sense in ("le", "ge"):
            model, block, _, y = _capped_lp(0.0, sense)
            model.solve()
            model.set_block_coefficients(block, [1.0, 1.0])
            model.set_block_coefficients(block, [1.0, 0.0])
            model.solve()
            # The slot for y stays.
            assert y.index in model.compiled.a_ub.indices
        assert len(handed) == 4
        for matrix in handed:
            assert matrix.nnz == matrix.count_nonzero()
            assert y.index not in matrix.indices


class TestResolveMatchesColdRebuild:
    """`resolve(**params)` must equal a from-scratch build + solve."""

    def test_max_link_load_sweep(self, line_state_dc):
        # The Figure 11 path: patch link budgets, re-solve warm.
        problem = _replication(line_state_dc)
        for limit in (0.0, 0.05, 0.2, 0.4, 1.0, 0.1):
            warm = problem.resolve(max_link_load=limit)
            cold = _replication(line_state_dc,
                                max_link_load=limit).solve()
            assert warm.load_cost == pytest.approx(cold.load_cost,
                                                   abs=1e-9)

    def test_beta_sweep(self, line_state_dc):
        # The Figure 18 path: patch the beta-scaled objective.
        problem = AggregationProblem(line_state_dc)
        base = problem.suggested_beta()
        for mult in (1.0, 1e-3, 1e3, 1.0):
            beta = base * mult
            warm = problem.resolve(beta=beta)
            cold = AggregationProblem(line_state_dc, beta=beta).solve()
            assert warm.load_cost == pytest.approx(cold.load_cost,
                                                   abs=1e-9)
            assert warm.comm_cost == pytest.approx(cold.comm_cost,
                                                   abs=1e-9)

    def test_volume_sweep(self, line_state_dc):
        # The Figure 15 path: patch per-class volumes.
        problem = _replication(line_state_dc)
        for factor in (1.0, 2.0, 0.5, 1.25):
            classes = _scaled(line_state_dc.classes, factor)
            warm = problem.resolve_traffic(classes)
            cold = _replication(
                line_state_dc.with_traffic(classes)).solve()
            assert warm.load_cost == pytest.approx(cold.load_cost,
                                                   abs=1e-9)

    def test_controller_refresh_matches_fresh_controller(
            self, line_state_dc):
        # The controller path: the second refresh is an incremental
        # re-solve; it must match a controller that solves cold.
        warm_ctl = NIDSController(line_state_dc)
        warm_ctl.refresh()
        classes = _scaled(line_state_dc.classes, 1.5)
        warm = warm_ctl.refresh(classes).result

        cold_ctl = NIDSController(line_state_dc)
        cold = cold_ctl.refresh(classes).result
        assert warm.load_cost == pytest.approx(cold.load_cost,
                                               abs=1e-9)


class TestBackendRegistry:
    """One fixed backend table and one process-wide choice."""

    @pytest.fixture(autouse=True)
    def _restore_default(self):
        yield
        set_default_backend(None)

    def test_builtin_backends_registered(self):
        assert sorted(BACKENDS) == ["dense", "scipy"]
        for name in BACKENDS:
            backend = get_backend(name)
            assert backend.name == name
            assert get_backend(name.upper()) is backend  # cached

    def test_unknown_backend_raises(self):
        with pytest.raises(LPError, match="unknown solver backend"):
            get_backend("cplex")

    def test_set_default_validates_eagerly(self):
        with pytest.raises(LPError):
            set_default_backend("no-such-solver")

    def test_default_is_scipy(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER", raising=False)
        set_default_backend(None)
        assert default_backend_name() == "scipy"

    @pytest.mark.parametrize("value", ("", "  "),
                             ids=("empty", "blank"))
    def test_blank_env_var_reads_as_unset(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SOLVER", value)
        set_default_backend(None)
        assert default_backend_name() == "scipy"

    def test_env_var_overrides_builtin_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "dense")
        set_default_backend(None)
        assert default_backend_name() == "dense"
        dense = get_backend("dense")
        solved = []
        monkeypatch.setattr(
            dense, "solve",
            lambda compiled: solved.append(compiled)
            or type(dense).solve(dense, compiled))
        model = Model()
        model.minimize(model.add_variable("x", lb=1.0))
        assert model.solve().objective_value == pytest.approx(1.0)
        assert solved == [model.compiled]

    def test_set_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "dense")
        set_default_backend("scipy")
        assert default_backend_name() == "scipy"

    def test_backend_interface_requires_solve(self):
        class Empty(SolverBackend):
            name = "empty"

        with pytest.raises(NotImplementedError):
            Empty().solve(None)
