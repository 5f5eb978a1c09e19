"""Backend equivalence and incremental re-solve regression tests.

Both solver backends must agree (to LP tolerance) on a golden
replication instance, and ``Formulation.resolve`` after parameter
patches must reproduce a cold rebuild on every parameter path the
experiments exercise (Figures 11, 15, 18 and the controller loop).
"""

from dataclasses import replace

import pytest

from repro.core.aggregation import AggregationProblem
from repro.core.controller import NIDSController
from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.lpsolve import (
    LPError,
    Model,
    SolverBackend,
    available_backends,
    default_backend_name,
    get_backend,
    resolve_backend,
    set_default_backend,
)

BACKENDS = ("scipy", "dense")


def _scaled(classes, factor):
    return [replace(cls, num_sessions=cls.num_sessions * factor)
            for cls in classes]


def _replication(state, backend=None, max_link_load=0.4):
    return ReplicationProblem(
        state, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=max_link_load, backend=backend)


class TestBackendEquivalence:
    """The dense fallback must match scipy/HiGHS on the golden
    replication instance (same optimum; both primal-feasible)."""

    def test_objectives_agree(self, line_state_dc):
        objectives = [
            _replication(line_state_dc, backend=name).solve().load_cost
            for name in BACKENDS]
        assert objectives[0] == pytest.approx(objectives[1], abs=1e-6)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_solution_is_primal_feasible(self, line_state_dc, name):
        model = _replication(line_state_dc, backend=name).build_model()
        values = model.solve().values()
        for con in model.constraints:
            assert con.violation(values) < 1e-7, con

    @pytest.mark.parametrize("name", BACKENDS)
    def test_small_lp_agrees_with_known_optimum(self, name):
        # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> obj 12.
        m = Model(backend=name)
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
                                                        sense):
        m = Model(backend=name)
        x = m.add_variable("x", lb=1.0, ub=3.0)
        getattr(m, sense)(x + 5)
        sol = m.solve()
        expected = 6.0 if sense == "minimize" else 8.0
        assert sol.objective_value == pytest.approx(expected, abs=1e-9)
        assert sol.objective_value == pytest.approx(
            sol.value(m.objective), abs=1e-9)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_resolve_after_patch_matches_cold_rebuild(
            self, line_state_dc, name):
        problem = _replication(line_state_dc, backend=name)
        problem.solve()
        warm = problem.resolve(max_link_load=0.1)
        cold = _replication(line_state_dc, backend=name,
                            max_link_load=0.1).solve()
        assert warm.load_cost == pytest.approx(cold.load_cost,
                                               abs=1e-6)


def _capped_lp(backend, y_coeff, le_row):
    """max 3x + 2y on [0, 4]^2 under one row joining x and y, stated
    as <= (a_ub row), >= (negated a_ub row) or == (a_eq row)."""
    m = Model(backend=backend)
    x = m.add_variable("x", ub=4.0)
    y = m.add_variable("y", ub=4.0)
    lhs = x + y_coeff * y
    row = m.add_constraint({"le": lhs <= 4, "ge": -1 * lhs >= -4,
                            "eq": lhs == 4}[le_row], name="cap")
    m.maximize(3 * x + 2 * y)
    return m, row, y


class TestStructuralSparsity:
    """The compiled pattern follows a row's terms, not their values."""

    @pytest.mark.parametrize("sense", ("le", "ge", "eq"))
    @pytest.mark.parametrize("name", BACKENDS)
    def test_zero_compiled_term_patches_like_a_cold_rebuild(
            self, name, sense):
        model, row, y = _capped_lp(name, 0.0, sense)
        model.solve()
        compiled = model.compiled
        model.set_coefficient(
            row, y, -1.0 if sense == "ge" else 1.0)
        warm = model.solve()
        assert model.compiled is compiled  # patched, not recompiled
        cold = _capped_lp(name, 1.0, sense)[0].solve()
        assert warm.objective_value == cold.objective_value
        assert list(warm.values().values()) == \
            list(cold.values().values())

    def test_linprog_never_sees_an_explicit_zero(self, monkeypatch):
        from repro.lpsolve.backends import scipy_highs

        handed = []

        def spy(c, A_ub=None, A_eq=None, **kwargs):
            handed.extend(m for m in (A_ub, A_eq) if m is not None)
            return linprog(c, A_ub=A_ub, A_eq=A_eq, **kwargs)

        linprog = scipy_highs.linprog
        monkeypatch.setattr(scipy_highs, "linprog", spy)
        for sense in ("le", "eq"):
            model, row, y = _capped_lp("scipy", 0.0, sense)
            model.solve()
            model.set_coefficient(row, y, 1.0)
            model.set_coefficient(row, y, 0.0)
            model.solve()
            stored = model.compiled.a_ub if sense == "le" else \
                model.compiled.a_eq
            assert stored.nnz == 2  # the slot for y stays
        assert len(handed) == 4
        for matrix in handed:
            assert matrix.nnz == matrix.count_nonzero() == 1


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
    @pytest.fixture(autouse=True)
    def _restore_default(self):
        yield
        set_default_backend(None)

    def test_builtin_backends_registered(self):
        names = available_backends()
        assert "scipy" in names
        assert "dense" in names

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

    def test_env_var_overrides_builtin_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "dense")
        set_default_backend(None)
        assert default_backend_name() == "dense"
        assert resolve_backend(None) is get_backend("dense")

    def test_set_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "dense")
        set_default_backend("scipy")
        assert default_backend_name() == "scipy"

    def test_explicit_spec_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "scipy")
        set_default_backend("scipy")
        assert resolve_backend("dense") is get_backend("dense")

    def test_instance_spec_passes_through(self):
        backend = get_backend("dense")
        assert resolve_backend(backend) is backend

    def test_backend_interface_requires_solve(self):
        class Empty(SolverBackend):
            name = "empty"

        with pytest.raises(NotImplementedError):
            Empty().solve(None)
