"""Unit tests for LP model compilation and solving."""

import pytest

from repro.lpsolve import (
    InfeasibleError,
    Model,
    ModelError,
    UnboundedError,
    lin_sum,
)


class TestModelConstruction:
    def test_variable_bounds_validated(self):
        m = Model()
        with pytest.raises(ModelError):
            m.add_variable("x", lb=2.0, ub=1.0)

    def test_duplicate_names_deduplicated(self):
        m = Model()
        a = m.add_variable("x")
        b = m.add_variable("x")
        assert a.name != b.name

    def test_add_constraint_rejects_bool(self):
        m = Model()
        m.add_variable("x")
        with pytest.raises(ModelError):
            m.add_constraint(1 <= 2)  # plain bool, not a Constraint

    def test_cross_model_variables_rejected(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_variable("x")
        with pytest.raises(ModelError):
            m2.add_constraint(x <= 1)

    def test_cross_model_objective_rejected(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_variable("x")
        with pytest.raises(ModelError):
            m2.minimize(x)

    def test_solve_without_objective_raises(self):
        m = Model()
        m.add_variable("x")
        with pytest.raises(ModelError):
            m.solve()

    def test_solve_without_variables_raises(self):
        m = Model()
        with pytest.raises(ModelError):
            m.minimize(1.0)
            m.solve()

    def test_add_variables_vector(self):
        m = Model()
        xs = m.add_variables(["a", "b", "c"], lb=0, ub=1)
        assert len(xs) == 3
        assert m.num_variables == 3


class TestSolving:
    def test_trivial_minimum_at_bound(self):
        m = Model()
        x = m.add_variable("x", lb=2.0)
        m.minimize(x)
        sol = m.solve()
        assert sol.value(x) == pytest.approx(2.0)

    def test_maximize(self):
        m = Model()
        x = m.add_variable("x", lb=0, ub=5)
        m.maximize(x)
        sol = m.solve()
        assert sol.objective_value == pytest.approx(5.0)

    def test_classic_two_variable_lp(self):
        # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12
        m = Model()
        x = m.add_variable("x")
        y = m.add_variable("y")
        m.add_constraint(x + y <= 4)
        m.add_constraint(x + 3 * y <= 6)
        m.maximize(3 * x + 2 * y)
        sol = m.solve()
        assert sol.objective_value == pytest.approx(12.0)
        assert sol.value(x) == pytest.approx(4.0)
        assert sol.value(y) == pytest.approx(0.0)

    def test_equality_constraint(self):
        m = Model()
        x = m.add_variable("x")
        y = m.add_variable("y")
        m.add_constraint(x + y == 3)
        m.minimize(2 * x + y)
        sol = m.solve()
        assert sol.value(y) == pytest.approx(3.0)
        assert sol.objective_value == pytest.approx(3.0)

    def test_min_max_epigraph_pattern(self):
        # minimize max(x, y) with x + y == 10 -> both 5.
        m = Model()
        x = m.add_variable("x")
        y = m.add_variable("y")
        z = m.add_variable("z")
        m.add_constraint(x + y == 10)
        m.add_constraint(z >= x)
        m.add_constraint(z >= y)
        m.minimize(z)
        sol = m.solve()
        assert sol.objective_value == pytest.approx(5.0)

    def test_infeasible_raises(self):
        m = Model()
        x = m.add_variable("x", lb=0, ub=1)
        m.add_constraint(x >= 2)
        m.minimize(x)
        with pytest.raises(InfeasibleError):
            m.solve()

    def test_unbounded_raises(self):
        m = Model()
        x = m.add_variable("x", lb=0.0)  # no upper bound
        m.maximize(x)
        with pytest.raises(UnboundedError):
            m.solve()

    def test_solution_evaluates_expressions(self):
        m = Model()
        x = m.add_variable("x", lb=1, ub=1)
        y = m.add_variable("y", lb=2, ub=2)
        m.minimize(x + y)
        sol = m.solve()
        assert sol.value(3 * x + y + 1) == pytest.approx(6.0)
        assert sol.value(7.5) == pytest.approx(7.5)

    def test_values_dict(self):
        m = Model()
        x = m.add_variable("x", lb=1, ub=1)
        m.minimize(x)
        sol = m.solve()
        assert sol.values() == {x: pytest.approx(1.0)}

    def test_solve_time_recorded(self):
        m = Model()
        x = m.add_variable("x", lb=0)
        m.minimize(x)
        sol = m.solve()
        assert sol.solve_seconds >= 0.0

    def test_all_constraints_satisfied_at_optimum(self):
        m = Model()
        xs = m.add_variables([f"x{i}" for i in range(5)], lb=0, ub=1)
        m.add_constraint(lin_sum(xs) == 1)
        for i, x in enumerate(xs):
            m.add_constraint(x <= 0.3 + 0.1 * i)
        m.minimize(lin_sum((i + 1) * x for i, x in enumerate(xs)))
        sol = m.solve()
        values = sol.values()
        for con in m.constraints:
            assert con.violation(values) < 1e-7

    def test_zero_fraction_solution_respects_bounds(self):
        m = Model()
        x = m.add_variable("x", lb=0.25, ub=0.75)
        m.minimize(-x)
        sol = m.solve()
        assert 0.25 <= sol.value(x) <= 0.75

    def test_compiled_bounds_are_one_float_array(self):
        """``(n, 2)`` floats with ``inf`` for "unbounded above" — what
        ``linprog`` takes as is, instead of ``n`` tuples it converts
        on every solve; both backends read the two columns."""
        import numpy as np

        m = Model()
        x = m.add_variable("x", lb=0.25, ub=0.75)
        y = m.add_variable("y", lb=-1.0)
        m.add_constraint(x + y <= 3)
        m.minimize(-2 * x - y)
        sol = m.solve()
        bounds = m.compiled.bounds
        assert bounds.dtype == np.float64
        assert bounds.tolist() == [[0.25, 0.75], [-1.0, np.inf]]
        assert sol.value(x) == pytest.approx(0.75)
        assert sol.value(y) == pytest.approx(2.25)
