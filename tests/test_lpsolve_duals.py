"""Property test: duals are d(objective)/d(rhs), in model convention.

``Solution.dual(name)`` must report the shadow price of a constraint
*as the user wrote it* — the rate of change of the optimal objective
per unit increase of the constraint's right-hand side — regardless of
objective sense (min/max) and constraint sense (LE/GE/EQ), and under
either backend. The compiled form negates GE rows and maximize
objectives, so this pins down the sign mapping end to end.

Each case is verified against a central finite difference of the
optimum over an rhs perturbation. The instances are built nondegenerate
(distinct cost coefficients, rhs away from bound kinks) so the dual is
unique and the finite difference is exact for an LP.
"""

import pytest

from repro.lpsolve import BACKENDS, Model

EPS = 1e-3


def _build(sense, con_sense, rhs):
    """min/max c.x with one coupling constraint at the given rhs.

    Costs are deliberately asymmetric (1.3 vs 2.7) so the optimal
    basis is unique; the bounds are wide enough that the +/-EPS
    perturbations never cross a kink.
    """
    m = Model()
    x = m.add_variable("x", lb=0.0, ub=10.0)
    y = m.add_variable("y", lb=0.0, ub=10.0)
    lhs = x + y
    if con_sense == "le":
        m.add_constraint(lhs <= rhs, name="coupling")
    elif con_sense == "ge":
        m.add_constraint(lhs >= rhs, name="coupling")
    else:
        m.add_constraint(lhs == rhs, name="coupling")
    objective = 1.3 * x + 2.7 * y
    if sense == "min":
        m.minimize(objective)
    else:
        m.maximize(objective)
    return m


def _optimum(sense, con_sense, rhs):
    return _build(sense, con_sense, rhs).solve().objective_value


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sense", ("min", "max"))
@pytest.mark.parametrize("con_sense", ("le", "ge", "eq"))
@pytest.mark.parametrize("rhs", (3.0, 7.5, 12.5))
def test_dual_is_objective_sensitivity(backend, sense, con_sense, rhs,
                                       use_backend):
    use_backend(backend)
    solution = _build(sense, con_sense, rhs).solve()
    reported = solution.dual("coupling")
    plus = _optimum(sense, con_sense, rhs + EPS)
    minus = _optimum(sense, con_sense, rhs - EPS)
    finite_difference = (plus - minus) / (2 * EPS)
    assert reported == pytest.approx(finite_difference, abs=1e-6)


@pytest.mark.parametrize("backend", BACKENDS)
def test_nonbinding_constraint_has_zero_dual(backend, use_backend):
    use_backend(backend)
    m = Model()
    x = m.add_variable("x", lb=0.0, ub=10.0)
    m.add_constraint(x <= 100.0, name="slack_room")
    m.minimize(x)
    solution = m.solve()
    assert solution.dual("slack_room") == pytest.approx(0.0, abs=1e-9)
    assert "slack_room" not in solution.binding_constraints()


@pytest.mark.parametrize("backend", BACKENDS)
def test_binding_constraints_listed(backend, use_backend):
    use_backend(backend)
    m = Model()
    x = m.add_variable("x", lb=0.0, ub=10.0)
    y = m.add_variable("y", lb=0.0, ub=10.0)
    m.add_constraint(x + y >= 4.0, name="demand")
    m.minimize(1.3 * x + 2.7 * y)
    solution = m.solve()
    assert "demand" in solution.binding_constraints()
    # Cheapest variable serves the demand: dual = its unit cost.
    assert solution.dual("demand") == pytest.approx(1.3, abs=1e-6)
