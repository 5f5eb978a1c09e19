"""The Section 4 link-cost extension of the replication LP.

Section 4 ("Extensions"): instead of the hard ``MaxLinkLoad`` bound, a
piecewise-linear convex cost on each link's utilization — the classic
traffic-engineering penalty of Fortz-Rexford-Thorup [10] — can be added
to the objective for a more graceful tradeoff
(``ReplicationProblem(link_cost_weight=)``, run by the ``link-cost``
experiment).
"""

from __future__ import annotations

from typing import Tuple

from repro.lpsolve import LinExpr, Model, Variable

# Fortz-Thorup piecewise segments: (slope, breakpoint where it starts).
# The cost of utilization u is max_i slope_i * u + intercept_i, convex
# and steeply penalizing utilizations near and beyond 1.
FORTZ_THORUP_SEGMENTS: Tuple[Tuple[float, float], ...] = (
    (1.0, 0.0),
    (3.0, 1.0 / 3.0),
    (10.0, 2.0 / 3.0),
    (70.0, 9.0 / 10.0),
    (500.0, 1.0),
    (5000.0, 11.0 / 10.0),
)


def piecewise_link_cost(model: Model, link_load: LinExpr,
                        name: str) -> Variable:
    """Add a convex Fortz-Thorup cost variable for one link.

    Introduces ``phi >= slope_i * (load - start_i) + cost(start_i)``
    for each segment; because the objective minimizes ``phi`` it equals
    the piecewise cost at the optimum.

    Returns:
        The epigraph variable ``phi`` to include in the objective.
    """
    phi = model.add_variable(f"phi[{name}]", lb=0.0)
    # Accumulate each segment's intercept so segments chain continuously.
    cost_at_start = 0.0
    previous_slope = 0.0
    previous_start = 0.0
    for slope, start in FORTZ_THORUP_SEGMENTS:
        cost_at_start += previous_slope * (start - previous_start)
        intercept = cost_at_start - slope * start
        model.add_constraint(
            phi >= link_load * slope + intercept,
            name=f"phi[{name}]>=seg{slope:g}")
        previous_slope, previous_start = slope, start
    return phi
