"""The aggregation LP (Section 6, Figure 9 of the paper).

Analyses like Scan detection are topologically constrained under pure
on-path distribution (only the ingress sees all of a host's traffic).
Aggregation splits the task into sub-tasks — each on-path node counts a
*per-source* share of the traffic — and ships intermediate reports to an
aggregation point. The LP assigns the local-processing fractions
``p_{c,j}`` to balance compute load against the report traffic:

    minimize  LoadCost + beta * CommCost            (Eq (12))
    CommCost = sum_c,j |T_c| p_{c,j} Rec_c D_{c,j}  (Eq (13))

``D_{c,j}`` is the hop distance from node ``j`` to the class's
aggregation point (the ingress gateway by default — it is best placed
to decide whether to alert, Section 6). Report sizes are small, so no
``MaxLinkLoad`` constraint is carried over.

``beta`` and the per-class ``volumes`` are named parameters of the
:class:`~repro.core.formulation.Formulation`; the Figure 18 beta sweep
re-solves via ``resolve(beta=...)``, which only rewrites objective
coefficients on the compiled LP. The load coefficients and CommCost
are stated once (``_load_term_index`` / ``_cost_expression``); the
base class builds and patches from them.
"""

from __future__ import annotations

from typing import Callable, Iterator, Tuple, Union

from repro.core.formulation import (Formulation, LoadKey, TermIndex,
                                    _check_non_negative)
from repro.core.inputs import NetworkState
from repro.core.results import AggregationResult
from repro.lpsolve import (LinExpr, Model, Solution, SolverBackend,
                           Variable, lin_sum)

AggregationPointFn = Callable[[object], str]


def ingress_aggregation_point(cls) -> str:
    """Default: reports go back to the class's ingress gateway."""
    return cls.ingress


class AggregationProblem(Formulation):
    """Builds and solves the Figure 9 LP.

    Args:
        state: calibrated inputs (no datacenter required).
        beta: weight on the communication cost; sweep it to trade
            report traffic against load balance (Figure 18).
        aggregation_point: maps a class to the node its reports are
            sent to (default: the ingress).
        backend: LP solver backend (name, instance, or None for the
            process default).
    """

    kind = "aggregation"
    _cost_weight = "beta"

    def __init__(self, state: NetworkState, beta: float = 1.0,
                 aggregation_point: AggregationPointFn =
                 ingress_aggregation_point,
                 backend: Union[None, str, SolverBackend] = None) -> None:
        super().__init__(state, backend=backend)
        self._declare_param("beta", beta, _check_non_negative("beta"))
        self.aggregation_point = aggregation_point

    @property
    def beta(self) -> float:
        """The communication-cost weight (change it via ``resolve``)."""
        return self._params["beta"]

    def suggested_beta(self) -> float:
        """A beta making LoadCost and CommCost comparable in scale.

        Uses ``1 / CommCost(ingress-only)`` — the report cost of doing
        all counting at distance-0 would be 0, so instead we normalize
        by the cost of a uniform split across each path, which is the
        natural midpoint of the tradeoff curve.
        """
        total = 0.0
        for cls in self.state.classes:
            point = self.aggregation_point(cls)
            distances = [self.state.routing.hop_count(node, point)
                         for node in cls.path]
            mean_distance = sum(distances) / len(distances)
            total += cls.num_sessions * cls.record_bytes * mean_distance
        return 1.0 / total if total > 0 else 1.0

    # -- the coefficient table ----------------------------------------------

    def _load_term_index(self) -> TermIndex:
        def terms() -> Iterator[Tuple[LoadKey, Variable, int, float]]:
            state = self.state
            for index, cls in enumerate(state.classes):
                for node in cls.path:
                    var = self._p[(cls.name, node)]
                    for resource in state.resources:
                        if cls.footprint(resource) != 0.0:
                            yield ((resource, node), var, index,
                                   cls.footprint(resource))

        return TermIndex.from_terms(self._load_keys, terms())

    def _cost_expression(self) -> LinExpr:
        # CommCost (Eq (13)): report bytes times hops to the
        # aggregation point.
        state = self.state
        coeffs = {}
        for cls in state.classes:
            point = self.aggregation_point(cls)
            for node in cls.path:
                distance = state.routing.hop_count(node, point)
                coeffs[self._p[(cls.name, node)]] = (
                    cls.num_sessions * cls.record_bytes * distance)
        return LinExpr(coeffs)

    # -- model construction -------------------------------------------------

    def _build(self, model: Model) -> None:
        for cls in self.state.classes:
            class_vars = []
            for node in cls.path:
                var = model.add_variable(
                    f"p[{cls.name},{node}]", lb=0.0, ub=1.0)
                self._p[(cls.name, node)] = var
                class_vars.append(var)
            # Coverage (Eq (14)).
            model.add_constraint(lin_sum(class_vars) == 1.0,
                                 name=f"cover[{cls.name}]")
        load_cost = self._emit_load_rows(model)
        self._cost_expr = self._cost_expression()
        model.minimize(load_cost + self.beta * self._cost_expr)

    # -- solving --------------------------------------------------------------

    def _unpack(self, model: Model,
                solution: Solution) -> AggregationResult:
        fields = self._assignment_fields(model, solution)
        comm_cost = solution.value(self._cost_expr)
        return AggregationResult(
            comm_cost=comm_cost,
            beta=self.beta,
            objective=fields["load_cost"] + self.beta * comm_cost,
            process_fractions=self._process_fractions(solution),
            **fields)

    def solve(self) -> AggregationResult:
        """Solve and unpack loads, fractions, and the comm cost."""
        return super().solve()
