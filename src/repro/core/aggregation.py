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

A subclass that sets :attr:`AggregationProblem._offload_columns` gets
one more column per ``p[c,j]``, right after it: ``o[c,j]``, the
counting sub-task replicated from ``j`` to the datacenter (Section 9,
:class:`~repro.core.combined.CombinedProblem`). It joins the class's
coverage row, puts ``j``'s load terms on the datacenter instead, and
costs ``|T_c| Rec_c D(DC, aggregation point)`` in CommCost.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Tuple

from repro.core.formulation import (Formulation, LoadKey, TermIndex,
                                    _check_non_negative)
from repro.core.inputs import NetworkState
from repro.core.results import AggregationResult
from repro.lpsolve import LinExpr, Model, Solution, Variable, lin_sum

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
    """

    kind = "aggregation"
    _cost_weight = "beta"
    #: add an ``o[c,j]`` datacenter column after every ``p[c,j]``
    _offload_columns = False

    def __init__(self, state: NetworkState, beta: float = 1.0,
                 aggregation_point: AggregationPointFn =
                 ingress_aggregation_point) -> None:
        super().__init__(state)
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

    def _reset(self) -> None:
        super()._reset()
        self._o: Dict[Tuple[str, str], Variable] = {}

    # -- the coefficient table ----------------------------------------------

    def _load_term_index(self) -> TermIndex:
        def terms() -> Iterator[Tuple[LoadKey, Variable, int, float]]:
            state = self.state
            for index, cls in enumerate(state.classes):
                for node in cls.path:
                    var = self._p[(cls.name, node)]
                    offload = self._o.get((cls.name, node))
                    for resource in state.resources:
                        footprint = cls.footprint(resource)
                        if footprint == 0.0:
                            continue
                        yield (resource, node), var, index, footprint
                        if offload is not None:
                            yield ((resource, state.dc_node), offload,
                                   index, footprint)

        return TermIndex.from_terms(self._load_keys, terms())

    def _cost_expression(self) -> LinExpr:
        # CommCost (Eq (13)): report bytes times hops to the
        # aggregation point; a replicated count reports from the DC.
        state = self.state
        coeffs = {}
        for cls in state.classes:
            point = self.aggregation_point(cls)
            report_bytes = cls.num_sessions * cls.record_bytes
            for node in cls.path:
                coeffs[self._p[(cls.name, node)]] = (
                    report_bytes * state.routing.hop_count(node, point))
                offload = self._o.get((cls.name, node))
                if offload is not None:
                    coeffs[offload] = report_bytes * \
                        state.routing.hop_count(state.dc_node, point)
        return LinExpr(coeffs)

    # -- model construction -------------------------------------------------

    def _build(self, model: Model) -> None:
        for cls in self.state.classes:
            class_vars: List[Variable] = []
            for node in cls.path:
                key = (cls.name, node)
                var = self._p[key] = model.add_variable(
                    f"p[{cls.name},{node}]", lb=0.0, ub=1.0)
                class_vars.append(var)
                if self._offload_columns:
                    var = self._o[key] = model.add_variable(
                        f"o[{cls.name},{node}]", lb=0.0, ub=1.0)
                    class_vars.append(var)
            # Coverage (Eq (14)).
            model.add_constraint(lin_sum(class_vars) == 1.0,
                                 name=f"cover[{cls.name}]")
        load_cost = self._emit_load_rows(model)
        if self._offload_columns:
            self._emit_link_rows(model)
        self._cost_expr = self._cost_expression()
        model.minimize(load_cost + self.beta * self._cost_expr)

    # -- solving --------------------------------------------------------------

    def _unpack(self, model: Model,
                solution: Solution) -> AggregationResult:
        fields = self._assignment_fields(model, solution)
        process = self._process_fractions(solution)
        dc = self.state.dc_node
        for (cls_name, node), var in self._o.items():
            value = solution.value(var)
            if value > 1e-9:
                fractions = process.setdefault(cls_name, {})
                fractions[dc] = fractions.get(dc, 0.0) + value
        comm_cost = solution.value(self._cost_expr)
        return AggregationResult(
            comm_cost=comm_cost,
            beta=self.beta,
            objective=fields["load_cost"] + self.beta * comm_cost,
            aggregation_points={
                cls.name: self.aggregation_point(cls)
                for cls in self.state.classes},
            process_fractions=process,
            **fields)

    def solve(self) -> AggregationResult:
        """Solve and unpack loads, fractions, and the comm cost;
        replicated counting appears under the DC's node key in
        ``process_fractions`` (the DC does the counting)."""
        return super().solve()
