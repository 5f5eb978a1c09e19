"""Unified replication + aggregation (Section 9, "Combining aggregation
and replication" — the paper's stated future work).

The idea: replication can reduce the *communication cost* of
aggregation. Under plain aggregation, each on-path node that counts a
share of a class ships its intermediate report ``D_{c,j}`` hops to the
aggregation point. If instead a node replicates its counting sub-task
to the datacenter, the DC performs the counting and ships *one* report
from the DC to the aggregation point — useful when the DC sits closer
(in byte-hops of reports) than the scattered on-path nodes, or when
on-path nodes are compute-bound.

Formulation (extends Figure 9):

    variables  p[c,j]  (j on P_c)     local counting fraction
               o[c,j]  (j on P_c)     counting sub-task replicated
                                      from j to the DC
    coverage   sum_j p[c,j] + o[c,j] == 1
    LoadCost   as usual; the DC accrues the o work
    CommCost   sum |T_c| ( p[c,j] Rec_c D(j,agg)
                         + o[c,j] Rec_c D(DC,agg) )
    link load  replicating the sub-task means mirroring the traffic
               slice to the DC: bounded by MaxLinkLoad as in Section 4

    minimize   LoadCost + beta * CommCost

The paper's caveat — replication splits per-session while aggregation
splits per-source — is handled operationally by the shim's per-source
hash mode: the traffic slice replicated to the DC is a *source* range,
so DC counting remains correct and no effort is duplicated.

``beta``, ``max_link_load`` and ``volumes`` are named
:class:`~repro.core.formulation.Formulation` parameters, resolvable in
place on the compiled LP; the coefficients are stated once
(``_load_term_index`` / ``_link_term_index`` / ``_cost_expression``)
and the base class builds and patches from them.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Tuple, Union

from repro.core.aggregation import ingress_aggregation_point
from repro.core.formulation import (Formulation, LoadKey, TermIndex,
                                    _check_max_link_load,
                                    _check_non_negative)
from repro.core.inputs import NetworkState
from repro.core.results import AggregationResult
from repro.lpsolve import (LinExpr, Model, Solution, SolverBackend,
                           Variable, lin_sum)
from repro.topology.topology import Link


class CombinedProblem(Formulation):
    """Aggregation with optional replication of counting sub-tasks.

    Args:
        state: calibrated inputs **with** a datacenter node.
        beta: communication-cost weight (as in Figure 9).
        max_link_load: bound on the replicated traffic's link load.
        aggregation_point: class -> node receiving the final reports.
        backend: LP solver backend (name, instance, or None for the
            process default).
    """

    kind = "combined"
    _cost_weight = "beta"

    def __init__(self, state: NetworkState, beta: float = 1.0,
                 max_link_load: float = 0.4,
                 aggregation_point: Callable =
                 ingress_aggregation_point,
                 backend: Union[None, str, SolverBackend] = None) -> None:
        if state.dc_node is None:
            raise ValueError("CombinedProblem needs a datacenter; "
                             "build the state with dc_capacity_factor")
        super().__init__(state, backend=backend)
        self._declare_param("beta", beta, _check_non_negative("beta"))
        self._declare_param("max_link_load", max_link_load,
                            _check_max_link_load)
        self.aggregation_point = aggregation_point

    @property
    def beta(self) -> float:
        """The communication-cost weight (change it via ``resolve``)."""
        return self._params["beta"]

    @property
    def max_link_load(self) -> float:
        """``MaxLinkLoad`` (change it via ``resolve``)."""
        return self._params["max_link_load"]

    def _reset(self) -> None:
        super()._reset()
        self._o: Dict[Tuple[str, str], Variable] = {}

    # -- the coefficient table ----------------------------------------------

    def _load_term_index(self) -> TermIndex:
        def terms() -> Iterator[Tuple[LoadKey, Variable, int, float]]:
            state = self.state
            dc = state.dc_node
            for index, cls in enumerate(state.classes):
                for node in cls.path:
                    p_var = self._p[(cls.name, node)]
                    o_var = self._o[(cls.name, node)]
                    for resource in state.resources:
                        footprint = cls.footprint(resource)
                        if footprint == 0.0:
                            continue
                        yield (resource, node), p_var, index, footprint
                        yield (resource, dc), o_var, index, footprint

        return TermIndex.from_terms(self._load_keys, terms())

    def _link_term_index(self) -> TermIndex:
        # Mirrored traffic slice for the sub-task.
        def terms() -> Iterator[Tuple[Link, Variable, int, float]]:
            state = self.state
            dc = state.dc_node
            for index, cls in enumerate(state.classes):
                for node in cls.path:
                    o_var = self._o[(cls.name, node)]
                    for link in state.routing.path_links(node, dc):
                        yield link, o_var, index, cls.session_bytes

        return TermIndex.from_terms(self.state.topology.links, terms())

    def _cost_expression(self) -> LinExpr:
        # CommCost: a local count reports from its node, a replicated
        # one from the datacenter.
        state = self.state
        coeffs = {}
        for cls in state.classes:
            point = self.aggregation_point(cls)
            dc_distance = state.routing.hop_count(state.dc_node, point)
            report_bytes = cls.num_sessions * cls.record_bytes
            for node in cls.path:
                distance = state.routing.hop_count(node, point)
                coeffs[self._p[(cls.name, node)]] = (
                    report_bytes * distance)
                coeffs[self._o[(cls.name, node)]] = (
                    report_bytes * dc_distance)
        return LinExpr(coeffs)

    # -- model construction -------------------------------------------------

    def _build(self, model: Model) -> None:
        for cls in self.state.classes:
            class_vars: List[Variable] = []
            for node in cls.path:
                for fractions, label in ((self._p, "p"), (self._o, "o")):
                    var = model.add_variable(
                        f"{label}[{cls.name},{node}]", lb=0.0, ub=1.0)
                    fractions[(cls.name, node)] = var
                    class_vars.append(var)
            model.add_constraint(lin_sum(class_vars) == 1.0,
                                 name=f"cover[{cls.name}]")
        load_cost = self._emit_load_rows(model)
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
            process_fractions=process,
            **fields)

    def solve(self) -> AggregationResult:
        """Solve; offloaded fractions appear under the DC's node key
        in ``process_fractions`` (the DC does the counting)."""
        return super().solve()
