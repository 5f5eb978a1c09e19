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
coefficients on the compiled LP.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.formulation import Formulation, _check_non_negative
from repro.core.inputs import NetworkState
from repro.core.results import AggregationResult, LPStats
from repro.lpsolve import (Constraint, LinExpr, Model, Solution,
                           SolverBackend, Variable, lin_sum)

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

    def __init__(self, state: NetworkState, beta: float = 1.0,
                 aggregation_point: AggregationPointFn =
                 ingress_aggregation_point,
                 backend: Union[None, str, SolverBackend] = None) -> None:
        super().__init__(state, backend=backend)
        self._declare_param("beta", beta, _check_non_negative("beta"))
        self.aggregation_point = aggregation_point
        self._reset()

    @property
    def beta(self) -> float:
        """The communication-cost weight (change it via ``resolve``)."""
        return self._params["beta"]

    def _reset(self) -> None:
        self._p: Dict[Tuple[str, str], Variable] = {}
        self._load_exprs: Dict[Tuple[str, str], LinExpr] = {}
        self._loadcost_cons: Dict[Tuple[str, str], Constraint] = {}
        self._comm_expr: Optional[LinExpr] = None
        self._load_cost_var: Optional[Variable] = None

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

    def _build(self, model: Model) -> None:
        state = self.state

        comm_terms: List[LinExpr] = []
        load_terms: Dict[Tuple[str, str], List[LinExpr]] = {
            (resource, node): []
            for resource in state.resources for node in state.nids_nodes
        }
        for cls in state.classes:
            point = self.aggregation_point(cls)
            class_vars = []
            for node in cls.path:
                var = model.add_variable(
                    f"p[{cls.name},{node}]", lb=0.0, ub=1.0)
                self._p[(cls.name, node)] = var
                class_vars.append(var)
                distance = state.routing.hop_count(node, point)
                comm_terms.append(var * (cls.num_sessions *
                                         cls.record_bytes * distance))
                for resource in state.resources:
                    if cls.footprint(resource) == 0.0:
                        continue
                    work = cls.footprint(resource) * cls.num_sessions
                    cap = state.capacity(resource, node)
                    load_terms[(resource, node)].append(
                        var * (work / cap))
            # Coverage (Eq (14)).
            model.add_constraint(lin_sum(class_vars) == 1.0,
                                 name=f"cover[{cls.name}]")

        load_cost = model.add_variable("LoadCost", lb=0.0)
        for (resource, node), terms in load_terms.items():
            expr = lin_sum(terms)
            self._load_exprs[(resource, node)] = expr
            self._loadcost_cons[(resource, node)] = model.add_constraint(
                load_cost >= expr, name=f"loadcost[{resource},{node}]")

        self._comm_expr = lin_sum(comm_terms)
        model.minimize(load_cost + self.beta * self._comm_expr)
        self._load_cost_var = load_cost

        self._bind(("volumes",), self._patch_volume_terms)
        self._bind(("beta", "volumes"), self._patch_objective)

    # -- incremental patching ------------------------------------------------

    def _patch_volume_terms(self) -> None:
        """Rescale load-constraint and CommCost coefficients."""
        state = self.state
        model = self._model
        for cls in state.classes:
            point = self.aggregation_point(cls)
            for node in cls.path:
                var = self._p[(cls.name, node)]
                distance = state.routing.hop_count(node, point)
                self._comm_expr.coeffs[var] = (cls.num_sessions *
                                               cls.record_bytes *
                                               distance)
                for resource in state.resources:
                    if cls.footprint(resource) == 0.0:
                        continue
                    work = cls.footprint(resource) * cls.num_sessions
                    cap = state.capacity(resource, node)
                    model.set_coefficient(
                        self._loadcost_cons[(resource, node)], var,
                        -(work / cap))
                    self._load_exprs[(resource, node)].coeffs[var] = (
                        work / cap)

    def _patch_objective(self) -> None:
        """Rewrite ``beta * CommCost`` objective coefficients (runs
        after the volume patch, so the comm expression is current)."""
        for var, comm_coeff in self._comm_expr.coeffs.items():
            self._model.set_objective_coefficient(
                var, self.beta * comm_coeff)

    # -- solving --------------------------------------------------------------

    def _unpack(self, model: Model,
                solution: Solution) -> AggregationResult:
        node_loads = {
            resource: {
                node: solution.value(self._load_exprs[(resource, node)])
                for node in self.state.nids_nodes
            }
            for resource in self.state.resources
        }
        process: Dict[str, Dict[str, float]] = {}
        for (cls_name, node), var in self._p.items():
            process.setdefault(cls_name, {})[node] = solution.value(var)

        load_cost = solution.value(self._load_cost_var)
        comm_cost = solution.value(self._comm_expr)
        return AggregationResult(
            load_cost=load_cost,
            comm_cost=comm_cost,
            beta=self.beta,
            objective=load_cost + self.beta * comm_cost,
            node_loads=node_loads,
            process_fractions=process,
            dc_node=self.state.dc_node,
            stats=LPStats(
                num_variables=model.num_variables,
                num_constraints=model.num_constraints,
                solve_seconds=solution.solve_seconds,
                iterations=solution.iterations))

    def solve(self) -> AggregationResult:
        """Solve and unpack loads, fractions, and the comm cost."""
        return super().solve()
