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
place on the compiled LP.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.aggregation import ingress_aggregation_point
from repro.core.formulation import (Formulation, _check_max_link_load,
                                    _check_non_negative)
from repro.core.inputs import NetworkState
from repro.core.results import AggregationResult, LPStats
from repro.lpsolve import (Constraint, LinExpr, Model, Solution,
                           SolverBackend, Variable, lin_sum)
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
        self._reset()

    @property
    def beta(self) -> float:
        """The communication-cost weight (change it via ``resolve``)."""
        return self._params["beta"]

    @property
    def max_link_load(self) -> float:
        """``MaxLinkLoad`` (change it via ``resolve``)."""
        return self._params["max_link_load"]

    def _reset(self) -> None:
        self._p: Dict[Tuple[str, str], Variable] = {}
        self._o: Dict[Tuple[str, str], Variable] = {}
        self._load_exprs: Dict[Tuple[str, str], LinExpr] = {}
        self._link_exprs: Dict[Link, LinExpr] = {}
        self._loadcost_cons: Dict[Tuple[str, str], Constraint] = {}
        self._link_cons: Dict[Link, Constraint] = {}
        self._comm_expr: Optional[LinExpr] = None
        self._load_cost_var: Optional[Variable] = None

    def _build(self, model: Model) -> None:
        state = self.state
        dc = state.dc_node

        comm_terms: List[LinExpr] = []
        load_terms: Dict[Tuple[str, str], List[LinExpr]] = {
            (resource, node): []
            for resource in state.resources for node in state.nids_nodes
        }
        link_terms: Dict[Link, List[LinExpr]] = {
            link: [] for link in state.topology.links}

        for cls in state.classes:
            point = self.aggregation_point(cls)
            dc_distance = state.routing.hop_count(dc, point)
            class_vars: List[Variable] = []
            for node in cls.path:
                p_var = model.add_variable(
                    f"p[{cls.name},{node}]", lb=0.0, ub=1.0)
                self._p[(cls.name, node)] = p_var
                class_vars.append(p_var)
                distance = state.routing.hop_count(node, point)
                comm_terms.append(p_var * (cls.num_sessions *
                                           cls.record_bytes * distance))

                o_var = model.add_variable(
                    f"o[{cls.name},{node}]", lb=0.0, ub=1.0)
                self._o[(cls.name, node)] = o_var
                class_vars.append(o_var)
                comm_terms.append(o_var * (cls.num_sessions *
                                           cls.record_bytes *
                                           dc_distance))
                # Mirrored traffic slice for the sub-task.
                replicated_bytes = cls.num_sessions * cls.session_bytes
                for link in state.routing.path_links(node, dc):
                    coeff = replicated_bytes / state.link_capacity[link]
                    link_terms[link].append(o_var * coeff)

                for resource in state.resources:
                    if cls.footprint(resource) == 0.0:
                        continue
                    work = cls.footprint(resource) * cls.num_sessions
                    cap_local = state.capacity(resource, node)
                    load_terms[(resource, node)].append(
                        p_var * (work / cap_local))
                    cap_dc = state.capacity(resource, dc)
                    load_terms[(resource, dc)].append(
                        o_var * (work / cap_dc))
            model.add_constraint(lin_sum(class_vars) == 1.0,
                                 name=f"cover[{cls.name}]")

        load_cost = model.add_variable("LoadCost", lb=0.0)
        for (resource, node), terms in load_terms.items():
            expr = lin_sum(terms)
            self._load_exprs[(resource, node)] = expr
            self._loadcost_cons[(resource, node)] = model.add_constraint(
                load_cost >= expr, name=f"loadcost[{resource},{node}]")

        for link, terms in link_terms.items():
            bg = state.bg_load(link)
            expr = lin_sum(terms) + bg
            self._link_exprs[link] = expr
            if terms:
                bound = max(self.max_link_load, bg)
                self._link_cons[link] = model.add_constraint(
                    expr <= bound, name=f"linkload[{link[0]},{link[1]}]")

        self._comm_expr = lin_sum(comm_terms)
        model.minimize(load_cost + self.beta * self._comm_expr)
        self._load_cost_var = load_cost

        self._bind(("volumes",), self._patch_volume_terms)
        self._bind(("max_link_load", "volumes"),
                   self._patch_link_bounds)
        self._bind(("beta", "volumes"), self._patch_objective)

    # -- incremental patching ------------------------------------------------

    def _patch_volume_terms(self) -> None:
        """Rescale load, link, and CommCost coefficients in place."""
        state = self.state
        model = self._model
        dc = state.dc_node
        for cls in state.classes:
            point = self.aggregation_point(cls)
            dc_distance = state.routing.hop_count(dc, point)
            replicated_bytes = cls.num_sessions * cls.session_bytes
            for node in cls.path:
                p_var = self._p[(cls.name, node)]
                o_var = self._o[(cls.name, node)]
                distance = state.routing.hop_count(node, point)
                self._comm_expr.coeffs[p_var] = (cls.num_sessions *
                                                 cls.record_bytes *
                                                 distance)
                self._comm_expr.coeffs[o_var] = (cls.num_sessions *
                                                 cls.record_bytes *
                                                 dc_distance)
                for link in state.routing.path_links(node, dc):
                    coeff = replicated_bytes / state.link_capacity[link]
                    con = self._link_cons.get(link)
                    if con is not None:
                        model.set_coefficient(con, o_var, coeff)
                    self._link_exprs[link].coeffs[o_var] = coeff
                for resource in state.resources:
                    if cls.footprint(resource) == 0.0:
                        continue
                    work = cls.footprint(resource) * cls.num_sessions
                    cap_local = state.capacity(resource, node)
                    model.set_coefficient(
                        self._loadcost_cons[(resource, node)], p_var,
                        -(work / cap_local))
                    self._load_exprs[(resource, node)].coeffs[p_var] = (
                        work / cap_local)
                    cap_dc = state.capacity(resource, dc)
                    model.set_coefficient(
                        self._loadcost_cons[(resource, dc)], o_var,
                        -(work / cap_dc))
                    self._load_exprs[(resource, dc)].coeffs[o_var] = (
                        work / cap_dc)

    def _patch_link_bounds(self) -> None:
        """Re-target ``max(MaxLinkLoad, BG_l)`` bounds and background
        constants (BG changes whenever volumes do)."""
        state = self.state
        model = self._model
        for link, expr in self._link_exprs.items():
            bg = state.bg_load(link)
            expr.constant = bg
            con = self._link_cons.get(link)
            if con is not None:
                model.set_rhs(con, max(self.max_link_load, bg) - bg)

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
        dc = self.state.dc_node
        for (cls_name, node), var in self._o.items():
            value = solution.value(var)
            if value > 1e-9:
                fractions = process.setdefault(cls_name, {})
                fractions[dc] = fractions.get(dc, 0.0) + value

        load_cost = solution.value(self._load_cost_var)
        comm_cost = solution.value(self._comm_expr)
        return AggregationResult(
            load_cost=load_cost,
            comm_cost=comm_cost,
            beta=self.beta,
            objective=load_cost + self.beta * comm_cost,
            node_loads=node_loads,
            process_fractions=process,
            dc_node=dc,
            stats=LPStats(
                num_variables=model.num_variables,
                num_constraints=model.num_constraints,
                solve_seconds=solution.solve_seconds,
                iterations=solution.iterations))

    def solve(self) -> AggregationResult:
        """Solve; offloaded fractions appear under the DC's node key
        in ``process_fractions`` (the DC does the counting)."""
        return super().solve()
