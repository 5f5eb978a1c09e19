"""The replication LP (Section 4, Figure 7 of the paper).

Decision variables:

- ``p[c,j]`` — fraction of class ``c``'s sessions processed locally by
  on-path node ``j in P_c`` (Eq (6)).
- ``o[c,j,j']`` — fraction of class ``c`` offloaded from on-path node
  ``j`` to off-path mirror ``j' in M_j \\ P_c`` (Eq (7)); mirrors that
  are already on the path never get an offload variable.

Constraints: full coverage per class (Eq (2)); per-node per-resource
load accounting including offloaded-in traffic (Eq (3)); link load of
the replication tunnels plus background bounded by
``max(MaxLinkLoad, BG_l)`` (Eqs (4), (5)). Objective: minimize the
maximum node-resource load (Eq (1)), optionally with the piecewise
link-cost extension from the end of Section 4.

The class is a :class:`~repro.core.formulation.Formulation`:
``max_link_load`` and the per-class ``volumes`` are named parameters,
so ``resolve(max_link_load=...)`` (Figure 11) and
``resolve_traffic(classes)`` (Figure 15, controller refresh) patch the
compiled LP in place instead of rebuilding it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.core.formulation import Formulation, _check_max_link_load
from repro.core.inputs import NetworkState
from repro.core.mirrors import MirrorPolicy
from repro.core.results import LPStats, ReplicationResult
from repro.lpsolve import (Constraint, LinExpr, Model, Solution,
                           SolverBackend, Variable, lin_sum)
from repro.topology.topology import Link

OffloadKey = Tuple[str, str, str]  # (class name, from node, to node)


class ReplicationProblem(Formulation):
    """Builds and solves one instance of the Figure 7 LP.

    Args:
        state: calibrated network-wide inputs.
        mirror_policy: which mirror sets ``M_j`` to allow; the default
            (:meth:`MirrorPolicy.none`) reduces the formulation to pure
            on-path distribution [29] ("Path, No Replicate").
        max_link_load: ``MaxLinkLoad`` — cap on normalized link load
            due to replication (Eq (5)); administrators typically keep
            links at 30-50% utilization.
        link_cost_weight: when set, replaces the hard link bound with
            the Section 4 extension — a piecewise-linear link cost term
            added to the objective with this weight (see
            :mod:`repro.core.extensions`).
        load_weights: when set, the Section 4 extension replacing the
            max-load objective with a weighted sum of node loads.
        backend: LP solver backend (name, instance, or None for the
            process default).
    """

    kind = "replication"

    def __init__(self, state: NetworkState,
                 mirror_policy: Optional[MirrorPolicy] = None,
                 max_link_load: float = 0.4,
                 link_cost_weight: Optional[float] = None,
                 load_weights: Optional[Dict[Tuple[str, str],
                                             float]] = None,
                 backend: Union[None, str, SolverBackend] = None) -> None:
        super().__init__(state, backend=backend)
        self.mirror_policy = mirror_policy or MirrorPolicy.none()
        self._declare_param("max_link_load", max_link_load,
                            _check_max_link_load)
        self.link_cost_weight = link_cost_weight
        # Section 4 extension: when set, LoadCost becomes the weighted
        # sum of the (resource, node) loads instead of their maximum.
        self.load_weights = (None if load_weights is None
                             else dict(load_weights))
        if link_cost_weight is not None or load_weights is not None:
            self._incremental_ok = False
        self._reset()

    @property
    def max_link_load(self) -> float:
        """``MaxLinkLoad`` (change it via ``resolve``)."""
        return self._params["max_link_load"]

    def _reset(self) -> None:
        self._p: Dict[Tuple[str, str], Variable] = {}
        self._o: Dict[OffloadKey, Variable] = {}
        self._load_exprs: Dict[Tuple[str, str], LinExpr] = {}
        self._link_exprs: Dict[Link, LinExpr] = {}
        self._loadcost_cons: Dict[Tuple[str, str], Constraint] = {}
        self._link_cons: Dict[Link, Constraint] = {}
        self._load_cost_var: Optional[Variable] = None

    # -- model construction -------------------------------------------------

    def _build(self, model: Model) -> None:
        state = self.state
        mirror_sets = self.mirror_policy.mirror_sets(state)
        by_name = {cls.name: cls for cls in state.classes}

        # Decision variables (Eqs (6), (7)).
        o_by_class: Dict[str, List[Variable]] = {}
        for cls in state.classes:
            for node in cls.path:
                self._p[(cls.name, node)] = model.add_variable(
                    f"p[{cls.name},{node}]", lb=0.0, ub=1.0)
            path_set = set(cls.path)
            class_offloads = o_by_class.setdefault(cls.name, [])
            for node in cls.path:
                for mirror in mirror_sets[node]:
                    if mirror in path_set:
                        continue  # on-path mirrors need no replication
                    var = model.add_variable(
                        f"o[{cls.name},{node},{mirror}]", lb=0.0, ub=1.0)
                    self._o[(cls.name, node, mirror)] = var
                    class_offloads.append(var)

        # Coverage (Eq (2)).
        for cls in state.classes:
            terms: List[Variable] = [self._p[(cls.name, node)]
                                     for node in cls.path]
            terms.extend(o_by_class[cls.name])
            model.add_constraint(lin_sum(terms) == 1.0,
                                 name=f"cover[{cls.name}]")

        # Node loads (Eq (3)): on-path processing plus offloaded-in work.
        load_terms: Dict[Tuple[str, str], List[LinExpr]] = {
            (resource, node): []
            for resource in state.resources for node in state.nids_nodes
        }
        # A term exists wherever the footprint is non-zero, whatever
        # the volume: |T_c| is a parameter, and a class estimated at
        # zero sessions now must stay patchable when it reappears.
        for cls in state.classes:
            for resource in state.resources:
                if cls.footprint(resource) == 0.0:
                    continue
                work = cls.footprint(resource) * cls.num_sessions
                for node in cls.path:
                    cap = state.capacity(resource, node)
                    load_terms[(resource, node)].append(
                        self._p[(cls.name, node)] * (work / cap))
        for (cls_name, _, mirror), var in self._o.items():
            cls = by_name[cls_name]
            for resource in state.resources:
                if cls.footprint(resource) == 0.0:
                    continue
                work = cls.footprint(resource) * cls.num_sessions
                cap = state.capacity(resource, mirror)
                load_terms[(resource, mirror)].append(var * (work / cap))

        load_cost = model.add_variable("LoadCost", lb=0.0)
        for (resource, node), terms in load_terms.items():
            expr = lin_sum(terms)
            self._load_exprs[(resource, node)] = expr
            if self.load_weights is None:
                self._loadcost_cons[(resource, node)] = (
                    model.add_constraint(
                        load_cost >= expr,
                        name=f"loadcost[{resource},{node}]"))
        if self.load_weights is not None:
            from repro.core.extensions import weighted_load_objective

            weighted = weighted_load_objective(model, self._load_exprs,
                                               self.load_weights)
            model.add_constraint(load_cost >= weighted,
                                 name="loadcost[weighted]")

        # Link loads (Eqs (4), (5)).
        link_terms: Dict[Link, List[LinExpr]] = {
            link: [] for link in state.topology.links}
        for (cls_name, node, mirror), var in self._o.items():
            cls = by_name[cls_name]
            replicated_bytes = cls.num_sessions * cls.session_bytes
            for link in state.routing.path_links(node, mirror):
                coeff = replicated_bytes / state.link_capacity[link]
                link_terms[link].append(var * coeff)

        penalty_terms: List[LinExpr] = []
        for link, terms in link_terms.items():
            bg = state.bg_load(link)
            expr = lin_sum(terms) + bg
            self._link_exprs[link] = expr
            if not terms:
                continue
            if self.link_cost_weight is None:
                bound = max(self.max_link_load, bg)
                self._link_cons[link] = model.add_constraint(
                    expr <= bound, name=f"linkload[{link[0]},{link[1]}]")
            else:
                from repro.core.extensions import piecewise_link_cost

                penalty_terms.append(piecewise_link_cost(
                    model, expr, name=f"{link[0]}-{link[1]}"))

        # Objective (Eq (1)), optionally with the link-cost extension.
        if self.link_cost_weight is None:
            model.minimize(load_cost)
        else:
            model.minimize(load_cost +
                           self.link_cost_weight * lin_sum(penalty_terms))
        self._load_cost_var = load_cost

        if self._incremental_ok:
            self._bind(("volumes",), self._patch_volume_terms)
            self._bind(("max_link_load", "volumes"),
                       self._patch_link_bounds)

    # -- incremental patching ------------------------------------------------

    def _patch_volume_terms(self) -> None:
        """Rescale every ``|T_c|``-proportional coefficient in place."""
        state = self.state
        model = self._model
        by_name = {cls.name: cls for cls in state.classes}
        for cls in state.classes:
            for resource in state.resources:
                if cls.footprint(resource) == 0.0:
                    continue
                work = cls.footprint(resource) * cls.num_sessions
                for node in cls.path:
                    cap = state.capacity(resource, node)
                    var = self._p[(cls.name, node)]
                    model.set_coefficient(
                        self._loadcost_cons[(resource, node)], var,
                        -(work / cap))
                    self._load_exprs[(resource, node)].coeffs[var] = (
                        work / cap)
        for (cls_name, node, mirror), var in self._o.items():
            cls = by_name[cls_name]
            for resource in state.resources:
                if cls.footprint(resource) == 0.0:
                    continue
                work = cls.footprint(resource) * cls.num_sessions
                cap = state.capacity(resource, mirror)
                model.set_coefficient(
                    self._loadcost_cons[(resource, mirror)], var,
                    -(work / cap))
                self._load_exprs[(resource, mirror)].coeffs[var] = (
                    work / cap)
            replicated_bytes = cls.num_sessions * cls.session_bytes
            for link in state.routing.path_links(node, mirror):
                coeff = replicated_bytes / state.link_capacity[link]
                con = self._link_cons.get(link)
                if con is not None:
                    model.set_coefficient(con, var, coeff)
                self._link_exprs[link].coeffs[var] = coeff

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

    # -- solving --------------------------------------------------------------

    def _unpack(self, model: Model,
                solution: Solution) -> ReplicationResult:
        node_loads = {
            resource: {
                node: solution.value(
                    self._load_exprs[(resource, node)])
                for node in self.state.nids_nodes
            }
            for resource in self.state.resources
        }
        process: Dict[str, Dict[str, float]] = {}
        for (cls_name, node), var in self._p.items():
            process.setdefault(cls_name, {})[node] = solution.value(var)
        offload: Dict[str, Dict[Tuple[str, str], float]] = {}
        for (cls_name, node, mirror), var in self._o.items():
            offload.setdefault(cls_name, {})[(node, mirror)] = (
                solution.value(var))
        link_loads = {link: solution.value(expr)
                      for link, expr in self._link_exprs.items()}

        return ReplicationResult(
            load_cost=solution.value(self._load_cost_var),
            node_loads=node_loads,
            process_fractions=process,
            offload_fractions=offload,
            link_loads=link_loads,
            max_link_load=self.max_link_load,
            dc_node=self.state.dc_node,
            stats=LPStats(
                num_variables=model.num_variables,
                num_constraints=model.num_constraints,
                solve_seconds=solution.solve_seconds,
                iterations=solution.iterations))

    def solve(self) -> ReplicationResult:
        """Solve the LP and unpack the solution.

        Returns:
            A :class:`ReplicationResult` with the optimal ``LoadCost``,
            per-node loads, decision fractions, and link loads.
        """
        return super().solve()
