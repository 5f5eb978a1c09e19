"""The split-traffic LP for asymmetric routing (Section 5 of the paper).

When forward and reverse flows of a session traverse different paths,
stateful analysis is only useful if *both* directions are observed at
one location. The formulation replaces the single coverage equation
with per-direction coverages (Eqs (8), (9)), defines effective coverage
as their minimum capped at 1 (Eq (10)), and minimizes
``LoadCost + gamma * MissRate`` (Eq (11)) because full coverage may be
infeasible under the link-load budget.

Per the paper's simplification, offloading targets a single datacenter
mirror (``o_{c,j}`` rather than ``o_{c,j,j'}``). Each direction of a
session carries half the session's footprint and half its bytes, so a
session fully processed at one place costs exactly ``F_c`` as in
Section 4.

``max_link_load``, ``gamma`` and the per-class ``volumes`` are named
:class:`~repro.core.formulation.Formulation` parameters and can be
changed with ``resolve`` (the miss-mode extensions opt out of the
incremental path and rebuild on every resolve).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.core.formulation import (Formulation, _check_max_link_load,
                                    _check_non_negative)
from repro.core.inputs import NetworkState
from repro.core.results import LPStats, SplitTrafficResult
from repro.lpsolve import (Constraint, LinExpr, Model, Solution,
                           SolverBackend, Variable, lin_sum)
from repro.topology.topology import Link

# Weight that makes the solver prioritize coverage over load balance;
# "gamma set to a large value to have a very low miss rate".
DEFAULT_GAMMA = 100.0


class SplitTrafficProblem(Formulation):
    """Builds and solves the Section 5 formulation.

    Args:
        state: calibrated inputs; classes may carry asymmetric
            ``rev_path`` values (symmetric classes degenerate to
            ``P_common = P_c`` and behave like Section 4 with a single
            mirror).
        max_link_load: ``MaxLinkLoad`` bound on replication traffic.
        gamma: miss-rate weight in the objective.
        allow_offload: when False, drop the datacenter offload variables
            entirely — this yields the "Path, no replicate" comparison
            architecture of Figures 16/17, where only ``P_common`` nodes
            can provide effective coverage.
        backend: LP solver backend (name, instance, or None for the
            process default).
    """

    kind = "split"

    def __init__(self, state: NetworkState, max_link_load: float = 0.4,
                 gamma: float = DEFAULT_GAMMA,
                 allow_offload: bool = True,
                 miss_mode: str = "total",
                 miss_weights: Optional[Dict[str, float]] = None,
                 backend: Union[None, str, SolverBackend] = None) -> None:
        if allow_offload and state.dc_node is None:
            raise ValueError(
                "split-traffic offloading needs a datacenter node; "
                "build the state with dc_capacity_factor set or pass "
                "allow_offload=False")
        if miss_mode not in ("total", "max", "weighted"):
            raise ValueError(
                "miss_mode must be 'total' (Eq 11), 'max' or "
                "'weighted' (the Section 5 extensions)")
        if miss_mode == "weighted" and not miss_weights:
            raise ValueError("miss_mode='weighted' needs miss_weights")
        super().__init__(state, backend=backend)
        self._declare_param("max_link_load", max_link_load,
                            _check_max_link_load)
        self._declare_param("gamma", gamma,
                            _check_non_negative("gamma"))
        self.allow_offload = allow_offload
        self.miss_mode = miss_mode
        self.miss_weights = dict(miss_weights or {})
        if miss_mode != "total":
            self._incremental_ok = False
        self._reset()

    @property
    def max_link_load(self) -> float:
        """``MaxLinkLoad`` (change it via ``resolve``)."""
        return self._params["max_link_load"]

    @property
    def gamma(self) -> float:
        """The miss-rate weight (change it via ``resolve``)."""
        return self._params["gamma"]

    def _reset(self) -> None:
        self._p: Dict[Tuple[str, str], Variable] = {}
        self._ofwd: Dict[Tuple[str, str], Variable] = {}
        self._orev: Dict[Tuple[str, str], Variable] = {}
        self._cov: Dict[str, Variable] = {}
        self._load_exprs: Dict[Tuple[str, str], LinExpr] = {}
        self._link_exprs: Dict[Link, LinExpr] = {}
        self._loadcost_cons: Dict[Tuple[str, str], Constraint] = {}
        self._link_cons: Dict[Link, Constraint] = {}
        self._miss_expr: Optional[LinExpr] = None
        self._load_cost_var: Optional[Variable] = None

    def _build(self, model: Model) -> None:
        state = self.state
        dc = state.dc_node

        # Decision variables: local processing on common nodes, and
        # per-direction offloads to the datacenter from observer nodes.
        for cls in state.classes:
            for node in cls.common_nodes:
                self._p[(cls.name, node)] = model.add_variable(
                    f"p[{cls.name},{node}]", lb=0.0, ub=1.0)
            if self.allow_offload:
                for node in cls.fwd_nodes:
                    self._ofwd[(cls.name, node)] = model.add_variable(
                        f"ofwd[{cls.name},{node}]", lb=0.0, ub=1.0)
                for node in cls.rev_nodes:
                    self._orev[(cls.name, node)] = model.add_variable(
                        f"orev[{cls.name},{node}]", lb=0.0, ub=1.0)

        # Coverage (Eqs (8), (9), (10)): cov_c <= each direction, <= 1;
        # the objective pushes cov_c up to the true minimum.
        for cls in state.classes:
            local = [self._p[(cls.name, n)] for n in cls.common_nodes]
            fwd_off = [self._ofwd[(cls.name, n)] for n in cls.fwd_nodes
                       if self.allow_offload]
            rev_off = [self._orev[(cls.name, n)] for n in cls.rev_nodes
                       if self.allow_offload]
            cov_fwd = lin_sum(local + fwd_off)
            cov_rev = lin_sum(local + rev_off)
            model.add_constraint(cov_fwd <= 1.0,
                                 name=f"covfwd_cap[{cls.name}]")
            model.add_constraint(cov_rev <= 1.0,
                                 name=f"covrev_cap[{cls.name}]")
            cov = model.add_variable(f"cov[{cls.name}]", lb=0.0, ub=1.0)
            model.add_constraint(cov <= cov_fwd,
                                 name=f"cov_fwd[{cls.name}]")
            model.add_constraint(cov <= cov_rev,
                                 name=f"cov_rev[{cls.name}]")
            self._cov[cls.name] = cov

        # Node loads: a common node processing fraction p sees both
        # directions (full footprint); the DC pays half a footprint per
        # offloaded direction-fraction.
        load_terms: Dict[Tuple[str, str], List[LinExpr]] = {
            (resource, node): []
            for resource in state.resources for node in state.nids_nodes
        }
        for cls in state.classes:
            for resource in state.resources:
                if cls.footprint(resource) == 0.0:
                    continue
                work = cls.footprint(resource) * cls.num_sessions
                for node in cls.common_nodes:
                    cap = state.capacity(resource, node)
                    load_terms[(resource, node)].append(
                        self._p[(cls.name, node)] * (work / cap))
                if self.allow_offload:
                    cap = state.capacity(resource, dc)
                    half = work / 2.0 / cap
                    for node in cls.fwd_nodes:
                        load_terms[(resource, dc)].append(
                            self._ofwd[(cls.name, node)] * half)
                    for node in cls.rev_nodes:
                        load_terms[(resource, dc)].append(
                            self._orev[(cls.name, node)] * half)

        load_cost = model.add_variable("LoadCost", lb=0.0)
        for (resource, node), terms in load_terms.items():
            expr = lin_sum(terms)
            self._load_exprs[(resource, node)] = expr
            self._loadcost_cons[(resource, node)] = model.add_constraint(
                load_cost >= expr, name=f"loadcost[{resource},{node}]")

        # Link loads from the per-direction replication tunnels.
        link_terms: Dict[Link, List[LinExpr]] = {
            link: [] for link in state.topology.links}
        if self.allow_offload:
            for offloads in (self._ofwd, self._orev):
                for (cls_name, node), var in offloads.items():
                    cls = _class_lookup(state)[cls_name]
                    direction_bytes = (cls.num_sessions *
                                       cls.session_bytes / 2.0)
                    for link in state.routing.path_links(node, dc):
                        coeff = direction_bytes / state.link_capacity[link]
                        link_terms[link].append(var * coeff)
        for link, terms in link_terms.items():
            bg = state.bg_load(link)
            expr = lin_sum(terms) + bg
            self._link_exprs[link] = expr
            if terms:
                bound = max(self.max_link_load, bg)
                self._link_cons[link] = model.add_constraint(
                    expr <= bound, name=f"linkload[{link[0]},{link[1]}]")

        # The reported MissRate always follows Eq (11) (traffic-
        # weighted fraction missed) regardless of the objective mode.
        total_sessions = sum(cls.num_sessions for cls in state.classes)
        miss_terms = [
            (1.0 - self._cov[cls.name]) * (cls.num_sessions /
                                           total_sessions)
            for cls in state.classes
        ]
        self._miss_expr = lin_sum(miss_terms)

        # Objective: LoadCost + gamma * <miss term> — Eq (11) by
        # default, or one of the Section 5 extensions.
        if self.miss_mode == "total":
            objective_miss = self._miss_expr
        elif self.miss_mode == "max":
            from repro.core.extensions import max_miss_objective

            # A small total-miss tiebreaker keeps the objective from
            # ignoring coverable classes once one class's miss pins
            # the max (the usual min-max degeneracy).
            objective_miss = (max_miss_objective(model, self._cov) +
                              0.01 * self._miss_expr)
        else:  # weighted
            from repro.core.extensions import weighted_miss_objective

            objective_miss = weighted_miss_objective(
                self._cov, self.miss_weights)
        model.minimize(load_cost + self.gamma * objective_miss)
        self._load_cost_var = load_cost

        if self._incremental_ok:
            self._bind(("volumes",), self._patch_volume_terms)
            self._bind(("max_link_load", "volumes"),
                       self._patch_link_bounds)
            self._bind(("gamma", "volumes"), self._patch_objective)

    # -- incremental patching ------------------------------------------------

    def _patch_volume_terms(self) -> None:
        """Rescale load, link, and miss-rate coefficients in place."""
        state = self.state
        model = self._model
        dc = state.dc_node
        for cls in state.classes:
            for resource in state.resources:
                if cls.footprint(resource) == 0.0:
                    continue
                work = cls.footprint(resource) * cls.num_sessions
                for node in cls.common_nodes:
                    cap = state.capacity(resource, node)
                    var = self._p[(cls.name, node)]
                    model.set_coefficient(
                        self._loadcost_cons[(resource, node)], var,
                        -(work / cap))
                    self._load_exprs[(resource, node)].coeffs[var] = (
                        work / cap)
                if self.allow_offload:
                    cap = state.capacity(resource, dc)
                    half = work / 2.0 / cap
                    con = self._loadcost_cons[(resource, dc)]
                    for node in cls.fwd_nodes:
                        var = self._ofwd[(cls.name, node)]
                        model.set_coefficient(con, var, -half)
                        self._load_exprs[(resource, dc)].coeffs[var] = half
                    for node in cls.rev_nodes:
                        var = self._orev[(cls.name, node)]
                        model.set_coefficient(con, var, -half)
                        self._load_exprs[(resource, dc)].coeffs[var] = half
        if self.allow_offload:
            lookup = _class_lookup(state)
            for offloads in (self._ofwd, self._orev):
                for (cls_name, node), var in offloads.items():
                    cls = lookup[cls_name]
                    direction_bytes = (cls.num_sessions *
                                       cls.session_bytes / 2.0)
                    for link in state.routing.path_links(node, dc):
                        coeff = direction_bytes / state.link_capacity[link]
                        con = self._link_cons.get(link)
                        if con is not None:
                            model.set_coefficient(con, var, coeff)
                        self._link_exprs[link].coeffs[var] = coeff
        total_sessions = sum(cls.num_sessions for cls in state.classes)
        self._miss_expr.constant = 1.0
        for cls in state.classes:
            self._miss_expr.coeffs[self._cov[cls.name]] = (
                -(cls.num_sessions / total_sessions))

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
        """Rewrite the ``gamma * MissRate`` objective coefficients
        (runs after the volume patch, so the miss weights are
        current)."""
        for cov in self._cov.values():
            self._model.set_objective_coefficient(
                cov, self.gamma * self._miss_expr.coeffs[cov])

    # -- solving --------------------------------------------------------------

    def _unpack(self, model: Model,
                solution: Solution) -> SplitTrafficResult:
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
        fwd: Dict[str, Dict[str, float]] = {}
        for (cls_name, node), var in self._ofwd.items():
            fwd.setdefault(cls_name, {})[node] = solution.value(var)
        rev: Dict[str, Dict[str, float]] = {}
        for (cls_name, node), var in self._orev.items():
            rev.setdefault(cls_name, {})[node] = solution.value(var)

        return SplitTrafficResult(
            load_cost=solution.value(self._load_cost_var),
            node_loads=node_loads,
            process_fractions=process,
            fwd_offloads=fwd,
            rev_offloads=rev,
            coverage={name: solution.value(var)
                      for name, var in self._cov.items()},
            miss_rate=solution.value(self._miss_expr),
            link_loads={link: solution.value(expr)
                        for link, expr in self._link_exprs.items()},
            gamma=self.gamma,
            dc_node=self.state.dc_node,
            stats=LPStats(
                num_variables=model.num_variables,
                num_constraints=model.num_constraints,
                solve_seconds=solution.solve_seconds,
                iterations=solution.iterations))

    def solve(self) -> SplitTrafficResult:
        """Solve and unpack coverage, miss rate, loads, and fractions."""
        return super().solve()


def ingress_split_result(state: NetworkState) -> SplitTrafficResult:
    """Evaluate the Ingress-only deployment under routing asymmetry.

    No LP: each class is handled at its (forward) ingress gateway. The
    gateway always observes the forward direction; it observes the
    reverse direction only if it happens to lie on the reverse path.
    Stateful coverage is 1 when both sides are seen, else 0 — which is
    why the paper measures >85% miss rates for Ingress-only deployments
    with asymmetric routes (Figure 16) alongside deceptively low
    compute load (Figure 17): the gateway simply never sees, and never
    spends cycles on, most reverse flows.
    """
    node_loads: Dict[str, Dict[str, float]] = {
        resource: {node: 0.0 for node in state.nids_nodes}
        for resource in state.resources
    }
    coverage: Dict[str, float] = {}
    process: Dict[str, Dict[str, float]] = {}
    total_sessions = sum(cls.num_sessions for cls in state.classes)
    missed = 0.0
    for cls in state.classes:
        gateway = cls.ingress
        sees_reverse = gateway in cls.rev_nodes
        coverage[cls.name] = 1.0 if sees_reverse else 0.0
        process[cls.name] = {gateway: 1.0}
        if not sees_reverse:
            missed += cls.num_sessions
        for resource in state.resources:
            work = cls.footprint(resource) * cls.num_sessions
            observed_share = 1.0 if sees_reverse else 0.5
            cap = state.capacity(resource, gateway)
            node_loads[resource][gateway] += observed_share * work / cap
    load_cost = max(max(loads.values(), default=0.0)
                    for loads in node_loads.values())
    return SplitTrafficResult(
        load_cost=load_cost,
        node_loads=node_loads,
        process_fractions=process,
        coverage=coverage,
        miss_rate=missed / total_sessions if total_sessions else 0.0,
        link_loads={link: state.bg_load(link)
                    for link in state.topology.links},
        gamma=0.0,
        dc_node=state.dc_node,
        stats=LPStats(num_variables=0, num_constraints=0,
                      solve_seconds=0.0, iterations=0))


def _class_lookup(state: NetworkState):
    """Cached name -> class mapping for a state instance."""
    cache = getattr(state, "_class_lookup_cache", None)
    if cache is None:
        cache = {cls.name: cls for cls in state.classes}
        state._class_lookup_cache = cache
    return cache
