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
changed with ``resolve``. The coefficients are stated once
(``_load_term_index`` / ``_link_term_index`` / ``_cost_expression``);
the base class builds and patches from them.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.core.formulation import (Formulation, LoadKey, TermIndex,
                                    _check_max_link_load,
                                    _check_non_negative)
from repro.core.inputs import NetworkState
from repro.core.results import LPStats, SplitTrafficResult
from repro.lpsolve import (LinExpr, Model, Solution, Variable,
                           lin_sum)
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
    """

    kind = "split"
    _cost_weight = "gamma"

    def __init__(self, state: NetworkState, max_link_load: float = 0.4,
                 gamma: float = DEFAULT_GAMMA,
                 allow_offload: bool = True) -> None:
        if allow_offload and state.dc_node is None:
            raise ValueError(
                "split-traffic offloading needs a datacenter node; "
                "build the state with dc_capacity_factor set or pass "
                "allow_offload=False")
        super().__init__(state)
        self._declare_param("max_link_load", max_link_load,
                            _check_max_link_load)
        self._declare_param("gamma", gamma,
                            _check_non_negative("gamma"))
        self.allow_offload = allow_offload

    @property
    def max_link_load(self) -> float:
        """``MaxLinkLoad`` (change it via ``resolve``)."""
        return self._params["max_link_load"]

    @property
    def gamma(self) -> float:
        """The miss-rate weight (change it via ``resolve``)."""
        return self._params["gamma"]

    def _reset(self) -> None:
        super()._reset()
        self._ofwd: Dict[Tuple[str, str], Variable] = {}
        self._orev: Dict[Tuple[str, str], Variable] = {}
        self._cov: Dict[str, Variable] = {}

    # -- the coefficient table ----------------------------------------------

    def _load_term_index(self) -> TermIndex:
        # A common node processing fraction p sees both directions
        # (full footprint); the DC pays half a footprint per offloaded
        # direction-fraction.
        def terms() -> Iterator[Tuple[LoadKey, Variable, int, float]]:
            state = self.state
            dc = state.dc_node
            for index, cls in enumerate(state.classes):
                for resource in state.resources:
                    footprint = cls.footprint(resource)
                    if footprint == 0.0:
                        continue
                    for node in cls.common_nodes:
                        yield ((resource, node),
                               self._p[(cls.name, node)], index,
                               footprint)
                    if self.allow_offload:
                        for node in cls.fwd_nodes:
                            yield ((resource, dc),
                                   self._ofwd[(cls.name, node)], index,
                                   footprint / 2.0)
                        for node in cls.rev_nodes:
                            yield ((resource, dc),
                                   self._orev[(cls.name, node)], index,
                                   footprint / 2.0)

        return TermIndex.from_terms(self._load_keys, terms())

    def _link_term_index(self) -> TermIndex:
        # The per-direction replication tunnels to the datacenter,
        # each carrying half the session's bytes.
        def terms() -> Iterator[Tuple[Link, Variable, int, float]]:
            state = self.state
            dc = state.dc_node
            by_name = {cls.name: (index, cls) for index, cls in
                       enumerate(state.classes)}
            for offloads in (self._ofwd, self._orev):
                for (cls_name, node), var in offloads.items():
                    index, cls = by_name[cls_name]
                    for link in state.routing.path_links(node, dc):
                        yield link, var, index, cls.session_bytes / 2.0

        return TermIndex.from_terms(self.state.topology.links, terms())

    def _cost_expression(self) -> LinExpr:
        # MissRate (Eq (11)): the traffic-weighted fraction missed; an
        # all-zero matrix misses nothing.
        classes = self.state.classes
        total_sessions = sum(cls.num_sessions for cls in classes)
        coeffs = {}
        constant = 0.0
        for cls in classes:
            weight = (cls.num_sessions / total_sessions
                      if total_sessions else 0.0)
            coeffs[self._cov[cls.name]] = -weight
            constant += weight
        return LinExpr(coeffs, constant)

    # -- model construction -------------------------------------------------

    def _build(self, model: Model) -> None:
        state = self.state

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
        # the objective pushes cov_c up to the true minimum. Without
        # offload columns both directions are the same sum, so they
        # share one pair of rows.
        for cls in state.classes:
            local = [self._p[(cls.name, n)] for n in cls.common_nodes]
            fwd_off = [self._ofwd[(cls.name, n)] for n in cls.fwd_nodes
                       if self.allow_offload]
            rev_off = [self._orev[(cls.name, n)] for n in cls.rev_nodes
                       if self.allow_offload]
            directions = {"fwd": lin_sum(local + fwd_off)}
            if fwd_off or rev_off:
                directions["rev"] = lin_sum(local + rev_off)
            for label, coverage in directions.items():
                model.add_constraint(coverage <= 1.0,
                                     name=f"cov{label}_cap[{cls.name}]")
            cov = model.add_variable(f"cov[{cls.name}]", lb=0.0, ub=1.0)
            for label, coverage in directions.items():
                model.add_constraint(cov <= coverage,
                                     name=f"cov_{label}[{cls.name}]")
            self._cov[cls.name] = cov

        load_cost = self._emit_load_rows(model)
        self._emit_link_rows(model)

        # Objective (Eq (11)): LoadCost + gamma * MissRate.
        self._cost_expr = self._cost_expression()
        model.minimize(load_cost + self.gamma * self._cost_expr)

    # -- solving --------------------------------------------------------------

    def _unpack(self, model: Model,
                solution: Solution) -> SplitTrafficResult:
        fwd: Dict[str, Dict[str, float]] = {}
        for (cls_name, node), var in self._ofwd.items():
            fwd.setdefault(cls_name, {})[node] = solution.value(var)
        rev: Dict[str, Dict[str, float]] = {}
        for (cls_name, node), var in self._orev.items():
            rev.setdefault(cls_name, {})[node] = solution.value(var)
        return SplitTrafficResult(
            fwd_offloads=fwd,
            rev_offloads=rev,
            coverage={name: solution.value(var)
                      for name, var in self._cov.items()},
            miss_rate=solution.value(self._cost_expr),
            link_loads=self._link_loads(solution),
            gamma=self.gamma,
            process_fractions=self._process_fractions(solution),
            **self._assignment_fields(model, solution))

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
