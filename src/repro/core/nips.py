"""NIPS extension (Section 9, "Extending to NIPS and active monitoring").

Intrusion *prevention* systems sit on the forwarding path, so
offloading cannot copy traffic — it must **reroute** it through the
mirror. The paper identifies the two consequences this formulation
handles:

1. ``BG_l`` is no longer a constant: traffic rerouted at node ``j``
   leaves its original downstream links and instead traverses
   ``P_{j,j'}`` and then the path from the mirror to the class's
   egress. Because the removed fraction on a downstream link is simply
   the sum of the reroute fractions at or before it, link load remains
   *linear* in the decision variables — no fixed-point iteration is
   needed.
2. Rerouting adds forwarding latency. The detour cost of rerouting at
   ``j`` via ``j'`` is ``hops(j,j') + hops(j',egress) - hops(j,egress)``
   extra hops; the formulation bounds each class's expected detour.

Everything else (variables, coverage, node loads, min-max objective)
*is* the Section 4 replication LP: :class:`NIPSProblem` inherits it
from :class:`~repro.core.replication.ReplicationProblem` and restates
only the link coefficients, the background and the extra rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.core.formulation import TermIndex
from repro.core.inputs import NetworkState
from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.core.results import ReplicationResult
from repro.lpsolve import LinExpr, Model, Solution, Variable, lin_sum
from repro.topology.topology import Link, Topology
from repro.traffic.classes import TrafficClass


@dataclass
class NIPSResult(ReplicationResult):
    """Replication-style result plus per-class expected detour hops."""

    extra_hops: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_extra_hops(self) -> float:
        """Traffic-unweighted mean detour across classes."""
        if not self.extra_hops:
            return 0.0
        return sum(self.extra_hops.values()) / len(self.extra_hops)


class NIPSProblem(ReplicationProblem):
    """Reroute-based offloading for inline NIPS devices.

    Args:
        state: calibrated inputs (same as the NIDS formulations).
        mirror_policy: candidate reroute targets ``M_j``.
        max_link_load: utilization bound per link — now accounting for
            *both* removed and added traffic.
        max_latency_penalty: bound on each class's expected detour, in
            hops (e.g., 2.0 means on average at most two extra hops per
            rerouted session, amortized over the class).
    """

    kind = "nips"
    result_type = NIPSResult

    def __init__(self, state: NetworkState,
                 mirror_policy: Optional[MirrorPolicy] = None,
                 max_link_load: float = 0.4,
                 max_latency_penalty: float = 2.0) -> None:
        super().__init__(state, mirror_policy=mirror_policy,
                         max_link_load=max_link_load)
        if max_latency_penalty < 0:
            raise ValueError("max_latency_penalty must be non-negative")
        self.max_latency_penalty = max_latency_penalty
        # The floor and latency rows sit outside the parameter
        # calculus; a resolve rebuilds.
        self._incremental_ok = False

    def _reset(self) -> None:
        super()._reset()
        self._forward_bytes: Dict[Link, float] = {}
        self._detour_exprs: Dict[str, LinExpr] = {}

    def _detour_hops(self, node: str, mirror: str, egress: str) -> int:
        """Extra hops for traffic rerouted at ``node`` via ``mirror``."""
        routing = self.state.routing
        return (routing.hop_count(node, mirror) +
                routing.hop_count(mirror, egress) -
                routing.hop_count(node, egress))

    # -- the coefficient table ----------------------------------------------

    def _group_key(self, cls: TrafficClass) -> str:
        # A reroute's link terms depend on direction and egress.
        return cls.name

    def _worth_taking(self, sources: Sequence[str], mirror: str,
                      tunnel: Callable[[str, str], int]) -> List[str]:
        # A reroute also takes the class off the links downstream of
        # its node, so a longer tunnel is not a dominated one.
        return list(sources)

    def _link_term_index(self) -> TermIndex:
        # Rerouting at j removes the class's bytes from links
        # downstream of j and adds them on P(j, mirror) +
        # P(mirror, egress).
        def terms() -> Iterator[Tuple[Link, Variable, int, float]]:
            state = self.state
            by_name = {cls.name: (index, cls) for index, cls in
                       enumerate(state.classes)}
            for (cls_name, node, mirror), var in self._o.items():
                index, cls = by_name[cls_name]
                for link in Topology.path_links(
                        cls.path[cls.path.index(node):]):
                    yield link, var, index, -cls.session_bytes
                for link in (state.routing.path_links(node, mirror) +
                             state.routing.path_links(mirror,
                                                      cls.target)):
                    yield link, var, index, cls.session_bytes

        return TermIndex.from_terms(self.state.topology.links, terms())

    def _bg_load(self, link: Link) -> float:
        return self._forward_bytes[link] / self.state.link_capacity[link]

    # -- model construction -------------------------------------------------

    def _build(self, model: Model) -> None:
        state = self.state
        # BG decomposed per class, so a reroute can subtract it. NIPS
        # rerouting of asymmetric classes is out of scope (the paper's
        # NIPS discussion assumes the forwarding path), so only the
        # forward path is accounted.
        self._forward_bytes = {link: 0.0 for link in state.topology.links}
        for cls in state.classes:
            for link in Topology.path_links(cls.path):
                self._forward_bytes[link] += (cls.num_sessions *
                                              cls.session_bytes)
        super()._build(model)

        # Latency: bound each class's expected detour hops.
        for cls in state.classes:
            terms = []
            for (cls_name, node, mirror), var in self._o.items():
                if cls_name != cls.name:
                    continue
                detour = self._detour_hops(node, mirror, cls.target)
                if detour:
                    terms.append(var * float(detour))
            expr = lin_sum(terms)
            self._detour_exprs[cls.name] = expr
            if terms:
                model.add_constraint(
                    expr <= self.max_latency_penalty,
                    name=f"latency[{cls.name}]")

    def _add_link_row(self, model: Model, link: Link,
                      ordinal: int) -> None:
        super()._add_link_row(model, link, ordinal)
        # Rerouting cannot drive a link's load negative.
        model.add_constraint(self._link_block.expr(ordinal) >= 0.0,
                             name=f"linkfloor[{link[0]},{link[1]}]")

    def _unpack(self, model: Model, solution: Solution) -> NIPSResult:
        return super()._unpack(
            model, solution,
            extra_hops={name: solution.value(expr)
                        for name, expr in self._detour_exprs.items()})

    def solve(self) -> NIPSResult:
        """Solve and unpack, including per-class expected detours."""
        return super().solve()
