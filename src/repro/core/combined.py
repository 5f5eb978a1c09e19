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

Formulation — the Figure 9 LP
(:class:`~repro.core.aggregation.AggregationProblem`) plus one
datacenter column ``o[c,j]`` per on-path node:

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
place on the compiled LP. The aggregation LP lays out the ``o``
columns, their load and CommCost terms and the DC's share of
``process_fractions``; this module adds only the link rows
(``_link_term_index``) the mirrored slices load.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.core.aggregation import (AggregationPointFn, AggregationProblem,
                                    ingress_aggregation_point)
from repro.core.formulation import TermIndex, _check_max_link_load
from repro.core.inputs import NetworkState
from repro.lpsolve import Variable
from repro.topology.topology import Link


class CombinedProblem(AggregationProblem):
    """Aggregation with optional replication of counting sub-tasks.

    Args:
        state: calibrated inputs **with** a datacenter node.
        beta: communication-cost weight (as in Figure 9).
        max_link_load: bound on the replicated traffic's link load.
        aggregation_point: class -> node receiving the final reports.
    """

    kind = "combined"
    _offload_columns = True

    def __init__(self, state: NetworkState, beta: float = 1.0,
                 max_link_load: float = 0.4,
                 aggregation_point: AggregationPointFn =
                 ingress_aggregation_point) -> None:
        if state.dc_node is None:
            raise ValueError("CombinedProblem needs a datacenter; "
                             "build the state with dc_capacity_factor")
        super().__init__(state, beta=beta,
                         aggregation_point=aggregation_point)
        self._declare_param("max_link_load", max_link_load,
                            _check_max_link_load)

    @property
    def max_link_load(self) -> float:
        """``MaxLinkLoad`` (change it via ``resolve``)."""
        return self._params["max_link_load"]

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
