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
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.formulation import TermIndex
from repro.core.inputs import NetworkState
from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem, flat_paths
from repro.core.results import ReplicationResult, ragged, route_links
from repro.lpsolve import Model, RowBlock, Solution
from repro.topology.topology import Link


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
    # A reroute's link terms depend on direction and egress, and it
    # also takes the class *off* the links downstream of its node, so
    # a longer detour is not a dominated one: every class keeps its
    # own columns, and every reroute.
    _share_columns = False
    _prune_tunnels = False

    def __init__(self, state: NetworkState,
                 mirror_policy: Optional[MirrorPolicy] = None,
                 max_link_load: float = 0.4,
                 max_latency_penalty: float = 2.0) -> None:
        super().__init__(state, mirror_policy=mirror_policy,
                         max_link_load=max_link_load)
        if max_latency_penalty < 0:
            raise ValueError("max_latency_penalty must be non-negative")
        self.max_latency_penalty = max_latency_penalty
        # The latency rows sit outside the parameter calculus; a
        # resolve rebuilds.
        self._incremental_ok = False

    def _reset(self) -> None:
        super()._reset()
        self._forward_bytes: Dict[Link, float] = {}
        self._class_links: Optional[Tuple[np.ndarray, ...]] = None
        self._latency_block: Optional[RowBlock] = None

    # -- the coefficient table ----------------------------------------------

    def _reroutes(self) -> Tuple[np.ndarray, ...]:
        """``(position, owner, node, mirror, egress)`` of every ``o``
        fraction of the layout, as codes."""
        layout = self._layout
        remote = np.flatnonzero(layout.mirror >= 0)
        code = {node: index for index, node in enumerate(layout.node_names)}
        egress = np.array([code[cls.target] for cls in self.state.classes],
                          dtype=np.int64)
        owner = layout.cls[remote]
        return (remote, owner, layout.node[remote], layout.mirror[remote],
                egress[owner])

    def _link_term_index(self) -> TermIndex:
        # Rerouting at j removes the class's bytes from links
        # downstream of j and adds them on P(j, mirror) +
        # P(mirror, egress): three runs of links per o fraction, taken
        # from one pool. No row keeps a link's load non-negative, and
        # none is needed: a class's cover row is an equality
        # (sum p + sum o = 1, all >= 0), so its reroutes at or before
        # any node sum to at most 1, and a link never loses more of a
        # class's bytes than that class puts into BG_l.
        state = self.state
        ordinal = {link: index
                   for index, link in enumerate(state.topology.links)}
        remote, owner, node, mirror, egress = self._reroutes()
        path_links, first, position = self._class_links
        downstream = first[owner] + position[owner, node]
        tunnel, at_tunnel, to_mirror = route_links(
            state.routing, state.nids_nodes, node, mirror, ordinal)
        onward, at_onward, to_egress = route_links(
            state.routing, state.nids_nodes, mirror, egress, ordinal)
        pool = np.concatenate((path_links, tunnel, onward))
        start = np.stack((downstream, at_tunnel + len(path_links),
                          at_onward + len(path_links) + len(tunnel)),
                         axis=1).ravel()
        count = np.stack((first[owner + 1] - downstream, to_mirror,
                          to_egress), axis=1).ravel()
        session_bytes = np.array(
            [cls.session_bytes for cls in state.classes],
            dtype=np.float64)
        weight = (np.array([-1.0, 1.0, 1.0])
                  * session_bytes[owner][:, None]).ravel()
        at = np.repeat(np.repeat(remote, 3), count)
        return TermIndex(pool[ragged(start, count)], self._columns[at],
                         self._layout.cls[at], np.repeat(weight, count))

    def _bg_load(self, link: Link) -> float:
        return self._forward_bytes[link] / self.state.link_capacity[link]

    # -- model construction -------------------------------------------------

    def _build(self, model: Model) -> None:
        state = self.state
        # Every class's path links, one after the other; a class's run
        # ends where the next one's starts.
        code = {node: index for index, node in enumerate(state.nids_nodes)}
        path, lengths = flat_paths(state.classes, code)
        link_at = np.full((len(code), len(code)), -1, dtype=np.int64)
        for index, (u, v) in enumerate(state.topology.links):
            link_at[code[u], code[v]] = link_at[code[v], code[u]] = index
        on = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        inner = on[:-1] == on[1:]
        path_links = link_at[path[:-1][inner], path[1:][inner]]
        first = np.concatenate(([0], np.cumsum(lengths - 1)))
        position = np.zeros((len(lengths), len(code)), dtype=np.int64)
        position[on, path] = (np.arange(len(path))
                              - np.repeat(np.cumsum(lengths) - lengths,
                                          lengths))
        self._class_links = (path_links, first, position)
        # BG decomposed per class, so a reroute can subtract it. NIPS
        # rerouting of asymmetric classes is out of scope (the paper's
        # NIPS discussion assumes the forwarding path), so only the
        # forward path is accounted.
        forward = np.array([cls.num_sessions * cls.session_bytes
                            for cls in state.classes], dtype=np.float64)
        self._forward_bytes = dict(zip(state.topology.links, np.bincount(
            path_links, weights=forward[on[1:][inner]],
            minlength=len(state.topology.links)).tolist()))
        super()._build(model)

        # Latency: bound each class's expected detour hops,
        # ``hops(j,j') + hops(j',egress) - hops(j,egress)`` per reroute.
        remote, owner, node, mirror, egress = self._reroutes()
        ordinal = {link: index
                   for index, link in enumerate(state.topology.links)}
        routes = (route_links(state.routing, state.nids_nodes, a, b,
                              ordinal)[2]
                  for a, b in ((node, mirror), (mirror, egress),
                               (node, egress)))
        detour = next(routes) + next(routes) - next(routes)
        terms = np.flatnonzero(detour)
        block = self._latency_block = RowBlock(
            model, owner[terms], self._columns[remote[terms]],
            detour[terms].astype(np.float64),
            np.zeros(len(state.classes)))
        # ``expr <= penalty``, normalized as a symbolic row would be.
        model.add_block_rows(
            block, np.full(len(state.classes),
                           -(0.0 - self.max_latency_penalty)),
            [f"latency[{cls.name}]" for cls in state.classes])

    def _unpack(self, model: Model, solution: Solution) -> NIPSResult:
        return super()._unpack(
            model, solution, extra_hops=dict(zip(
                self._layout.class_names,
                self._latency_block.values(solution.x).tolist())))

    def solve(self) -> NIPSResult:
        """Solve and unpack, including per-class expected detours."""
        return super().solve()
