"""The replication LP (Section 4, Figure 7 of the paper).

Decision variables:

- ``p[c,j]`` — fraction of class ``c``'s sessions processed locally by
  on-path node ``j in P_c`` (Eq (6)).
- ``o[c,j,j']`` — fraction of class ``c`` offloaded from on-path node
  ``j`` to off-path mirror ``j' in M_j \\ P_c`` (Eq (7)); mirrors that
  are already on the path never get an offload variable.

Only the tunnels worth taking get an ``o``. Of the on-path nodes that
may copy class ``c`` to mirror ``j'``, ``o[c,j,j']`` exists only for a
``j`` whose tunnel's link set ``links(P_{j,j'})`` is not a proper
superset of another such node's (nor equal to that of one earlier on
the path); a dropped fraction has no key, no layout entry, no column —
it is not a variable bounded at 0. With a datacenter mirror that is
most of Figure 7's offloads: a copy made two hops before the anchor
PoP crosses the anchor anyway. Nothing is lost:

1. a dropped ``o[c,j2,j']`` and the kept ``o[c,j,j']`` it contains both
   have coefficient 1 in ``cover[c]`` and identical terms in the
   mirror's ``loadcost[...]`` rows — the copy costs the mirror the same
   whoever makes it — and no term anywhere else but ``linkload[...]``;
2. there the kept column's terms are a subset of the dropped one's,
   with equal coefficients per link (``|T_c| * session_bytes / cap``);
3. so moving the dropped column's mass onto the kept one keeps every
   row feasible and ``LoadCost`` — and the link-cost extension, which
   is monotone in link load — no larger.

The rule reads routes only (:meth:`ReplicationProblem._worth_taking`),
so a volume refresh never re-prunes, and it is evaluated once per
group of classes (below), on the group's first class: ties between
equal tunnels go to the node earlier on *that* class's path.
:class:`~repro.core.nips.NIPSProblem` keeps every reroute: one also
takes the class *off* the links downstream of its node, so a longer
detour is not a dominated one.

Classes that cross the same nodes share their fraction variables. A
symmetric class (``rev_path is None``) is keyed by ``(set of path
nodes, session_bytes, footprints)``; every class of a key after the
first reuses the first one's ``p`` / ``o`` columns (found by ``(node,
mirror)``) and its ``cover[...]`` row. Under symmetric routing that is
``a->b`` with ``b->a``: half the columns. Nothing is lost:

1. two classes of one key put their terms on the same ``loadcost[...]``
   and ``linkload[...]`` rows (same nodes, same mirrors, same tunnels)
   with coefficients in the fixed ratio ``|T_a| : |T_b|``;
2. so the volume-weighted mean of their optimal fractions, given to
   both, leaves every row activity — and ``LoadCost`` — unchanged;
3. and a mean of rows that each lie in [0, 1] and sum to 1 does too.

A class with its own ``rev_path``, or whose twin differs in
``session_bytes`` or ``footprints``, has no such ratio and keeps its
own columns (its key is its name); :class:`~repro.core.nips.NIPSProblem`
keys every class by name, because a reroute's link terms depend on
direction and egress. The key reads structural fields only, so a
volume refresh never regroups. Everything per class stays per class —
the layout, the ``volumes`` parameter, the result's fraction rows, the
compiled rules: members of a group report the same fractions and each
weighs the shared column by its own ``|T_c|``.

The columns are laid out on arrays
(:meth:`ReplicationProblem._add_fraction_variables`); per class,
Python only reads the path, the key's fields and the name. The class
paths are flattened into node codes; each class gets a group id,
numbered in order of first appearance (the key above, compared as
bytes: node-set bitmap, session bytes, footprint id, and the class
itself when it has a ``rev_path``); the candidate ``(class, node,
mirror)`` offloads are expanded in path then ``M_j`` order, on-path
mirrors dropped; the worth-taking rule compares every ordered pair of
one first class's sources to one mirror, tunnels as link bitsets in
``uint64`` words; each class's ``p`` (path order) and kept ``o`` form
the :class:`~repro.core.results.FractionLayout`, with columns for a
group's first class in layout order and every member mapped onto them
by ``(node, mirror)`` (``_columns``). The columns enter the model as
one family, the ``cover[...]`` rows as one equality
:class:`~repro.lpsolve.RowBlock`.

Constraints: full coverage per class (Eq (2)); per-node per-resource
load accounting including offloaded-in traffic (Eq (3)); link load of
the replication tunnels plus background bounded by
``max(MaxLinkLoad, BG_l)`` (Eqs (4), (5)). Objective: minimize the
maximum node-resource load (Eq (1)), optionally with the piecewise
link-cost extension from the end of Section 4.

The class is a :class:`~repro.core.formulation.Formulation`: it
states the load and link terms once, as index arrays derived from the
column layout (``_load_term_index`` / ``_link_term_index``), and the
base class builds and patches from them. The same layout — a
:class:`~repro.core.results.FractionLayout` — is what a solution is
unpacked through: the result carries ``x`` gathered into a fraction
table, not dicts of fractions.
``max_link_load`` and the per-class ``volumes`` are named parameters,
so ``resolve(max_link_load=...)`` (Figure 11) and
``resolve_traffic(classes)`` (Figure 15, controller refresh) patch the
compiled LP in place instead of rebuilding it.
"""

from __future__ import annotations

from typing import (Any, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence, Tuple, Type)

import numpy as np

from repro.core.formulation import (Formulation, TermIndex,
                                    _check_max_link_load)
from repro.core.inputs import NetworkState
from repro.core.mirrors import MirrorPolicy
from repro.core.results import (FractionLayout, FractionTable,
                                ReplicationResult, ragged, route_links)
from repro.lpsolve import LinExpr, Model, RowBlock, Solution, lin_sum
from repro.topology.topology import Link
from repro.traffic.classes import TrafficClass


def flat_paths(classes: Sequence[TrafficClass],
               code: Mapping[str, int]) -> Tuple[np.ndarray, np.ndarray]:
    """``(codes, lengths)``: every class's path as node codes, one
    after the other in class order, and each path's length."""
    lengths = np.array([len(cls.path) for cls in classes],
                       dtype=np.int64)
    codes = np.array([code[node] for cls in classes for node in cls.path],
                     dtype=np.int64)
    return codes, lengths


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
    """

    kind = "replication"
    #: what :meth:`_unpack` returns
    result_type: Type[ReplicationResult] = ReplicationResult
    #: classes of one key share their columns (module docstring)
    _share_columns = True
    #: only the tunnels worth taking get an ``o`` (module docstring)
    _prune_tunnels = True

    def __init__(self, state: NetworkState,
                 mirror_policy: Optional[MirrorPolicy] = None,
                 max_link_load: float = 0.4,
                 link_cost_weight: Optional[float] = None) -> None:
        super().__init__(state)
        self.mirror_policy = mirror_policy or MirrorPolicy.none()
        self._declare_param("max_link_load", max_link_load,
                            _check_max_link_load)
        self.link_cost_weight = link_cost_weight
        if link_cost_weight is not None:
            self._incremental_ok = False

    @property
    def max_link_load(self) -> float:
        """``MaxLinkLoad`` (change it via ``resolve``)."""
        return self._params["max_link_load"]

    def _reset(self) -> None:
        super()._reset()
        self._link_penalties: List[LinExpr] = []
        self._layout: Optional[FractionLayout] = None
        self._columns: Optional[np.ndarray] = None

    # -- the coefficient table ----------------------------------------------

    def _load_term_index(self) -> TermIndex:
        # Eq (3), wherever the footprint is non-zero: on-path
        # processing (by class, then resource, then path order — which
        # is column order), then offloaded-in work (by ``o`` column,
        # then resource).
        state, layout = self.state, self._layout
        footprint = np.array(
            [[cls.footprint(resource) for cls in state.classes]
             for resource in state.resources], dtype=np.float64)
        kinds = np.arange(len(footprint), dtype=np.int64)
        local = np.flatnonzero(layout.mirror < 0)
        remote = np.flatnonzero(layout.mirror >= 0)
        at = np.tile(local, len(kinds))
        res = np.repeat(kinds, len(local))
        order = np.lexsort((at, res, layout.cls[at]))
        at = np.concatenate((at[order], np.repeat(remote, len(kinds))))
        res = np.concatenate((res[order], np.tile(kinds, len(remote))))
        owner = layout.cls[at]
        keep = footprint[res, owner] != 0.0
        at, res, owner = at[keep], res[keep], owner[keep]
        charged = np.where(layout.mirror[at] < 0, layout.node[at],
                           layout.mirror[at])
        return TermIndex(res * len(state.nids_nodes) + charged,
                         self._columns[at], owner,
                         footprint[res, owner])

    def _link_term_index(self) -> TermIndex:
        # Eq (4): the replication tunnel from node to mirror.
        state, layout = self.state, self._layout
        at, links = layout.tunnels(state.routing, {
            link: index
            for index, link in enumerate(state.topology.links)})
        owner = layout.cls[at]
        session_bytes = np.array(
            [cls.session_bytes for cls in state.classes],
            dtype=np.float64)
        return TermIndex(links, self._columns[at], owner,
                         session_bytes[owner])

    # -- model construction -------------------------------------------------

    def _groups(self, on_path: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        """``(group of each class, first class of each group)``,
        groups numbered in order of first appearance. The key (module
        docstring) reads structural fields only: the node set (a row
        of ``on_path``), the session bytes, the footprints — and, for a
        class with its own ``rev_path``, the class itself."""
        classes = self.state.classes
        if not self._share_columns:
            alone = np.arange(len(classes), dtype=np.int64)
            return alone, alone
        footprints: Dict[FrozenSet[Tuple[str, float]], int] = {}
        fields = np.empty((len(classes), 3), dtype=np.int64)
        fields[:, 0] = np.array([cls.session_bytes for cls in classes],
                                dtype=np.float64).view(np.int64)
        fields[:, 1] = [footprints.setdefault(
            frozenset(cls.footprints.items()), len(footprints))
            for cls in classes]
        fields[:, 2] = [-1 if cls.rev_path is None else index
                        for index, cls in enumerate(classes)]
        keys = np.ascontiguousarray(np.concatenate(
            (np.packbits(on_path, axis=1),
             fields.view(np.uint8).reshape(-1, fields.itemsize * 3)),
            axis=1))
        _, first, key = np.unique(
            keys.view(np.dtype((np.void, keys.shape[1]))).ravel(),
            return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return rank[key], first[order]

    def _worth_taking(self, owner: np.ndarray, node: np.ndarray,
                      mirror: np.ndarray) -> np.ndarray:
        """Which candidate offloads ``o[owner, node, mirror]`` — each
        class's listed in path order — get a column: those whose
        tunnel's links contain no other's of the same class and mirror
        (nor equal one earlier on the path). Tunnels are link bitsets
        in ``uint64`` words; reads routes only."""
        state = self.state
        ordinal = {link: index
                   for index, link in enumerate(state.topology.links)}
        width = len(state.nids_nodes)
        pairs, tunnel = np.unique(node * width + mirror,
                                  return_inverse=True)
        try:
            links, start, count = route_links(
                state.routing, state.nids_nodes, pairs // width,
                pairs % width, ordinal)
        except KeyError as missing:
            source, target = missing.args[0]
            raise ValueError(
                f"mirror {target!r} has no route from on-path node "
                f"{source!r}") from None
        links = links[ragged(start, count)]
        masks = np.zeros((len(pairs), len(ordinal) // 64 + 1),
                         dtype=np.uint64)
        np.bitwise_or.at(
            masks, (np.repeat(np.arange(len(pairs)), count), links // 64),
            np.left_shift(np.uint64(1), (links % 64).astype(np.uint64)))
        # Every ordered pair (at, other) of one class's candidates to
        # one mirror, in bounded slices; a stable sort keeps the path
        # order within.
        segment = owner * width + mirror
        order = np.argsort(segment, kind="stable")
        masks, segment = masks[tunnel[order]], segment[order]
        first = np.searchsorted(segment, segment)
        size = np.searchsorted(segment, segment, side="right") - first
        dropped = np.zeros(len(order), dtype=bool)
        step = max(1, (1 << 20) // int(size.max(initial=1)))
        for lo in range(0, len(order), step):
            sizes = size[lo:lo + step]
            at = np.repeat(np.arange(lo, lo + len(sizes)), sizes)
            other = ragged(first[lo:lo + step], sizes)
            mine, theirs = masks[at], masks[other]
            inside = ~(theirs & ~mine).any(axis=1)
            equal = ~(theirs != mine).any(axis=1)
            dropped[at[inside & (other != at)
                       & (~equal | (other < at))]] = True
        keep = np.empty(len(order), dtype=bool)
        keep[order] = ~dropped
        return keep

    def _add_fraction_variables(self, model: Model) -> None:
        """Decision variables (Eqs (6), (7)) and coverage (Eq (2)),
        laid out on arrays (module docstring)."""
        state = self.state
        classes, nodes = state.classes, state.nids_nodes
        width = len(nodes)
        code = {node: index for index, node in enumerate(nodes)}
        path, lengths = flat_paths(classes, code)
        on = np.repeat(np.arange(len(classes), dtype=np.int64), lengths)
        on_path = np.zeros((len(classes), width), dtype=bool)
        on_path[on, path] = True
        group, first = self._groups(on_path)

        # Candidate offloads, per class in path then ``M_j`` order; a
        # mirror on the path needs no replication.
        mirror_sets = self.mirror_policy.mirror_sets(state)
        offered = np.array([len(mirror_sets[node]) for node in nodes],
                           dtype=np.int64)
        mirrors = np.array([code[mirror] for node in nodes
                            for mirror in mirror_sets[node]],
                           dtype=np.int64)
        at = np.repeat(np.arange(len(path), dtype=np.int64),
                       offered[path])
        to = mirrors[ragged((np.cumsum(offered) - offered)[path],
                            offered[path])]
        off = ~on_path[on[at], to]
        at, to = at[off], to[off]
        # The group's first class decides which are worth taking; the
        # other members find theirs by (node, mirror).
        key = (group[on[at]] * width + path[at]) * width + to
        decides = first[group[on[at]]] == on[at]
        if self._prune_tunnels:
            taken = self._worth_taking(on[at[decides]], path[at[decides]],
                                       to[decides])
            sorter = np.argsort(key[decides])
            keep = taken[sorter[np.searchsorted(key[decides], key,
                                                sorter=sorter)]]
            at, to = at[keep], to[keep]

        # The layout: per class its p fractions in path order, then
        # its o fractions; columns only for a group's first class.
        entry = np.concatenate((np.arange(len(path), dtype=np.int64), at))
        mirror = np.concatenate((np.full(len(path), -1, dtype=np.int64),
                                 to))
        order = np.lexsort((mirror >= 0, on[entry]))
        entry, mirror = entry[order], mirror[order]
        owner, node = on[entry], path[entry]
        lead = first[group[owner]] == owner
        slot = (group[owner] * width + node) * (width + 1) + mirror + 1
        sorter = np.argsort(slot[lead])
        column = sorter[np.searchsorted(slot[lead], slot, sorter=sorter)]
        names = [cls.name for cls in classes]
        start = model.num_variables
        model.add_variables(
            [f"p[{names[c]},{nodes[j]}]" if m < 0 else
             f"o[{names[c]},{nodes[j]},{nodes[m]}]"
             for c, j, m in zip(owner[lead].tolist(), node[lead].tolist(),
                                mirror[lead].tolist())],
            lb=0.0, ub=1.0)
        # ``lin_sum(group's columns) == 1.0``, one row per group.
        columns = np.flatnonzero(lead)
        cover = RowBlock(model, group[owner[columns]],
                         start + np.arange(len(columns)),
                         np.ones(len(columns)), np.zeros(len(first)),
                         equality=True)
        model.add_block_rows(cover, np.ones(len(first)),
                             [f"cover[{names[c]}]" for c in first.tolist()])
        self._layout = FractionLayout(names, nodes, owner, node, mirror)
        self._columns = start + column

    def _build(self, model: Model) -> None:
        self._add_fraction_variables(model)
        load_cost = self._emit_load_rows(model)
        self._emit_link_rows(model)
        # Objective (Eq (1)), optionally with the link-cost extension.
        if self.link_cost_weight is None:
            model.minimize(load_cost)
        else:
            model.minimize(
                load_cost +
                self.link_cost_weight * lin_sum(self._link_penalties))

    def _add_link_row(self, model: Model, link: Link,
                      ordinal: int) -> None:
        if self.link_cost_weight is None:
            super()._add_link_row(model, link, ordinal)
        else:
            from repro.core.extensions import piecewise_link_cost

            self._link_penalties.append(piecewise_link_cost(
                model, self._link_block.expr(ordinal),
                name=f"{link[0]}-{link[1]}"))

    # -- solving --------------------------------------------------------------

    def _unpack(self, model: Model, solution: Solution,
                **extra: Any) -> ReplicationResult:
        return self.result_type.from_table(
            FractionTable(self._layout, solution.x[self._columns]),
            link_loads=self._link_loads(solution),
            max_link_load=self.max_link_load,
            **extra, **self._assignment_fields(model, solution))

    def solve(self) -> ReplicationResult:
        """Solve the LP and unpack the solution.

        Returns:
            A :class:`ReplicationResult` with the optimal ``LoadCost``,
            per-node loads, decision fractions, and link loads.
        """
        return super().solve()
