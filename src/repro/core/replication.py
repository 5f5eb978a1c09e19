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
group of classes (below). :class:`~repro.core.nips.NIPSProblem` keeps
every reroute: one also takes the class *off* the links downstream of
its node, so a longer detour is not a dominated one.

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

from typing import (Any, Callable, Dict, Hashable, List, Optional,
                    Sequence, Set, Tuple, Type)

import numpy as np

from repro.core.formulation import (Formulation, TermIndex,
                                    _check_max_link_load)
from repro.core.inputs import NetworkState
from repro.core.mirrors import MirrorPolicy
from repro.core.results import (FractionLayout, FractionTable,
                                ReplicationResult)
from repro.lpsolve import (Constraint, ConstraintSense, LinExpr, Model,
                           Solution, Variable, lin_sum)
from repro.topology.topology import Link
from repro.traffic.classes import TrafficClass

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
    """

    kind = "replication"
    #: what :meth:`_unpack` returns
    result_type: Type[ReplicationResult] = ReplicationResult

    def __init__(self, state: NetworkState,
                 mirror_policy: Optional[MirrorPolicy] = None,
                 max_link_load: float = 0.4,
                 link_cost_weight: Optional[float] = None,
                 load_weights: Optional[Dict[Tuple[str, str],
                                             float]] = None) -> None:
        super().__init__(state)
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

    @property
    def max_link_load(self) -> float:
        """``MaxLinkLoad`` (change it via ``resolve``)."""
        return self._params["max_link_load"]

    def _reset(self) -> None:
        super()._reset()
        self._o: Dict[OffloadKey, Variable] = {}
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

    def _group_key(self, cls: TrafficClass) -> Hashable:
        """Classes with equal keys share one set of fraction
        variables (module docstring); reads structural fields only."""
        if cls.rev_path is not None:
            return cls.name
        return (frozenset(cls.path), cls.session_bytes,
                frozenset(cls.footprints.items()))

    def _worth_taking(self, sources: Sequence[str], mirror: str,
                      tunnel: Callable[[str, str], int]) -> List[str]:
        """The on-path nodes of ``sources`` (path order) that get an
        ``o`` to off-path ``mirror``: those whose tunnel's links
        contain no other's (module docstring). ``tunnel(node,
        mirror)`` is the tunnel's link set as a bitmask; reads routes
        only."""
        masks = [tunnel(node, mirror) for node in sources]
        taken = []
        for at, mask in enumerate(masks):
            for rank, other in enumerate(masks):
                if (other & mask == other and rank != at
                        and (other != mask or rank < at)):
                    break  # contains (or repeats) another's tunnel
            else:
                taken.append(sources[at])
        return taken

    def _add_fraction_variables(self, model: Model) -> None:
        """Decision variables (Eqs (6), (7)) and coverage (Eq (2))."""
        state = self.state
        mirror_sets = self.mirror_policy.mirror_sets(state)
        code = {node: index
                for index, node in enumerate(state.nids_nodes)}
        bit = {link: 1 << index
               for index, link in enumerate(state.topology.links)}
        masks: Dict[Tuple[str, str], int] = {}

        def tunnel(node: str, mirror: str) -> int:
            mask = masks.get((node, mirror))
            if mask is None:
                try:
                    links = state.routing.path_links(node, mirror)
                except KeyError:
                    raise ValueError(
                        f"mirror {mirror!r} has no route from on-path "
                        f"node {node!r}") from None
                mask = masks[node, mirror] = sum(
                    bit[link] for link in links)
            return mask

        # One key per fraction of every class — a p key is (class,
        # node), an o key (class, node, mirror); the layout keeps the
        # same three things as integers — but one column and name only
        # per fraction of a group's first class, which also says which
        # tunnels are worth taking: the others find theirs by (node,
        # mirror).
        keys: List[Tuple[str, ...]] = []
        owner: List[int] = []
        at: List[int] = []
        to: List[int] = []
        column: List[int] = []
        names: List[str] = []
        covers: List[Tuple[str, int, int]] = []
        groups: Dict[Hashable, Tuple[Set[Tuple[str, str]],
                                     Dict[Tuple[int, int], int]]] = {}
        for index, cls in enumerate(state.classes):
            group = self._group_key(cls)
            first_of_group = group not in groups
            if first_of_group:
                path_set = set(cls.path)
                sources: Dict[str, List[str]] = {}
                for node in cls.path:
                    for mirror in mirror_sets[node]:
                        if mirror not in path_set:
                            # on-path mirrors need no replication
                            sources.setdefault(mirror, []).append(node)
                groups[group] = ({
                    (node, mirror) for mirror, nodes in sources.items()
                    for node in self._worth_taking(nodes, mirror,
                                                   tunnel)}, {})
            taken, shared = groups[group]
            start = len(keys)
            for node in cls.path:
                keys.append((cls.name, node))
                at.append(code[node])
                to.append(-1)
            for node in cls.path:
                for mirror in mirror_sets[node]:
                    if (node, mirror) in taken:
                        keys.append((cls.name, node, mirror))
                        at.append(code[node])
                        to.append(code[mirror])
            owner.extend([index] * (len(keys) - start))
            where = list(zip(at[start:], to[start:]))
            if first_of_group:
                first = len(names)
                names.extend(
                    f"{'p' if len(key) == 2 else 'o'}[{','.join(key)}]"
                    for key in keys[start:])
                shared.update(zip(where, range(first, len(names))))
                covers.append((cls.name, first, len(names)))
            column.extend(shared[pair] for pair in where)
        variables = model.add_variables(names, lb=0.0, ub=1.0)
        for key, col in zip(keys, column):
            (self._p if len(key) == 2 else self._o)[key] = variables[col]
        for name, lo, hi in covers:
            # ``lin_sum(group's columns) == 1.0``, stated directly.
            model.add_constraint(Constraint(
                LinExpr(dict.fromkeys(variables[lo:hi], 1.0), -1.0),
                ConstraintSense.EQ), name=f"cover[{name}]")
        self._layout = FractionLayout(
            [cls.name for cls in state.classes], state.nids_nodes,
            owner, at, to)
        self._columns = np.array(
            [variables[col].index for col in column], dtype=np.int64)

    def _build(self, model: Model) -> None:
        self._add_fraction_variables(model)
        load_cost = self._emit_load_rows(
            model, constrain=self.load_weights is None)
        if self.load_weights is not None:
            from repro.core.extensions import weighted_load_objective

            weighted = weighted_load_objective(
                model,
                {key: self._load_block.expr(ordinal)
                 for ordinal, key in enumerate(self._load_keys)},
                self.load_weights)
            model.add_constraint(load_cost >= weighted,
                                 name="loadcost[weighted]")
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
