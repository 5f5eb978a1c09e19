"""Result objects returned by the optimization problems.

A replication-family result holds its decision fractions as arrays — a
:class:`FractionTable`, the LP's ``x`` gathered through a
:class:`FractionLayout` built once per model — because that is the
form the shim compiler, the validator and the budget lowering consume.
The table is the result's one storage, and it is read-only. The
``process_fractions`` / ``offload_fractions`` dicts are views of it
(:class:`FractionView`), built on first read; a result constructed
from dicts encodes them into a table once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import (Any, Dict, Hashable, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Tuple)

import numpy as np

Link = Tuple[str, str]
OffloadKey = Tuple[str, str]  # (from node, to node)


class FractionLayout:
    """Which class, node and mirror every fraction of a plan is for.

    Flat, one entry per fraction in the order the dict views list them
    (per class its ``p`` then its ``o`` fractions): ``cls`` indexes
    ``class_names``, ``node`` and ``mirror`` index ``node_names``
    (``mirror`` is -1 for a ``p``), ``key`` indexes ``keys`` — the
    :class:`~repro.shim.ranges.HashRange` keys ``("process", node)`` /
    ``("replicate", node, mirror)``. ``slots`` is the same set as a
    padded ``classes x width`` matrix of positions (-1 = padding) in
    *emit* order — a class's ``p`` by sorted node, then its ``o`` by
    sorted ``(node, mirror)`` — which is the order Section 7.1 lays
    the hash ranges out in.
    """

    def __init__(self, class_names: Sequence[str],
                 node_names: Sequence[str], cls: Sequence[int],
                 node: Sequence[int], mirror: Sequence[int]) -> None:
        self.class_names = tuple(class_names)
        self.node_names = tuple(node_names)
        self.cls = np.asarray(cls, dtype=np.int64)
        self.node = np.asarray(node, dtype=np.int64)
        self.mirror = np.asarray(mirror, dtype=np.int64)
        names = self.node_names
        pairs, self.key = np.unique(
            self.node * (len(names) + 1) + self.mirror + 1,
            return_inverse=True)
        self.keys: Tuple[Hashable, ...] = tuple(
            ("process", names[node]) if mirror == 0 else
            ("replicate", names[node], names[mirror - 1])
            for node, mirror in (divmod(pair, len(names) + 1)
                                 for pair in pairs.tolist()))
        # Emit order: names sort as strings, codes by their rank.
        rank = np.empty(len(names) + 1, dtype=np.int64)
        rank[np.argsort(np.array(names + ("",)), kind="stable")] = \
            np.arange(len(names) + 1, dtype=np.int64)
        order = np.lexsort((rank[self.mirror], rank[self.node],
                            self.mirror >= 0, self.cls))
        counts = np.bincount(self.cls, minlength=len(self.class_names))
        first = np.cumsum(counts) - counts
        row = self.cls[order]
        self.slots = np.full(
            (len(self.class_names), int(counts.max(initial=0))), -1,
            dtype=np.int64)
        self.slots[row, np.arange(len(order), dtype=np.int64)
                   - first[row]] = order

    def row_keys(self, row: int) -> List[Hashable]:
        """The range keys of one class's slots, in emit order."""
        slots = self.slots[row]
        return [self.keys[key] for key in
                self.key[slots[slots >= 0]].tolist()]

    def tunnels(self, routing: Any, ordinal: Mapping[Link, int]
                ) -> Tuple[np.ndarray, np.ndarray]:
        """``(position of the o fraction, ordinal[link])`` for every
        link of every replication tunnel ``P_{node,mirror}``, in
        fraction then path order. Routes are looked up once per
        distinct (node, mirror)."""
        remote = np.flatnonzero(self.mirror >= 0)
        links, start, count = route_links(
            routing, self.node_names, self.node[remote],
            self.mirror[remote], ordinal)
        return np.repeat(remote, count), links[ragged(start, count)]


def ragged(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The runs ``start[i], ..., start[i] + count[i] - 1``, one after
    the other."""
    ends = np.cumsum(count)
    return (np.repeat(start - (ends - count), count)
            + np.arange(ends[-1] if len(ends) else 0, dtype=np.int64))


def route_links(routing: Any, node_names: Sequence[str],
                source: np.ndarray, target: np.ndarray,
                ordinal: Mapping[Link, int]
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(links, start, count)``: the route from node code
    ``source[i]`` to ``target[i]`` is ``links[start[i]:start[i] +
    count[i]]``, as ``ordinal[link]`` in path order. Routes are looked
    up once per distinct pair; a pair with no route raises the
    routing's ``KeyError``."""
    width = len(node_names)
    pairs, which = np.unique(np.asarray(source) * width + target,
                             return_inverse=True)
    paths = [[ordinal[link] for link in routing.path_links(
        node_names[pair // width], node_names[pair % width])]
        for pair in pairs.tolist()]
    count = np.array([len(path) for path in paths], dtype=np.int64)
    links = np.array([link for path in paths for link in path],
                     dtype=np.int64)
    return links, (np.cumsum(count) - count)[which], count[which]


class FractionTable:
    """A plan's fractions: one float per entry of a layout. The values
    are read-only, so a plan cannot be edited in place."""

    def __init__(self, layout: FractionLayout,
                 values: np.ndarray) -> None:
        self.layout = layout
        self.values = values
        values.flags.writeable = False

    def matrix(self) -> np.ndarray:
        """``classes x width`` fractions in emit order, 0.0 padded."""
        return np.append(self.values, 0.0)[self.layout.slots]

    @classmethod
    def from_dicts(cls, class_names: Sequence[str],
                   process: Mapping[str, Mapping[str, float]],
                   offload: Mapping[str, Mapping[OffloadKey, float]]
                   ) -> "FractionTable":
        """The array form of the dict views, rows in ``class_names``
        order (a class in neither dict gets an empty row)."""
        codes: Dict[str, int] = {}
        owner: List[int] = []
        node: List[int] = []
        mirror: List[int] = []
        values: List[float] = []
        for index, name in enumerate(class_names):
            for at, fraction in process.get(name, {}).items():
                owner.append(index)
                node.append(codes.setdefault(at, len(codes)))
                mirror.append(-1)
                values.append(fraction)
            for (at, to), fraction in offload.get(name, {}).items():
                owner.append(index)
                node.append(codes.setdefault(at, len(codes)))
                mirror.append(codes.setdefault(to, len(codes)))
                values.append(fraction)
        return cls(FractionLayout(class_names, tuple(codes), owner,
                                  node, mirror),
                   np.array(values, dtype=np.float64))

    @classmethod
    def gather(cls, tables: Sequence["FractionTable"],
               class_names: Iterable[str]) -> "FractionTable":
        """The rows of ``class_names``, in that order, taken from
        ``tables`` (a name in none of them gets an empty row, one in
        several the last one's). A row keeps its fractions' order."""
        class_names = tuple(class_names)
        nodes = tuple(dict.fromkeys(
            name for table in tables for name in table.layout.node_names))
        code = {name: index for index, name in enumerate(nodes)}
        where: Dict[str, int] = {}
        parts = [(np.empty(0, dtype=np.int64),) * 3 + (np.empty(0),)]
        offset = 0  # of the table's first row among all tables' rows
        for table in tables:
            layout = table.layout
            # The appended -1 keeps a p's mirror at -1.
            recode = np.array([code[name] for name in layout.node_names]
                              + [-1], dtype=np.int64)
            where.update((name, offset + row) for row, name
                         in enumerate(layout.class_names))
            parts.append((layout.cls + offset, recode[layout.node],
                          recode[layout.mirror], table.values))
            offset += len(layout.class_names)
        owner, node, mirror, values = (np.concatenate(column)
                                       for column in zip(*parts))
        # Every name not found lands on the spare last slot, which no
        # fraction owns.
        row = np.full(offset + 1, -1, dtype=np.int64)
        row[[where.get(name, offset) for name in class_names]] = \
            np.arange(len(class_names), dtype=np.int64)
        row = row[owner]
        taken = np.flatnonzero(row >= 0)
        taken = taken[np.argsort(row[taken], kind="stable")]
        return cls(FractionLayout(class_names, nodes, row[taken],
                                  node[taken], mirror[taken]),
                   values[taken])

    def to_dicts(self) -> Tuple[Dict[str, Dict[str, float]],
                                Dict[str, Dict[OffloadKey, float]]]:
        """``(process_fractions, offload_fractions)``; every class has
        a ``process`` entry, only classes with ``o`` fractions an
        ``offload`` one."""
        layout = self.layout
        names, nodes = layout.class_names, layout.node_names
        process: Dict[str, Dict[str, float]] = {
            name: {} for name in names}
        offload: Dict[str, Dict[OffloadKey, float]] = {}
        for owner, at, to, fraction in zip(
                layout.cls.tolist(), layout.node.tolist(),
                layout.mirror.tolist(), self.values.tolist()):
            if to < 0:
                process[names[owner]][nodes[at]] = fraction
            else:
                offload.setdefault(names[owner], {})[
                    (nodes[at], nodes[to])] = fraction
        return process, offload

    @cached_property
    def _dicts(self) -> Tuple[Dict[str, Dict[str, float]],
                              Dict[str, Dict[OffloadKey, float]]]:
        # What both views of this table read; never handed out.
        return self.to_dicts()


class FractionView(Mapping[str, Mapping[Any, float]]):
    """A table's ``p`` fractions, or its ``o`` fractions when
    ``offload``, keyed by class name: read-only, built on first read
    and cached by the table."""

    def __init__(self, table: FractionTable, offload: bool) -> None:
        self.table = table
        self.offload = offload

    def __getitem__(self, name: str) -> Mapping[Any, float]:
        return MappingProxyType(self.table._dicts[self.offload][name])

    def __iter__(self) -> Iterator[str]:
        return iter(self.table._dicts[self.offload])

    def __len__(self) -> int:
        return len(self.table._dicts[self.offload])

    def __repr__(self) -> str:
        return repr(self.table._dicts[self.offload])


@dataclass
class LPStats:
    """Size and runtime of one LP solve (Table 1's measurements).

    ``num_variables`` / ``num_constraints`` are the LP's columns and
    rows as handed to the solver: classes of a replication LP that
    share their fraction variables count once, not once per class.
    """

    num_variables: int
    num_constraints: int
    solve_seconds: float
    iterations: int


@dataclass
class AssignmentResult:
    """Common base for the three formulations' results.

    Attributes:
        load_cost: optimal ``LoadCost`` (max normalized node load).
        node_loads: per-resource per-node normalized loads.
        process_fractions: ``p_{c,j}`` keyed by class name then node.
        stats: LP size/runtime metadata.
        dc_node: datacenter node name, if the state had one.
    """

    load_cost: float
    node_loads: Dict[str, Dict[str, float]]
    process_fractions: Mapping[str, Mapping[str, float]]
    stats: LPStats
    dc_node: Optional[str] = None

    def max_load(self, resource: str = "cpu",
                 exclude_dc: bool = False) -> float:
        """Maximum node load for one resource.

        Args:
            resource: resource name.
            exclude_dc: drop the datacenter node (the paper's
                "MaxNIDSLoad" in Figure 12 and the per-node plots in
                Figure 10 treat the DC separately).
        """
        loads = self.node_loads[resource]
        values = [load for node, load in loads.items()
                  if not (exclude_dc and node == self.dc_node)]
        return max(values) if values else 0.0

    def dc_load(self, resource: str = "cpu") -> float:
        """Load on the datacenter node (0.0 when there is none)."""
        if self.dc_node is None:
            return 0.0
        return self.node_loads[resource][self.dc_node]

    def load_imbalance(self, resource: str = "cpu") -> float:
        """Max/average load ratio (Figure 19's imbalance metric).

        Averages over nodes with nonzero capacity involvement; the
        datacenter is included when present, matching the aggregation
        experiments which have no datacenter at all.
        """
        loads = list(self.node_loads[resource].values())
        mean = sum(loads) / len(loads)
        if mean == 0.0:
            return 1.0
        return max(loads) / mean


@dataclass
class ReplicationResult(AssignmentResult):
    """Solution of the Section 4 replication formulation.

    Additional attributes:
        offload_fractions: ``o_{c,j,j'}`` keyed by class name then the
            (from, to) node pair.
        link_loads: resulting ``LinkLoad_l`` per link (background plus
            replication).
        max_link_load: the ``MaxLinkLoad`` bound the problem used.
        table: the fractions' one storage; ``process_fractions`` and
            ``offload_fractions`` are its views. Given as dicts, they
            are encoded into a table at construction.
    """

    offload_fractions: Mapping[str, Mapping[OffloadKey, float]] = field(
        default_factory=dict)
    link_loads: Dict[Link, float] = field(default_factory=dict)
    max_link_load: float = 1.0
    table: FractionTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        process, offload = self.process_fractions, self.offload_fractions
        if isinstance(process, FractionView) and \
                isinstance(offload, FractionView) and \
                process.table is offload.table:
            self.table = process.table
            return
        self.table = FractionTable.from_dicts(
            list(dict.fromkeys([*process, *offload])), process, offload)
        self.process_fractions = FractionView(self.table, False)
        self.offload_fractions = FractionView(self.table, True)

    @classmethod
    def from_table(cls, table: FractionTable,
                   **fields: Any) -> "ReplicationResult":
        """A result whose fractions are ``table``."""
        return cls(process_fractions=FractionView(table, False),
                   offload_fractions=FractionView(table, True), **fields)

    def fraction_table(self, class_names: Iterable[str]
                       ) -> FractionTable:
        """The fractions as arrays, one row per name in
        ``class_names``: the stored table when it lists exactly those
        classes, else a row gather of it."""
        class_names = tuple(class_names)
        if self.table.layout.class_names == class_names:
            return self.table
        return FractionTable.gather([self.table], class_names)

    def replicated_fraction(self, class_name: str) -> float:
        """Total fraction of a class handled off-path via replication."""
        return sum(self.offload_fractions.get(class_name, {}).values())


@dataclass
class SplitTrafficResult(AssignmentResult):
    """Solution of the Section 5 split-traffic formulation.

    Additional attributes:
        miss_rate: traffic-weighted fraction lacking both-side coverage
            (Eq (11)).
        coverage: effective per-class coverage ``cov_c`` (Eq (10)).
        fwd_offloads / rev_offloads: per-direction offload fractions
            ``o^fwd_{c,j}`` / ``o^rev_{c,j}`` keyed by class then node.
        gamma: the miss-rate weight used in the objective.
    """

    miss_rate: float = 0.0
    coverage: Dict[str, float] = field(default_factory=dict)
    fwd_offloads: Dict[str, Dict[str, float]] = field(default_factory=dict)
    rev_offloads: Dict[str, Dict[str, float]] = field(default_factory=dict)
    link_loads: Dict[Link, float] = field(default_factory=dict)
    gamma: float = 0.0


@dataclass
class AggregationResult(AssignmentResult):
    """Solution of the Section 6 aggregation formulation.

    Additional attributes:
        comm_cost: total report traffic in byte-hops (Eq (13)).
        beta: the communication-cost weight used in the objective.
        objective: optimal ``LoadCost + beta * CommCost``.
        aggregation_points: per class, the node its reports are
            shipped to (``D_{c,j}`` is measured to it).
    """

    comm_cost: float = 0.0
    beta: float = 0.0
    objective: float = 0.0
    aggregation_points: Dict[str, str] = field(default_factory=dict)
