"""The compiled batch decision kernel (vectorized shim fast path).

A :class:`~repro.shim.shim.Shim` decides one packet at a time: classify,
hash, walk the class's rule list. This module lowers a whole network's
:class:`~repro.shim.config.ShimConfig` set into one flat rule table —
every (node, class, direction)'s sorted, disjoint ranges laid end to
end in parallel start/end/action/target columns, behind a dense
(node, class, direction) -> table index — and resolves
process/replicate/ignore for an entire observation batch with one
vectorized binary search: the software twin of a TCAM range table,
one probe of one table per lookup.

The lowering is only valid when rule semantics reduce to range
membership: within one (node, class, direction) bucket every rule must
use the same hash field, so that "first match wins" can be resolved
ahead of time into "the unique owning range wins". The builders in
:mod:`repro.shim.config` emit disjoint ranges, which lower as they
are; overlapping ranges (the union rule-sets a rollout transition
installs) are first split at their boundaries and each piece given to
the earliest rule that contains it. A bucket mixing hash fields raises
:class:`UnsupportedShimConfig` and the caller falls back to the scalar
shim, which stays the correctness oracle.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.shim.config import HashMode, ShimConfig
from repro.shim.table import ACTIONS, MODES, RuleTable, ShimAction

# Action codes in the kernel's output column: the rule table's.
ACTION_IGNORE = 0
ACTION_PROCESS = ACTIONS.index(ShimAction.PROCESS)
ACTION_REPLICATE = ACTIONS.index(ShimAction.REPLICATE)


class UnsupportedShimConfig(ValueError):
    """The config cannot be lowered to disjoint range tables."""


_Entry = Tuple[float, float, int, int]  # start, end, action, target


def _first_match_wins(entries: Sequence[_Entry]) -> List[_Entry]:
    """Disjoint equivalent of an ordered, overlapping rule list.

    Splits [0, 1) at every original float boundary; each elementary
    interval lies wholly inside or outside every rule, and the earliest
    rule in list order containing it owns it — exactly what
    :meth:`~repro.shim.shim.Shim.handle` decides for a hash value
    there."""
    cuts = sorted({bound for start, end, _, _ in entries
                   for bound in (start, end)})
    disjoint: List[_Entry] = []
    for low, high in zip(cuts, cuts[1:]):
        for start, end, action, target in entries:
            if start <= low and high <= end:
                disjoint.append((low, high, action, target))
                break
    return disjoint


class BatchShimKernel:
    """All shim configs of one network, compiled for batch decisions.

    Args:
        configs: per-node shim configurations (the same dict the
            scalar :class:`~repro.shim.shim.Shim` instances consume).
        class_names: traffic-class names in index order; class ids in
            the observation batch refer to this list.
        node_order: node names in index order (observer and mirror
            indices refer to this list).
        hash_seed: the network-wide hash seed the ranges refer to.

    Raises:
        UnsupportedShimConfig: when any rule bucket mixes hash fields.
    """

    def __init__(self, configs: Dict[str, ShimConfig],
                 class_names: Sequence[str],
                 node_order: Sequence[str], hash_seed: int = 0) -> None:
        self.hash_seed = hash_seed
        self.node_order = tuple(node_order)
        self.class_names = tuple(class_names)
        self._node_index = {n: i for i, n in enumerate(self.node_order)}
        self._class_index = {c: i for i, c in enumerate(self.class_names)}
        self._num_classes = len(self.class_names)
        # Table ``t`` is rows ``first[t]:first[t + 1]`` of the flat
        # columns. The table after the last one is empty: the dense
        # index points there for a (node, class, direction) with no
        # rule, and its own last slot — where a class id of -1 is
        # sent — does too, so all of them resolve to "ignore". One
        # padding row keeps every probe of the columns in bounds.
        key, mode, rows = self._compile(RuleTable.concat(
            [config.table() for node, config in configs.items()
             if node in self._node_index]))
        keys, first = np.unique(key, return_index=True)
        self._num_tables = len(keys)
        self.modes_used: Set[HashMode] = {
            MODES[code] for code in np.unique(mode).tolist()}
        self._modes = sorted(self.modes_used, key=lambda m: m.value)
        self._table_of = np.full(
            len(self.node_order) * self._num_classes * 2 + 1,
            self._num_tables, dtype=np.int32)
        self._table_of[keys] = np.arange(self._num_tables,
                                         dtype=np.int32)
        self._first = np.concatenate(
            (first, [len(key), len(key)])).astype(np.int64)
        self._max_rules = int(np.diff(self._first).max())
        code = np.array([self._modes.index(member)
                         if member in self.modes_used else 0
                         for member in MODES], dtype=np.int8)
        self._mode_of = np.append(code[mode[first]], np.int8(0))
        self._starts = np.append(rows[0], np.inf)
        self._ends = np.append(rows[1], np.inf)
        self._actions = np.append(rows[2], ACTION_IGNORE).astype(np.int8)
        self._targets = np.append(rows[3], -1).astype(np.int32)

    def _compile(self, table: RuleTable
                 ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
        """``(dense key, hash mode, [start, end, action, target])``
        per live row of every (node, class, direction) table, tables
        in key order, each sorted and disjoint."""
        nodes = np.array([self._node_index.get(name, -1)
                          for name in table.node_names] + [-1],
                         dtype=np.int64)
        classes = np.array([self._class_index.get(name, -1)
                            for name in table.class_names],
                           dtype=np.int64)
        # A zero-width range never contains a hash; a class outside
        # the batch's list never shows up in it.
        live = ((table.end > table.start) & (classes[table.cls] >= 0)
                & (nodes[table.node] >= 0))
        picked = [np.flatnonzero(live & (table.direction != other))
                  for other in (2, 1)]  # fwd skips "rev", rev "fwd"
        at = np.concatenate(picked)
        key = (nodes[table.node[at]] * self._num_classes
               + classes[table.cls[at]]) * 2 + np.repeat(
                   np.arange(2, dtype=np.int64),
                   [len(rows) for rows in picked])
        target = nodes[table.target[at]]
        if (target[table.action[at] == ACTION_REPLICATE] < 0).any():
            raise KeyError("a rule replicates to a node outside "
                           "the kernel's node order")
        # Rule-list order within each table first (what first-match
        # needs), then by range position.
        listed = np.argsort(key, kind="stable")
        key, mode = key[listed], table.mode[at][listed]
        columns = [column[at][listed] for column in (
            table.start, table.end, table.action)] + [target[listed]]
        same = key[1:] == key[:-1]
        mixed = np.flatnonzero(same & (mode[1:] != mode[:-1]))
        if len(mixed):
            bucket = key == key[mixed[0]]
            node, class_id = divmod(int(key[mixed[0]]) // 2,
                                    self._num_classes)
            raise UnsupportedShimConfig(
                f"node {self.node_order[node]!r} class "
                f"{self.class_names[class_id]!r} mixes hash modes "
                f"{sorted(MODES[m].value for m in set(mode[bucket].tolist()))}")
        order = np.lexsort((columns[1], columns[0], key))
        ranked = [column[order] for column in columns]
        overlapping = np.unique(key[1:][
            same & (ranked[0][1:] < ranked[1][:-1])])
        if len(overlapping):
            keep = ~np.isin(key, overlapping)
            parts = [[column[keep]] for column in (key, mode, *ranked)]
            bounds = zip(np.searchsorted(key, overlapping, "left"),
                         np.searchsorted(key, overlapping, "right"))
            for bucket, (lo, hi) in zip(overlapping.tolist(), bounds):
                pieces = _first_match_wins(list(zip(*(
                    column[lo:hi].tolist() for column in columns))))
                for part, values in zip(parts, (
                        [bucket] * len(pieces),
                        [mode[lo]] * len(pieces), *zip(*pieces))):
                    part.append(np.array(values, dtype=part[0].dtype))
            key, mode, *ranked = (np.concatenate(part) for part in parts)
            order = np.argsort(key, kind="stable")
            key, mode = key[order], mode[order]
            ranked = [column[order] for column in ranked]
        return key, mode, ranked

    @property
    def num_tables(self) -> int:
        return self._num_tables

    @property
    def max_table_rules(self) -> int:
        """Largest compiled (node, class, direction) range table —
        the per-table occupancy a TCAM rule budget bounds. Budgeted
        configs (``build_*_configs(budget=B)``) always lower to
        tables of at most ``B`` rows."""
        return self._max_rules

    def decide(self, node_ids: np.ndarray, class_ids: np.ndarray,
               directions: np.ndarray,
               hash_columns: Dict[HashMode, np.ndarray]
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve a whole observation batch.

        Args:
            node_ids: observer-node index per observation.
            class_ids: traffic-class index per observation (-1 means
                unclassified — always ignored, like the scalar shim).
            directions: 0 (fwd) / 1 (rev) per observation.
            hash_columns: per hash mode in :attr:`modes_used`, the
                observation-aligned hash values in [0, 1).

        Returns:
            ``(actions, targets)`` — int8 action codes and int32 mirror
            node indices (-1 unless replicating), observation-aligned.

        Every observation looks up its table in the dense index and
        binary-searches that table's slice of the flat start column —
        all observations at once, in as many halving steps as the
        largest table needs. The comparisons use the tables' *original*
        float boundaries, unscaled (``start <= h < end``), so they are
        exactly the scalar ``HashRange.contains``: folding the table id
        into the boundary to search one sorted key would round it.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        class_ids = np.asarray(class_ids, dtype=np.int64)
        table = self._table_of[np.where(
            class_ids >= 0,
            (node_ids * self._num_classes + class_ids) * 2
            + np.asarray(directions, dtype=np.int64), -1)]
        if len(self._modes) == 1:
            values = hash_columns[self._modes[0]]
        else:
            values = np.zeros(len(table), dtype=np.float64)
            mode_of = self._mode_of[table]
            for code, mode in enumerate(self._modes):
                chosen = mode_of == code
                values[chosen] = hash_columns[mode][chosen]
        # Rows of the table with start <= h: [first, low) when done.
        # One halving step over every observation, the rest only over
        # those still searching: most tables hold a single range, and
        # the few deeper ones should not cost every lookup a step.
        first = self._first[table]
        low, high = self._halve(first, self._first[table + 1], values)
        open_ = np.flatnonzero(low < high) if self._max_rules > 1 else ()
        while len(open_):
            low[open_], high[open_] = self._halve(
                low[open_], high[open_], values[open_])
            open_ = open_[low[open_] < high[open_]]
        pos = low - 1
        inside = (pos >= first) & (values < self._ends[pos])
        actions = np.where(inside, self._actions[pos], ACTION_IGNORE)
        targets = np.where(inside, self._targets[pos], -1)
        return (actions.astype(np.int8, copy=False),
                targets.astype(np.int32, copy=False))


    def _halve(self, low: np.ndarray, high: np.ndarray,
               values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One binary-search step of ``[low, high)`` per lookup."""
        mid = (low + high) >> 1
        right = (low < high) & (self._starts[mid] <= values)
        return np.where(right, mid + 1, low), np.where(right, high, mid)


def delivery_nodes(actions: np.ndarray, targets: np.ndarray,
                   node_ids: np.ndarray) -> np.ndarray:
    """Node index each observation's packet is *delivered* to — the
    observer itself for PROCESS, the mirror for REPLICATE, -1 for
    ignore."""
    return np.where(
        actions == ACTION_PROCESS, node_ids,
        np.where(actions == ACTION_REPLICATE, targets, -1)
    ).astype(np.int64)


def accumulate_per_node(node_ids: np.ndarray, weights: np.ndarray,
                        num_nodes: int) -> np.ndarray:
    """Sum ``weights`` per node index with ``np.bincount``, skipping
    -1 entries (non-deliveries)."""
    mask = node_ids >= 0
    return np.bincount(node_ids[mask],
                       weights=np.asarray(weights, dtype=np.float64)[mask],
                       minlength=num_nodes)


class MirrorLinkIndex:
    """Precomputed node→mirror path-link indices for byte accounting.

    Replicated packets charge their bytes to every link on the
    node-to-mirror route. This index resolves each (node, mirror) pair
    to link ids once, then accumulates bytes per pair with
    ``np.bincount`` and fans the totals out onto the links.

    Args:
        routing: anything with ``path_links(src, dst) -> [Link]``.
        node_order: node names in kernel index order.
    """

    def __init__(self, routing, node_order: Sequence[str]) -> None:
        self._routing = routing
        self._node_order = tuple(node_order)
        self._paths: Dict[int, List] = {}

    def _pair_links(self, pair: int) -> List:
        links = self._paths.get(pair)
        if links is None:
            count = len(self._node_order)
            src = self._node_order[pair // count]
            dst = self._node_order[pair % count]
            links = list(self._routing.path_links(src, dst))
            self._paths[pair] = links
        return links

    def link_bytes(self, src_ids: np.ndarray, dst_ids: np.ndarray,
                   sizes: np.ndarray) -> Dict:
        """Per-link replicated bytes for a batch of replications."""
        totals: Dict = {}
        if len(src_ids) == 0:
            return totals
        count = len(self._node_order)
        pairs = (np.asarray(src_ids, dtype=np.int64) * count +
                 np.asarray(dst_ids, dtype=np.int64))
        unique_pairs, inverse = np.unique(pairs, return_inverse=True)
        per_pair = np.bincount(inverse,
                               weights=np.asarray(sizes, dtype=np.float64))
        for pair, volume in zip(unique_pairs, per_pair):
            for link in self._pair_links(int(pair)):
                totals[link] = totals.get(link, 0.0) + float(volume)
        return totals
