"""The compiled batch decision kernel (vectorized shim fast path).

A :class:`~repro.shim.shim.Shim` decides one packet at a time: classify,
hash, walk the class's rule list. This module lowers a whole network's
:class:`~repro.shim.config.ShimConfig` set into flat numpy tables —
per (node, class, direction) sorted range-boundary arrays with parallel
action/target columns — and resolves process/replicate/ignore for an
entire observation batch with ``np.searchsorted``.

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

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.shim.config import HashMode, ShimAction, ShimConfig

# Action codes in the kernel's output column.
ACTION_IGNORE = 0
ACTION_PROCESS = 1
ACTION_REPLICATE = 2

_DIRECTIONS = ((0, "fwd"), (1, "rev"))


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


@dataclass
class _RuleTable:
    """Sorted, disjoint ranges for one (node, class, direction)."""

    mode: HashMode
    starts: np.ndarray   # float64, ascending
    ends: np.ndarray     # float64, parallel to starts
    actions: np.ndarray  # int8 (ACTION_PROCESS / ACTION_REPLICATE)
    targets: np.ndarray  # int32 mirror-node index, -1 for PROCESS


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
        self._tables: Dict[int, _RuleTable] = {}
        self.modes_used: Set[HashMode] = set()
        for node, config in configs.items():
            if node not in self._node_index:
                continue
            self._compile_node(self._node_index[node], config)

    def _group_key(self, node_id: int, class_id: int,
                   dir_id: int) -> int:
        return (node_id * self._num_classes + class_id) * 2 + dir_id

    def _compile_node(self, node_id: int, config: ShimConfig) -> None:
        for class_name, rules in config.rules.items():
            class_id = self._class_index.get(class_name)
            if class_id is None:
                continue  # no packet in the batch can carry this class
            for dir_id, dir_name in _DIRECTIONS:
                entries: List[_Entry] = []
                modes = set()
                for rule in rules:
                    if rule.direction not in ("both", dir_name):
                        continue
                    rng = rule.hash_range
                    if rng.end <= rng.start:
                        continue  # zero-width: contains() never True
                    modes.add(rule.hash_mode)
                    if rule.action is ShimAction.PROCESS:
                        action, target = ACTION_PROCESS, -1
                    else:
                        action = ACTION_REPLICATE
                        target = self._node_index[rule.target]
                    entries.append((rng.start, rng.end, action, target))
                if not entries:
                    continue
                if len(modes) > 1:
                    raise UnsupportedShimConfig(
                        f"node {config.node!r} class {class_name!r} "
                        f"mixes hash modes {sorted(m.value for m in modes)}")
                rows = sorted(entries, key=lambda e: (e[0], e[1]))
                if any(after[0] < before[1]
                       for before, after in zip(rows, rows[1:])):
                    rows = _first_match_wins(entries)
                mode = modes.pop()
                self.modes_used.add(mode)
                self._tables[self._group_key(node_id, class_id, dir_id)] = \
                    _RuleTable(mode=mode,
                               starts=np.array([e[0] for e in rows],
                                               dtype=np.float64),
                               ends=np.array([e[1] for e in rows],
                                             dtype=np.float64),
                               actions=np.array([e[2] for e in rows],
                                                dtype=np.int8),
                               targets=np.array([e[3] for e in rows],
                                                dtype=np.int32))

    @property
    def num_tables(self) -> int:
        return len(self._tables)

    @property
    def max_table_rules(self) -> int:
        """Largest compiled (node, class, direction) range table —
        the per-table occupancy a TCAM rule budget bounds. Budgeted
        configs (``build_*_configs(budget=B)``) always lower to
        tables of at most ``B`` rows."""
        return max((len(table.starts)
                    for table in self._tables.values()), default=0)

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

        The observations are grouped by (node, class, direction) with a
        stable argsort; each group present in the batch is resolved in
        one ``searchsorted`` against its compiled table, using the
        table's *original* float boundaries so the comparison semantics
        (``start <= h < end``) are exactly the scalar
        ``HashRange.contains``.
        """
        count = len(node_ids)
        actions = np.zeros(count, dtype=np.int8)
        targets = np.full(count, -1, dtype=np.int32)
        if count == 0:
            return actions, targets
        node_ids = np.asarray(node_ids, dtype=np.int64)
        class_ids = np.asarray(class_ids, dtype=np.int64)
        directions = np.asarray(directions, dtype=np.int64)
        keys = np.where(
            class_ids >= 0,
            (node_ids * self._num_classes + class_ids) * 2 + directions,
            -1)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        group_keys, firsts = np.unique(sorted_keys, return_index=True)
        bounds = np.append(firsts, count)
        for gi, key in enumerate(group_keys):
            if key < 0:
                continue
            table = self._tables.get(int(key))
            if table is None:
                continue
            members = order[firsts[gi]:bounds[gi + 1]]
            values = hash_columns[table.mode][members]
            pos = np.searchsorted(table.starts, values,
                                  side="right") - 1
            inside = pos >= 0
            pos_clipped = np.where(inside, pos, 0)
            inside &= values < table.ends[pos_clipped]
            hits = members[inside]
            actions[hits] = table.actions[pos_clipped[inside]]
            targets[hits] = table.targets[pos_clipped[inside]]
        return actions, targets


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
