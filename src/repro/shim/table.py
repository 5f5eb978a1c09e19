"""The rule table: a set of shim rules as parallel columns.

What the management engine installs is a table (Section 7.1) — per
node, per class, a handful of hash ranges each with an action — and
the table, not the rule object, is what gets sized, compared and
searched. :class:`RuleTable` holds one as columns, a row per rule in
install order::

    node  cls  start  end  action  target  direction  mode  key

``node``/``target`` index ``node_names`` (``target`` is -1 unless the
rule replicates), ``cls`` indexes ``class_names``, ``key`` indexes
``keys`` (the :class:`~repro.shim.ranges.HashRange` keys); ``action``,
``direction`` and ``mode`` index :data:`ACTIONS`, :data:`DIRECTIONS`
and :data:`MODES`. ``start``/``end`` are the float boundaries exactly
as laid out — never rescaled or folded into another key, so a
comparison against them is the scalar ``HashRange.contains``.

A :class:`~repro.shim.config.ShimConfig` is one such table (a builder
hands every node a slice of its own); the differ, the deltas, the
unions, the batch kernel and ``num_rules`` read rows. Only the scalar
oracle reads :class:`ShimRule` objects, which :meth:`RuleTable.rules`
makes from rows; :meth:`RuleTable.from_rules` goes the other way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (Dict, Hashable, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.shim.ranges import HashRange


class ShimAction(enum.Enum):
    """What a shim does with a matching packet."""

    PROCESS = "process"
    REPLICATE = "replicate"


class HashMode(enum.Enum):
    """Which field the range membership is computed over."""

    SESSION = "session"   # canonical bidirectional 5-tuple hash
    SOURCE = "source"     # per-source split (aggregation)
    DESTINATION = "destination"


@dataclass(frozen=True)
class ShimRule:
    """One hash-range rule installed at one node.

    Attributes:
        class_name: traffic class the rule applies to.
        hash_range: the owned slice of hash space.
        action: process locally or replicate.
        target: mirror node for replication rules.
        direction: ``"both"``, ``"fwd"`` or ``"rev"`` — split-traffic
            rules act on one direction only.
        hash_mode: field the hash is computed over.
    """

    class_name: str
    hash_range: HashRange
    action: ShimAction
    target: Optional[str] = None
    direction: str = "both"
    hash_mode: HashMode = HashMode.SESSION

    def matches(self, hash_value: float, direction: str) -> bool:
        """True when a packet with this hash/direction hits the rule."""
        if self.direction != "both" and direction != self.direction:
            return False
        return self.hash_range.contains(hash_value)


#: column codes; 0 is "ignore" in the batch kernel's action column
ACTIONS = (None, ShimAction.PROCESS, ShimAction.REPLICATE)
DIRECTIONS = ("both", "fwd", "rev")
MODES = tuple(HashMode)

_INT_COLUMNS = ("node", "cls", "action", "target", "direction", "mode",
                "key")
_COLUMNS = _INT_COLUMNS + ("start", "end")
#: vocabulary -> the columns coded in it
_VOCABULARIES = (("node_names", ("node", "target")),
                 ("class_names", ("cls",)), ("keys", ("key",)))


class RuleTable:
    """Rules as columns; see the module docstring."""

    __slots__ = ("node_names", "class_names", "keys") + _COLUMNS

    def __init__(self, node_names: Tuple[str, ...],
                 class_names: Tuple[str, ...],
                 keys: Tuple[Hashable, ...],
                 **columns: np.ndarray) -> None:
        self.node_names = node_names
        self.class_names = class_names
        self.keys = keys
        for name in _COLUMNS:
            setattr(self, name, columns[name])

    def __len__(self) -> int:
        return len(self.start)

    def take(self, rows: "slice | np.ndarray") -> "RuleTable":
        """The given rows (a slice gives views, an index copies)."""
        return RuleTable(
            self.node_names, self.class_names, self.keys,
            **{name: getattr(self, name)[rows] for name in _COLUMNS})

    # -- objects <-> rows --------------------------------------------------

    @classmethod
    def from_rules(cls, node: str,
                   rules: Mapping[str, Sequence[ShimRule]]
                   ) -> "RuleTable":
        """One node's rule objects, encoded in dict and list order."""
        nodes: Dict[str, int] = {node: 0}
        classes: Dict[str, int] = {}
        keys: Dict[Hashable, int] = {}
        columns: Dict[str, list] = {name: [] for name in _COLUMNS}
        for class_name, bucket in rules.items():
            for rule in bucket:
                columns["node"].append(0)
                columns["cls"].append(
                    classes.setdefault(class_name, len(classes)))
                columns["start"].append(rule.hash_range.start)
                columns["end"].append(rule.hash_range.end)
                columns["action"].append(ACTIONS.index(rule.action))
                columns["target"].append(
                    -1 if rule.target is None else
                    nodes.setdefault(rule.target, len(nodes)))
                columns["direction"].append(
                    DIRECTIONS.index(rule.direction))
                columns["mode"].append(MODES.index(rule.hash_mode))
                columns["key"].append(keys.setdefault(
                    rule.hash_range.key, len(keys)))
        return cls(tuple(nodes), tuple(classes), tuple(keys), **{
            name: np.array(values, dtype=np.int64
                           if name in _INT_COLUMNS else np.float64)
            for name, values in columns.items()})

    def rules(self) -> Dict[str, Tuple[ShimRule, ...]]:
        """The rows as ``ShimConfig.rules``: rule objects grouped by
        class, classes and rules in row order."""
        classes, nodes, keys = self.class_names, self.node_names, \
            self.keys
        grouped: Dict[str, List[ShimRule]] = {}
        for cls, key, start, end, action, target, direction, mode in zip(
                *(getattr(self, name).tolist() for name in (
                    "cls", "key", "start", "end", "action", "target",
                    "direction", "mode"))):
            grouped.setdefault(classes[cls], []).append(ShimRule(
                classes[cls], HashRange(keys[key], start, end),
                ACTIONS[action], None if target < 0 else nodes[target],
                DIRECTIONS[direction], MODES[mode]))
        return {name: tuple(bucket) for name, bucket in grouped.items()}

    # -- several tables as one ---------------------------------------------

    @classmethod
    def concat(cls, tables: Sequence["RuleTable"]) -> "RuleTable":
        """The tables' rows end to end, coded in one vocabulary: the
        shared one when they agree, else just the names the rows use."""
        if not tables:
            return cls.from_rules("", {})
        recoded: Dict[str, List[np.ndarray]] = {
            name: [getattr(table, name) for table in tables]
            for name in _COLUMNS}
        vocabularies = []
        # An empty table has no codes, so its vocabulary cannot clash.
        live = [table for table in tables if len(table)] or tables
        for attribute, coded in _VOCABULARIES:
            names = getattr(live[0], attribute)
            if any(getattr(table, attribute) is not names
                   and getattr(table, attribute) != names
                   for table in live):
                code: Dict[Hashable, int] = {}
                for position, table in enumerate(tables):
                    vocabulary = getattr(table, attribute)
                    used = np.unique(np.concatenate(
                        [getattr(table, name) for name in coded]))
                    used = used[used >= 0]
                    # -1 (no target) maps to -1: it reads the last slot.
                    remap = np.full(len(vocabulary) + 1, -1, dtype=np.int64)
                    remap[used] = [code.setdefault(vocabulary[at], len(code))
                                   for at in used.tolist()]
                    for name in coded:
                        recoded[name][position] = \
                            remap[recoded[name][position]]
                names = tuple(code)
            vocabularies.append(names)
        return cls(*vocabularies, **{
            name: np.concatenate(parts)
            for name, parts in recoded.items()})
