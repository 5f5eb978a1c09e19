"""Per-node shim configurations compiled from LP solutions.

The management engine (Section 7.1) turns each formulation's fractional
decisions into hash-range rules and ships every node the rules that
concern it. Three builders cover the three formulations:

- :func:`build_replication_configs` — Section 4: per-class session-hash
  ranges for local processing and for replication to mirrors.
- :func:`build_split_configs` — Section 5: ranges laid out so that
  forward and reverse directions act consistently (bidirectional
  semantics): the locally-processed prefix of the hash space is shared,
  and each direction's offload ranges extend it, so a session is fully
  covered exactly when its hash is below ``min(cov_fwd, cov_rev)`` —
  realizing Eq (10) operationally.
- :func:`build_aggregation_configs` — Section 6: per-*source* hash
  ranges (the source-level split of Figure 8), plus which node
  aggregates.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core.inputs import NetworkState
from repro.core.results import (
    AggregationResult,
    FractionTable,
    ReplicationResult,
    SplitTrafficResult,
)
from repro.obs import get_registry
from repro.shim.budget import (BudgetedLowering, LoweredRows,
                               RowLowering, budgeted_hash_ranges)
from repro.shim.ranges import HashRange
from repro.shim.table import (ACTIONS, MODES, HashMode, RuleTable,
                              ShimAction, ShimRule)


class ShimConfig:
    """All rules installed at one node, stored as one
    :class:`~repro.shim.table.RuleTable` (:meth:`table`).

    ``ShimConfig(node, rules)`` encodes rule objects once; the builders
    below hand each node a slice of theirs (:meth:`from_table`).
    ``rules``, what the scalar oracle reads, is a read-only view made
    from the table when first read. Equality is by value.
    """

    def __init__(self, node: str,
                 rules: Mapping[str, Sequence[ShimRule]]) -> None:
        self.node = node
        self._table = RuleTable.from_rules(node, rules)
        self._rules: Optional[Dict[str, Tuple[ShimRule, ...]]] = None

    @classmethod
    def from_table(cls, node: str, table: RuleTable) -> "ShimConfig":
        config = cls.__new__(cls)
        config.node, config._table, config._rules = node, table, None
        return config

    def __repr__(self) -> str:
        return f"ShimConfig(node={self.node!r}, rules={dict(self.rules)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShimConfig):
            return NotImplemented
        return self.node == other.node and self.rules == other.rules

    def table(self) -> RuleTable:
        """This node's rules as columns."""
        return self._table

    @property
    def rules(self) -> Mapping[str, Tuple[ShimRule, ...]]:
        """The rules as objects, grouped by class in row order."""
        if self._rules is None:
            self._rules = self._table.rules()
        return MappingProxyType(self._rules)

    def rules_for(self, class_name: str) -> Sequence[ShimRule]:
        return self.rules.get(class_name, ())

    def decide(self, class_name: str, hash_value: float,
               direction: str = "fwd") -> Optional[ShimRule]:
        """First rule matching a packet, or None (ignore)."""
        for rule in self.rules_for(class_name):
            if rule.matches(hash_value, direction):
                return rule
        return None

    @property
    def num_rules(self) -> int:
        """Installable rule count — the exact quantity the runtime
        agents charge against ``rule_capacity``.

        Zero-width ranges can never match a packet (``contains`` is
        start-inclusive/end-exclusive), so they occupy no table entry
        and are not counted; builders avoid emitting them. Keeping
        this definition shared between compiler and agents is what
        makes "compiled within budget" imply "installable within
        budget".
        """
        return int(np.count_nonzero(self._table.end > self._table.start))


def union_config(old: ShimConfig, new: ShimConfig) -> ShimConfig:
    """A transient config honoring both the old and new rule sets.

    Rules are concatenated old-first; the shim's first-match semantics
    mean a packet owned under either configuration is acted on. (The
    paper, Section 9: "the NIDS nodes continue to honor both the
    previous and new configurations during the transient period. This
    may potentially duplicate some work, but ensures correctness.")

    The union is the two rule tables end to end: grouped by class,
    old's classes then new's, and within a class old's rules first.
    """
    if old.node != new.node:
        raise ValueError(
            f"cannot union configs of different nodes "
            f"({old.node!r} vs {new.node!r})")
    return ShimConfig.from_table(
        old.node, RuleTable.concat([old.table(), new.table()]))


def _record_budget_metrics(configs: Dict[str, ShimConfig],
                           errors: Iterable[float]) -> None:
    """Publish the budgeted-compile fidelity metrics.

    ``shim.coverage_error`` gets one sample per compiled layout (the
    Linf deviation of realized widths from the LP fractions) and
    ``shim.rules_per_node`` one sample per node (total rules across
    classes) — the two quantities a TCAM-bounded deployment watches.
    """
    metrics = get_registry()
    if not metrics.enabled:
        return
    for error in errors:
        metrics.observe("shim.coverage_error", error)
    for config in configs.values():
        metrics.observe("shim.rules_per_node", config.num_rules)


def build_replication_configs(
        state: NetworkState, result: ReplicationResult,
        budget: Optional[int] = None,
        lowerings: Optional[Dict[str, BudgetedLowering]] = None
        ) -> Dict[str, ShimConfig]:
    """Compile Section 4 decisions into per-node shim configs.

    For each class, lays out the ``p_{c,j}`` ranges first and the
    ``o_{c,j,j'}`` ranges after them (Section 7.1's two loops), then
    installs each range at the node that must act on it. All classes
    are laid out at once (:class:`~repro.shim.budget.LoweredRows` over
    the result's fraction table) and expanded into one
    :class:`~repro.shim.table.RuleTable`, sorted by node, then class,
    then a class's own ranges before the PROCESS copies a mirror gets
    for what is replicated to it; every node's config is its slice.

    Args:
        budget: optional per-class rule budget — at most ``budget``
            ranges are emitted per class (so no node installs more
            than ``budget`` rules for any class), their widths
            approximating the LP fractions
            (:mod:`repro.shim.budget`). ``None`` reproduces the
            exact, unbounded lowering.
        lowerings: when provided, filled with each class's
            :class:`~repro.shim.budget.BudgetedLowering` so callers
            can inspect the quantified coverage error.

    Raises:
        ValueError: when a class's fractions cannot be laid out (a
            negative or non-finite fraction, a sum off 1), naming the
            class.
    """
    return _table_configs(state, result.fraction_table(
        cls.name for cls in state.classes), budget, lowerings)


def _table_configs(state: NetworkState, fractions: FractionTable,
                   budget: Optional[int],
                   lowerings: Optional[Dict[str, BudgetedLowering]],
                   hash_mode: HashMode = HashMode.SESSION
                   ) -> Dict[str, ShimConfig]:
    """Lay out every row of ``fractions`` and give each node its slice
    of the resulting rule table."""
    layout = fractions.layout
    classes = layout.class_names

    def describe(row: int, slot: Optional[int]) -> str:
        return f"class {classes[row]!r}" + (
            "" if slot is None else
            f" key {layout.row_keys(row)[slot]!r}")

    lowered = LoweredRows(fractions.matrix(), budget, describe=describe)
    row, slot = np.nonzero(lowered.keep)
    at = layout.slots[row, slot]
    mirror = layout.mirror[at]
    copies = np.flatnonzero(mirror >= 0)
    # A class's own ranges, then — for the replicated ones — the
    # mirror's PROCESS copy: the target must process what it receives.
    position = {name: index
                for index, name in enumerate(state.nids_nodes)}
    place = np.array([position.get(name, -1)
                      for name in layout.node_names], dtype=np.int64)
    node = place[np.concatenate((layout.node[at], mirror[copies]))]
    if (node < 0).any():
        raise KeyError(layout.node_names[
            int(np.flatnonzero(place < 0)[0])])
    at, row, slot = (np.concatenate((column, column[copies]))
                     for column in (at, row, slot))
    copy = np.arange(len(at), dtype=np.int64) >= len(at) - len(copies)
    order = np.lexsort((copy, row, node))
    at, row, slot, node, copy = (
        column[order] for column in (at, row, slot, node, copy))
    replicating = ~copy & (layout.mirror[at] >= 0)
    both = np.zeros(len(at), dtype=np.int64)
    table = RuleTable(
        tuple(state.nids_nodes), classes, layout.keys,
        node=node, cls=row, start=lowered.starts[row, slot],
        end=lowered.ends[row, slot],
        action=np.where(replicating, ACTIONS.index(ShimAction.REPLICATE),
                        ACTIONS.index(ShimAction.PROCESS)),
        target=np.where(replicating, place[layout.mirror[at]], -1),
        direction=both, mode=both + MODES.index(hash_mode),
        key=layout.key[at])
    bounds = np.searchsorted(
        node, np.arange(len(position) + 1, dtype=np.int64))
    configs = {
        name: ShimConfig.from_table(
            name, table.take(slice(bounds[index], bounds[index + 1])))
        for name, index in position.items()}
    if lowerings is not None:
        lowerings.update(
            (name, RowLowering(lowered, index, layout.row_keys))
            for index, name in enumerate(classes))
    if budget is not None:
        _record_budget_metrics(configs, lowered.error_linf.tolist())
    return configs


def build_split_configs(
        state: NetworkState, result: SplitTrafficResult,
        budget: Optional[int] = None,
        lowerings: Optional[Dict[str, BudgetedLowering]] = None
        ) -> Dict[str, ShimConfig]:
    """Compile Section 5 decisions with bidirectional semantics.

    Layout per class: ``p`` ranges occupy ``[0, sum_p)`` and apply to
    both directions; each direction's offload ranges extend from
    ``sum_p`` independently. A session hash below
    ``min(cov_fwd, cov_rev)`` therefore has both its directions
    analyzed at a single location (a common node or the datacenter).

    Args:
        budget: optional per-class-per-direction rule budget. The
            shared local prefix is lowered within ``budget`` ranges;
            each direction's offload tail then gets whatever is left
            of the budget after the shared rules (a direction's
            rule table is shared + its own offloads). A fully
            consumed budget drops that direction's offloads entirely
            — split coverage is partial by design, so this trades
            coverage, not correctness.
        lowerings: filled per compiled segment — key ``cls`` for the
            shared prefix, ``cls:fwd`` / ``cls:rev`` for the
            direction tails.
    """
    dc = state.dc_node
    rules: Dict[str, Dict[str, List[ShimRule]]] = {
        node: {} for node in state.nids_nodes}
    recorded: Dict[str, BudgetedLowering] = {}
    for cls in state.classes:
        process = result.process_fractions.get(cls.name, {})
        shared: List[Tuple[tuple, float]] = []
        for node in sorted(process):
            shared.append((("process", node), process[node]))
        shared_lowering = budgeted_hash_ranges(
            shared, budget, require_full_coverage=False)
        shared_ranges = shared_lowering.ranges
        recorded[cls.name] = shared_lowering
        local_total = sum(rng.width for rng in shared_ranges)

        for rng in shared_ranges:
            _, node = rng.key
            rules[node].setdefault(cls.name, []).append(
                ShimRule(cls.name, rng, ShimAction.PROCESS,
                         direction="both"))

        tail_budget = (None if budget is None
                       else budget - len(shared_ranges))
        for direction, offloads in (("fwd", result.fwd_offloads),
                                    ("rev", result.rev_offloads)):
            fractions = offloads.get(cls.name, {})
            entries = [(("replicate", node),
                        max(0.0, min(fractions[node],
                                     1.0 - local_total)))
                       for node in sorted(fractions)]
            if tail_budget is not None and tail_budget < 1:
                continue  # shared prefix consumed the whole budget
            tail = budgeted_hash_ranges(
                entries, tail_budget, require_full_coverage=False)
            recorded[f"{cls.name}:{direction}"] = tail
            for offset_rng in tail.ranges:
                _, node = offset_rng.key
                rng = HashRange(offset_rng.key,
                                local_total + offset_rng.start,
                                min(1.0,
                                    local_total + offset_rng.end))
                if rng.end <= rng.start:
                    continue
                rules[node].setdefault(cls.name, []).append(
                    ShimRule(cls.name, rng, ShimAction.REPLICATE,
                             target=dc, direction=direction))
                if dc is not None:
                    rules[dc].setdefault(cls.name, []).append(
                        ShimRule(cls.name, rng, ShimAction.PROCESS,
                                 direction=direction))
    configs = {node: ShimConfig(node, found) for node, found in rules.items()}
    if lowerings is not None:
        lowerings.update(recorded)
    if budget is not None:
        _record_budget_metrics(configs, (
            lowering.error_linf for lowering in recorded.values()))
    return configs


def build_aggregation_configs(
        state: NetworkState, result: AggregationResult,
        hash_mode: HashMode = HashMode.SOURCE,
        budget: Optional[int] = None,
        lowerings: Optional[Dict[str, BudgetedLowering]] = None
        ) -> Dict[str, ShimConfig]:
    """Compile Section 6 decisions: per-source (or per-destination)
    counting ranges for each on-path node.

    ``budget``/``lowerings`` behave as in
    :func:`build_replication_configs` (at most ``budget`` counting
    ranges per class, realized widths approximating the fractions).
    """
    return _table_configs(
        state, FractionTable.from_dicts(
            [cls.name for cls in state.classes],
            result.process_fractions, {}),
        budget, lowerings, hash_mode)
