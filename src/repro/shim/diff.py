"""Incremental shim-config diffs: minimum INSTALL/RETIRE deltas.

Between controller epochs most of the hash-range layout is unchanged
— traffic drifts a few percent, the LP re-solve moves a few fractions
— yet the rollout machinery historically re-shipped every node its
*full* table. This module computes the exact rule-level difference
between two compiled :class:`~repro.shim.config.ShimConfig` sets:

- :func:`diff_config` / :func:`diff_configs` — the minimum set of
  rules to INSTALL (in new, not in old) and RETIRE (in old, not in
  new), per node. Rules are compared by value (class, exact range
  bounds and key, action, target, direction, hash mode), so an
  unchanged fraction whose range compiled to identical floats ships
  nothing. The comparison runs on the configs' rule tables — one
  sort of both sides' rows — and rule objects are made only for the
  rows that differ.
- :func:`apply_delta` — replays a delta onto the old config; the
  result is bit-identical (after canonical ordering) to the freshly
  compiled new config, which is the property the diff-equivalence
  tests pin.
- :func:`canonical_config` — the canonical rule ordering (sorted
  per class by range position, then action/target/direction). Within
  one (node, class, direction) bucket compiled ranges are disjoint,
  so re-ordering never changes first-match semantics.

The D-NIDS line of work motivates this: reconfiguration churn is the
operational cost of network-wide balancing, and the vulnerable
mid-rollout window shrinks with the traffic a rollout has to move.
The :class:`~repro.runtime.rollout.RolloutDriver` ``delta`` strategy
ships these deltas with overlap semantics (installs first, retires
only after every node acknowledged), so coverage never drops while
strictly fewer rules cross the control channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.obs import get_registry
from repro.shim.config import ShimConfig, ShimRule
from repro.shim.table import RuleTable


def _rule_sort_key(rule: ShimRule) -> Tuple:
    return (rule.hash_range.start, rule.hash_range.end,
            rule.action.value, rule.target or "", rule.direction,
            rule.hash_mode.value)


def canonical_config(config: ShimConfig) -> ShimConfig:
    """The config with every class's rules in canonical order.

    Compiled rule sets are disjoint within each (class, direction,
    hash-field) bucket, so sorting by range position preserves
    first-match semantics while making configs comparable by ``==``.
    """
    return ShimConfig(
        node=config.node,
        rules={cls: sorted(rules, key=_rule_sort_key)
               for cls, rules in sorted(config.rules.items())
               if rules})


@dataclass(frozen=True)
class ConfigDelta:
    """The rule-level difference between two configs of one node.

    ``installs``/``retires`` are (class_name, rule) pairs in
    canonical order. An empty delta means the node's table is
    already exact — the rollout can skip it entirely.
    """

    node: str
    installs: Tuple[Tuple[str, ShimRule], ...] = field(default=())
    retires: Tuple[Tuple[str, ShimRule], ...] = field(default=())

    @property
    def num_rules(self) -> int:
        """Total rules this delta moves over the channel."""
        return len(self.installs) + len(self.retires)

    @property
    def is_empty(self) -> bool:
        return not self.installs and not self.retires


def _changed_rules(old: Sequence[ShimConfig],
                   new: Sequence[ShimConfig]
                   ) -> Tuple[Dict[str, List[Tuple[str, ShimRule]]],
                              Dict[str, List[Tuple[str, ShimRule]]]]:
    """``(installs, retires)`` per node: the distinct rules of ``new``
    no config of ``old`` at that node has, and the reverse, each in
    canonical order.

    Both sides' rows are sorted together on every column (a float
    boundary by its bit pattern, +0.0 and -0.0 made one first); a run
    of equal rows seen on one side only is a changed rule.
    """
    tables = [config.table() for config in (*old, *new)]
    table = RuleTable.concat(tables)
    is_new = np.arange(len(table), dtype=np.int64) >= sum(
        len(part) for part in tables[:len(old)])
    columns = [getattr(table, name) for name in (
        "node", "cls", "action", "target", "direction", "mode", "key")]
    columns += [(bound + 0.0).view(np.int64)
                for bound in (table.start, table.end)]
    order = np.lexsort(columns)
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for column in columns:
        column = column[order]
        first[1:] |= column[1:] != column[:-1]
    run = np.cumsum(first) - 1
    seen_new = np.bincount(run, weights=is_new[order]) > 0
    seen_old = np.bincount(run, weights=~is_new[order]) > 0
    heads = order[first]
    changed: List[Dict[str, List[Tuple[str, ShimRule]]]] = []
    for rows in (heads[seen_new & ~seen_old],
                 heads[seen_old & ~seen_new]):
        picked = table.take(rows)
        per_node: Dict[str, List[Tuple[str, ShimRule]]] = {}
        for node, rule in zip(picked.node.tolist(), picked.rule_list()):
            per_node.setdefault(table.node_names[node], []).append(
                (rule.class_name, rule))
        for rules in per_node.values():
            rules.sort(key=lambda item: (item[0],
                                         _rule_sort_key(item[1])))
        changed.append(per_node)
    return changed[0], changed[1]


def diff_config(old: ShimConfig, new: ShimConfig) -> ConfigDelta:
    """Minimum INSTALL/RETIRE rule sets turning ``old`` into ``new``.

    Raises:
        ValueError: when the configs belong to different nodes.
    """
    if old.node != new.node:
        raise ValueError(
            f"cannot diff configs of different nodes "
            f"({old.node!r} vs {new.node!r})")
    installs, retires = _changed_rules([old], [new])
    return ConfigDelta(node=old.node,
                       installs=tuple(installs.get(old.node, ())),
                       retires=tuple(retires.get(old.node, ())))


def diff_configs(old: Mapping[str, ShimConfig],
                 new: Mapping[str, ShimConfig]
                 ) -> Dict[str, ConfigDelta]:
    """Per-node deltas for a whole network's epoch transition.

    Nodes only in ``new`` diff against an empty table (pure install);
    nodes only in ``old`` get a pure-retire delta. Publishes the
    rollout-churn metrics: ``rollout.delta_rules`` (rules the deltas
    move) and ``rollout.delta_fraction`` (that count relative to
    re-shipping the new tables whole).
    """
    installs, retires = _changed_rules(list(old.values()),
                                       list(new.values()))
    deltas = {node: ConfigDelta(node=node,
                                installs=tuple(installs.get(node, ())),
                                retires=tuple(retires.get(node, ())))
              for node in sorted(set(old) | set(new))}
    metrics = get_registry()
    if metrics.enabled:
        delta_rules = sum(d.num_rules for d in deltas.values())
        full_rules = sum(cfg.num_rules for cfg in new.values())
        metrics.observe("rollout.delta_rules", delta_rules)
        if full_rules > 0:
            metrics.observe("rollout.delta_fraction",
                            delta_rules / full_rules)
    return deltas


def apply_delta(config: ShimConfig, delta: ConfigDelta) -> ShimConfig:
    """Replay ``delta`` onto ``config``; returns the canonical result.

    Retires remove by value (a retire for an absent rule is a no-op,
    so replayed deltas are idempotent); installs add by value without
    duplicating rules already present. ``apply_delta(old,
    diff_config(old, new))`` equals ``canonical_config(new)``.

    Raises:
        ValueError: when the delta addresses a different node.
    """
    if config.node != delta.node:
        raise ValueError(
            f"delta for {delta.node!r} applied to {config.node!r}")
    rules: Dict[str, List[ShimRule]] = {
        cls: list(existing) for cls, existing in config.rules.items()}
    for cls, rule in delta.retires:
        kept = [r for r in rules.get(cls, []) if r != rule]
        if kept:
            rules[cls] = kept
        else:
            rules.pop(cls, None)
    for cls, rule in delta.installs:
        bucket = rules.setdefault(cls, [])
        if rule not in bucket:
            bucket.append(rule)
    return canonical_config(ShimConfig(node=config.node, rules=rules))
