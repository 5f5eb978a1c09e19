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
  nothing. The comparison is one sort of both sides' table rows, and
  a delta is rows too.
- :func:`apply_delta` — replays a delta onto the old config by the
  same row comparison; the result is bit-identical (after canonical
  ordering) to the freshly compiled new config, which is the
  property the diff-equivalence tests pin.
- :func:`canonical_config` — the canonical rule ordering (by class,
  then range position, then action/target/direction/hash mode).
  Within one (node, class, direction) bucket compiled ranges are
  disjoint, so re-ordering never changes first-match semantics.

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
from repro.shim.config import ShimConfig
from repro.shim.table import ACTIONS, DIRECTIONS, MODES, RuleTable

_NO_ROWS = RuleTable.from_rules("", {})


def _canonical_keys(table: RuleTable) -> List[np.ndarray]:
    """``np.lexsort`` keys for the canonical order: class, start, end,
    then the action, target (none: ``""``), direction and mode names."""
    def named(names: Sequence[str], codes: np.ndarray) -> np.ndarray:
        used, at = np.unique(codes, return_inverse=True)
        return np.array([names[c] for c in used.tolist()], dtype=str)[at]

    return [named([mode.value for mode in MODES], table.mode),
            named(DIRECTIONS, table.direction),
            named([*table.node_names, ""], table.target),
            named([action.value if action else "" for action in ACTIONS],
                  table.action),
            table.end, table.start, named(table.class_names, table.cls)]


def canonical_config(config: ShimConfig) -> ShimConfig:
    """The config with its rules in canonical order.

    Compiled rule sets are disjoint within each (class, direction,
    hash-field) bucket, so sorting by range position preserves
    first-match semantics while making configs comparable by ``==``.
    """
    table = config.table()
    return ShimConfig.from_table(
        config.node, table.take(np.lexsort(_canonical_keys(table))))


@dataclass(frozen=True, eq=False)
class ConfigDelta:
    """The rule-level difference between two configs of one node.

    ``installs``/``retires`` are that node's rule-table rows in
    canonical order. An empty delta means the node's table is
    already exact — the rollout can skip it entirely.
    """

    node: str
    installs: RuleTable = field(default=_NO_ROWS)
    retires: RuleTable = field(default=_NO_ROWS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfigDelta):
            return NotImplemented
        return (self.node, self.installs.rules(), self.retires.rules()) \
            == (other.node, other.installs.rules(), other.retires.rules())

    @property
    def num_rules(self) -> int:
        """Total rules this delta moves over the channel."""
        return len(self.installs) + len(self.retires)

    @property
    def is_empty(self) -> bool:
        return not self.installs and not self.retires


def _same_rows(table: RuleTable, columns: Sequence[str]
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's run of equal rows (on ``columns`` and both bounds'
    bit patterns, -0.0 made +0.0), and each run's first row."""
    keys = np.stack([getattr(table, name) for name in columns] + [
        (bound + 0.0).view(np.int64) for bound in (table.start, table.end)])
    order = np.lexsort(keys)
    ordered = keys[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    run = np.empty(len(order), dtype=np.int64)
    run[order] = np.cumsum(first) - 1
    return run, order[first]


#: what makes a row one rule, beside its node and bounds
_RULE = ("cls", "action", "target", "direction", "mode", "key")


def _deltas(old: Sequence[ShimConfig], new: Sequence[ShimConfig],
            nodes: Sequence[str]) -> Dict[str, ConfigDelta]:
    """Each node's delta: the distinct rows of ``new`` no config of
    ``old`` at that node has (installs), and the reverse (retires)."""
    tables = [config.table() for config in (*old, *new)]
    table = RuleTable.concat(tables)
    is_new = np.arange(len(table), dtype=np.int64) >= sum(
        len(part) for part in tables[:len(old)])
    run, heads = _same_rows(table, ("node",) + _RULE)
    seen_new = np.bincount(run, weights=is_new) > 0
    seen_old = np.bincount(run, weights=~is_new) > 0
    changed: List[Dict[str, RuleTable]] = []
    for rows in (heads[seen_new & ~seen_old],
                 heads[seen_old & ~seen_new]):
        picked = table.take(rows)
        picked = picked.take(np.lexsort(_canonical_keys(picked)))
        changed.append({
            table.node_names[node]: picked.take(picked.node == node)
            for node in np.unique(picked.node).tolist()})
    installs, retires = changed
    return {node: ConfigDelta(node, installs.get(node, _NO_ROWS),
                              retires.get(node, _NO_ROWS))
            for node in nodes}


def diff_config(old: ShimConfig, new: ShimConfig) -> ConfigDelta:
    """Minimum INSTALL/RETIRE rule sets turning ``old`` into ``new``.

    Raises:
        ValueError: when the configs belong to different nodes.
    """
    if old.node != new.node:
        raise ValueError(
            f"cannot diff configs of different nodes "
            f"({old.node!r} vs {new.node!r})")
    return _deltas([old], [new], [old.node])[old.node]


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
    deltas = _deltas(list(old.values()), list(new.values()),
                     sorted(set(old) | set(new)))
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
    parts = (config.table(), delta.retires, delta.installs)
    table = RuleTable.concat(parts)
    run, _ = _same_rows(table, _RULE)
    source = np.repeat(np.arange(3, dtype=np.int64),
                       [len(part) for part in parts])
    retired = np.bincount(run, weights=source == 1) > 0
    kept = (source == 0) & ~retired[run]
    present = np.bincount(run, weights=kept) > 0
    # Each install once (its first row), unless a kept rule equals it.
    fresh = np.flatnonzero((source == 2) & ~present[run])
    kept[fresh[np.unique(run[fresh], return_index=True)[1]]] = True
    return canonical_config(ShimConfig.from_table(
        config.node, table.take(kept)))
