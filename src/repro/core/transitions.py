"""Consistent reconfiguration (Section 9, "Consistent configurations").

The optimization re-runs every few minutes; pushing new hash-range
configurations to many shims is not atomic, so a naive switch can leave
a window where a session's hash range is owned by nobody (the old
owner already switched, the new owner hasn't) — dropped coverage — or
the reverse, duplicated work.

The paper sketches two remedies, both implemented here:

- :class:`OverlapTransition` — the domain-specific solution: during
  the transient, every node honors the *union* of its old and new
  rules. Work may be duplicated but coverage never drops, and once all
  nodes acknowledge, the old rules are retired.
- :class:`TwoPhaseCommit` — the classic distributed-systems solution:
  a coordinator prepares all shims, and only commits the switch once
  every participant has voted yes; any abstention/abort rolls back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.shim.config import ShimConfig
from repro.shim.table import RuleTable


def union_config(old: ShimConfig, new: ShimConfig) -> ShimConfig:
    """A transient config honoring both the old and new rule sets.

    Rules are concatenated old-first; the shim's first-match semantics
    mean a packet owned under either configuration is acted on. (The
    paper: "the NIDS nodes continue to honor both the previous and new
    configurations during the transient period. This may potentially
    duplicate some work, but ensures correctness.")

    The union is the two rule tables end to end, so no rule objects
    are made; grouped by class, its rows give old's classes then
    new's, and within a class old's rules then new's.
    """
    if old.node != new.node:
        raise ValueError(
            f"cannot union configs of different nodes "
            f"({old.node!r} vs {new.node!r})")
    return ShimConfig.from_table(
        old.node, RuleTable.concat([old.table(), new.table()]))


class TransitionPhase(enum.Enum):
    """Lifecycle of an overlap transition."""

    IDLE = "idle"
    OVERLAPPING = "overlapping"   # nodes run old+new
    COMPLETE = "complete"         # everyone acknowledged; new only


class OverlapTransition:
    """Coordinates an old->new configuration rollout with overlap.

    Usage::

        t = OverlapTransition(old_configs, new_configs)
        t.begin()                       # every node now runs the union
        t.acknowledge("N1")             # as acks arrive...
        t.acknowledge("N2"); ...
        configs = t.active_configs()    # union until all acked,
                                        # then exactly the new configs
    """

    def __init__(self, old_configs: Dict[str, ShimConfig],
                 new_configs: Dict[str, ShimConfig]) -> None:
        if set(old_configs) != set(new_configs):
            raise ValueError("old and new configurations must cover "
                             "the same node set")
        self.old_configs = dict(old_configs)
        self.new_configs = dict(new_configs)
        self.phase = TransitionPhase.IDLE
        self._acknowledged: Set[str] = set()

    @property
    def pending_nodes(self) -> List[str]:
        """Nodes that have not yet acknowledged the new config."""
        return sorted(set(self.new_configs) - self._acknowledged)

    def begin(self) -> None:
        """Enter the overlap phase (push union configs everywhere)."""
        if self.phase is not TransitionPhase.IDLE:
            raise RuntimeError(f"cannot begin from phase {self.phase}")
        self.phase = TransitionPhase.OVERLAPPING

    def acknowledge(self, node: str) -> None:
        """Record that ``node`` has installed the new configuration."""
        if self.phase is not TransitionPhase.OVERLAPPING:
            raise RuntimeError("no transition in progress")
        if node not in self.new_configs:
            raise KeyError(f"unknown node {node!r}")
        self._acknowledged.add(node)
        if not self.pending_nodes:
            self.phase = TransitionPhase.COMPLETE

    def active_configs(self) -> Dict[str, ShimConfig]:
        """The configs every node should currently run.

        - IDLE: the old configuration.
        - OVERLAPPING: the old/new union at every node (even nodes
          that acknowledged keep the union until *all* have, so a
          laggard's old-range traffic still has its old owner).
        - COMPLETE: exactly the new configuration.
        """
        if self.phase is TransitionPhase.IDLE:
            return dict(self.old_configs)
        if self.phase is TransitionPhase.OVERLAPPING:
            return {node: union_config(self.old_configs[node],
                                       self.new_configs[node])
                    for node in self.new_configs}
        return dict(self.new_configs)


# -- two-phase commit ------------------------------------------------------


class ParticipantVote(enum.Enum):
    YES = "yes"
    NO = "no"


class CommitOutcome(enum.Enum):
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Participant:
    """One shim endpoint in the two-phase commit protocol.

    ``fails_prepare`` models a node that cannot install the staged
    configuration (e.g., unreachable or out of memory).
    """

    node: str
    fails_prepare: bool = False
    staged: Optional[ShimConfig] = None
    committed: Optional[ShimConfig] = None
    log: List[str] = field(default_factory=list)

    def prepare(self, config: ShimConfig) -> ParticipantVote:
        self.log.append("prepare")
        if self.fails_prepare:
            return ParticipantVote.NO
        self.staged = config
        return ParticipantVote.YES

    def commit(self) -> None:
        self.log.append("commit")
        if self.staged is None:
            raise RuntimeError(f"{self.node}: commit without prepare")
        self.committed = self.staged
        self.staged = None

    def abort(self) -> None:
        self.log.append("abort")
        self.staged = None


class TwoPhaseCommit:
    """Coordinator: all-or-nothing configuration switch.

    Unlike :class:`OverlapTransition` there is no duplicated work, but
    a single unreachable node blocks the whole rollout — which is why
    the paper prefers the domain-specific overlap for this setting.
    """

    def __init__(self, participants: Iterable[Participant]) -> None:
        self.participants = list(participants)
        names = [p.node for p in self.participants]
        if len(set(names)) != len(names):
            raise ValueError("duplicate participant nodes")

    def execute(self, new_configs: Dict[str, ShimConfig]
                ) -> CommitOutcome:
        """Run prepare on everyone, then commit or abort."""
        missing = {p.node for p in self.participants} - set(new_configs)
        if missing:
            raise ValueError(f"no new config for nodes {sorted(missing)}")
        votes = {p.node: p.prepare(new_configs[p.node])
                 for p in self.participants}
        if all(v is ParticipantVote.YES for v in votes.values()):
            for participant in self.participants:
                participant.commit()
            return CommitOutcome.COMMITTED
        for participant in self.participants:
            participant.abort()
        return CommitOutcome.ABORTED
