"""Per-node NIDS agents: config mailboxes and install semantics.

Each PoP's shim is represented by a :class:`NodeAgent` that the
simulated control plane talks to through :class:`ConfigMessage`
deliveries. The agent owns the node's *actual* running configuration
— which, because messages propagate with delay and loss, can lag the
controller's notion of "current". The emulation ground truth replays
each epoch against :meth:`NodeAgent.effective_config`, so the transient
windows the paper worries about (Section 9, "Consistent
configurations") are visible in measured coverage, not just asserted.

Each message kind is one step of a Section 9 protocol run by
:class:`~repro.runtime.rollout.RolloutDriver`:

- ``INSTALL`` — switch to the new config immediately (bootstrap and
  structural rollouts, where there is no old config worth honoring).
- ``OVERLAP_INSTALL`` / ``RETIRE`` — the overlap protocol: on install
  the agent runs the *union* of its running and new rules; on retire it
  drops the old half.
- ``PREPARE`` / ``COMMIT`` / ``ABORT`` — two-phase commit: prepare
  stages without activating (voting NO when the staged config exceeds
  the agent's rule capacity), commit switches atomically per node.
- ``DELTA_INSTALL`` / ``DELTA_RETIRE`` — incremental rollouts: the
  controller ships only the rule-level difference from the previous
  epoch (:mod:`repro.shim.diff`). Installs are added to the running
  table (growing it, overlap-style, so coverage never drops);
  retires are applied only after the driver saw every node
  acknowledge. An agent with *no* running table refuses a delta
  (``ok=False``) — there is nothing to patch — and the driver falls
  back to a full install for that node.

Dead agents (see :mod:`repro.runtime.faults`) acknowledge nothing;
the channel's retransmission timer keeps trying until recovery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.shim.config import ShimConfig, union_config
from repro.shim.diff import ConfigDelta, apply_delta


class MessageKind(enum.Enum):
    """Control-plane message types an agent understands."""

    INSTALL = "install"
    OVERLAP_INSTALL = "overlap-install"
    RETIRE = "retire"
    PREPARE = "prepare"
    COMMIT = "commit"
    ABORT = "abort"
    DELTA_INSTALL = "delta-install"
    DELTA_RETIRE = "delta-retire"


@dataclass(frozen=True)
class ConfigMessage:
    """One config-distribution message addressed to one node.

    ``version`` is the controller's rollout generation; retransmitted
    duplicates share a version, so agents can apply idempotently.
    Full-table messages carry ``config``; incremental messages carry
    ``delta`` instead.
    """

    kind: MessageKind
    version: int
    node: str
    config: Optional[ShimConfig] = None
    delta: Optional[ConfigDelta] = None


@dataclass(frozen=True)
class Ack:
    """An agent's acknowledgement of an applied message."""

    node: str
    version: int
    kind: MessageKind
    ok: bool
    time: float


@dataclass
class MailboxEntry:
    """One delivered message, for timeline accounting."""

    time: float
    message: ConfigMessage
    applied: bool


class NodeAgent:
    """The control-plane endpoint at one NIDS node.

    Args:
        name: node name.
        capacity: finite per-resource capacity ``Cap_j^r`` (used by the
            scenario accounting to normalize measured work).
        config: the initially running configuration, if any.
        rule_capacity: maximum installable rule count; a config (or
            union) exceeding it is refused — the agent acks ``ok=False``
            or votes NO, modeling the paper's unreachable/out-of-memory
            participant.
    """

    def __init__(self, name: str, capacity: Dict[str, float],
                 config: Optional[ShimConfig] = None,
                 rule_capacity: Optional[int] = None) -> None:
        self.name = name
        self.capacity = dict(capacity)
        self.alive = True
        self.rule_capacity = rule_capacity
        self._active: Optional[ShimConfig] = config
        self._overlap_new: Optional[ShimConfig] = None
        self._staged: Optional[ShimConfig] = None
        #: ``(active, overlap_new, their union)`` of the last transient
        self._union: Optional[Tuple[ShimConfig, ShimConfig,
                                    ShimConfig]] = None
        self._applied_versions: Dict[MessageKind, int] = {}
        self.mailbox: List[MailboxEntry] = []
        self.installs = 0

    # -- liveness ---------------------------------------------------------

    def fail(self) -> None:
        """The node dies: it stops processing messages. Its installed
        configuration is lost (appliances reboot clean)."""
        self.alive = False
        self._active = None
        self._overlap_new = None
        self._staged = None

    def recover(self, config: Optional[ShimConfig] = None) -> None:
        """Bring the node back, optionally with a baseline config."""
        self.alive = True
        self._active = config

    # -- what the data plane runs ----------------------------------------

    def effective_config(self) -> Optional[ShimConfig]:
        """The configuration the node's shim currently enforces.

        During an overlap transient this is the old/new union; a dead
        node enforces nothing. An agent whose tables did not change
        returns the same object, so callers may compare by identity.
        """
        if not self.alive:
            return None
        active, new = self._active, self._overlap_new
        if new is None:
            return active
        if active is None:
            return new
        memo = self._union
        if memo is None or memo[0] is not active or memo[1] is not new:
            memo = self._union = (active, new,
                                  union_config(active, new))
        return memo[2]

    @property
    def running_rules(self) -> int:
        config = self.effective_config()
        return config.num_rules if config is not None else 0

    def _fits(self, config: ShimConfig) -> bool:
        return (self.rule_capacity is None or
                config.num_rules <= self.rule_capacity)

    # -- message handling -------------------------------------------------

    def deliver(self, message: ConfigMessage, now: float
                ) -> Optional[Ack]:
        """Apply one message; returns the ack, or ``None`` when dead.

        Duplicate deliveries of an already-applied (kind, version) are
        re-acked without re-applying, so lossy-channel retransmissions
        are harmless.
        """
        if not self.alive:
            return None
        if message.node != self.name:
            raise ValueError(
                f"message for {message.node!r} delivered to "
                f"{self.name!r}")
        already = self._applied_versions.get(message.kind)
        if already is not None and already >= message.version:
            self.mailbox.append(MailboxEntry(now, message, False))
            return Ack(self.name, message.version, message.kind,
                       True, now)
        ok = self._apply(message)
        if ok:
            self._applied_versions[message.kind] = message.version
        self.mailbox.append(MailboxEntry(now, message, ok))
        return Ack(self.name, message.version, message.kind, ok, now)

    def _apply(self, message: ConfigMessage) -> bool:
        kind = message.kind
        if kind is MessageKind.INSTALL:
            if message.config is None or not self._fits(message.config):
                return False
            self._active = message.config
            self._overlap_new = None
            self.installs += 1
            return True
        if kind is MessageKind.OVERLAP_INSTALL:
            if message.config is None:
                return False
            union_rules = message.config.num_rules + (
                self._active.num_rules if self._active else 0)
            if (self.rule_capacity is not None and
                    union_rules > self.rule_capacity):
                return False
            self._overlap_new = message.config
            self.installs += 1
            return True
        if kind is MessageKind.RETIRE:
            if self._overlap_new is not None:
                self._active = self._overlap_new
                self._overlap_new = None
            return True
        if kind is MessageKind.PREPARE:
            if message.config is None or not self._fits(message.config):
                return False
            self._staged = message.config
            return True
        if kind is MessageKind.COMMIT:
            if self._staged is None:
                return False
            self._active = self._staged
            self._staged = None
            self.installs += 1
            return True
        if kind is MessageKind.ABORT:
            self._staged = None
            return True
        if kind is MessageKind.DELTA_INSTALL:
            if message.delta is None or self._active is None:
                # No base table to patch (fresh/recovered node):
                # refuse so the driver falls back to a full install.
                return False
            grown = apply_delta(
                self._active,
                ConfigDelta(node=self.name,
                            installs=message.delta.installs))
            if not self._fits(grown):
                return False
            self._active = grown
            self.installs += 1
            return True
        if kind is MessageKind.DELTA_RETIRE:
            if message.delta is None:
                return False
            if self._active is not None:
                self._active = apply_delta(
                    self._active,
                    ConfigDelta(node=self.name,
                                retires=message.delta.retires))
            return True
        raise ValueError(f"unknown message kind {kind!r}")


def build_agents(node_capacity: Dict[str, Dict[str, float]],
                 configs: Optional[Dict[str, ShimConfig]] = None,
                 rule_capacity: Optional[int] = None
                 ) -> Dict[str, NodeAgent]:
    """One agent per node of a ``{resource: {node: cap}}`` capacity map."""
    nodes = sorted({node for caps in node_capacity.values()
                    for node in caps})
    agents = {}
    for node in nodes:
        capacity = {resource: caps[node]
                    for resource, caps in node_capacity.items()
                    if node in caps}
        config = configs.get(node) if configs else None
        agents[node] = NodeAgent(node, capacity, config,
                                 rule_capacity=rule_capacity)
    return agents
