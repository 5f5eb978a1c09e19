"""Config distribution: lossy delayed channel + staged rollouts.

Pushing a new assignment to every shim is not atomic (Section 9). This
module models the push: a :class:`ConfigChannel` with per-message
propagation delay, jitter-induced reordering, loss, and
timeout-retransmission; and a :class:`RolloutDriver` that moves a
controller refresh through one of four strategies:

- ``overlap`` — the paper's preferred transition: ship
  ``OVERLAP_INSTALL`` (node runs old+new union), and once every node
  acknowledged, ship ``RETIRE``. Coverage never drops; duplicated work
  during the transient is measured, not assumed.
- ``delta`` — the same protocol on rule-level differences
  (:mod:`repro.shim.diff`): each node receives only the rules its
  table gains, installed first (the running table only grows, so
  coverage never drops), and the rules it loses after every node
  acknowledged. Nodes whose tables are already exact are skipped
  outright; a node that cannot patch (e.g. rebooted clean) refuses
  and takes the ``overlap`` path instead. Strictly fewer rules cross
  the channel on steady drift, shrinking both rollout traffic and the
  vulnerable transient window.
- ``two-phase`` — classic 2PC (``PREPARE``/``COMMIT``): no duplicated
  work, but per-node commit instants differ, so hash ranges that moved
  between nodes are transiently unowned — the coverage gap the paper
  warns about, made observable.
- ``direct`` — fire-and-forget ``INSTALL``, used for bootstrap and
  structural (node-set-changing) rollouts where there is no old
  configuration worth honoring.

:class:`CoverageTracker` is the accounting half: given the *actually
installed* per-node configs at any instant, it computes each class's
covered fraction of hash space and the duplicated-work fraction, both
traffic-weighted — the quantities the scenario timeline records during
transient windows — re-deriving only the classes whose observers'
configs changed since the last instant. :func:`coverage_report` is its
one-shot form.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs import get_registry
from repro.runtime.agents import (
    Ack,
    ConfigMessage,
    MessageKind,
    NodeAgent,
)
from repro.runtime.events import EventLoop
from repro.shim.config import ShimConfig
from repro.shim.diff import ConfigDelta, diff_configs
from repro.traffic.classes import TrafficClass


@dataclass(frozen=True)
class ChannelSpec:
    """Propagation model for the controller-to-shim channel.

    Args:
        base_delay: minimum one-way latency in simulated seconds.
        jitter: extra uniform latency in ``[0, jitter)`` — unequal
            draws reorder messages sent back-to-back.
        loss: per-message drop probability (forward path; acks ride a
            reliable path, retransmission covers lost installs).
        retransmit_timeout: how long the sender waits for an ack
            before re-sending.
        max_retries: retransmissions per message before giving up
            (a node dead longer than ``max_retries * timeout`` misses
            the rollout; the next refresh will cover it).
    """

    base_delay: float = 1.0
    jitter: float = 0.0
    loss: float = 0.0
    retransmit_timeout: float = 10.0
    max_retries: int = 50

    def __post_init__(self) -> None:
        if self.base_delay < 0 or self.jitter < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        if self.retransmit_timeout <= 0:
            raise ValueError("retransmit_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")


#: stable per-kind indices for the keyed message RNG (enum definition
#: order; appending new kinds keeps old keys stable)
_KIND_INDEX = {kind: index for index, kind in enumerate(MessageKind)}


class ConfigChannel:
    """Seeded message transport between controller and agents.

    All randomness (latency draws, loss coin-flips) is *keyed*, not
    streamed: every ``(message, attempt)`` derives its own generator
    from ``(channel seed, node, version, kind, attempt)``, counter-mode
    style. A shared generator consumed in dispatch order would make
    delivery schedules depend on how same-timestamp events happen to
    be ordered — exactly the seq-tie-break race ``repro racecheck``
    perturbs for — whereas keyed draws give every retransmission the
    same coin flips no matter which of its same-instant siblings fired
    first. Replays with the same channel seed produce the identical
    delivery schedule under *any* legal event ordering.
    """

    def __init__(self, spec: ChannelSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = int(seed)
        self.sent = 0
        self.lost = 0
        self.retransmits = 0

    def _message_rng(self, message: ConfigMessage,
                     attempt: int) -> np.random.Generator:
        """The keyed generator for one delivery attempt."""
        node_key = zlib.crc32(message.node.encode("utf-8"))
        return np.random.default_rng(
            [self.seed & 0xFFFFFFFF, node_key, message.version,
             _KIND_INDEX[message.kind], attempt])

    def _latency(self, rng: np.random.Generator) -> float:
        if self.spec.jitter <= 0:
            return self.spec.base_delay
        return self.spec.base_delay + float(
            rng.uniform(0.0, self.spec.jitter))

    def send(self, loop: EventLoop, agent: NodeAgent,
             message: ConfigMessage,
             on_ack: Callable[[Ack], None],
             _attempt: int = 0) -> None:
        """Ship one message; ``on_ack`` fires when the ack returns.

        Lost messages and deliveries to dead nodes are retransmitted
        after the timeout, up to ``max_retries`` attempts.
        """
        self.sent += 1
        if _attempt > 0:
            self.retransmits += 1
            get_registry().inc("runtime.channel.retransmits")

        # All three draws happen up front from the keyed stream so a
        # delivery's fate is fixed at send time, independent of how
        # same-instant events interleave.
        rng = self._message_rng(message, _attempt)
        dropped = (self.spec.loss > 0 and
                   float(rng.random()) < self.spec.loss)
        latency = self._latency(rng)
        ack_latency = self._latency(rng)

        def _retry() -> None:
            if _attempt < self.spec.max_retries:
                self.send(loop, agent, message, on_ack,
                          _attempt=_attempt + 1)

        if dropped:
            self.lost += 1
            get_registry().inc("runtime.channel.lost")
            loop.schedule_in(self.spec.retransmit_timeout, _retry)
            return

        def _deliver() -> None:
            ack = agent.deliver(message, loop.now)
            if ack is None:  # dead node: wait and re-send
                loop.schedule_in(self.spec.retransmit_timeout, _retry)
                return
            loop.schedule_in(ack_latency, lambda: on_ack(ack))

        loop.schedule_in(latency, _deliver)


class RolloutOutcome(enum.Enum):
    IN_FLIGHT = "in-flight"
    COMPLETED = "completed"
    ABORTED = "aborted"


@dataclass
class RolloutSession:
    """Progress record of one rollout through the channel."""

    version: int
    strategy: str
    started_at: float
    completed_at: Optional[float] = None
    retired_at: Optional[float] = None
    outcome: RolloutOutcome = RolloutOutcome.IN_FLIGHT
    acked_nodes: Set[str] = field(default_factory=set)
    refused_nodes: Set[str] = field(default_factory=set)
    #: rules carried by the messages this rollout sent (full tables
    #: for install/overlap/prepare, rule-level deltas for the delta
    #: strategy) — the churn a rollout puts on the control channel.
    rules_shipped: int = 0
    #: rules *installed* into agent tables (shipped minus retires —
    #: the table-write churn; for full-table strategies the two
    #: counts coincide).
    rules_installed: int = 0
    #: delta strategy only: total install+retire rules across nodes.
    delta_rules: Optional[int] = None
    #: delta strategy only: rules a full-table rollout would ship.
    full_rules: Optional[int] = None
    #: delta-strategy nodes that refused the patch and were re-sent
    #: their full table.
    fallback_nodes: Set[str] = field(default_factory=set)

    @property
    def latency(self) -> Optional[float]:
        """Simulated seconds from start to completion."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


class RolloutDriver:
    """Runs rollouts over a channel, one strategy per driver."""

    STRATEGIES = ("overlap", "two-phase", "direct", "delta")

    def __init__(self, channel: ConfigChannel,
                 strategy: str = "overlap") -> None:
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; "
                f"choose from {self.STRATEGIES}")
        self.channel = channel
        self.strategy = strategy
        self._version = 0

    def start(self, loop: EventLoop, agents: Dict[str, NodeAgent],
              configs: Dict[str, ShimConfig],
              previous: Optional[Dict[str, ShimConfig]] = None,
              on_complete: Optional[Callable[[RolloutSession],
                                             None]] = None
              ) -> RolloutSession:
        """Begin distributing ``configs`` to ``agents``.

        ``previous`` (``Rollout.previous``, from
        :meth:`NIDSController.refresh`) is the configuration the
        ``overlap`` and ``delta`` strategies transition from;
        bootstrap/structural pushes (``previous is None``) always go
        direct.
        """
        self._version += 1
        strategy = self.strategy
        if previous is None and strategy in ("overlap", "delta"):
            strategy = "direct"
        session = RolloutSession(version=self._version,
                                 strategy=strategy,
                                 started_at=loop.now)
        targets = sorted(set(configs) & set(agents))

        def send(kind: MessageKind, node: str,
                 on_ack: Callable[[Ack], None],
                 config: Optional[ShimConfig] = None,
                 delta: Optional[ConfigDelta] = None) -> None:
            rules = (config.num_rules if config is not None
                     else delta.num_rules if delta is not None else 0)
            session.rules_shipped += rules
            # retired rules cross the channel but fill no table
            if kind is not MessageKind.DELTA_RETIRE:
                session.rules_installed += rules
            self.channel.send(loop, agents[node], ConfigMessage(
                kind, session.version, node, config, delta), on_ack)

        def finish(outcome: RolloutOutcome) -> None:
            session.outcome = outcome
            session.completed_at = loop.now
            metrics = get_registry()
            metrics.observe("runtime.rollout.seconds",
                            session.completed_at - session.started_at)
            metrics.inc("runtime.rollouts")
            if on_complete is not None:
                on_complete(session)

        if strategy == "direct":
            _run_direct(configs, targets, session, send, finish)
        elif strategy == "two-phase":
            _run_two_phase(configs, targets, session, send, finish)
        else:
            assert previous is not None
            _run_overlap(loop, configs, previous, targets, session, send,
                         finish)
        return session


# -- strategies ------------------------------------------------------------

#: ``send(kind, node, on_ack, config=None, delta=None)``: ship one
#: message of the session and book the rules it carries
_Send = Callable[..., None]
_Finish = Callable[[RolloutOutcome], None]


def _run_direct(configs: Dict[str, ShimConfig], targets: Sequence[str],
                session: RolloutSession, send: _Send,
                finish: _Finish) -> None:
    def on_ack(ack: Ack) -> None:
        if not ack.ok:
            session.refused_nodes.add(ack.node)
        session.acked_nodes.add(ack.node)
        if len(session.acked_nodes) == len(targets) and \
                session.completed_at is None:
            finish(RolloutOutcome.COMPLETED)

    for node in targets:
        send(MessageKind.INSTALL, node, on_ack, config=configs[node])
    if not targets:
        finish(RolloutOutcome.COMPLETED)


def _run_overlap(loop: EventLoop, configs: Dict[str, ShimConfig],
                 previous: Dict[str, ShimConfig], targets: Sequence[str],
                 session: RolloutSession, send: _Send,
                 finish: _Finish) -> None:
    """Install beside the old rules, and retire those only after every
    node acknowledged, so no hash point loses its owner mid-rollout.

    A node on the full path gets its whole table as ``OVERLAP_INSTALL``
    (it runs old ∪ new) and then a ``RETIRE`` that keeps the new half:
    every node under ``overlap``. Under ``delta`` a node starts on the
    patch path instead — ``DELTA_INSTALL`` of the rules its table
    gains, then ``DELTA_RETIRE`` of those it loses — is skipped when
    its table is already exact, and moves to the full path when it
    refuses the patch.
    """
    full: Set[str] = set(targets)
    deltas: Dict[str, ConfigDelta] = {}
    if session.strategy == "delta":
        full = set()
        deltas = diff_configs(
            {node: previous[node] for node in targets
             if node in previous},
            {node: configs[node] for node in targets})
        session.delta_rules = sum(d.num_rules for d in deltas.values())
        session.full_rules = sum(configs[node].num_rules
                                 for node in targets)
    unretired: Set[str] = set()

    def on_retire_ack(ack: Ack) -> None:
        unretired.discard(ack.node)
        if not unretired and session.retired_at is None:
            session.retired_at = loop.now

    def acknowledge(node: str) -> None:
        if node in session.acked_nodes:
            return
        session.acked_nodes.add(node)
        if len(session.acked_nodes) < len(targets) or \
                session.completed_at is not None:
            return
        finish(RolloutOutcome.COMPLETED)
        # Every node runs the new rules; the old ones can go.
        unretired.update(session.acked_nodes)
        for node in sorted(session.acked_nodes):
            if node in full:
                send(MessageKind.RETIRE, node, on_retire_ack)
            elif deltas[node].retires:
                send(MessageKind.DELTA_RETIRE, node, on_retire_ack,
                     delta=ConfigDelta(node=node,
                                       retires=deltas[node].retires))
            else:
                on_retire_ack(Ack(node, session.version,
                                  MessageKind.DELTA_RETIRE, True,
                                  loop.now))

    def on_ack(ack: Ack) -> None:
        if ack.ok:
            acknowledge(ack.node)
        elif ack.node in full:
            # A refused full install keeps the rollout open.
            session.refused_nodes.add(ack.node)
        else:
            # The node could not patch (no base table, or the grown
            # table overflows capacity): it takes the full path.
            full.add(ack.node)
            session.fallback_nodes.add(ack.node)
            send(MessageKind.OVERLAP_INSTALL, ack.node, on_ack,
                 config=configs[ack.node])

    for node in targets:
        if node in full:
            send(MessageKind.OVERLAP_INSTALL, node, on_ack,
                 config=configs[node])
        elif deltas[node].is_empty:
            acknowledge(node)  # the table is already exact
        else:
            send(MessageKind.DELTA_INSTALL, node, on_ack,
                 delta=ConfigDelta(node=node,
                                   installs=deltas[node].installs))
    if not targets:
        finish(RolloutOutcome.COMPLETED)


def _run_two_phase(configs: Dict[str, ShimConfig],
                   targets: Sequence[str], session: RolloutSession,
                   send: _Send, finish: _Finish) -> None:
    votes: Dict[str, bool] = {}

    def on_commit_ack(ack: Ack) -> None:
        if not ack.ok:
            # Nothing staged to commit: the node lost its prepared
            # table (it rebooted between the phases) and runs nothing
            # new.
            session.refused_nodes.add(ack.node)
        session.acked_nodes.add(ack.node)
        if len(session.acked_nodes) == len(targets) and \
                session.completed_at is None:
            finish(RolloutOutcome.COMPLETED)

    def on_vote(ack: Ack) -> None:
        if ack.node in votes:
            return
        votes[ack.node] = ack.ok
        if not ack.ok:
            session.refused_nodes.add(ack.node)
        if len(votes) < len(targets):
            return
        if all(votes.values()):
            for node in targets:
                send(MessageKind.COMMIT, node, on_commit_ack)
        else:
            for node in targets:
                send(MessageKind.ABORT, node, lambda ack: None)
            finish(RolloutOutcome.ABORTED)

    for node in targets:
        send(MessageKind.PREPARE, node, on_vote, config=configs[node])
    if not targets:
        finish(RolloutOutcome.COMPLETED)


# -- coverage accounting ---------------------------------------------------


@dataclass
class CoverageReport:
    """Hash-space ownership at one instant, per class and aggregate.

    ``coverage`` is the traffic-weighted fraction of (class, hash)
    space owned by at least one on-path rule; ``duplication`` the
    traffic-weighted fraction owned more than once (extra work beyond
    single ownership, e.g. during an overlap transient).
    """

    class_coverage: Dict[str, float]
    class_duplication: Dict[str, float]
    coverage: float
    duplication: float

    @property
    def gap(self) -> float:
        """1 - coverage: the transiently unprotected traffic share."""
        return 1.0 - self.coverage


class CoverageTracker:
    """Hash-space ownership of a fixed class list, kept incrementally.

    Per running config the tracker keeps the rows coverage needs as
    arrays: tracker class, the node's position among the class's
    observers, and the ``(start, end)`` of every positive-width rule,
    in rule order, for the classes the node observes (a mirror's
    PROCESS copy of a replicated range is backed by the on-path
    REPLICATE rule that feeds it, and rules of classes the tracker
    does not know count for nothing). :meth:`update` finds the nodes
    whose config *object* differs from the one they ran at the
    previous update — configs are values, agents replace them and
    never edit them, so identity is an exact change test — and
    re-measures every class one of them observes, all in one pass
    over those arrays. An update that finds every observer running the
    same object (an ack, a timer) returns the report it already holds.

    The floats are the ones a scalar reading of the rules gives, bit
    for bit, because every sum runs in the same order:

    - a class's owned mass ``total`` sums its intervals' widths one
      after another in (observer position, rule order);
    - its ``covered`` fraction sweeps its intervals in ``(start,
      end)`` order, closing a run of overlapping intervals where one
      starts beyond the furthest end so far, and sums the runs'
      lengths one after another, capped at 1; ``duplicated`` is
      ``max(0, total - covered)``;
    - the aggregate sums ``weight * covered`` (and ``weight *
      duplicated``) one class after another in class order.

    Each is a ``cumsum``: the per-class sums along the rows of a
    zero-padded grid (one row per stale class, a padding zero adds
    nothing), the aggregate over the class vector. ``cumsum`` adds in
    sequence; ``np.add.reduce`` and ``reduceat`` sum pairwise, so they
    would not give the same floats.

    Args:
        classes: current traffic classes (weights = session counts).
    """

    def __init__(self, classes: Sequence[TrafficClass]) -> None:
        self._names = [cls.name for cls in classes]
        self._class_index = {name: index
                             for index, name in enumerate(self._names)}
        if len(self._class_index) != len(self._names):
            raise ValueError("tracked class names must be unique")
        self._weights = np.array([cls.num_sessions for cls in classes],
                                 dtype=np.float64)
        self._total_weight = float(np.cumsum(self._weights)[-1]) \
            if len(classes) else 0.0
        # Only nodes that actually see the class's packets count
        # (forward or reverse path), in path order: the owned-mass sum
        # runs over these nodes' rules in this order. Per node, each
        # class's observer position, -1 where it does not observe it
        # (the extra last slot: a class the tracker does not know).
        observers = [dict.fromkeys((*cls.path, *cls.rev_nodes))
                     for cls in classes]
        counts = [len(nodes) for nodes in observers]
        self._max_observers = max(counts, default=1)
        flat = [node for nodes in observers for node in nodes]
        rows = {node: row for row, node in enumerate(dict.fromkeys(flat))}
        positions = np.full((len(rows), len(classes) + 1), -1,
                            dtype=np.int64)
        positions[[rows[node] for node in flat],
                  np.repeat(np.arange(len(classes)), counts)] = \
            np.arange(len(flat)) - np.repeat(
                np.cumsum(counts) - counts, counts)
        self._positions = {node: positions[row]
                           for node, row in rows.items()}
        self._observed_by = {node: np.flatnonzero(positions[row] >= 0)
                             for node, row in rows.items()}
        #: config class vocabulary -> tracker class (or the last slot);
        #: the configs of one compile share their vocabulary
        self._remaps: Dict[Tuple[str, ...], np.ndarray] = {}
        # No config anywhere: nothing covered, nothing duplicated.
        self._running: Dict[str, Optional[ShimConfig]] = {}
        self._rows: Dict[str, np.ndarray] = {}
        self._covered = np.zeros(len(classes))
        self._duplicated = np.zeros(len(classes))
        self._report: Optional[CoverageReport] = None

    def _node_rows(self, node: str, config: ShimConfig) -> np.ndarray:
        """The rows of ``config`` that count for coverage at ``node``,
        in rule order, as columns of ``[key, start, end]`` — ``key``
        is ``class * max observers + observer position``, exact as a
        float."""
        table = config.table()
        remap = self._remaps.get(table.class_names)
        if remap is None:
            unknown = len(self._names)
            remap = self._remaps[table.class_names] = np.array(
                [self._class_index.get(name, unknown)
                 for name in table.class_names], dtype=np.int64)
        cls = remap[table.cls]
        position = self._positions[node][cls]
        keep = np.flatnonzero((position >= 0) & (table.end > table.start))
        return np.stack((cls[keep] * self._max_observers + position[keep],
                         table.start[keep], table.end[keep]))

    def _measure(self, stale: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(classes, covered, duplicated)`` of the stale classes,
        re-derived from their observers' rows."""
        rows = np.concatenate([np.zeros((3, 0)), *self._rows.values()],
                              axis=1)
        keys = rows[0].astype(np.int64)
        cls = keys // self._max_observers
        keep = np.flatnonzero(stale[cls])
        keys, cls, start, end = (keys[keep], cls[keep], rows[1, keep],
                                 rows[2, keep])
        # One grid row per stale class, its intervals along it in one
        # of two orders; both are class-major, so the k-th interval of
        # either lands in the same cell.
        classes = np.flatnonzero(stale)
        counts = np.bincount(cls, minlength=len(stale))[classes]
        width = max(int(counts.max(initial=0)), 1)
        cell = (np.repeat(np.arange(len(classes)), counts),
                np.arange(len(keys)) - np.repeat(np.cumsum(counts)
                                                 - counts, counts))

        def grid(values: np.ndarray) -> np.ndarray:
            laid = np.zeros((len(classes), width))
            laid[cell] = values
            return laid

        by_observer = np.argsort(keys, kind="stable")
        total = np.cumsum(grid((end - start)[by_observer]),
                          axis=1)[:, -1]
        by_start = np.lexsort((end, start, cls))
        starts, ends = grid(start[by_start]), grid(end[by_start])
        present = np.arange(width) < counts[:, None]
        reach = np.maximum.accumulate(ends, axis=1)
        opens = present.copy()
        opens[:, 1:] &= starts[:, 1:] > reach[:, :-1]
        closes = present.copy()
        closes[:, :-1] &= opens[:, 1:] | ~present[:, 1:]
        # Runs open and close in turn along a row: the n-th open and
        # the n-th close in row-major order bound the same run.
        runs = np.zeros_like(reach)
        runs[closes] = reach[closes] - starts[opens]
        covered = np.minimum(np.cumsum(runs, axis=1)[:, -1], 1.0)
        excess = total - covered
        return classes, covered, np.where(excess > 0.0, excess, 0.0)

    def update(self, node_configs: Dict[str, Optional[ShimConfig]]
               ) -> CoverageReport:
        """The report under what each node is *actually* running now.

        Args:
            node_configs: ``NodeAgent.effective_config()`` per node;
                ``None`` or absent = the node enforces nothing.
        """
        stale = np.zeros(len(self._names), dtype=bool)
        for node, observed in self._observed_by.items():
            config = node_configs.get(node)
            if config is not self._running.get(node):
                self._running[node] = config
                if config is None:
                    del self._rows[node]
                else:
                    self._rows[node] = self._node_rows(node, config)
                stale[observed] = True
        recomputed = int(np.count_nonzero(stale))
        metrics = get_registry()
        metrics.inc("runtime.coverage.checks")
        metrics.inc("runtime.coverage.classes_recomputed", recomputed)
        report = self._report
        if report is not None and not recomputed:
            return report
        if report is None:
            class_coverage = dict.fromkeys(self._names, 0.0)
            class_duplication = dict(class_coverage)
        else:
            # Reports already handed out keep their own dicts.
            class_coverage = dict(report.class_coverage)
            class_duplication = dict(report.class_duplication)
        if recomputed:
            classes, covered, duplicated = self._measure(stale)
            self._covered[classes] = covered
            self._duplicated[classes] = duplicated
            names = [self._names[index] for index in classes.tolist()]
            class_coverage.update(zip(names, covered.tolist()))
            class_duplication.update(zip(names, duplicated.tolist()))

        if self._total_weight > 0:
            coverage = float(np.cumsum(
                self._weights * self._covered)[-1]) / self._total_weight
            duplication = float(np.cumsum(
                self._weights * self._duplicated)[-1]) / self._total_weight
        else:
            coverage, duplication = 1.0, 0.0
        self._report = CoverageReport(
            class_coverage=class_coverage,
            class_duplication=class_duplication,
            coverage=coverage,
            duplication=duplication)
        return self._report


def coverage_report(classes: Sequence[TrafficClass],
                    node_configs: Dict[str, Optional[ShimConfig]]
                    ) -> CoverageReport:
    """Measure ownership of the hash space under installed configs:
    the one-shot use of :class:`CoverageTracker`."""
    return CoverageTracker(classes).update(node_configs)
