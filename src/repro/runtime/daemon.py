"""The long-running controller process (Figure 6, run over sim time).

:class:`ControllerDaemon` wraps :class:`~repro.core.controller.NIDSController`
with the operational policy the paper describes — "the optimization
[...] will be run periodically (e.g., every few minutes), or triggered
by routing and traffic changes" — and hands every refresh to a
:class:`~repro.runtime.rollout.RolloutDriver` for coverage-safe
distribution:

- **bootstrap** — the daemon's very first cycle (nothing deployed
  anywhere yet);
- **structural** — the topology changed under it (node/link faults):
  the warm incremental LP is useless because the variable universe
  changed, so the daemon rebuilds a fresh controller on the surviving
  state and pushes configs directly (there is no meaningful overlap
  across different node sets);
- **failover** — a regional controller died (sharded control plane):
  the planner merged the dead shard into a neighbor and the merged
  region must re-solve; the node universe is unchanged, so the
  rollout stays coverage-safe (overlap/delta);
- **periodic** — ``refresh_period`` simulated seconds elapsed;
- **drift** — :meth:`NIDSController.needs_refresh` fired on the
  traffic feed.

Trigger precedence is exactly that order. Structural and failover
pressure is *latched* (:meth:`replace_state` / :meth:`fail_region`
set a flag consumed by the next successful :meth:`step`), so
:meth:`refresh_reason` itself reports them — callers never need to
force a reason label from outside.

Within one topology epoch the controller's compiled LP stays warm, so
periodic and drift refreshes ride the incremental ``resolve()`` path
added in the formulation layer — the daemon measures and reports the
wall-clock solve latency either way (``runtime.solve.seconds``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence

from repro.core.controller import NIDSController, Rollout, SolvePlanner
from repro.core.inputs import NetworkState
from repro.core.mirrors import MirrorPolicy
from repro.obs import get_registry
from repro.runtime.agents import NodeAgent
from repro.runtime.events import EventLoop
from repro.runtime.rollout import RolloutDriver, RolloutSession
from repro.traffic.classes import TrafficClass


class TrafficEstimator(Protocol):
    """What the daemon needs from a sketch estimator: template
    classes re-volumed with the estimator's current view (an
    :class:`~repro.ingest.daemon.IngestDaemon` satisfies this)."""

    def estimated_classes(self, template: Sequence[TrafficClass],
                          scale: float = 1.0) -> List[TrafficClass]:
        ...


@dataclass
class RefreshRecord:
    """One completed daemon cycle (solve + rollout kickoff)."""

    reason: str             # bootstrap|structural|failover|periodic|drift
    time: float                     # sim time of the decision
    rollout: Rollout
    session: RolloutSession
    solve_wall_seconds: float       # wall clock; NOT part of any
                                    # reproducibility fingerprint


class ControllerDaemon:
    """Closed-loop refresh policy over a rollout driver.

    Args:
        state: the initial network state.
        driver: distributes each refresh's configs to the agents.
        mirror_policy / max_link_load / drift_threshold: forwarded to
            the wrapped :class:`NIDSController`.
        refresh_period: simulated seconds between unconditional
            re-optimizations; ``None`` disables the periodic trigger
            (drift/structural triggers still fire).
        planner_factory: builds the controller's solve planner for a
            given state; ``None`` keeps the default global LP. Called
            again on every structural rebuild, so a sharded planner
            re-partitions the surviving topology.
        estimator: a sketch estimator (an
            :class:`~repro.ingest.daemon.IngestDaemon`, or anything
            with ``estimated_classes(template, scale)``). When set,
            every cycle substitutes the estimator's sketched volumes
            for the feed's exact ones — the drift trigger and
            ``resolve_traffic()`` both run on estimates, and the
            exact-matrix path (``estimator=None``) remains the
            oracle. The feed still supplies class *structure*
            (paths, footprints); only volumes are estimated.
        estimator_scale: sampling-rate calibration from observed
            sessions to the feed's ``|T_c|`` unit.
    """

    def __init__(self, state: NetworkState, driver: RolloutDriver,
                 mirror_policy: Optional[MirrorPolicy] = None,
                 max_link_load: float = 0.4,
                 drift_threshold: float = 0.2,
                 refresh_period: Optional[float] = None,
                 planner_factory: Optional[
                     Callable[[NetworkState], SolvePlanner]] = None,
                 estimator: Optional["TrafficEstimator"] = None,
                 estimator_scale: float = 1.0) -> None:
        if refresh_period is not None and refresh_period <= 0:
            raise ValueError("refresh_period must be positive")
        if estimator_scale < 0:
            raise ValueError("estimator_scale must be non-negative")
        self.driver = driver
        self.mirror_policy = mirror_policy
        self.max_link_load = max_link_load
        self.drift_threshold = drift_threshold
        self.refresh_period = refresh_period
        self.planner_factory = planner_factory
        self.estimator = estimator
        self.estimator_scale = estimator_scale
        self.controller = self._make_controller(state)
        self.last_refresh_time: Optional[float] = None
        self.refresh_records: list[RefreshRecord] = []
        self._bootstrapped = False
        self._structural_pending = False
        self._failover_pending = False

    def _make_controller(self, state: NetworkState) -> NIDSController:
        planner = (self.planner_factory(state)
                   if self.planner_factory is not None else None)
        return NIDSController(
            state, mirror_policy=self.mirror_policy,
            max_link_load=self.max_link_load,
            drift_threshold=self.drift_threshold,
            planner=planner)

    # -- triggers ----------------------------------------------------------

    def refresh_reason(self, now: float,
                       classes: Sequence[TrafficClass]
                       ) -> Optional[str]:
        """Why a refresh should run right now, or ``None``.

        Precedence: bootstrap (the daemon never deployed anything),
        then latched structural pressure from :meth:`replace_state`,
        then latched failover pressure from :meth:`fail_region`, then
        the periodic timer, then the traffic-drift trigger. A
        structural rebuild replaces the controller (so its configs are
        ``None`` again), but only the daemon's first-ever cycle counts
        as bootstrap.
        """
        if not self._bootstrapped:
            # Let the controller count its own bootstrap trigger.
            self.controller.needs_refresh(classes)
            return "bootstrap"
        if self._structural_pending:
            return "structural"
        if self._failover_pending:
            return "failover"
        if (self.refresh_period is not None and
                self.last_refresh_time is not None and
                now - self.last_refresh_time >=
                self.refresh_period - 1e-9):
            return "periodic"
        if self.controller.needs_refresh(classes):
            return "drift"
        return None

    # -- the cycle ---------------------------------------------------------

    def replace_state(self, state: NetworkState) -> None:
        """Structural change: rebuild the optimizer on a new topology.

        The warm compiled LP is tied to the old variable universe
        (per-node fractions for nodes that may no longer exist), so a
        fresh controller is the honest restart. Previous configs are
        abandoned — the next :meth:`step` reports reason
        ``"structural"`` and pushes a direct rollout.
        """
        self.controller = self._make_controller(state)
        self._structural_pending = True
        get_registry().inc("runtime.structural_rebuilds")

    def fail_region(self, target: str) -> str:
        """Regional controller failure: hand the shard to a neighbor.

        Delegates the adoption to the active planner (only a sharded
        planner exposes ``fail_region``) and latches failover pressure
        so the next :meth:`step` re-solves and rolls the adopted
        assignment out coverage-safely.

        Args:
            target: the dead region's name, or any node it owns.

        Returns:
            The adopting region's name.

        Raises:
            ValueError: when the active planner has no regional
                controllers (global planner).
        """
        fail = getattr(self.controller.planner, "fail_region", None)
        if fail is None:
            raise ValueError(
                "controller-down fault needs a sharded planner; the "
                "active planner has no regional controllers")
        adopter: str = fail(target)
        self._failover_pending = True
        get_registry().inc("runtime.controller_failovers")
        return adopter

    def step(self, loop: EventLoop, agents: Dict[str, NodeAgent],
             classes: Sequence[TrafficClass],
             reason: Optional[str] = None
             ) -> Optional[RefreshRecord]:
        """Run one daemon cycle at the loop's current instant.

        Args:
            loop: the event loop (rollout messages schedule into it).
            agents: the nodes to distribute configs to.
            classes: the epoch's observed traffic feed.
            reason: force a refresh with this label; ``None`` (the
                normal case) consults :meth:`refresh_reason`, which
                reports structural/failover pressure by itself.

        Returns:
            The :class:`RefreshRecord`, or ``None`` when no trigger
            fired — or the estimator's window saw no session
            (``runtime.estimator.empty_windows``) and only drift or
            the timer could have.
        """
        metrics = get_registry()
        if self.estimator is not None:
            # Estimator mode: the controller never sees the exact
            # volumes — both the drift trigger and the solve run on
            # the sketch's view of the feed.
            estimated = self.estimator.estimated_classes(
                classes, self.estimator_scale)
            if any(cls.num_sessions > 0 for cls in estimated):
                classes = estimated
            else:
                # An empty window is a dead tap, not a matrix: the LP
                # over all zeros would swap a tuned plan for an
                # arbitrary vertex. Keep the plan, retry next cycle;
                # pressure that cannot wait uses the feed's volumes.
                metrics.inc("runtime.estimator.empty_windows")
                if reason is None and self._bootstrapped and not (
                        self._structural_pending or
                        self._failover_pending):
                    return None
        if reason is None:
            reason = self.refresh_reason(loop.now, classes)
        if reason is None:
            return None
        start = time.perf_counter()
        rollout = self.controller.refresh(classes)
        solve_wall = time.perf_counter() - start
        metrics.observe("runtime.solve.seconds", solve_wall)
        metrics.inc(f"runtime.refresh.{reason}")
        if self.estimator is not None and reason == "drift":
            metrics.inc("runtime.estimator.drift_refreshes")

        session = self.driver.start(loop, agents, rollout.configs,
                                    rollout.previous)
        self.last_refresh_time = loop.now
        self._bootstrapped = True
        self._structural_pending = False
        self._failover_pending = False
        record = RefreshRecord(reason=reason, time=loop.now,
                               rollout=rollout, session=session,
                               solve_wall_seconds=solve_wall)
        self.refresh_records.append(record)
        return record
