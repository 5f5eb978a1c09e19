"""The solve step behind the controller, as a pluggable planner.

:class:`~repro.core.controller.base.NIDSController` owns the *policy*
of a refresh cycle — validation, config compilation, transition
bookkeeping — while the *solve* itself is delegated to an object
implementing :class:`SolvePlanner`. Two implementations exist:

- :class:`GlobalPlanner` — one network-wide replication LP per
  refresh, exactly the paper's Figure 6 controller (and bit-identical
  to the pre-refactor monolithic code path);
- :class:`~repro.core.controller.sharded.ShardedPlanner` — per-region
  LPs reconciled by a capacity-sharing coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

from repro.core.inputs import NetworkState
from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.core.results import ReplicationResult
from repro.traffic.classes import TrafficClass


@dataclass
class PlanOutcome:
    """What one solve produced: the state the LP actually ran against
    (traffic folded in) and the optimal assignment."""

    state: NetworkState
    result: ReplicationResult


class SolvePlanner(Protocol):
    """Strategy interface for the controller's optimization step.

    Implementations own their warm LP machinery across calls; the
    controller calls :meth:`plan` once per refresh with the full
    traffic feed and consumes the returned state/result pair.
    """

    def plan(self, classes: Sequence[TrafficClass]) -> PlanOutcome:
        """Solve for the given traffic and return the assignment."""
        ...


class GlobalPlanner:
    """Today's behavior: one global replication LP, kept warm.

    The first :meth:`plan` builds and solves the LP cold; subsequent
    calls ride the incremental ``resolve_traffic`` path of the
    formulation layer, so a traffic update patches the compiled
    matrices in place.
    """

    def __init__(self, state: NetworkState,
                 mirror_policy: Optional[MirrorPolicy] = None,
                 max_link_load: float = 0.4) -> None:
        self.state = state
        self.mirror_policy = mirror_policy or MirrorPolicy.datacenter()
        self.max_link_load = max_link_load
        # Kept across refreshes so a traffic update is an incremental
        # re-solve of the compiled LP, not a rebuild.
        self._problem: Optional[ReplicationProblem] = None

    def plan(self, classes: Sequence[TrafficClass]) -> PlanOutcome:
        if self._problem is None:
            self._problem = ReplicationProblem(
                self.state.with_traffic(classes),
                mirror_policy=self.mirror_policy,
                max_link_load=self.max_link_load)
            result = self._problem.solve()
        else:
            result = self._problem.resolve_traffic(
                classes, max_link_load=self.max_link_load)
        return PlanOutcome(state=self._problem.state, result=result)


__all__ = ["GlobalPlanner", "PlanOutcome", "SolvePlanner"]
