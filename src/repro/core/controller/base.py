"""The network-wide NIDS controller (Figure 6).

The paper envisions "a logically centralized management module that
configures the NIDS elements": it periodically collects traffic and
routing feeds, runs the optimization, converts the solution into
per-node hash-range configurations, and pushes them out — re-running
every few minutes or on routing/traffic triggers, after which
"the configuration is completely automated".

:class:`NIDSController` is that module. It owns the current
configuration, re-optimizes on demand (:meth:`refresh`), compiles shim
configs, validates them, and hands them back beside the configuration
they replace, so the rollout
(:class:`~repro.runtime.rollout.RolloutDriver`) can be coverage-safe.
Traffic triggers are supported via a configurable
drift threshold. The solve step itself is pluggable (see
:mod:`repro.core.controller.planner`): the default
:class:`~repro.core.controller.planner.GlobalPlanner` runs one
network-wide LP; a
:class:`~repro.core.controller.sharded.ShardedPlanner` decomposes it
into coordinated per-region LPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.controller.planner import GlobalPlanner, SolvePlanner
from repro.core.inputs import NetworkState
from repro.obs import get_registry
from repro.core.mirrors import MirrorPolicy
from repro.core.results import ReplicationResult
from repro.core.validation import validate_replication
from repro.shim.config import ShimConfig, build_replication_configs
from repro.traffic.classes import TrafficClass


@dataclass
class Rollout:
    """One completed optimization cycle.

    Attributes:
        result: the LP solution driving the new configuration.
        configs: compiled per-node shim configurations.
        previous: the configurations ``configs`` replace, which an
            overlap or delta rollout transitions from (``None`` for the
            very first configuration — there is nothing to overlap
            with — and after a change of node universe, where old and
            new configs are incomparable).
    """

    result: ReplicationResult
    configs: Dict[str, ShimConfig]
    previous: Optional[Dict[str, ShimConfig]]


class NIDSController:
    """Centralized assignment of NIDS responsibilities (Figure 6).

    Args:
        state: calibrated network state (provisioning stays fixed
            across refreshes; traffic varies).
        mirror_policy: the deployment's replication shape.
        max_link_load: administrator's link budget policy knob.
        drift_threshold: relative traffic-volume change that counts as
            "significant" for :meth:`needs_refresh` (the paper's
            trigger on traffic changes).
        planner: the solve strategy; ``None`` uses a
            :class:`~repro.core.controller.planner.GlobalPlanner`
            built from the arguments above (the paper's single global
            LP).
    """

    def __init__(self, state: NetworkState,
                 mirror_policy: Optional[MirrorPolicy] = None,
                 max_link_load: float = 0.4,
                 drift_threshold: float = 0.2,
                 planner: Optional[SolvePlanner] = None) -> None:
        if drift_threshold < 0:
            raise ValueError("drift_threshold must be non-negative")
        self.state = state
        self.mirror_policy = mirror_policy or MirrorPolicy.datacenter()
        self.max_link_load = max_link_load
        self.drift_threshold = drift_threshold
        self.planner: SolvePlanner = planner if planner is not None \
            else GlobalPlanner(state,
                               mirror_policy=self.mirror_policy,
                               max_link_load=max_link_load)
        self._current_configs: Optional[Dict[str, ShimConfig]] = None
        self._current_result: Optional[ReplicationResult] = None
        self._current_classes: List[TrafficClass] = list(state.classes)
        self.refresh_count = 0

    # -- observability ---------------------------------------------------

    @property
    def current_result(self) -> Optional[ReplicationResult]:
        """The LP result behind the active configuration."""
        return self._current_result

    @property
    def current_configs(self) -> Optional[Dict[str, ShimConfig]]:
        """The per-node configurations currently considered active."""
        return self._current_configs

    # -- triggers ----------------------------------------------------------

    def traffic_drift(self, classes: Sequence[TrafficClass]) -> float:
        """Relative volume change vs the traffic last optimized for.

        Computed as the traffic-weighted mean relative per-class
        change; classes appearing or disappearing count in full.
        """
        old = {cls.name: cls.num_sessions
               for cls in self._current_classes}
        new = {cls.name: cls.num_sessions for cls in classes}
        numerator = 0.0
        denominator = 0.0
        # Feed order, not set order: float sums depend on it and set
        # order follows the hash seed.
        for name in dict.fromkeys((*old, *new)):
            before = old.get(name, 0.0)
            after = new.get(name, 0.0)
            numerator += abs(after - before)
            denominator += max(before, after)
        # Zero-total epochs (a dead feed, or a sketch estimator that
        # saw nothing yet) must read as "no drift", not raise or pin
        # the trigger high forever — same zero-total contract as
        # simulation/metrics.py. The <= guard also catches a
        # negative-rounding denominator from estimator feeds.
        if denominator <= 0.0:
            return 0.0
        return numerator / denominator

    def needs_refresh(self, classes: Sequence[TrafficClass]) -> bool:
        """True when traffic drifted past the threshold (or no
        configuration has been computed yet)."""
        if self._current_configs is None:
            get_registry().inc("controller.bootstrap_refreshes")
            return True
        triggered = self.traffic_drift(classes) > self.drift_threshold
        if triggered:
            get_registry().inc("controller.drift_triggers")
        return triggered

    # -- the optimization cycle ---------------------------------------------

    def refresh(self, classes: Optional[Sequence[TrafficClass]] = None
                ) -> Rollout:
        """Run one optimization cycle and prepare the rollout.

        Args:
            classes: the latest traffic feed; ``None`` re-optimizes
                for the current traffic (e.g., after a policy change).

        Returns:
            A :class:`Rollout`, for the caller to push (e.g. with
            :meth:`~repro.runtime.rollout.RolloutDriver.start`); the
            controller considers the new configs current immediately,
            matching the paper's automated operation.

        Raises:
            RuntimeError: if the freshly computed result fails
                independent validation (never expected; a guard
                against optimizer/compilation regressions).
            ValueError: if its fractions cannot be laid out as hash
                ranges (a non-finite fraction, a class whose sum is
                off 1), naming the class.

        A refresh that raises leaves the controller as it was: the
        last good configuration, result and traffic stay current and
        ``refresh_count`` does not move.
        """
        metrics = get_registry()
        with metrics.span("controller.refresh"):
            classes = (self._current_classes if classes is None
                       else list(classes))
            outcome = self.planner.plan(classes)
            state, result = outcome.state, outcome.result
            problems = validate_replication(state, result)
            if problems:
                raise RuntimeError(
                    "optimizer produced an invalid assignment: "
                    + "; ".join(problems[:3]))
            configs = build_replication_configs(state, result)

            previous = None
            if self._current_configs is not None:
                old_configs = self._current_configs
                if set(old_configs) == set(configs):
                    previous = old_configs
                # Overlap size: total rules honored during the
                # transient (old and new unioned at every node).
                # Nodes present on only one side — a shard adoption
                # or topology change mid-epoch — carry just their
                # single config, so they are counted once instead of
                # raising a KeyError.
                shared = set(old_configs) & set(configs)
                overlap_rules = sum(
                    old_configs[node].num_rules
                    + configs[node].num_rules
                    for node in shared)
                overlap_rules += sum(
                    old_configs[node].num_rules
                    for node in set(old_configs) - shared)
                overlap_rules += sum(
                    configs[node].num_rules
                    for node in set(configs) - shared)
                metrics.gauge("controller.transition.nodes",
                              len(configs))
                metrics.gauge("controller.transition.union_rules",
                              overlap_rules)
            self._current_configs = configs
            self._current_result = result
            self._current_classes = classes
            self.refresh_count += 1
        metrics.inc("controller.refreshes")
        return Rollout(result=result, configs=configs,
                       previous=previous)
