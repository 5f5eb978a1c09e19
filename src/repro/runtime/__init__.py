"""Discrete-event control-plane runtime.

Closed-loop simulation of a network-wide NIDS deployment over a
multi-epoch horizon: a controller daemon re-optimizing on periodic,
drift, and structural triggers; per-node agents receiving configs over
a lossy delayed channel; staged rollouts (overlap / two-phase /
direct) with transient-window coverage accounting; and a seeded fault
schedule. See :mod:`repro.runtime.scenario` for the entry point.
"""

from repro.runtime.agents import (
    Ack,
    ConfigMessage,
    MessageKind,
    NodeAgent,
    build_agents,
)
from repro.runtime.daemon import ControllerDaemon, RefreshRecord
from repro.runtime.events import Event, EventLoop, EventQueue, SimClock
from repro.runtime.faults import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    NetworkFaultState,
    cascading_failure_schedule,
    flash_crowd_schedule,
)
from repro.runtime.rollout import (
    ChannelSpec,
    ConfigChannel,
    CoverageReport,
    CoverageTracker,
    RolloutDriver,
    RolloutOutcome,
    RolloutSession,
    coverage_report,
)
from repro.runtime.scenario import (
    CANNED_SCENARIOS,
    EpochRecord,
    Scenario,
    ScenarioReport,
    cascading_failure_scenario,
    flash_crowd_scenario,
    run_scenario,
    steady_drift_scenario,
)

__all__ = [
    "Ack",
    "CANNED_SCENARIOS",
    "ChannelSpec",
    "ConfigChannel",
    "ConfigMessage",
    "ControllerDaemon",
    "CoverageReport",
    "CoverageTracker",
    "EpochRecord",
    "Event",
    "EventLoop",
    "EventQueue",
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "MessageKind",
    "NetworkFaultState",
    "NodeAgent",
    "RefreshRecord",
    "RolloutDriver",
    "RolloutOutcome",
    "RolloutSession",
    "Scenario",
    "ScenarioReport",
    "SimClock",
    "build_agents",
    "cascading_failure_schedule",
    "cascading_failure_scenario",
    "coverage_report",
    "flash_crowd_schedule",
    "flash_crowd_scenario",
    "run_scenario",
    "steady_drift_scenario",
]
