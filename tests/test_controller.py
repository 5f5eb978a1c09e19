"""Tests for the network-wide controller (Figure 6)."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core import MirrorPolicy, NIDSController


@pytest.fixture
def controller(line_state_dc):
    return NIDSController(line_state_dc,
                          mirror_policy=MirrorPolicy.datacenter(),
                          max_link_load=0.4)


class TestLifecycle:
    def test_first_refresh_has_no_transition(self, controller):
        rollout = controller.refresh()
        assert rollout.previous is None
        assert controller.current_configs is rollout.configs
        assert controller.refresh_count == 1

    def test_second_refresh_produces_overlap_transition(self,
                                                        controller,
                                                        line_classes):
        first = controller.refresh()
        shifted = [line_classes[0].scaled(3.0), line_classes[1]]
        rollout = controller.refresh(shifted)
        assert rollout.previous is first.configs
        assert controller.current_configs is rollout.configs

    def test_result_adapts_to_traffic(self, controller, line_classes):
        first = controller.refresh()
        heavier = [cls.scaled(2.0) for cls in line_classes]
        second = controller.refresh(heavier)
        # Load grows at least linearly (doubled background also shrinks
        # the replication headroom, so it can grow super-linearly), but
        # stays within the ingress-only ceiling of 2.0.
        assert second.result.load_cost > \
            1.9 * first.result.load_cost - 1e-9
        assert second.result.load_cost <= 2.0 + 1e-9

    def test_refresh_without_classes_reuses_current(self, controller,
                                                    line_classes):
        controller.refresh([cls.scaled(2.0) for cls in line_classes])
        again = controller.refresh()
        assert again.result.load_cost == pytest.approx(
            controller.current_result.load_cost)


class TestTriggers:
    def test_needs_refresh_initially(self, controller, line_classes):
        assert controller.needs_refresh(line_classes)

    def test_small_drift_no_refresh(self, controller, line_classes):
        controller.refresh(line_classes)
        slightly = [cls.scaled(1.05) for cls in line_classes]
        assert controller.traffic_drift(slightly) < 0.1
        assert not controller.needs_refresh(slightly)

    def test_large_drift_triggers(self, controller, line_classes):
        controller.refresh(line_classes)
        doubled = [cls.scaled(2.0) for cls in line_classes]
        assert controller.needs_refresh(doubled)

    def test_disappearing_class_counts_fully(self, controller,
                                             line_classes):
        controller.refresh(line_classes)
        drift = controller.traffic_drift(line_classes[:1])
        assert drift > 0.3  # B->C (500 of 1500) vanished

    def test_drift_zero_for_identical_traffic(self, controller,
                                              line_classes):
        controller.refresh(line_classes)
        assert controller.traffic_drift(line_classes) == 0.0

    def test_threshold_validation(self, line_state_dc):
        with pytest.raises(ValueError):
            NIDSController(line_state_dc, drift_threshold=-0.1)

    def test_zero_total_baseline_reads_as_no_drift(self, controller,
                                                   line_classes):
        # Regression: a dead feed (every class at zero sessions, as a
        # sketch estimator that saw nothing yet reports) must not
        # raise on the zero denominator or pin the trigger high.
        silent = [cls.scaled(0.0) for cls in line_classes]
        controller.refresh(silent)
        assert controller.traffic_drift(silent) == 0.0
        assert not controller.needs_refresh(silent)
        # Traffic appearing after a silent baseline is full drift —
        # it fires once, then clears after the next refresh.
        assert controller.traffic_drift(line_classes) == 1.0
        assert controller.needs_refresh(line_classes)
        controller.refresh(line_classes)
        assert not controller.needs_refresh(line_classes)


class _ScriptedPlanner:
    """Replays pre-computed outcomes, one per refresh."""

    def __init__(self, outcomes):
        self._outcomes = list(outcomes)

    def plan(self, classes):
        return self._outcomes.pop(0)


class TestNodeUniverseChange:
    def test_mismatched_node_sets_skip_transition(self, line_state_dc,
                                                  line_classes):
        """A refresh across different node universes (e.g. a shard
        adoption mid-epoch) must not build an overlap transition —
        and must not crash summing union rules over one-sided nodes.
        """
        from repro.core.controller import GlobalPlanner
        from repro.core.failures import fail_node
        from repro.obs import MetricsRegistry, use_registry

        first = GlobalPlanner(line_state_dc).plan(line_classes)
        shrunken, impact = fail_node(line_state_dc, "A")
        assert impact.dropped_classes == ["A->D"]
        second = GlobalPlanner(shrunken).plan(shrunken.classes)
        assert set(first.state.nids_nodes) != \
            set(second.state.nids_nodes)

        controller = NIDSController(
            line_state_dc,
            planner=_ScriptedPlanner([first, second]))
        with use_registry(MetricsRegistry()) as metrics:
            assert controller.refresh().previous is None
            rollout = controller.refresh(shrunken.classes)
            gauges = metrics.snapshot()["gauges"]
        assert rollout.previous is None
        assert controller.current_configs is rollout.configs
        # The union-rule gauge counted one-sided nodes once each.
        assert gauges["controller.transition.union_rules"] > 0


_DRIFT_SCRIPT = """
import dataclasses, random
from repro.core import NIDSController
from repro.experiments.common import setup_topology

state = setup_topology("tinet").state
rng = random.Random(3)
drifted = [dataclasses.replace(
    cls, num_sessions=cls.num_sessions * rng.lognormvariate(0.0, 0.5))
    for cls in state.classes]
print(NIDSController(state).traffic_drift(drifted).hex())
"""


def test_traffic_drift_is_independent_of_the_hash_seed():
    """The drift trigger is a float sum over class names; it must add
    them in feed order, not in a set's (hash-seed-dependent) order."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(src))
        outputs.add(subprocess.run(
            [sys.executable, "-c", _DRIFT_SCRIPT], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert len(outputs) == 1, outputs
