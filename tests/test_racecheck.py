"""The schedule-perturbation verifier (``repro racecheck``).

Invariance is checked for real against a small canned scenario; the
divergence path is exercised with deliberately order-sensitive
micro-workloads substituted for ``run_scenario``, so the test proves
both halves: a schedule-race-free scenario stays fingerprint-stable
under perturbation, and a handler that communicates through ordering
is caught. The workloads include the two hazards the verifier is the
only check for: two handlers writing the same module-level state at
one instant, and two sites scheduling at the same timestamp
expression.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.runtime import racecheck as racecheck_mod
from repro.runtime.events import EventLoop, PerturbedEventLoop
from repro.runtime.racecheck import (
    PERTURB_SEED_STRIDE,
    RacecheckReport,
    ScenarioRacecheck,
    perturbation_seeds,
    racecheck_canned,
    racecheck_scenario,
)
from repro.runtime.scenario import CANNED_SCENARIOS


class TestPerturbationSeeds:
    def test_distinct_and_strided(self):
        seeds = perturbation_seeds(4)
        assert len(set(seeds)) == 4
        assert seeds == [1 + i * PERTURB_SEED_STRIDE for i in range(4)]

    def test_base_offsets_the_sequence(self):
        assert perturbation_seeds(2, base=100) == [
            101, 101 + PERTURB_SEED_STRIDE]

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            perturbation_seeds(0)


def _result(name="s", fingerprints=None, baseline="aaa"):
    result = ScenarioRacecheck(
        name=name, topology="tinet", epochs=2, scenario_seed=7,
        baseline_fingerprint=baseline)
    result.perturbed_fingerprints = dict(fingerprints or {})
    return result


class TestReportShapes:
    def test_invariant_when_all_match(self):
        result = _result(fingerprints={1: "aaa", 2: "aaa"})
        assert result.invariant
        assert result.divergent_seeds == []

    def test_divergent_seeds_sorted(self):
        result = _result(fingerprints={9: "bbb", 1: "aaa", 5: "ccc"})
        assert not result.invariant
        assert result.divergent_seeds == [5, 9]

    def test_report_json_schema(self):
        report = RacecheckReport(
            seeds=[1, 2],
            scenarios=[_result(fingerprints={1: "aaa", 2: "bbb"})])
        payload = json.loads(report.to_json())
        assert payload["schema"] == 1
        assert payload["all_invariant"] is False
        assert payload["perturbation_seeds"] == [1, 2]
        entry = payload["scenarios"][0]
        assert entry["divergent_seeds"] == [2]
        assert entry["perturbed_fingerprints"] == {
            "1": "aaa", "2": "bbb"}


class TestInvariance:
    def test_canned_scenario_is_fingerprint_invariant(self):
        scenario = CANNED_SCENARIOS["steady-drift"](
            topology="tinet", epochs=2)
        result = racecheck_scenario(scenario, perturbation_seeds(3))
        assert result.invariant, result.divergent_seeds
        assert result.baseline_fingerprint
        assert len(result.perturbed_fingerprints) == 3

    def test_canned_runner_validates_names(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            racecheck_canned(names=["no-such-scenario"], seeds=1)

    def test_canned_runner_applies_overrides(self):
        report = racecheck_canned(
            names=["steady-drift"], seeds=2, epochs=2,
            topology="tinet")
        assert report.all_invariant
        [entry] = report.scenarios
        assert entry.name == "steady-drift"
        assert entry.topology == "tinet"
        assert entry.epochs == 2
        assert report.seeds == perturbation_seeds(2)


class _OrderSensitiveReport:
    """Fingerprint = the order same-instant events actually fired in."""

    def __init__(self, order):
        self._order = order

    def fingerprint(self) -> str:
        return hashlib.sha256(
            ",".join(self._order).encode()).hexdigest()


def _order_sensitive_run(scenario, loop_factory=None):
    loop = (loop_factory or EventLoop)()
    fired = []
    for label in ("a", "b", "c", "d", "e", "f"):
        loop.schedule_at(1.0, lambda label=label: fired.append(label))
    loop.run_all()
    return _OrderSensitiveReport(fired)


#: module-level state that two event handlers write
_INSTALLED = {}


def _install_plan():
    _INSTALLED["config"] = "plan"


def _install_fallback():
    _INSTALLED["config"] = "fallback"


def _shared_state_run(scenario, loop_factory=None):
    """Two handlers write the same module-level state at one instant;
    the last writer decides what the next epoch's audit reads."""
    loop = (loop_factory or EventLoop)()
    audited = []
    for epoch in range(1, 7):
        loop.schedule_at(float(epoch), _install_plan)
        loop.schedule_at(float(epoch), _install_fallback)
        loop.schedule_at(epoch + 0.5,
                         lambda: audited.append(_INSTALLED["config"]))
    loop.run_all()
    return _OrderSensitiveReport(audited)


def _schedule_drift(loop, epoch, volume):
    loop.schedule_at(epoch * 300.0, lambda: volume.append(volume[-1] * 2))


def _schedule_refresh(loop, epoch, volume, planned):
    loop.schedule_at(epoch * 300.0,
                     lambda: planned.append(str(volume[-1])))


def _timestamp_collision_run(scenario, loop_factory=None):
    """Two sites schedule at the same timestamp expression; whether a
    refresh plans on this epoch's drifted volume is decided by seq
    order alone."""
    loop = (loop_factory or EventLoop)()
    volume = [1.0]
    planned = []
    for epoch in range(1, 7):
        _schedule_drift(loop, epoch, volume)
        _schedule_refresh(loop, epoch, volume, planned)
    loop.run_all()
    return _OrderSensitiveReport(planned)


class TestDivergenceDetection:
    @pytest.mark.parametrize("workload", [
        _order_sensitive_run, _shared_state_run,
        _timestamp_collision_run,
    ], ids=["same-instant-order", "shared-module-state",
            "timestamp-collision"])
    def test_order_sensitive_workload_is_caught(self, monkeypatch,
                                                workload):
        monkeypatch.setattr(racecheck_mod, "run_scenario", workload)
        scenario = CANNED_SCENARIOS["steady-drift"](
            topology="tinet", epochs=2)
        result = racecheck_scenario(scenario, perturbation_seeds(6))
        assert not result.invariant
        assert result.divergent_seeds

    def test_perturbed_loop_reproduces_per_seed(self):
        # Same seed, same shuffle: the perturbation itself is
        # deterministic, so divergences are replayable.
        orders = []
        for _ in range(2):
            report = _order_sensitive_run(
                None, loop_factory=lambda: PerturbedEventLoop(3))
            orders.append(report.fingerprint())
        assert orders[0] == orders[1]


class TestCli:
    def test_racecheck_smoke_exits_clean(self, capsys):
        assert main(["racecheck", "steady-drift", "--seeds", "2",
                     "--epochs", "2", "--topology", "tinet",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "steady-drift" in out
        assert "invariant" in out

    def test_racecheck_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "racecheck.json"
        assert main(["racecheck", "steady-drift", "--seeds", "2",
                     "--epochs", "2", "--topology", "tinet",
                     "--quiet", "--json", str(out_path)]) == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["schema"] == 1
        assert payload["all_invariant"] is True
        assert [s["name"] for s in payload["scenarios"]] == [
            "steady-drift"]

    def test_racecheck_unknown_scenario_is_usage_error(self, capsys):
        assert main(["racecheck", "no-such", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "no-such" in err
