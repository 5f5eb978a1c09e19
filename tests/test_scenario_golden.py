"""The canned scenarios, pinned to the commit before ``_run_scenario``
became :class:`~repro.runtime.scenario.ScenarioRun`.

``tests/golden/scenario_fingerprints.json`` was written from
:func:`golden_document` at that commit — per scenario the timeline
fingerprint, the ``ScenarioReport.to_dict()["scenario"]`` document and
the run's ``emulation.fast.fallbacks`` count — and is re-pinned, when
a change deliberately moves the plans, by ``PYTHONPATH=src:. python
tests/regen.py scenario_fingerprints.json``. The exact-matrix mode
replayed whole batches with a scalar fallback then and replays chunks
without one now, so a non-zero count there would have been a behaviour
change; it was 0 for every scenario. The two-phase and capacity-bound
delta entries were added at the commit before the driver's overlap and
delta strategies became one body.
"""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.runtime.scenario import (CANNED_SCENARIOS, ScenarioRun,
                                    run_scenario)

GOLDEN = pathlib.Path(__file__).parent / "golden" / \
    "scenario_fingerprints.json"
EPOCHS = 4
#: the datacenter's grown tables overflow it, so its delta patches and
#: their full-table fallbacks are refused (bootstrap tables, at most
#: 72 rules, still fit)
RULE_CAPACITY = 80


def golden_scenarios():
    """The five canned scenarios at default topology and seed, plus
    steady-drift under delta rollouts (once more with a rule capacity
    that sends a node down the full-table fallback) and under two-phase
    commit."""
    scenarios = {name: CANNED_SCENARIOS[name](epochs=EPOCHS)
                 for name in sorted(CANNED_SCENARIOS)}
    steady = scenarios["steady-drift"]
    scenarios["steady-drift+delta"] = dataclasses.replace(
        steady, strategy="delta")
    scenarios["steady-drift+delta+capacity"] = dataclasses.replace(
        steady, strategy="delta", rule_capacity=RULE_CAPACITY)
    scenarios["steady-drift+two-phase"] = dataclasses.replace(
        steady, strategy="two-phase")
    return scenarios


def golden_document():
    document = {}
    for key, scenario in golden_scenarios().items():
        with use_registry(MetricsRegistry()) as metrics:
            report = run_scenario(scenario)
        document[key] = {
            "fingerprint": report.fingerprint(),
            "scenario": report.to_dict()["scenario"],
            "fast_fallbacks": metrics.counter_value(
                "emulation.fast.fallbacks"),
        }
    return document


@pytest.fixture(scope="module")
def document():
    # Through JSON, as the golden copy went: tuples become lists.
    return json.loads(json.dumps(golden_document()))


def test_scenarios_match_the_parent_commit(document):
    golden = json.loads(GOLDEN.read_text())
    assert set(document) == set(golden)
    for key, entry in golden.items():
        assert document[key] == entry, key


def test_capacity_entry_takes_the_full_table_fallback():
    """What the capacity-bound delta entry pins: some node refuses its
    grown table and is sent down the full-table path."""
    run = ScenarioRun(golden_scenarios()["steady-drift+delta+capacity"])
    for epoch in range(EPOCHS):
        run.step(epoch)
    assert any(refresh.session.fallback_nodes
               for refresh in run.daemon.refresh_records)


def test_no_replay_needed_the_scalar_fallback(document):
    assert {key: entry["fast_fallbacks"]
            for key, entry in document.items()} == \
        dict.fromkeys(document, 0)


@pytest.mark.parametrize("hash_seed", ["1", "2"])
@pytest.mark.parametrize("name", ["flash-crowd", "sketch-estimator"])
def test_cli_reproduces_the_golden_across_hash_seeds(name, hash_seed):
    """``repro scenario NAME`` in a fresh interpreter, at the
    scenario's own topology, under two string-hash seeds: iterating a
    set of node names into a float sum would move the fingerprint."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "repro", "scenario", name,
         "--epochs", str(EPOCHS), "--json", "-"],
        env=env, capture_output=True, text=True, check=True).stdout
    report = json.loads(out[out.index("\n{"):])
    golden = json.loads(GOLDEN.read_text())
    assert report["fingerprint"] == golden[name]["fingerprint"]

