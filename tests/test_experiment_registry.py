"""The experiment table that ``repro experiment``, the paper-claim
benchmark and ``make results`` read — checked without running an
experiment."""

import argparse
import types

from repro.cli import _build_parser
from repro.experiments import format_table
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentRuns,
    recorded_replicate_work,
)
from tests.regen_results import RESULTS_DIR, cell_changes


def test_results_files_match_the_tables_one_to_one():
    files = [experiment.results for experiment in EXPERIMENTS.values()]
    assert len(set(files)) == len(files)
    assert set(files) == {path.name for path in RESULTS_DIR.glob("*.txt")}
    assert all(experiment.claims for experiment in EXPERIMENTS.values())


def test_cli_choices_are_the_registry_names_plus_all():
    commands = next(action for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    (name,) = [action for action in commands.choices["experiment"]._actions
               if action.dest == "name"]
    assert list(name.choices) == sorted(EXPERIMENTS) + ["all"]


def test_figures_16_and_17_share_one_sweep():
    assert EXPERIMENTS["fig16"].run is EXPERIMENTS["fig17"].run
    calls = []

    def sweep(jobs):
        calls.append(jobs)
        return ["point"]

    runs = ExperimentRuns(jobs=3)
    assert runs[sweep] is runs[sweep]
    assert calls == [3]


def _table(load, seconds="0.010", summary="1.70x"):
    return format_table(
        ["Topology", "Load", "Solve (s)"],
        [["internet2", load, seconds], ["geant", "0.215", "0.008"]],
        title="Example") + f"\nmax reduction: {summary}\n"


def test_cell_differ_prints_each_changed_cell():
    assert cell_changes("t.txt", _table("0.222"), _table("0.218")) == [
        "t.txt: internet2/Load: 0.222 -> 0.218"]
    assert cell_changes("t.txt", _table("0.222"),
                        _table("0.222", summary="1.71x")) == [
        "t.txt: max reduction: 1.70x -> 1.71x"]


def test_cell_differ_skips_timing_columns():
    assert cell_changes("t.txt", _table("0.222", "0.010"),
                        _table("0.222", "0.250")) == []


def test_cell_differ_is_silent_on_identical_tables():
    for path in RESULTS_DIR.glob("*.txt"):
        assert cell_changes(path.name, path.read_text(),
                            path.read_text()) == []


def test_fig10_pin_compares_against_the_committed_table():
    """The committed replicate column passes against itself; one node's
    work tripled fails."""
    recorded = (RESULTS_DIR / "fig10_emulation.txt").read_text()
    (claim,) = [claim for claim in EXPERIMENTS["fig10"].claims
                if "than the committed table" in claim.statement]
    work = recorded_replicate_work(recorded)
    assert claim.holds(types.SimpleNamespace(work_replicate=work),
                       recorded)
    skewed = dict(work, ATLA=3 * work["ATLA"])
    assert not claim.holds(types.SimpleNamespace(work_replicate=skewed),
                           recorded)
