"""The experiment table that ``repro experiment``, the paper-claim
benchmark and ``make results`` read, and the regenerator — checked
without running an experiment."""

import argparse
import inspect
import types

import pytest

from repro.cli import _build_parser
from repro.experiments import format_table
from repro.experiments.gap import (
    BudgetPoint,
    BudgetSweepSeries,
    SketchGapPoint,
    SketchGapSeries,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentRuns,
    recorded_replicate_work,
)
from tests.regen import (
    RESULTS_DIR,
    change_lines,
    regenerable,
    regenerate,
    table_cells,
)


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


def test_every_entry_runs_with_no_arguments():
    """Each entry is one parameterisation: its ``run`` is called bare,
    so no parameter may lack a default."""
    assert len(EXPERIMENTS) == 22
    for name, experiment in EXPERIMENTS.items():
        parameters = inspect.signature(experiment.run).parameters
        assert all(p.default is not p.empty
                   for p in parameters.values()), name


def test_figures_16_and_17_share_one_sweep():
    assert EXPERIMENTS["fig16"].run is EXPERIMENTS["fig17"].run
    calls = []

    def sweep():
        calls.append("sweep")
        return ["point"]

    runs = ExperimentRuns()
    assert runs[sweep] is runs[sweep]
    assert calls == ["sweep"]


def _table(load, seconds="0.010", summary="1.70x"):
    return format_table(
        ["Topology", "Load", "Solve (s)"],
        [["internet2", load, seconds], ["geant", "0.215", "0.008"]],
        title="Example") + f"\nmax reduction: {summary}\n"


def test_cell_differ_prints_each_changed_cell():
    assert change_lines("t.txt", _table("0.222"), _table("0.218")) == [
        "t.txt: internet2/Load: 0.222 -> 0.218"]
    assert change_lines("t.txt", _table("0.222"),
                        _table("0.222", summary="1.71x")) == [
        "t.txt: max reduction: 1.70x -> 1.71x"]


def test_cell_differ_skips_timing_columns():
    assert change_lines("t.txt", _table("0.222", "0.010"),
                        _table("0.222", "0.250")) == []


def test_cell_differ_is_silent_on_identical_tables():
    for path in RESULTS_DIR.glob("*.txt"):
        assert change_lines(path.name, path.read_text(),
                            path.read_text()) == []


@pytest.mark.parametrize("name", ["budget_sweep.txt", "shard_gap.txt",
                                  "sketch_gap.txt"])
def test_every_cell_of_a_gap_table_is_compared(name):
    """No column of the three gap tables is a timing, so every cell
    but the row name is a compared value, and so is the title."""
    lines = (RESULTS_DIR / name).read_text().splitlines()
    rows = lines[3:]
    assert "(s)" not in lines[1]
    cells = table_cells("\n".join(lines))
    assert cells.pop("title") == lines[0]
    assert len(cells) == len(rows) * (len(lines[2].split()) - 1) > 0
    assert all(cells.values())


def test_every_regenerated_table_is_a_registry_entry():
    files = regenerable()
    assert {experiment.results for experiment in EXPERIMENTS.values()} \
        <= set(files)
    assert {"rule_tables.json", "scenario_fingerprints.json"} <= set(files)


@pytest.mark.parametrize("name", ["load_costs.json",
                                  "nips_load_costs.json",
                                  "dataplane_parent.json",
                                  "lp_digests.json"])
def test_goldens_pinned_at_a_parent_commit_are_refused(name, capsys):
    with pytest.raises(SystemExit, match=name):
        regenerate([name])
    assert capsys.readouterr().out == ""


def _claims(name):
    return {claim.statement: claim for claim in EXPERIMENTS[name].claims}


def _budget_point(budget, error_linf):
    return BudgetPoint(budget, error_linf, 0.0, 1, 1, 1, 0.1, 0.1)


def test_budget_claims_fail_a_lossy_budget_8():
    series = BudgetSweepSeries("tinet", 0.1, [
        _budget_point(4, 0.04), _budget_point(8, 0.06),
        _budget_point(None, 0.0)])
    assert EXPERIMENTS["budget-sweep"].failed_claims(series, "") == [
        "a rule budget of 8 per class keeps the Linf coverage error "
        "within 5 %",
        "the Linf error never grows with the budget"]


def _sketch_point(width, realized, error_l1_rel):
    return SketchGapPoint(width, 4, 8 * width, 8 * width / 1640, 0.15,
                          realized, (realized - 0.15) / 0.15,
                          error_l1_rel, 1.0)


def test_sketch_claims_fail_a_wider_sketch_that_estimates_worse():
    series = SketchGapSeries("tinet", 0, 6000, 1640, 0.15, 0.05, [
        _sketch_point(1024, 0.16, 0.01),
        _sketch_point(4096, 0.15, 0.02)])
    assert EXPERIMENTS["sketch-gap"].failed_claims(series, "") == [
        "a wider sketch gives no larger L1 error, for state in "
        "proportion to its width"]
    series.points[1].realized_load_cost = 0.14
    assert "every realized LoadCost is at least the oracle's, and the " \
        "gap is measured against it" in \
        EXPERIMENTS["sketch-gap"].failed_claims(series, "")


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
