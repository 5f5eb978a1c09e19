"""Regenerate the pinned files a deliberate change may move, and print
one ``file: where: before -> after`` line per value that changed::

    PYTHONPATH=src:. python tests/regen.py        # make results, make goldens
    PYTHONPATH=src:. python tests/regen.py rule_tables.json fig12_dc_gap.txt

It rewrites two kinds of file, making exactly the calls the checks
make:

- every paper table under ``benchmarks/results/``, one per entry of
  :data:`repro.experiments.registry.EXPERIMENTS`, compared cell by cell
  (``where`` is ``row/column``). Columns whose header ends in ``(s)``
  are wall-clock timings (Table 1, the failure ablation's re-solve) and
  are not compared. ``benchmarks/test_paper_claims.py`` checks the
  claims; this only regenerates and diffs.
- the goldens under ``tests/golden/`` that follow the replication LP's
  vertex. A change to which fraction columns the LP has (shared
  columns, pruned tunnels) leaves every ``LoadCost`` alone and lands
  the solver on another optimal vertex, so the plans — and
  everything counted from them — move: the rule tables, the scenario
  fingerprints and the ``.lp`` files with mirrors (compared by their
  row and fraction counts).

It refuses any other golden: ``load_costs.json`` and
``dataplane_parent.json`` are generated *at a parent commit* to pin
behaviour across a change, and the mirror-free ``.lp`` files have no
fraction a vertex could move — a diff in one of those is a finding,
not a re-pin.
"""

import functools
import itertools
import json
import pathlib
import re
import sys

from repro.experiments.registry import EXPERIMENTS, ExperimentRuns
from tests import (test_lp_writer_golden, test_rule_table,
                   test_scenario_golden)

ROOT = pathlib.Path(__file__).parents[1]
RESULTS_DIR = ROOT / "benchmarks" / "results"
GOLDEN_DIR = ROOT / "tests" / "golden"


def table_cells(text):
    """A rendered table as ``{"row/column": cell}``, timings left out.

    A row is named by its first cell, or its first two where the first
    repeats (Figure 15). Lines after the rows (Figure 10's summary) are
    keyed by their text before ``": "``, and the title, which the gap
    tables fill with numbers, by ``title``.
    """
    lines = text.splitlines()
    rule = next((i for i, line in enumerate(lines)
                 if line.startswith("-") and not line.strip("- ")), None)
    if rule is None:
        return {}
    spans = [match.span() for match in re.finditer(r"-+", lines[rule])]
    body = list(itertools.takewhile(
        lambda line: len(line) == len(lines[rule]), lines[rule + 1:]))
    headers, *rows = [[line[a:b].strip() for a, b in spans]
                      for line in [lines[rule - 1]] + body]
    named_by = 1 if len({row[0] for row in rows}) == len(rows) else 2
    cells = {f"{' '.join(row[:named_by])}/{header}": cell
             for row in rows
             for header, cell in zip(headers[named_by:], row[named_by:])
             if not header.endswith("(s)")}
    for line in lines[rule + 1 + len(body):]:
        label, _, value = line.partition(": ")
        cells[label] = value
    if rule >= 2:
        cells["title"] = lines[rule - 2]
    return cells


def _lp_summary(text):
    """What a ``.lp`` golden's diff comes down to: how many rows and
    how many bounded columns (the fractions) it states."""
    lines = text.splitlines()
    rows, bounds, end = (lines.index(section) for section in
                         ("Subject To", "Bounds", "End"))
    return {"rows": bounds - rows - 1, "fractions": end - bounds - 1}


#: file suffix -> the values a file's diff is made of
PARSE = {".txt": table_cells, ".json": json.loads, ".lp": _lp_summary}


def _changes(before, after, where=""):
    """``(path, before, after)`` per leaf that differs."""
    if isinstance(before, dict) and isinstance(after, dict):
        for key in sorted(set(before) | set(after)):
            yield from _changes(before.get(key), after.get(key),
                                f"{where}.{key}" if where else key)
    elif (isinstance(before, list) and isinstance(after, list)
          and len(before) == len(after)):
        for index, pair in enumerate(zip(before, after)):
            yield from _changes(*pair, f"{where}[{index}]")
    elif before != after:
        yield where, before, after


def change_lines(name, before, after):
    """``name: where: before -> after`` per value that differs between
    two texts of the file ``name`` (``before`` may be empty)."""
    parse = PARSE[pathlib.PurePath(name).suffix]
    return [f"{name}: {where}: {old} -> {new}"
            for where, old, new in _changes(
                parse(before) if before else {}, parse(after))]


def _json_text(document):
    # Through JSON, as the tests read it: tuples are lists.
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _rule_tables():
    document = {}
    for topology in test_rule_table.GOLDEN_TOPOLOGIES:
        document.update(test_rule_table.rule_table_digests(topology))
    return _json_text(document)


@functools.lru_cache(maxsize=None)
def _lp_texts():
    return {path.name: text for path, text in
            test_lp_writer_golden.golden_texts().items()}


def regenerable():
    """``{file name: (path, render)}``: every file this script
    rewrites, with the call that renders its text. Nothing runs until
    a ``render`` is called."""
    runs = ExperimentRuns()
    files = {experiment.results: (
        RESULTS_DIR / experiment.results,
        lambda experiment=experiment:
        experiment.format(runs[experiment.run]) + "\n")
        for experiment in EXPERIMENTS.values()}
    files["rule_tables.json"] = (GOLDEN_DIR / "rule_tables.json",
                                 _rule_tables)
    files["scenario_fingerprints.json"] = (
        GOLDEN_DIR / "scenario_fingerprints.json",
        lambda: _json_text(test_scenario_golden.golden_document()))
    for stem in test_lp_writer_golden.VERTEX_STEMS:
        name = f"{stem}.lp"
        files[name] = (GOLDEN_DIR / name,
                       lambda name=name: _lp_texts()[name])
    return files


def regenerate(names=()):
    files = regenerable()
    refused = sorted(set(names) - set(files))
    if refused:
        raise SystemExit(
            f"refusing to regenerate {', '.join(refused)}: only the "
            f"paper tables and the goldens that follow the LP's vertex "
            f"are regenerated")
    changed = 0
    for name in names or files:
        path, render = files[name]
        before = path.read_text() if path.exists() else ""
        after = render()
        for line in change_lines(name, before, after):
            print(line)
            changed += 1
        if after != before:
            path.write_text(after)
    print(f"{len(names or files)} file(s) regenerated, {changed} "
          f"value(s) changed")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
