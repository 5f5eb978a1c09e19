"""Regenerate every paper table under ``benchmarks/results/`` and print
one ``file: row/column: before -> after`` line per changed cell::

    PYTHONPATH=src:. python tests/regen_results.py        # make results

Columns whose header ends in ``(s)`` are wall-clock timings (Table 1,
the failure ablation's re-solve) and are not compared.
``benchmarks/test_paper_claims.py`` checks the claims; this only
regenerates and diffs.
"""

import itertools
import pathlib
import re

from repro.experiments.registry import EXPERIMENTS, ExperimentRuns
from tests.regen_goldens import _changes

RESULTS_DIR = pathlib.Path(__file__).parents[1] / "benchmarks" / "results"


def table_cells(text):
    """A rendered table as ``{"row/column": cell}``, timings left out.

    A row is named by its first cell, or its first two where the first
    repeats (Figure 15). Lines after the rows (Figure 10's summary) are
    keyed by their text before ``": "``.
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
    return cells


def cell_changes(name, before, after):
    """``name: row/column: before -> after`` per changed cell."""
    return [f"{name}: {where[1:]}: {old} -> {new}"
            for where, old, new in _changes(table_cells(before),
                                            table_cells(after), "")]


def regenerate():
    runs, changed = ExperimentRuns(), 0
    for experiment in EXPERIMENTS.values():
        path = RESULTS_DIR / experiment.results
        before = path.read_text() if path.exists() else ""
        path.write_text(experiment.format(runs[experiment.run]) + "\n")
        for line in cell_changes(path.name, before, path.read_text()):
            print(line)
            changed += 1
    print(f"{len(EXPERIMENTS)} tables regenerated, {changed} cell(s) "
          f"changed")


if __name__ == "__main__":
    regenerate()
