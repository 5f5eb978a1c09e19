"""Re-pin the goldens that follow the replication LP's vertex.

A change to which fraction columns the replication LP has (PR 23's
shared columns, PR 24's pruned tunnels) leaves every ``LoadCost`` alone
and lands the solver on another optimal vertex, so the plans — and
everything counted from them — move. This script makes exactly the
calls the tests make, prints one ``before -> after`` line per number
that changed, and rewrites the files::

    PYTHONPATH=src:. python tests/regen_goldens.py            # all
    PYTHONPATH=src:. python tests/regen_goldens.py rule_tables.json

It refuses any other golden: ``load_costs.json`` and
``dataplane_parent.json`` are generated *at a parent commit* to pin
behaviour across a change, and the mirror-free ``.lp`` files have no
fraction a vertex could move — a diff in one of those is a finding,
not a re-pin.
"""

import json
import pathlib
import sys

from repro.experiments import gap_to_json
from tests import (test_budget_integration, test_lp_writer_golden,
                   test_rule_table, test_scenario_golden,
                   test_shard_gap, test_sketch_gap)
from tests.conftest import is_wall_clock

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
LP_STEMS = ("replication_small", "replication_paired_small",
            "regional_small")


def _gap_document(series):
    """A gap experiment's JSON document without its wall-clock
    fields, which ``conftest.assert_matches_golden`` ignores."""
    def untimed(node):
        if isinstance(node, dict):
            return {key: untimed(value) for key, value in node.items()
                    if not is_wall_clock(key)}
        if isinstance(node, list):
            return [untimed(value) for value in node]
        return node
    return untimed(json.loads(gap_to_json(series)))


def _rule_tables():
    document = {}
    for topology in test_rule_table.GOLDEN_TOPOLOGIES:
        document.update(test_rule_table.rule_table_digests(topology))
    return document


#: golden file -> the document its test compares against
JSON_GOLDENS = {
    "rule_tables.json": _rule_tables,
    "scenario_fingerprints.json": test_scenario_golden.golden_document,
    "budget_curve_tinet.json": lambda: _gap_document(
        test_budget_integration.budget_curve()),
    "shard_gap_tinet.json": lambda: _gap_document(
        [test_shard_gap.shard_gap_series()]),
    "sketch_gap_tinet.json": lambda: _gap_document(
        [test_sketch_gap.sketch_gap_series()]),
}
REGENERABLE = tuple(JSON_GOLDENS) + tuple(f"{stem}.lp"
                                          for stem in LP_STEMS)


def _changes(before, after, where):
    """``(path, before, after)`` per leaf that differs."""
    if isinstance(before, dict) and isinstance(after, dict):
        for key in sorted(set(before) | set(after)):
            yield from _changes(before.get(key), after.get(key),
                                f"{where}.{key}")
    elif (isinstance(before, list) and isinstance(after, list)
          and len(before) == len(after)):
        for index, pair in enumerate(zip(before, after)):
            yield from _changes(*pair, f"{where}[{index}]")
    elif before != after:
        yield where, before, after


def _lp_summary(text):
    """What a ``.lp`` golden's diff comes down to: how many rows and
    how many bounded columns (the fractions) it states."""
    lines = text.splitlines()
    rows, bounds, end = (lines.index(section) for section in
                         ("Subject To", "Bounds", "End"))
    return {"rows": bounds - rows - 1, "fractions": end - bounds - 1}


def regenerate(names):
    refused = sorted(set(names) - set(REGENERABLE))
    if refused:
        raise SystemExit(
            f"refusing to regenerate {', '.join(refused)}: only "
            f"{', '.join(REGENERABLE)} follow the LP's vertex")
    lp_texts = {path.name: text for path, text in
                test_lp_writer_golden.golden_texts().items()}
    for name in names:
        path = GOLDEN_DIR / name
        if name in JSON_GOLDENS:
            # Through JSON, as the tests read it: tuples are lists.
            text = json.dumps(JSON_GOLDENS[name](), indent=2,
                              sort_keys=True) + "\n"
            before, after = json.loads(path.read_text()), json.loads(text)
        else:
            text = lp_texts[name]
            before, after = _lp_summary(path.read_text()), \
                _lp_summary(text)
        changed = list(_changes(before, after, name))
        for where, old, new in changed:
            print(f"{where}: {old} -> {new}")
        if text != path.read_text():
            path.write_text(text)
        print(f"{name}: {len(changed)} value(s) changed")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or REGENERABLE)
