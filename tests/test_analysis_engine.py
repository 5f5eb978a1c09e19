"""The repro.analysis lint engine: rules, pragmas, CLI.

Each rule is exercised against a trigger fixture (must flag) and a
clean sibling (must not) from ``tests/analysis_fixtures/``; the
acceptance-style injection test copies the real ``runtime/scenario.py``
into a scratch tree, plants a ``time.time()`` call, and asserts DET001
catches it. The self-scan test is the gate's gate: the shipped source
tree must lint clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import LintEngine, render_json, render_text
from repro.analysis.docsync import parse_metric_table
from repro.analysis.rules import default_rules
from repro.analysis.rules.determinism import (
    SeedProvenanceRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.analysis.rules.hygiene import (
    BuildModelInLoopRule,
    MutableDefaultRule,
    StrictAnnotationRule,
    UnusedImportRule,
)
from repro.analysis.rules.metrics import MetricsDocRule
from repro.analysis.rules.numerics import (
    FloatEqualityRule,
    HashDtypeRule,
    MemmapDtypeRule,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]

#: (rule factory, rule id, trigger fixture(s), expected count, clean
#: fixture(s)); the sketch fixtures put the sketch layer in DET scope
RULE_CASES = [
    (WallClockRule, "DET001",
     ("runtime/det001_trigger.py", "sketch/det_trigger.py"), 3,
     ("runtime/det001_clean.py", "sketch/det_clean.py")),
    (UnseededRandomRule, "DET002",
     ("runtime/det002_trigger.py", "sketch/det_trigger.py"), 4,
     ("runtime/det002_clean.py", "sketch/det_clean.py")),
    (FloatEqualityRule, "NUM001", "num001_trigger.py", 2,
     "num001_clean.py"),
    (HashDtypeRule, "NUM002", "shim/num002_trigger.py", 2,
     "shim/num002_clean.py"),
    (MemmapDtypeRule, "NUM003", "simulation/num003_trigger.py", 2,
     "simulation/num003_clean.py"),
    (BuildModelInLoopRule, "HYG001", "hyg001_trigger.py", 1,
     "hyg001_clean.py"),
    (BuildModelInLoopRule, "HYG001",
     "core/controller/hyg001_problem_trigger.py", 1,
     "core/controller/hyg001_problem_clean.py"),
    (MutableDefaultRule, "HYG002", "hyg002_trigger.py", 2,
     "hyg002_clean.py"),
    (UnusedImportRule, "HYG003", "hyg003_trigger.py", 2,
     "hyg003_clean.py"),
    (StrictAnnotationRule, "HYG004", "lpsolve/hyg004_trigger.py", 2,
     "lpsolve/hyg004_clean.py"),
    (SeedProvenanceRule, "DET003", "runtime/det003_trigger.py", 2,
     "runtime/det003_clean.py"),
]


def run_rule(rule, *paths: Path):
    engine = LintEngine(rules=[rule], project_root=FIXTURES)
    return engine.run(list(paths))


def fixtures(spec):
    """Fixture paths for one RULE_CASES entry (a path or a tuple)."""
    names = (spec,) if isinstance(spec, str) else spec
    return [FIXTURES / name for name in names]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "factory,rule_id,trigger,count,clean", RULE_CASES,
        ids=[case[1] for case in RULE_CASES])
    def test_trigger_flagged(self, factory, rule_id, trigger, count,
                             clean):
        findings = run_rule(factory(), *fixtures(trigger))
        assert len(findings) == count
        assert all(f.rule_id == rule_id for f in findings)
        assert all(f.line > 0 for f in findings)

    @pytest.mark.parametrize(
        "factory,rule_id,trigger,count,clean", RULE_CASES,
        ids=[case[1] for case in RULE_CASES])
    def test_clean_not_flagged(self, factory, rule_id, trigger, count,
                               clean):
        assert run_rule(factory(), *fixtures(clean)) == []

    def test_scoped_rules_ignore_out_of_scope_paths(self, tmp_path):
        # The same wall-clock source outside runtime//simulation/ is
        # legal (experiments measure real time on purpose).
        source = (FIXTURES / "runtime/det001_trigger.py").read_text(
            encoding="utf-8")
        target = tmp_path / "experiments" / "timing.py"
        target.parent.mkdir()
        target.write_text(source, encoding="utf-8")
        assert run_rule(WallClockRule(), target) == []

    def test_injected_wall_clock_in_scenario_is_caught(self, tmp_path):
        # Acceptance check: plant time.time() into a copy of the real
        # scenario runner and make sure the gate would catch it.
        scenario = (REPO_ROOT / "src/repro/runtime/scenario.py"
                    ).read_text(encoding="utf-8")
        target = tmp_path / "runtime" / "scenario.py"
        target.parent.mkdir()
        target.write_text(
            scenario + "\n\ndef _leak_wall_clock():\n"
                       "    import time\n"
                       "    return time.time()\n",
            encoding="utf-8")
        findings = run_rule(WallClockRule(), target)
        assert [f.rule_id for f in findings] == ["DET001"]
        assert "time.time" in findings[0].message

    def test_pristine_scenario_is_clean(self):
        source = REPO_ROOT / "src/repro/runtime/scenario.py"
        assert run_rule(WallClockRule(), source) == []


class TestPragmas:
    def test_same_line_and_comment_line_pragmas_suppress(self):
        findings = run_rule(WallClockRule(),
                            FIXTURES / "runtime/pragma_allow.py")
        # Three time.time() calls; only the unsuppressed one survives.
        assert len(findings) == 1
        text = (FIXTURES / "runtime/pragma_allow.py").read_text(
            encoding="utf-8")
        unsuppressed_line = next(
            i for i, line in enumerate(text.splitlines(), start=1)
            if "time.time()" in line and "allow[" not in line
            and "# repro-lint" not in text.splitlines()[i - 2])
        assert findings[0].line == unsuppressed_line

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        target = tmp_path / "runtime" / "mod.py"
        target.parent.mkdir()
        target.write_text(
            "import time\n\n"
            "def f():\n"
            "    return time.time()  # repro-lint: allow[NUM001]\n",
            encoding="utf-8")
        findings = run_rule(WallClockRule(), target)
        assert [f.rule_id for f in findings] == ["DET001"]

    def test_pragma_covers_multi_line_statement(self, tmp_path):
        # The pragma sits on the closing line of a call that spans
        # four lines; the finding anchors on the opening line.
        target = tmp_path / "runtime" / "mod.py"
        target.parent.mkdir()
        target.write_text(
            "import time\n\n"
            "def f(log):\n"
            "    log.record(\n"
            "        time.time(),\n"
            "        'started',\n"
            "    )  # repro-lint: allow[DET001]\n",
            encoding="utf-8")
        assert run_rule(WallClockRule(), target) == []

    def test_pragma_on_decorated_def_covers_header(self, tmp_path):
        # HYG002 anchors on the ``def`` line; a pragma on the
        # decorator line above it must still suppress.
        target = tmp_path / "mod.py"
        target.write_text(
            "import functools\n\n\n"
            "@functools.lru_cache()  # repro-lint: allow[HYG002]\n"
            "def f(items=[]):\n"
            "    return items\n",
            encoding="utf-8")
        engine = LintEngine(rules=[MutableDefaultRule()],
                            project_root=tmp_path)
        assert engine.run([target]) == []

    def test_pragma_span_does_not_leak_to_siblings(self, tmp_path):
        # A pragma inside one statement must not blanket the next.
        target = tmp_path / "mod.py"
        target.write_text(
            "def f(a=[]):  # repro-lint: allow[HYG002]\n"
            "    return a\n\n\n"
            "def g(b=[]):\n"
            "    return b\n",
            encoding="utf-8")
        engine = LintEngine(rules=[MutableDefaultRule()],
                            project_root=tmp_path)
        findings = engine.run([target])
        assert [f.line for f in findings] == [5]


class TestRendering:
    def test_json_schema(self):
        findings = run_rule(MutableDefaultRule(),
                            FIXTURES / "hyg002_trigger.py")
        payload = json.loads(render_json(findings))
        assert payload["version"] == 1
        assert len(payload["findings"]) == 2
        record = payload["findings"][0]
        assert set(record) == {"rule", "severity", "file", "line",
                               "message"}
        assert record["rule"] == "HYG002"
        assert record["severity"] == "error"

    def test_text_summary_counts(self):
        findings = run_rule(MutableDefaultRule(),
                            FIXTURES / "hyg002_trigger.py")
        report = render_text(findings, files_hint="fixtures")
        assert "2 error(s), 0 warning(s) in fixtures" in report
        assert report.count("[HYG002]") == 2


def _metric_project(tmp_path: Path, doc_table: str,
                    source: str) -> Path:
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "observability.md").write_text(
        "## Metric names\n\n| Name | Kind | Meaning |\n"
        "| --- | --- | --- |\n" + doc_table, encoding="utf-8")
    module = tmp_path / "mod.py"
    module.write_text(source, encoding="utf-8")
    return module


class TestMetricsDocRule:
    def _run(self, tmp_path: Path, doc_table: str, source: str):
        module = _metric_project(tmp_path, doc_table, source)
        rule = MetricsDocRule(tmp_path / "docs" / "observability.md")
        engine = LintEngine(rules=[rule], project_root=tmp_path)
        return engine.run([module])

    def test_documented_calls_pass(self, tmp_path):
        findings = self._run(
            tmp_path,
            "| `lp.solves` | counter | solves |\n"
            "| `lp.solve.seconds` | histogram | time |\n",
            "def f(reg):\n"
            "    reg.inc('lp.solves')\n"
            "    with reg.span('lp.solve'):\n"
            "        pass\n")
        assert findings == []

    def test_undocumented_metric_flagged(self, tmp_path):
        findings = self._run(
            tmp_path,
            "| `lp.solves` | counter | solves |\n",
            "def f(reg):\n"
            "    reg.inc('lp.solves')\n"
            "    reg.gauge('lp.mystery', 1.0)\n")
        assert [f.rule_id for f in findings] == ["MET001"]
        assert "lp.mystery" in findings[0].message

    def test_kind_mismatch_flagged(self, tmp_path):
        findings = self._run(
            tmp_path,
            "| `lp.solves` | gauge | oops |\n",
            "def f(reg):\n"
            "    reg.inc('lp.solves')\n")
        assert [f.rule_id for f in findings] == ["MET001"]
        assert "documented as a gauge" in findings[0].message

    def test_stale_doc_row_flagged(self, tmp_path):
        findings = self._run(
            tmp_path,
            "| `lp.solves` | counter | solves |\n"
            "| `lp.retired` | counter | gone |\n",
            "def f(reg):\n"
            "    reg.inc('lp.solves')\n")
        assert [f.rule_id for f in findings] == ["MET002"]
        assert "lp.retired" in findings[0].message

    def test_wildcard_row_matches_fstring_call(self, tmp_path):
        findings = self._run(
            tmp_path,
            "| `emulation.work_units.<node>` | gauge | per node |\n",
            "def f(reg, node):\n"
            "    reg.gauge(f'emulation.work_units.{node}', 1.0)\n")
        assert findings == []

    def test_partial_scan_without_calls_reports_nothing(self, tmp_path):
        findings = self._run(
            tmp_path,
            "| `lp.solves` | counter | solves |\n",
            "def f():\n    return 1\n")
        assert findings == []

    def test_missing_doc_with_calls_is_an_error(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("def f(reg):\n    reg.inc('x.y')\n",
                          encoding="utf-8")
        rule = MetricsDocRule(tmp_path / "docs" / "observability.md")
        engine = LintEngine(rules=[rule], project_root=tmp_path)
        findings = engine.run([module])
        assert [f.rule_id for f in findings] == ["MET002"]

    def test_table_parser_handles_multi_name_and_suffix_rows(self):
        table = ("## Metric names\n\n| Name | Kind |\n| --- | --- |\n"
                 "| `lp.solves`, `lp.writes` | counter |\n"
                 "| `shim.decision.process`, `.replicate` | counter |\n"
                 "| `emulation.work_units.<node>` | gauge |\n")
        names = parse_metric_table(table)
        assert names == {
            "lp.solves": "counter",
            "lp.writes": "counter",
            "shim.decision.process": "counter",
            "shim.decision.replicate": "counter",
            "emulation.work_units.*": "gauge",
        }

    def test_table_parser_rejects_missing_section(self):
        with pytest.raises(ValueError):
            parse_metric_table("# nothing here\n")


class TestSelfScan:
    def test_default_rule_set(self):
        assert [rule.rule_id for rule in default_rules(REPO_ROOT)] == [
            "DET001", "DET002", "DET003", "NUM001", "NUM002", "NUM003",
            "HYG001", "HYG002", "HYG003", "HYG004", "MET001"]

    def test_shipped_tree_is_clean(self):
        """The repo's own src/ must pass every rule."""
        engine = LintEngine(rules=default_rules(REPO_ROOT),
                            project_root=REPO_ROOT)
        findings = engine.run([REPO_ROOT / "src"])
        assert findings == [], "\n" + "\n".join(
            f.format() for f in findings)


class TestCli:
    def test_lint_default_scan_is_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_lint_json_output(self, capsys):
        assert main(["lint", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"version": 1, "findings": []}

    def test_lint_fails_on_trigger_fixture(self, capsys):
        trigger = str(FIXTURES / "hyg002_trigger.py")
        assert main(["lint", trigger, "--rules", "HYG002"]) == 1
        out = capsys.readouterr().out
        assert "[HYG002]" in out

    def test_lint_rule_filter_excludes_other_rules(self, capsys):
        trigger = str(FIXTURES / "hyg002_trigger.py")
        assert main(["lint", trigger, "--rules", "DET001"]) == 0

    def test_lint_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "definitely/not/a/path.py"]) == 2

    def test_unknown_rule_id_is_usage_error(self, capsys):
        """A typo in ``--rules`` must not lint with no rules at all."""
        trigger = str(FIXTURES / "hyg001_trigger.py")
        assert main(["lint", trigger, "--rules", "HYG01"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: unknown rule id(s): HYG01; known: DET001, ")
        assert "HYG001" in captured.err
        # One good id among bad ones is still refused.
        assert main(["lint", trigger, "--rules", "HYG001,XYZ9"]) == 2
        assert "unknown rule id(s): XYZ9;" in capsys.readouterr().err
        assert main(["lint", trigger, "--rules", "HYG001"]) == 1
