"""The static-analysis engine: file walker, rule registry, findings.

The engine parses every Python file once, hands the shared
:class:`FileContext` (source, AST, per-line pragma table) to each
registered rule, and collects :class:`Finding` records. Rules come in
two flavors:

- :class:`Rule` — per-file AST checks (``check(ctx)``).
- :class:`ProjectRule` — cross-file checks that accumulate state while
  files are scanned and emit findings in ``finalize()`` (e.g. the
  metrics rule, which compares every call site against the documented
  metric table).

Findings can be suppressed two ways:

- an inline pragma on the offending line —
  ``# repro-lint: allow[RULE-ID]`` (or ``allow[*]``);
- not registering the rule (``rule_ids=`` filter on
  :class:`LintEngine`).

`repro lint` (the CLI front-end) exits nonzero when any unsuppressed
error finding remains, which is what the CI job gates on.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import get_registry

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*allow\[([A-Za-z0-9*,\- ]+)\]")


class Severity(enum.Enum):
    """How bad a finding is; errors gate CI, warnings inform."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclasses.dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule fired at a location.

    Attributes:
        rule_id: stable identifier, e.g. ``DET001``.
        severity: :class:`Severity` (errors fail the lint gate).
        file: path the finding is anchored to (repo-relative when the
            engine was given a project root; model checks use a
            synthetic ``<model:...>`` path).
        line: 1-based line number (0 for file/model-level findings).
        message: human-readable description of the defect.
    """

    rule_id: str
    severity: Severity
    file: str
    line: int
    message: str

    def to_json(self) -> Dict[str, object]:
        """Plain-dict form for ``repro lint --json``."""
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "file": self.file,
            "line": self.line,
            "message": self.message,
        }

    def format(self) -> str:
        """One-line human rendering (``file:line: SEV RULE message``)."""
        return (f"{self.file}:{self.line}: {self.severity.value} "
                f"[{self.rule_id}] {self.message}")


class FileContext:
    """Everything a rule needs to know about one parsed file."""

    def __init__(self, path: Path, display_path: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree = tree
        self._allowed: Optional[Dict[int, frozenset]] = None

    @property
    def posix_path(self) -> str:
        """Display path with forward slashes (used for scope matching)."""
        return self.display_path.replace("\\", "/")

    def allowed_rules(self, line: int) -> frozenset:
        """Rule ids allowed by an inline pragma covering ``line``.

        A pragma on a pure comment line also covers the following
        line, so long messages can carry their justification::

            # Deliberate: the fold accepts any integer dtype.
            # repro-lint: allow[NUM002]
            arr = np.asarray(column)

        Pragmas cover whole *statements*, not just their own line: a
        pragma anywhere inside a multi-line statement suppresses a
        finding anchored to any of its lines, and on a decorated
        ``def`` a pragma on (or just above) a decorator covers the
        ``def`` line findings anchor to. Compound statements
        (``def``/``for``/``if``...) only spread pragmas across their
        *header* — their bodies are separate statements with their
        own spans.
        """
        if self._allowed is None:
            table: Dict[int, frozenset] = {}
            for num, text in enumerate(self.source.splitlines(), start=1):
                match = _PRAGMA_RE.search(text)
                if not match:
                    continue
                ids = frozenset(
                    part.strip()
                    for part in match.group(1).split(","))
                table[num] = table.get(num, frozenset()) | ids
                if text.lstrip().startswith("#"):
                    table[num + 1] = table.get(num + 1,
                                               frozenset()) | ids
            for start, end in self._statement_spans():
                span_ids = frozenset().union(*(
                    table.get(num, frozenset())
                    for num in range(start, end + 1)))
                if not span_ids:
                    continue
                for num in range(start, end + 1):
                    table[num] = table.get(num, frozenset()) | span_ids
            self._allowed = table
        return self._allowed.get(line, frozenset())

    def _statement_spans(self) -> List[Tuple[int, int]]:
        """(start, end) line ranges a pragma spreads across: full
        spans for simple statements, decorators + header for
        compound ones."""
        spans: List[Tuple[int, int]] = []
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt):
                continue
            body = getattr(node, "body", None)
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.ClassDef)):
                start = min([node.lineno, *(
                    decorator.lineno
                    for decorator in node.decorator_list)])
                end = max(node.lineno, node.body[0].lineno - 1)
            elif isinstance(body, list) and body:
                # other compound statements: header lines only
                start = node.lineno
                end = max(node.lineno, body[0].lineno - 1)
            else:
                start = node.lineno
                end = node.end_lineno or node.lineno
            if end > start:
                spans.append((start, end))
        return spans

    def is_allowed(self, rule_id: str, line: int) -> bool:
        allowed = self.allowed_rules(line)
        return rule_id in allowed or "*" in allowed


class Rule:
    """Base class for per-file rules.

    Subclasses set :attr:`rule_id`, :attr:`title` and
    :attr:`severity`, and implement :meth:`check`.
    """

    rule_id = "RULE000"
    title = ""
    severity = Severity.ERROR

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, line: int,
                message: str) -> Finding:
        """Build a finding anchored to ``ctx``."""
        return Finding(self.rule_id, self.severity, ctx.display_path,
                       line, message)


class ProjectRule(Rule):
    """A rule that needs the whole project before it can conclude.

    ``check`` accumulates per-file state (and may still yield per-file
    findings); ``finalize`` runs after the walk and yields the
    cross-file findings.
    """

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finalize(self) -> Iterable[Finding]:
        """Yield findings that required seeing every file."""
        return ()


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    """All ``*.py`` files under ``paths`` (files pass through),
    sorted for deterministic output, skipping caches."""
    seen = set()
    for root in paths:
        if root.is_file():
            candidates: Iterable[Path] = [root]
        else:
            candidates = sorted(root.rglob("*.py"))
        for path in candidates:
            if "__pycache__" in path.parts:
                continue
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield path


class LintEngine:
    """Walks files, runs rules, collects findings.

    Args:
        rules: rule instances to run (default: the full registry from
            :func:`repro.analysis.rules.default_rules`).
        project_root: directory findings are reported relative to;
            also where project-level rules look for ``docs/``.
        rule_ids: optional subset filter (keep only these ids).

    Raises:
        ValueError: ``rule_ids`` names an id none of the rules has.
    """

    def __init__(self, rules: Optional[Sequence[Rule]] = None,
                 project_root: Optional[Path] = None,
                 rule_ids: Optional[Sequence[str]] = None) -> None:
        if rules is None:
            from repro.analysis.rules import default_rules
            rules = default_rules(project_root)
        if rule_ids is not None:
            known = [rule.rule_id for rule in rules]
            unknown = sorted(set(rule_ids).difference(known))
            if unknown:
                raise ValueError(
                    f"unknown rule id(s): {', '.join(unknown)}; "
                    f"known: {', '.join(known)}")
            rules = [rule for rule in rules if rule.rule_id in rule_ids]
        self.rules: List[Rule] = list(rules)
        self.project_root = project_root

    def _display_path(self, path: Path) -> str:
        if self.project_root is not None:
            try:
                return str(path.resolve().relative_to(
                    self.project_root.resolve()))
            except ValueError:
                pass
        return str(path)

    def run(self, paths: Sequence[Path]) -> List[Finding]:
        """Scan ``paths`` and return the findings no pragma allows."""
        metrics = get_registry()
        findings: List[Finding] = []
        files = 0
        for path in iter_python_files(paths):
            files += 1
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                findings.append(Finding(
                    "PARSE", Severity.ERROR, self._display_path(path),
                    exc.lineno or 0, f"syntax error: {exc.msg}"))
                continue
            ctx = FileContext(path, self._display_path(path), source,
                              tree)
            for rule in self.rules:
                for finding in rule.check(ctx):
                    if not ctx.is_allowed(finding.rule_id,
                                          finding.line):
                        findings.append(finding)
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                findings.extend(rule.finalize())
        metrics.inc("analysis.files_scanned", files)
        metrics.inc("analysis.findings", len(findings))
        return sorted(findings,
                      key=lambda f: (f.file, f.line, f.rule_id))


def render_text(findings: Sequence[Finding],
                files_hint: str = "") -> str:
    """Human-readable report (one finding per line plus a summary)."""
    lines = [finding.format() for finding in findings]
    errors = sum(1 for f in findings
                 if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    if findings:
        lines.append("")
    summary = f"{errors} error(s), {warnings} warning(s)"
    if files_hint:
        summary += f" in {files_hint}"
    lines.append(summary)
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """JSON report: ``{"version": 1, "findings": [...]}``."""
    return json.dumps(
        {"version": 1,
         "findings": [f.to_json() for f in findings]},
        indent=2, sort_keys=True)
