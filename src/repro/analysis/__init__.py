"""Domain-aware static analysis for the reproduction.

Two complementary layers:

- the **AST lint engine** (:mod:`~repro.analysis.engine` plus the
  rule packs in :mod:`~repro.analysis.rules`) — scans source files
  for violations of the codebase's load-bearing invariants:
  determinism of the runtime/simulation layers, uint32 discipline on
  the hash path, float-comparison hygiene on solver outputs, metric
  namespace vs the documented table, and general code health. The
  :mod:`~repro.analysis.dataflow` seed-taint layer decides which
  seeds descend from ``Scenario.seed``. Same-instant event ordering
  is verified dynamically by ``repro racecheck``, not here;
- the **model verifier** (:mod:`~repro.analysis.modelcheck`) — checks
  built LPs, compiled shim range tables and the sharded planner's
  regional tables against the paper's structural invariants
  (``cover`` rows partition a class; hash ranges tile [0, 2^32)
  exactly once, within a rule budget). Solved fractions are checked
  by ``repro.core.validation``, not here.

Front ends: ``repro lint`` on the command line (what CI runs on the
repo itself) and :func:`~repro.analysis.modelcheck.precheck` as a
library pre-solve guard (enabled globally with
``REPRO_VERIFY_MODELS=1``, which also runs the sharded checks on
every ``ShardedPlanner`` plan).
"""

from __future__ import annotations

from repro.analysis.dataflow import SeedTaint, is_seed_name
from repro.analysis.engine import (
    FileContext,
    Finding,
    LintEngine,
    ProjectRule,
    Rule,
    Severity,
    iter_python_files,
    render_json,
    render_text,
)
from repro.analysis.modelcheck import (
    ModelCheckError,
    check_model,
    check_shard_capacity,
    check_sharded_configs,
    check_shim_configs,
    precheck,
)
from repro.analysis.rules import default_rules

__all__ = [
    "FileContext",
    "Finding",
    "LintEngine",
    "SeedTaint",
    "ModelCheckError",
    "ProjectRule",
    "Rule",
    "Severity",
    "check_model",
    "check_shard_capacity",
    "check_sharded_configs",
    "check_shim_configs",
    "default_rules",
    "is_seed_name",
    "iter_python_files",
    "precheck",
    "render_json",
    "render_text",
]
