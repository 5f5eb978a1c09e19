"""Rule packs for the :mod:`repro.analysis` engine.

Rules are grouped by the invariant family they protect:

- :mod:`~repro.analysis.rules.determinism` (DET) — bit-reproducible
  runtime/simulation/sketch/ingest layers and seed provenance (on
  the :mod:`~repro.analysis.dataflow` taint layer).
- :mod:`~repro.analysis.rules.numerics` (NUM) — float and dtype
  discipline on solver and hash paths.
- :mod:`~repro.analysis.rules.metrics` (MET) — metric namespace vs
  the documented table.
- :mod:`~repro.analysis.rules.hygiene` (HYG) — general code health
  plus the strict-typing scope gate.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import Rule
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
from repro.analysis.rules.metrics import (
    DOC_RELATIVE_PATH,
    MetricsDocRule,
)
from repro.analysis.rules.numerics import (
    FloatEqualityRule,
    HashDtypeRule,
    MemmapDtypeRule,
)

__all__ = [
    "BuildModelInLoopRule",
    "FloatEqualityRule",
    "HashDtypeRule",
    "MemmapDtypeRule",
    "MetricsDocRule",
    "MutableDefaultRule",
    "SeedProvenanceRule",
    "StrictAnnotationRule",
    "UnseededRandomRule",
    "UnusedImportRule",
    "WallClockRule",
    "default_rules",
]


def default_rules(project_root: Optional[Path] = None) -> List[Rule]:
    """The full shipped rule set.

    The metrics cross-check needs a project root to find
    ``docs/observability.md``; without one it still runs (so a
    metric-emitting tree without docs fails loudly) but resolves the
    doc path relative to the current directory.
    """
    doc_path = (project_root or Path(".")) / DOC_RELATIVE_PATH
    return [
        WallClockRule(),
        UnseededRandomRule(),
        SeedProvenanceRule(),
        FloatEqualityRule(),
        HashDtypeRule(),
        MemmapDtypeRule(),
        BuildModelInLoopRule(),
        MutableDefaultRule(),
        UnusedImportRule(),
        StrictAnnotationRule(),
        MetricsDocRule(doc_path),
    ]
