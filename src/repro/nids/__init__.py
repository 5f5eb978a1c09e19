"""Simulated NIDS analysis engines.

The paper runs unmodified Snort/Bro on top of the shim; the
reproduction replaces them with faithful, instrumented Python engines
covering the analysis types the paper reasons about:

- :class:`SignatureEngine` — per-session payload signature matching
  (Aho-Corasick multi-pattern search), the distributable analysis of
  Figure 2.
- :class:`ScanDetector` — per-source distinct-destination counting, the
  topologically-constrained analysis that aggregation unlocks
  (Sections 2, 6).
- :class:`StatefulSessionAnalyzer` — analysis requiring *both*
  directions of a session at one location (Section 5's motivation).
- :class:`ScanAggregator` — combines intermediate scan reports and
  applies the alert threshold only at the aggregation point
  (Section 7.3), preserving centralized semantics.

Every engine accounts its work in abstract *work units* (per-session
setup plus per-byte inspection) — the reproduction's stand-in for the
PAPI CPU instruction counts of Figure 10.
"""

from repro.nids.engine import EngineStats, NIDSEngine
from repro.nids.signature import AhoCorasick, SignatureEngine, SignatureMatch
from repro.nids.scan import ScanDetector
from repro.nids.stateful import StatefulSessionAnalyzer
from repro.nids.reports import (
    DestinationSetReport,
    FlowTupleReport,
    SourceCountReport,
)
from repro.nids.aggregator import (
    ScanAggregator,
    SplitStrategy,
    aggregate_reports,
    report_cost_record_hops,
)
from repro.nids.encoding import (
    ReportDecodeError,
    decode_report,
    encode_report,
    encoded_size,
)
from repro.nids.flood import FloodDetector
from repro.nids.profiling import (
    CostModel,
    apply_cost_model,
    fit_cost_model,
    profile_engine,
)

__all__ = [
    "AhoCorasick",
    "CostModel",
    "DestinationSetReport",
    "ReportDecodeError",
    "apply_cost_model",
    "decode_report",
    "encode_report",
    "encoded_size",
    "fit_cost_model",
    "profile_engine",
    "EngineStats",
    "FloodDetector",
    "FlowTupleReport",
    "NIDSEngine",
    "ScanAggregator",
    "ScanDetector",
    "SignatureEngine",
    "SignatureMatch",
    "SourceCountReport",
    "SplitStrategy",
    "StatefulSessionAnalyzer",
    "aggregate_reports",
    "report_cost_record_hops",
]
