"""The backwards-compatible shim layer (Section 7 of the paper).

The real system interposes a Click-based shim between the network and
an unmodified NIDS process. Per packet it computes a lightweight hash
of the canonicalized IP 5-tuple, looks up the packet's class, and — per
the hash-range configuration compiled from the LP solution — processes
the packet locally, replicates it to a mirror node, or ignores it.
This package reproduces that logic exactly (hash canonicalization for
bidirectional consistency included); the Click data path is replaced by
in-process Python objects driven by the trace simulator.
"""

from repro.shim.batch import (
    BatchShimKernel,
    MirrorLinkIndex,
    UnsupportedShimConfig,
)
from repro.shim.budget import BudgetedLowering, budgeted_hash_ranges
from repro.shim.diff import (
    ConfigDelta,
    apply_delta,
    canonical_config,
    diff_config,
    diff_configs,
)
from repro.shim.hashing import (
    FiveTuple,
    bob_hash,
    bob_hash_batch,
    canonical_five_tuple,
    field_hash,
    field_hash_batch,
    session_hash,
    session_hash_batch,
)
from repro.shim.ranges import HashRange, compile_hash_ranges
from repro.shim.config import (
    ShimAction,
    ShimConfig,
    ShimRule,
    build_aggregation_configs,
    build_replication_configs,
    build_split_configs,
    union_config,
)
from repro.shim.shim import Shim, ShimDecision
from repro.shim.table import RuleTable

__all__ = [
    "BatchShimKernel",
    "BudgetedLowering",
    "ConfigDelta",
    "FiveTuple",
    "HashRange",
    "MirrorLinkIndex",
    "RuleTable",
    "Shim",
    "ShimAction",
    "ShimConfig",
    "ShimDecision",
    "ShimRule",
    "UnsupportedShimConfig",
    "apply_delta",
    "bob_hash",
    "bob_hash_batch",
    "budgeted_hash_ranges",
    "build_aggregation_configs",
    "build_replication_configs",
    "build_split_configs",
    "canonical_config",
    "canonical_five_tuple",
    "compile_hash_ranges",
    "diff_config",
    "diff_configs",
    "field_hash",
    "field_hash_batch",
    "session_hash",
    "session_hash_batch",
    "union_config",
]
