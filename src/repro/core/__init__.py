"""The paper's primary contribution: network-wide NIDS optimization.

Three LP formulations assign processing / replication / aggregation
responsibilities across the network:

- :class:`ReplicationProblem` — Section 4 (Figure 7): on-path
  distribution + off-path replication under a max-link-load budget.
- :class:`SplitTrafficProblem` — Section 5: asymmetric forward/reverse
  routes; minimizes ``LoadCost + gamma * MissRate``.
- :class:`AggregationProblem` — Section 6 (Figure 9): per-source task
  splitting with report aggregation; minimizes
  ``LoadCost + beta * CommCost``.

Supporting pieces: :class:`NetworkState` (calibrated inputs, Section
8.2), :class:`MirrorPolicy` (mirror sets ``M_j``), datacenter placement
strategies, and the named architecture presets compared in the figures.
"""

from repro.core.inputs import (
    DC_NODE_NAME,
    NetworkState,
    ingress_requirements,
    link_background_bytes,
)
from repro.core.formulation import Formulation
from repro.core.mirrors import MirrorKind, MirrorPolicy
from repro.core.placement import PLACEMENT_STRATEGIES, place_datacenter
from repro.core.replication import ReplicationProblem
from repro.core.split import (
    DEFAULT_GAMMA,
    SplitTrafficProblem,
    ingress_split_result,
)
from repro.core.aggregation import (
    AggregationProblem,
    ingress_aggregation_point,
)
from repro.core.architectures import (
    ArchitectureEvaluator,
    ArchitectureKind,
    evaluate_architecture,
    ingress_result,
)
from repro.core.results import (
    AggregationResult,
    AssignmentResult,
    LPStats,
    ReplicationResult,
    SplitTrafficResult,
)
from repro.core.extensions import (
    FORTZ_THORUP_SEGMENTS,
    piecewise_link_cost,
)
from repro.core.nips import NIPSProblem, NIPSResult
from repro.core.robustness import (
    provisioning_shortfall,
    slack_factor,
    with_slack,
)
from repro.core.combined import CombinedProblem
from repro.core.controller import NIDSController, Rollout
from repro.core.validation import (
    plan_loads,
    validate_aggregation,
    validate_replication,
    validate_split,
)
from repro.core.failures import (
    FailureImpact,
    cascade_risk,
    fail_link,
    fail_node,
)

__all__ = [
    "AggregationProblem",
    "AggregationResult",
    "CombinedProblem",
    "FailureImpact",
    "NIDSController",
    "NIPSProblem",
    "NIPSResult",
    "cascade_risk",
    "fail_link",
    "fail_node",
    "provisioning_shortfall",
    "slack_factor",
    "Rollout",
    "plan_loads",
    "validate_aggregation",
    "validate_replication",
    "validate_split",
    "with_slack",
    "ArchitectureEvaluator",
    "ArchitectureKind",
    "AssignmentResult",
    "DC_NODE_NAME",
    "DEFAULT_GAMMA",
    "FORTZ_THORUP_SEGMENTS",
    "Formulation",
    "LPStats",
    "MirrorKind",
    "MirrorPolicy",
    "NetworkState",
    "PLACEMENT_STRATEGIES",
    "ReplicationProblem",
    "ReplicationResult",
    "SplitTrafficProblem",
    "SplitTrafficResult",
    "evaluate_architecture",
    "ingress_aggregation_point",
    "ingress_requirements",
    "ingress_result",
    "ingress_split_result",
    "link_background_bytes",
    "piecewise_link_cost",
    "place_datacenter",
]
