"""Figure 15 — peak load distribution under traffic variability.

100 time-varying traffic matrices (empirical-CDF perturbations of the
gravity mean) are evaluated against provisioning calibrated on the
*mean* matrix, for five architectures: Ingress, Path-No-Replicate,
DC-Only (Path-Replicate), DC + one-hop, and Path-Augmented (for the
paper's aside that its worst case is ~4x worse than the replication
architectures'). The paper's shape: the replication
architectures dominate; the no-replication worst cases blow well past
load 1, while replication keeps even the maximum tamed
(order-of-magnitude reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.architectures import ArchitectureEvaluator, ArchitectureKind
from repro.experiments.common import (
    DC_CAPACITY_FACTOR,
    MAX_LINK_LOAD,
    evaluation_topologies,
    format_table,
    full_scale,
    quartiles,
    setup_topology,
)
from repro.traffic.gravity import classes_from_matrix
from repro.traffic.variability import TrafficVariabilityModel

FIG15_ARCHITECTURES = (
    ArchitectureKind.INGRESS,
    ArchitectureKind.PATH_NO_REPLICATE,
    ArchitectureKind.PATH_REPLICATE,      # "DC Only"
    ArchitectureKind.DC_PLUS_ONE_HOP,
    ArchitectureKind.PATH_AUGMENTED,
)


@dataclass
class Fig15Row:
    """One (topology, architecture) peak-load distribution."""

    topology: str
    architecture: ArchitectureKind
    summary: Dict[str, float]  # min/q25/median/q75/max


def run_fig15(topologies: Optional[Sequence[str]] = None,
              num_matrices: Optional[int] = None,
              seed: int = 15) -> List[Fig15Row]:
    """Evaluate peak load across time-varying matrices.

    Args:
        num_matrices: how many varying matrices (paper: 100); the quick
            default is 12, full scale uses 100.
        seed: each topology's matrix RNG starts from it.
    """
    if num_matrices is None:
        num_matrices = 100 if full_scale() else 12
    if topologies is None:
        # 100 matrices x 4+ architectures is expensive on the largest
        # ISPs; at full scale sweep the first four topologies (which
        # already span 11-41 PoPs) and all eight can be requested
        # explicitly.
        topologies = (evaluation_topologies()[:4] if full_scale()
                      else evaluation_topologies(quick_count=2))
    model = TrafficVariabilityModel.default()
    rows = []
    for name in topologies:
        setup = setup_topology(name)
        evaluator = ArchitectureEvaluator(
            setup.topology, setup.classes,
            dc_capacity_factor=DC_CAPACITY_FACTOR,
            max_link_load=MAX_LINK_LOAD)
        rng = np.random.default_rng(seed)
        matrices = model.generate_matrices(setup.matrix, num_matrices,
                                           rng)
        peaks: Dict[ArchitectureKind, List[float]] = {
            kind: [] for kind in FIG15_ARCHITECTURES}
        for matrix in matrices:
            classes = classes_from_matrix(setup.topology, matrix,
                                          setup.routing)
            for kind in FIG15_ARCHITECTURES:
                result = evaluator.evaluate(kind, classes=classes)
                peaks[kind].append(result.load_cost)
        rows.extend(Fig15Row(name, kind, quartiles(peaks[kind]))
                    for kind in FIG15_ARCHITECTURES)
    return rows


def format_fig15(rows: Sequence[Fig15Row]) -> str:
    headers = ["Topology", "Architecture", "min", "q25", "median",
               "q75", "max"]
    body = [[r.topology, r.architecture.value] +
            [f"{r.summary[k]:.3f}"
             for k in ("min", "q25", "median", "q75", "max")]
            for r in rows]
    return format_table(
        headers, body,
        title="Figure 15: peak load under traffic variability")
