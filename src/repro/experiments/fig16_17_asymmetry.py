"""Figures 16 and 17 — detection miss rate and max load vs route overlap.

Section 8.3's experiment: forward paths are shortest paths; reverse
paths are sampled to hit a target expected Jaccard overlap theta. For
each theta, many random configurations are generated and the median of
two metrics reported for three architectures:

- ``Ingress`` — gateway-only processing: misses every session whose
  reverse path avoids the gateway (>85% miss in the paper), with
  deceptively low load (it ignores most traffic).
- ``Path`` — the Section 5 LP without offloading: only ``P_common``
  nodes provide effective coverage, so miss falls as overlap grows.
- ``DC-0.4`` — the full Section 5 formulation with a 10x datacenter
  and MaxLinkLoad 0.4: miss ~0 across the range; its max load first
  rises (link budget limits offloading at low overlap) then falls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.inputs import NetworkState
from repro.core.split import SplitTrafficProblem, ingress_split_result
from repro.experiments.common import (
    DC_CAPACITY_FACTOR,
    MAX_LINK_LOAD,
    asymmetric_classes,
    format_table,
    full_scale,
    setup_topology,
)
from repro.topology.asymmetry import AsymmetricRoutingModel

DEFAULT_THETAS: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5,
                                     0.6, 0.7, 0.8, 0.9)
CONFIG_LABELS = ("ingress", "path", "dc-0.4")
TOPOLOGY = "internet2"
SEED = 16


@dataclass
class AsymmetryPoint:
    """Median metrics at one (theta, architecture) point."""

    theta: float
    config: str
    miss_rate: float
    max_load: float


def run_fig16_17(thetas: Sequence[float] = DEFAULT_THETAS,
                 runs_per_theta: Optional[int] = None
                 ) -> List[AsymmetryPoint]:
    """Sweep the expected overlap factor for the three architectures.

    Args:
        runs_per_theta: random configurations per theta (paper: 50;
            quick default: 8).
    """
    if runs_per_theta is None:
        runs_per_theta = 50 if full_scale() else 8
    setup = setup_topology(TOPOLOGY)
    model = AsymmetricRoutingModel(setup.topology, setup.routing)
    rng = np.random.default_rng(SEED)

    points: List[AsymmetryPoint] = []
    for theta in thetas:
        metrics: Dict[str, List[Tuple[float, float]]] = {
            label: [] for label in CONFIG_LABELS}
        for _ in range(runs_per_theta):
            classes = asymmetric_classes(setup, model, theta, rng)
            state = NetworkState.calibrated(
                setup.topology, classes,
                dc_capacity_factor=DC_CAPACITY_FACTOR)

            ingress = ingress_split_result(state)
            metrics["ingress"].append(
                (ingress.miss_rate, ingress.load_cost))

            path = SplitTrafficProblem(state,
                                       allow_offload=False).solve()
            metrics["path"].append((path.miss_rate, path.load_cost))

            dc = SplitTrafficProblem(
                state, max_link_load=MAX_LINK_LOAD).solve()
            metrics["dc-0.4"].append((dc.miss_rate, dc.load_cost))
        for label in CONFIG_LABELS:
            misses = [m for m, _ in metrics[label]]
            loads = [l for _, l in metrics[label]]
            points.append(AsymmetryPoint(
                theta=theta, config=label,
                miss_rate=float(np.median(misses)),
                max_load=float(np.median(loads))))
    return points


def format_fig16(points: Sequence[AsymmetryPoint]) -> str:
    return _format(points, "miss_rate",
                   "Figure 16: median detection miss rate vs overlap")


def format_fig17(points: Sequence[AsymmetryPoint]) -> str:
    return _format(points, "max_load",
                   "Figure 17: median max compute load vs overlap")


def _format(points: Sequence[AsymmetryPoint], attr: str,
            title: str) -> str:
    thetas = sorted({p.theta for p in points})
    by_key = {(p.config, p.theta): getattr(p, attr) for p in points}
    headers = ["Config"] + [f"{t:.1f}" for t in thetas]
    body = [[label] + [f"{by_key[(label, t)]:.3f}" for t in thetas]
            for label in CONFIG_LABELS]
    return format_table(headers, body, title=title)
