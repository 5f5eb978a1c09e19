"""Shared setup and formatting for the paper-experiment runners.

Every experiment follows the Section 8.2 conventions implemented in
:meth:`NetworkState.calibrated`; this module adds the pieces they all
share — building a topology's calibrated state, synthesizing
asymmetric-route class sets, and rendering aligned text tables like the
paper's.

Experiment sizes default to a "quick" scale that preserves every
qualitative shape while keeping a full benchmark run in minutes; set
the environment variable ``REPRO_SCALE=full`` to run at the paper's
full scale (all topologies, 100 variability matrices, 50 asymmetry
configurations per theta).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.inputs import NetworkState
from repro.topology.asymmetry import AsymmetricRoutingModel
from repro.topology.library import builtin_topology, builtin_topology_names
from repro.topology.routing import RoutingTable, shortest_path_routing
from repro.topology.topology import Topology
from repro.traffic.classes import TrafficClass
from repro.traffic.gravity import classes_from_matrix, gravity_traffic_matrix
from repro.traffic.matrix import TrafficMatrix

#: The paper's operating point (Section 8): replication may use 40 % of
#: a link's capacity, and the datacenter has 10x a NIDS node's.
MAX_LINK_LOAD = 0.4
DC_CAPACITY_FACTOR = 10.0


def full_scale() -> bool:
    """True when REPRO_SCALE=full — run at the paper's full scale."""
    return os.environ.get("REPRO_SCALE", "quick").lower() == "full"


def evaluation_topologies(quick_count: int = 4) -> List[str]:
    """Topology names to sweep: all eight at full scale, the first
    ``quick_count`` (spanning small to mid size) otherwise."""
    names = builtin_topology_names()
    return names if full_scale() else names[:quick_count]


@dataclass
class TopologySetup:
    """A topology with its gravity traffic and calibrated states."""

    topology: Topology
    routing: RoutingTable
    matrix: TrafficMatrix
    classes: List[TrafficClass]
    state: NetworkState


def setup_topology(name: str,
                   dc_capacity_factor: Optional[float] = None,
                   dc_anchor: Optional[str] = None,
                   total_sessions: Optional[float] = None
                   ) -> TopologySetup:
    """Build a topology + gravity traffic + calibrated state."""
    topology = builtin_topology(name)
    routing = shortest_path_routing(topology)
    matrix = gravity_traffic_matrix(topology, total_sessions)
    classes = classes_from_matrix(topology, matrix, routing)
    state = NetworkState.calibrated(
        topology, classes, dc_capacity_factor=dc_capacity_factor,
        dc_anchor=dc_anchor)
    return TopologySetup(topology, routing, matrix, classes, state)


def asymmetric_classes(setup: TopologySetup,
                       model: AsymmetricRoutingModel,
                       theta: float,
                       rng: np.random.Generator) -> List[TrafficClass]:
    """Classes whose routes follow one sampled asymmetry configuration.

    One bidirectional class per unordered ingress-egress pair: the
    forward direction takes the shortest path, the reverse takes the
    sampled overlap-targeted path (Section 8.3). Volumes merge both
    directions of the gravity matrix.
    """
    routes = {(r.source, r.target): r for r in model.generate(theta, rng)}
    classes = []
    for (source, target), route in sorted(routes.items()):
        volume = (setup.matrix.volume(source, target) +
                  setup.matrix.volume(target, source))
        if volume <= 0:
            continue
        classes.append(TrafficClass(
            name=f"{source}<->{target}",
            source=source, target=target,
            path=route.fwd_path,
            rev_path=route.rev_path,
            num_sessions=volume))
    return classes


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned text table (the benches print these)."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(headers[i]),
                  max((len(row[i]) for row in rendered), default=0))
              for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i])
                               for i in range(len(headers))))
    return "\n".join(lines)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Box-plot summary: min/q25/median/q75/max (Figure 15's whiskers)."""
    data = np.asarray(list(values), dtype=float)
    return {
        "min": float(data.min()),
        "q25": float(np.percentile(data, 25)),
        "median": float(np.percentile(data, 50)),
        "q75": float(np.percentile(data, 75)),
        "max": float(data.max()),
    }
