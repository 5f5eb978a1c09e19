"""Mirror-set policies: who may each NIDS node offload to.

Section 4 defines a mirror set ``M_j`` per node — the candidates node
``j`` may replicate traffic to. The paper exercises three shapes, all
expressible here: a single datacenter (``M_j = {N_DC}``), local one- or
two-hop neighborhoods, and the fully general "all nodes" policy, plus
the Figure 15 combination of datacenter + one-hop neighbors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.core.inputs import NetworkState


class MirrorKind(enum.Enum):
    """Supported mirror-set shapes."""

    NONE = "none"
    DATACENTER = "datacenter"
    NEIGHBORS = "neighbors"
    DATACENTER_PLUS_NEIGHBORS = "datacenter+neighbors"
    ALL = "all"


@dataclass(frozen=True)
class MirrorPolicy:
    """A declarative mirror-set policy.

    Build instances with the class-method constructors::

        MirrorPolicy.none()                  # pure on-path [29]
        MirrorPolicy.datacenter()            # M_j = {N_DC}
        MirrorPolicy.neighbors(hops=1)       # local offload
        MirrorPolicy.datacenter_plus_neighbors(hops=1)
        MirrorPolicy.all_nodes()             # M_j = N \\ {N_j}
    """

    kind: MirrorKind
    hops: int = 0

    @classmethod
    def none(cls) -> "MirrorPolicy":
        return cls(MirrorKind.NONE)

    @classmethod
    def datacenter(cls) -> "MirrorPolicy":
        return cls(MirrorKind.DATACENTER)

    @classmethod
    def neighbors(cls, hops: int = 1) -> "MirrorPolicy":
        if hops < 1:
            raise ValueError("hops must be at least 1")
        return cls(MirrorKind.NEIGHBORS, hops=hops)

    @classmethod
    def datacenter_plus_neighbors(cls, hops: int = 1) -> "MirrorPolicy":
        if hops < 1:
            raise ValueError("hops must be at least 1")
        return cls(MirrorKind.DATACENTER_PLUS_NEIGHBORS, hops=hops)

    @classmethod
    def all_nodes(cls) -> "MirrorPolicy":
        return cls(MirrorKind.ALL)

    @property
    def needs_datacenter(self) -> bool:
        """True when the mirror sets include the datacenter node."""
        return self.kind in (MirrorKind.DATACENTER,
                             MirrorKind.DATACENTER_PLUS_NEIGHBORS)

    def mirror_sets(self, state: NetworkState) -> Dict[str, List[str]]:
        """Materialize ``M_j`` for every NIDS node of ``state``.

        The datacenter node itself never offloads (its mirror set is
        empty), and no node mirrors to itself.
        """
        dc = state.dc_node
        if self.needs_datacenter and dc is None:
            raise ValueError(
                f"mirror policy {self.kind.value!r} needs a datacenter; "
                "build the state with dc_capacity_factor set")

        sets: Dict[str, List[str]] = {}
        for node in state.nids_nodes:
            if node == dc:
                sets[node] = []
                continue
            mirrors: List[str] = []
            if self.kind is MirrorKind.NONE:
                pass
            elif self.kind is MirrorKind.DATACENTER:
                mirrors = [dc]
            elif self.kind is MirrorKind.NEIGHBORS:
                mirrors = [n for n in
                           state.topology.nodes_within(node, self.hops)
                           if n != dc]
            elif self.kind is MirrorKind.DATACENTER_PLUS_NEIGHBORS:
                nearby = [n for n in
                          state.topology.nodes_within(node, self.hops)
                          if n != dc]
                mirrors = sorted(set(nearby) | {dc})
            elif self.kind is MirrorKind.ALL:
                mirrors = [n for n in state.nids_nodes if n != node]
            sets[node] = mirrors
        return sets

    def describe(self) -> str:
        """Human-readable label used in experiment output."""
        if self.kind in (MirrorKind.NEIGHBORS,
                         MirrorKind.DATACENTER_PLUS_NEIGHBORS):
            return f"{self.kind.value}({self.hops}-hop)"
        return self.kind.value


# The named policies the CLI, the scenarios and the gap experiments
# offer (``--mirror NAME``).
MIRROR_POLICIES: Dict[str, MirrorPolicy] = {
    "none": MirrorPolicy.none(),
    "dc": MirrorPolicy.datacenter(),
    "one-hop": MirrorPolicy.neighbors(1),
    "two-hop": MirrorPolicy.neighbors(2),
    "dc+one-hop": MirrorPolicy.datacenter_plus_neighbors(1),
}
