"""Traffic classes — the unit the optimizations reason about.

A class (Section 3, input 1) is a set of end-to-end sessions sharing a
routing path, identified in the paper by prefix pair and optionally
application ports. Following Section 8 we default to a single aggregate
class per ingress-egress pair, but nothing prevents several classes on
one path (e.g., HTTP and IRC between the same prefixes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

# Resource kinds ``r`` with per-session footprints ``F_c^r``. The paper
# names CPU cycles and resident memory as examples; CPU is the default.
DEFAULT_RESOURCES = ("cpu",)


@dataclass(frozen=True)
class TrafficClass:
    """One traffic class ``c``.

    Attributes:
        name: unique identifier (e.g., ``"ATLA->NYCM"``).
        source: ingress PoP.
        target: egress PoP.
        path: symmetric routing path ``P_c`` (nodes, ingress first).
        num_sessions: ``|T_c|`` — session count for the epoch.
        session_bytes: ``Size_c`` — mean bytes per session, used to
            convert session counts into link bytes for Eq (4).
        footprints: ``F_c^r`` — per-session resource cost by resource
            name.
        record_bytes: ``Rec_c`` — bytes per intermediate report record
            for the aggregation formulation (Eq (13)).
        rev_path: reverse-direction path ``P_c^rev`` when routing is
            asymmetric; ``None`` means symmetric (reverse of ``path``).
    """

    name: str
    source: str
    target: str
    path: Tuple[str, ...]
    num_sessions: float
    session_bytes: float = 20_000.0
    footprints: Dict[str, float] = field(
        default_factory=lambda: {"cpu": 1.0})
    record_bytes: float = 16.0
    rev_path: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError(f"class {self.name!r} has an empty path")
        if self.path[0] != self.source:
            raise ValueError(
                f"class {self.name!r}: path must start at the source")
        if self.num_sessions < 0:
            raise ValueError(
                f"class {self.name!r}: negative session count")
        if self.session_bytes <= 0:
            raise ValueError(
                f"class {self.name!r}: session_bytes must be positive")
        for resource, cost in self.footprints.items():
            if cost < 0:
                raise ValueError(
                    f"class {self.name!r}: negative footprint for "
                    f"{resource!r}")

    @property
    def ingress(self) -> str:
        """The ingress gateway — today's deployment point (Figure 1)."""
        return self.path[0]

    @property
    def is_symmetric(self) -> bool:
        """True when forward and reverse traverse the same nodes."""
        return self.rev_path is None

    @property
    def fwd_nodes(self) -> Tuple[str, ...]:
        """``P_c^fwd`` — nodes observing the forward direction."""
        return self.path

    @property
    def rev_nodes(self) -> Tuple[str, ...]:
        """``P_c^rev`` — nodes observing the reverse direction."""
        if self.rev_path is not None:
            return self.rev_path
        return tuple(reversed(self.path))

    @property
    def common_nodes(self) -> Tuple[str, ...]:
        """``P_c^common`` — nodes observing both directions."""
        rev = set(self.rev_nodes)
        return tuple(n for n in self.path if n in rev)

    @property
    def total_bytes(self) -> float:
        """Aggregate bytes carried by this class in the epoch."""
        return self.num_sessions * self.session_bytes

    def footprint(self, resource: str) -> float:
        """``F_c^r`` for one resource (0.0 if the class is exempt)."""
        return self.footprints.get(resource, 0.0)

    def with_sessions(self, num_sessions: float) -> "TrafficClass":
        """Copy differing in the session count alone. Every other
        field was checked when this instance was built, so only the
        count is checked again."""
        if num_sessions < 0:
            raise ValueError(
                f"class {self.name!r}: negative session count")
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, num_sessions=num_sessions)
        return clone

    def scaled(self, factor: float) -> "TrafficClass":
        """Copy with the session count multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return self.with_sessions(self.num_sessions * factor)

    def with_paths(self, fwd_path: Tuple[str, ...],
                   rev_path: Optional[Tuple[str, ...]]) -> "TrafficClass":
        """Copy with replaced forward/reverse paths (asymmetry)."""
        return replace(self, path=tuple(fwd_path),
                       source=fwd_path[0], target=fwd_path[-1],
                       rev_path=None if rev_path is None
                       else tuple(rev_path))
