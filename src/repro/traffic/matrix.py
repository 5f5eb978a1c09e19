"""Traffic matrices: session volumes per ingress-egress pair."""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

Pair = Tuple[str, str]


class TrafficMatrix:
    """Session volume for every ordered ingress-egress PoP pair.

    Entries are in *sessions per epoch* (the paper's ``|T_c|`` unit).
    Missing pairs read as 0.0.
    """

    def __init__(self, volumes: Dict[Pair, float]) -> None:
        for (source, target), volume in volumes.items():
            if source == target:
                raise ValueError(
                    f"traffic matrix has a self-pair ({source!r})")
            if volume < 0:
                raise ValueError(
                    f"negative volume for pair ({source!r}, {target!r})")
        self._volumes = dict(volumes)

    def volume(self, source: str, target: str) -> float:
        """Sessions from ``source`` to ``target`` (0.0 if absent)."""
        return self._volumes.get((source, target), 0.0)

    @property
    def total(self) -> float:
        """Total sessions across all pairs."""
        return sum(self._volumes.values())

    def pairs(self) -> Iterator[Pair]:
        """Ordered pairs with nonzero volume, deterministic order."""
        return iter(sorted(p for p, v in self._volumes.items() if v > 0))

    def items(self) -> Iterator[Tuple[Pair, float]]:
        for pair in self.pairs():
            yield pair, self._volumes[pair]

    def scaled(self, factor: float) -> "TrafficMatrix":
        """New matrix with every entry multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return TrafficMatrix(
            {p: v * factor for p, v in self._volumes.items()})

    def perturbed(self, factors: Dict[Pair, float]) -> "TrafficMatrix":
        """New matrix with per-entry multiplicative ``factors``.

        Pairs absent from ``factors`` keep their volume. Used by the
        variability model to produce time-varying matrices.
        """
        out = dict(self._volumes)
        for pair, factor in factors.items():
            if factor < 0:
                raise ValueError(f"negative factor for pair {pair!r}")
            if pair in out:
                out[pair] = out[pair] * factor
        return TrafficMatrix(out)

    def __len__(self) -> int:
        return len(self._volumes)

    def __repr__(self) -> str:
        return (f"TrafficMatrix(pairs={len(self._volumes)}, "
                f"total={self.total:.4g})")

