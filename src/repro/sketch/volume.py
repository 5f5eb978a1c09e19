"""Per-traffic-class volume estimation on a sketch.

:class:`ClassVolumeSketch` is the estimation layer between the packet
stream and the controller: it watches session-aligned
:class:`~repro.simulation.batch.PacketBatch` slabs, folds per-class
session counts into one seeded
:class:`~repro.sketch.countmin.CountMinSketch` table, and can at any
instant render the template
:class:`~repro.traffic.classes.TrafficClass` rows re-volumed with its
estimates for ``resolve_traffic()`` — the ``|T_c|`` behind the LPs'
Eqs (3)-(5). Memory is O(sketch) regardless of how many sessions
stream past — the whole point of the subsystem (ROADMAP item 1:
"millions of users").

Per-worker instances (one per ingest worker) merge losslessly into an
aggregate, OctoSketch-style: :meth:`merge` adds counter tables built
from one shared ``(width, depth, seed)`` hash family, so the combined
sketch is bit-exactly the single-worker sketch of the full stream.

The class key space is a *registered universe* — the controller knows
its traffic classes (ingress-egress pairs are observable at the tap);
what the sketch estimates is their **volumes**.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.sketch.countmin import CountMinSketch, SketchMismatchError
from repro.traffic.classes import TrafficClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.batch import PacketBatch


class ClassVolumeSketch:
    """Sketched per-class session volumes.

    Args:
        class_names: the registered traffic-class universe; estimates
            are reported per name, in this order.
        width / depth: count-min shape of the class table.
        seed: hash-family seed (keyword-only, mandatory).
    """

    def __init__(self, class_names: Sequence[str], *,
                 width: int = 512, depth: int = 4, seed: int) -> None:
        self.class_names: Tuple[str, ...] = tuple(class_names)
        if len(set(self.class_names)) != len(self.class_names):
            raise ValueError("class universe has duplicate names")
        self._index: Dict[str, int] = {
            name: i for i, name in enumerate(self.class_names)}
        self.classes = CountMinSketch(width, depth, seed=seed)
        self.sessions = 0
        self.packets = 0
        self.merges = 0
        # The last batch class-name tuple seen and its universe ids:
        # every chunk of a replay carries the same tuple object.
        self._mapped_names: Optional[Tuple[str, ...]] = None
        self._mapped_ids = np.zeros(0, dtype=np.uint32)

    # -- ingestion ---------------------------------------------------------

    def _universe_ids(self, class_names: Sequence[str]) -> np.ndarray:
        """Map another batch's class-name tuple onto this universe."""
        try:
            return np.array([self._index[name]
                             for name in class_names],
                            dtype=np.int64)
        except KeyError as exc:
            raise ValueError(
                f"batch class {exc.args[0]!r} is not in the "
                f"registered universe") from None

    def observe_batch(self, chunk: "PacketBatch") -> int:
        """Fold one session-aligned slab into the sketches.

        Every session row in the slab counts once (chunk boundaries
        never split a session, so streaming a ``ChunkedReplay``
        counts each session exactly once). Sessions the classifier
        left unmonitored (``class_id == -1``) have no class to charge.

        Returns:
            The number of session rows observed.
        """
        sess = chunk.sessions
        class_id = np.asarray(sess.class_id)
        monitored = class_id >= 0
        counts = np.bincount(class_id[monitored],
                             minlength=len(sess.class_names))
        hot = np.nonzero(counts)[0]
        if len(hot):
            if sess.class_names is not self._mapped_names:
                self._mapped_ids = self._universe_ids(
                    sess.class_names).astype(np.uint32)
                self._mapped_names = sess.class_names
            self.classes.update(self._mapped_ids[hot], counts[hot])
        observed = int(sess.num_sessions)
        self.sessions += observed
        self.packets += int(chunk.num_packets)
        return observed

    def observe_classes(self, names: Sequence[str],
                        counts: Sequence[float]) -> None:
        """Directly charge session counts to universe classes."""
        ids = self._universe_ids(names).astype(np.uint32)
        self.classes.update(ids, np.asarray(counts))
        self.sessions += int(np.asarray(counts).sum())

    # -- worker combination ------------------------------------------------

    def compatible(self, other: "ClassVolumeSketch") -> bool:
        return (self.class_names == other.class_names and
                self.classes.compatible(other.classes))

    def merge(self, other: "ClassVolumeSketch") -> "ClassVolumeSketch":
        """Absorb another worker's sketch in place (lossless)."""
        if not self.compatible(other):
            raise SketchMismatchError(
                "per-worker sketches must share the class universe, "
                "shape, and seed to merge losslessly")
        self.classes.merge(other.classes)
        self.sessions += other.sessions
        self.packets += other.packets
        self.merges += 1
        return self

    def reset(self) -> None:
        """Start a new estimation window (epoch boundary)."""
        self.classes.reset()
        self.sessions = 0
        self.packets = 0

    # -- estimates ---------------------------------------------------------

    def class_volumes(self) -> np.ndarray:
        """Estimated session count per universe class (int64)."""
        if not self.class_names:
            return np.zeros(0, dtype=np.int64)
        ids = np.arange(len(self.class_names), dtype=np.uint32)
        return self.classes.estimate(ids)

    def class_volume(self, name: str) -> int:
        ids = np.array([self._index[name]], dtype=np.uint32)
        return int(self.classes.estimate(ids)[0])

    def estimated_classes(self, template: Sequence[TrafficClass],
                          scale: float = 1.0) -> List[TrafficClass]:
        """The template classes with sketched volumes.

        Structure (paths, footprints, session bytes) comes from the
        template — the routing feed knows it; only ``num_sessions``
        is replaced, with the sketch estimate times ``scale`` (the
        sampling-rate calibration from observed sessions to the
        LP's ``|T_c|`` unit).
        """
        if scale < 0:
            raise ValueError("scale must be non-negative")
        volumes = self.class_volumes()
        out: List[TrafficClass] = []
        for cls in template:
            index = self._index.get(cls.name)
            if index is None:
                raise ValueError(
                    f"template class {cls.name!r} is not in the "
                    f"registered universe")
            out.append(cls.with_sessions(float(volumes[index]) * scale))
        return out

    def estimate_errors(self, exact: Mapping[str, float]
                        ) -> Dict[str, float]:
        """L1 / Linf estimate error against exact per-class counts.

        ``l1_rel`` normalizes by the exact total so the number is
        comparable across trace sizes (0.0 when nothing was seen).
        """
        volumes = self.class_volumes()
        l1 = 0.0
        linf = 0.0
        total = 0.0
        for name, true_count in exact.items():
            err = abs(float(volumes[self._index[name]]) -
                      float(true_count))
            l1 += err
            linf = max(linf, err)
            total += float(true_count)
        return {"l1": l1, "linf": linf,
                "l1_rel": l1 / total if total > 0 else 0.0}

    # -- accounting --------------------------------------------------------

    @property
    def state_bytes(self) -> int:
        """Resident sketch state: the class table."""
        return self.classes.state_bytes

    def __repr__(self) -> str:
        return (f"ClassVolumeSketch(classes={len(self.class_names)}, "
                f"width={self.classes.width}, "
                f"depth={self.classes.depth}, "
                f"seed={self.classes.seed}, "
                f"sessions={self.sessions})")
