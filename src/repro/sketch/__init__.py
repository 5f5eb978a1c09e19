"""Sketch-based traffic summarization (streaming estimation layer).

Count-min sketches over the repo's lookup3 hash family, plus the
:class:`ClassVolumeSketch` estimation layer that turns a packet
stream into per-class volume estimates the controller can optimize
against. See ``docs/ARCHITECTURE.md`` §13 for the
slab -> sketch -> estimated classes -> drift trigger dataflow.
"""

from repro.sketch.countmin import CountMinSketch, SketchMismatchError
from repro.sketch.volume import ClassVolumeSketch

__all__ = [
    "ClassVolumeSketch",
    "CountMinSketch",
    "SketchMismatchError",
]
