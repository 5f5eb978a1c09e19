"""Provisioning slack for traffic dynamics (Section 9, "Robustness to
dynamics").

A sudden traffic shift can invalidate the current assignment. The
paper's suggestion: optimize against inflated inputs — "allow for some
slack (e.g., using the 80-th percentile values instead of the mean) in
the input traffic matrices to tolerate such sudden bursts."

:func:`slack_factor` computes the per-entry percentile factor implied
by a variability model, and :func:`with_slack` scales a class set by
it, so any formulation can be solved against p80 (or p95, ...) inputs.
The ablation benchmark compares worst-case peak loads under variability
when the assignment was computed from mean vs slacked inputs.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.traffic.classes import TrafficClass
from repro.traffic.variability import TrafficVariabilityModel


def slack_factor(model: TrafficVariabilityModel,
                 percentile: float = 80.0,
                 samples: int = 20_000, seed: int = 0) -> float:
    """The multiplicative factor at a percentile of the variability CDF.

    Args:
        model: the per-entry variation distribution.
        percentile: e.g., 80.0 for the paper's suggestion.
        samples: Monte-Carlo samples used to invert the bucketed CDF.

    Returns:
        A factor >= 0 such that a fraction ``percentile/100`` of
        per-entry variations fall below it (typically > 1 for p80 of a
        mean-1 heavy-tailed distribution).
    """
    if not 0.0 < percentile < 100.0:
        raise ValueError("percentile must be in (0, 100)")
    draws = model.draw(np.random.default_rng(seed), samples)
    return float(np.percentile(draws, percentile))


def with_slack(classes: Sequence[TrafficClass],
               factor: float) -> List[TrafficClass]:
    """Scale every class's volume by the slack factor.

    The result is fed to the optimizer in place of the mean traffic;
    the *actual* (unscaled) traffic is then evaluated against the
    resulting assignment.
    """
    if factor <= 0:
        raise ValueError("slack factor must be positive")
    return [cls.scaled(factor) for cls in classes]


def provisioning_shortfall(assigned_load: float,
                           capacity_load: float = 1.0) -> float:
    """How far a realized peak load overshoots the provisioned budget
    (0.0 when within budget) — the metric the slack ablation reports."""
    return max(0.0, assigned_load - capacity_load)
