"""Temporal traffic variability (Section 8.2, Figure 15).

The paper derives empirical CDFs of per-entry variation from measured
Internet2 traffic matrices and then samples 100 time-varying matrices.
The measured matrices are not shipped here, so the default model is an
empirical CDF *shaped like* measured backbone variability: heavy-tailed
multiplicative factors with mean 1 (lognormal discretized into the same
kind of bucketed CDF the paper describes — "probability that the volume
is between 0.6x and 0.8x the mean"). A constructor from raw samples is
provided so real measurements can be dropped in.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.traffic.matrix import TrafficMatrix

Pair = Tuple[str, str]


class TrafficVariabilityModel:
    """Samples multiplicative variation factors from a bucketed CDF.

    Args:
        bucket_edges: ascending factor-bucket boundaries, e.g.
            ``[0.2, 0.4, ..., 3.0]``.
        bucket_probs: probability mass per bucket (must sum to ~1).

    Factors are drawn by picking a bucket by mass and then uniformly
    within it — exactly the information content of the paper's
    empirical CDF description.
    """

    def __init__(self, bucket_edges: Sequence[float],
                 bucket_probs: Sequence[float]) -> None:
        edges = np.asarray(bucket_edges, dtype=float)
        probs = np.asarray(bucket_probs, dtype=float)
        if len(edges) != len(probs) + 1:
            raise ValueError("need len(bucket_edges) == len(bucket_probs) + 1")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bucket_edges must be strictly increasing")
        if np.any(probs < 0) or not np.isclose(probs.sum(), 1.0, atol=1e-6):
            raise ValueError("bucket_probs must be a distribution")
        if edges[0] < 0:
            raise ValueError("factors cannot be negative")
        self.bucket_edges = edges
        self.bucket_probs = probs / probs.sum()
        self._cdf = self.bucket_probs.cumsum()
        self._cdf /= self._cdf[-1]

    @classmethod
    def default(cls, sigma: float = 0.45,
                num_buckets: int = 15) -> "TrafficVariabilityModel":
        """Heavy-tailed default calibrated to backbone TM studies.

        A lognormal with median ``exp(-sigma^2/2)`` (so the mean factor
        is 1) discretized into ``num_buckets`` buckets spanning roughly
        the 0.1%..99.9% quantiles.
        """
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        mu = -sigma * sigma / 2.0
        lo = float(np.exp(mu - 3.1 * sigma))
        hi = float(np.exp(mu + 3.1 * sigma))
        edges = np.linspace(lo, hi, num_buckets + 1)
        # The lognormal CDF in closed form: Phi(ln(x / e^mu) / sigma).
        scale = math.exp(mu)
        cdf = np.array([
            0.5 * math.erfc(-math.log(x / scale) / (sigma * math.sqrt(2)))
            for x in edges])
        probs = np.diff(cdf)
        probs = probs / probs.sum()
        return cls(edges, probs)

    @classmethod
    def from_samples(cls, factors: Sequence[float],
                     num_buckets: int = 15) -> "TrafficVariabilityModel":
        """Build the empirical CDF from observed variation factors.

        This mirrors the paper's procedure with real Internet2 traffic
        matrices: compute each TM entry's ratio to its mean, histogram
        the ratios, and sample from the histogram.
        """
        data = np.asarray(list(factors), dtype=float)
        if data.size < 2:
            raise ValueError("need at least two sample factors")
        if np.any(data < 0):
            raise ValueError("factors cannot be negative")
        lo, hi = float(data.min()), float(data.max())
        if lo == hi:
            lo, hi = lo * 0.99, hi * 1.01 + 1e-9
        edges = np.linspace(lo, hi, num_buckets + 1)
        counts, _ = np.histogram(data, bins=edges)
        if counts.sum() == 0:
            raise ValueError("no samples fell inside the bucket range")
        return cls(edges, counts / counts.sum())

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` independent multiplicative variation factors.

        One ``rng.random(2 * size)`` call: each even entry picks a
        bucket by mass (``searchsorted`` on the normalised CDF, as
        ``rng.choice(p=...)`` does), the odd entry after it places the
        factor uniformly within the bucket (``lo + (hi - lo) * u``, as
        ``rng.uniform(lo, hi)`` does). So the result is, bit for bit,
        ``size`` successive pick-then-place draws.
        """
        uniform = rng.random(2 * size)
        bucket = self._cdf.searchsorted(uniform[0::2], side="right")
        lo = self.bucket_edges[bucket]
        return lo + (self.bucket_edges[bucket + 1] - lo) * uniform[1::2]

    def sample_factor(self, rng: np.random.Generator) -> float:
        """Draw one multiplicative variation factor."""
        return float(self.draw(rng, 1)[0])

    def sample_factors(self, pairs: Sequence[Pair],
                       rng: np.random.Generator) -> Dict[Pair, float]:
        """Independent factors for a set of matrix entries."""
        return dict(zip(pairs, self.draw(rng, len(pairs)).tolist()))

    def generate_matrices(self, mean_matrix: TrafficMatrix, count: int,
                          rng: np.random.Generator
                          ) -> List[TrafficMatrix]:
        """The paper's family of time-varying matrices.

        Each output matrix perturbs every entry of ``mean_matrix`` by an
        independent factor drawn from the CDF (100 matrices in the
        paper's Figure 15 experiment).
        """
        if count <= 0:
            raise ValueError("count must be positive")
        pairs = list(mean_matrix.pairs())
        return [mean_matrix.perturbed(self.sample_factors(pairs, rng))
                for _ in range(count)]

    @property
    def mean_factor(self) -> float:
        """Expected factor under the bucketed distribution."""
        mids = (self.bucket_edges[:-1] + self.bucket_edges[1:]) / 2.0
        return float(np.dot(mids, self.bucket_probs))
