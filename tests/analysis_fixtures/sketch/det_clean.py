"""Clean fixture for DET001/DET002 in a sketch layer: configured
seeds, metric-only clock."""
import time

import numpy as np


class CountMinSketch:
    def __init__(self, width, depth, *, seed):
        self.width, self.depth, self.seed = width, depth, seed


def build_worker_sketch(width, depth, *, seed):
    # perf_counter is the sanctioned throughput clock.
    started = time.perf_counter()
    sketch = CountMinSketch(width, depth, seed=seed)
    rng = np.random.default_rng(seed)
    return started, sketch, rng
