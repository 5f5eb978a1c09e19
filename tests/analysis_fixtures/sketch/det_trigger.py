"""Trigger fixture for DET001/DET002 in a sketch layer (1 finding
each)."""
import time

import numpy as np


class CountMinSketch:
    def __init__(self, width, depth, *, seed):
        self.width, self.depth, self.seed = width, depth, seed


def build_worker_sketch(width, depth):
    # Wall-clock window stamp: DET001.
    window_start = time.time()
    # Entropy-derived hash seed from numpy's global RNG: DET002. Two
    # workers seeded this way build unmergeable sketches.
    seed = int(np.random.randint(2**31))
    sketch = CountMinSketch(width, depth, seed=seed)
    return window_start, sketch
