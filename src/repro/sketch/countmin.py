"""Seeded count-min sketch over the lookup3 hash family.

A count-min sketch [Cormode & Muthukrishnan] summarizes an additive
stream of ``(key, count)`` updates in a ``depth x width`` counter
table: row ``r`` scatters each key through an independent hash into
one of ``width`` counters, and a point query reads the minimum across
rows. Collisions only ever *add*, so estimates are one-sided —
``estimate >= true count`` always — and with probability at least
``1 - delta`` the overestimate is bounded by ``epsilon * total``
where ``epsilon = e / width`` and ``delta = e ** -depth``.

The row hashes reuse the repo's vectorized Bob Jenkins lookup3
(:func:`repro.shim.hashing.bob_hash_batch`) with per-row seeds
``seed + row`` — all rows in one call, the seeds broadcast as a
column — so updates are bit-exact, whole-column numpy operations with
no per-key and no per-row Python loop, and a sketch is fully
determined by ``(width, depth, seed)``. Two sketches built with the
same shape and seed see the *same* hash functions, which is what
makes :meth:`merge` lossless: counter tables are elementwise sums,
so merging per-worker sketches (OctoSketch-style) yields bit-exactly
the sketch of the concatenated stream.

Seeds are mandatory (keyword-only) by design: an unseeded sketch
would silently break scenario fingerprint reproducibility, so
Python itself rejects ``CountMinSketch(width, depth)`` with a
``TypeError``. The DET001/DET002 lint rules keep wall-clock reads
and entropy-derived seeds out of the sketch and ingest layers.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from repro.shim.hashing import bob_hash_batch

Columns = Sequence[np.ndarray]


class SketchMismatchError(ValueError):
    """Merging sketches with different shapes or hash seeds."""


def _as_columns(keys: Union[np.ndarray, Columns]) -> Columns:
    """Normalize a single key column into the column-sequence form."""
    if isinstance(keys, np.ndarray):
        return [keys]
    return keys


class CountMinSketch:
    """A ``depth x width`` count-min table with seeded lookup3 rows.

    Args:
        width: counters per row (``epsilon = e / width``).
        depth: independent hash rows (``delta = e ** -depth``).
        seed: hash-family seed; row ``r`` hashes with ``seed + r``.
            Keyword-only and mandatory — determinism is part of the
            repo-wide reproducibility contract.
    """

    def __init__(self, width: int, depth: int, *, seed: int) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        self.table = np.zeros((self.depth, self.width),
                              dtype=np.int64)
        self.total = 0

    # -- updates -----------------------------------------------------------

    def _flat_indices(self, columns: Columns) -> np.ndarray:
        """Every key's counter in every row, as ``(depth, n)`` indices
        into the flattened table: one hash call with the row seeds as
        a column, not one call per row."""
        rows = np.arange(self.depth, dtype=np.int64)[:, None]
        words = bob_hash_batch(columns,
                               seed=(self.seed & 0xFFFFFFFF) + rows)
        return (rows * self.width +
                (words % np.uint32(self.width)).astype(np.int64))

    def update(self, keys: Union[np.ndarray, Columns],
               counts: Union[np.ndarray, None] = None) -> None:
        """Add ``counts[i]`` to key ``i`` (1 each when omitted).

        ``keys`` is either one integer column or a sequence of aligned
        columns (multi-word keys hash like scalar ``bob_hash(*key)``).
        Counts must be non-negative — count-min's one-sided error
        guarantee only holds for non-decreasing counters.
        """
        columns = _as_columns(keys)
        if not columns:
            raise ValueError("need at least one key column")
        size = len(columns[0])
        if counts is None:
            counts = np.ones(size, dtype=np.int64)
        else:
            counts = np.asarray(counts)
            if len(counts) != size:
                raise ValueError("counts and keys must align")
            if np.any(counts < 0):
                raise ValueError("counts must be non-negative")
            counts = counts.astype(np.int64)
        if size == 0:
            return
        self._add(self._flat_indices(columns), counts)

    def _add(self, cells: np.ndarray, counts: np.ndarray) -> None:
        """Add non-negative int64 ``counts[i]`` to the cells
        ``cells[:, i]`` (:meth:`_flat_indices` of key ``i``): the one
        scatter-add of every update, for callers that cache the cells
        of keys they update over and over."""
        # add.at: unbuffered scatter-add (duplicate indices in one
        # batch must each land). The table is C-contiguous, so the
        # reshape is a view. The counts are tiled per row explicitly:
        # ufunc.at's 1-D fast path does not broadcast its values.
        np.add.at(self.table.reshape(-1), cells.reshape(-1),
                  np.tile(counts, self.depth))
        self.total += int(counts.sum())

    # -- queries -----------------------------------------------------------

    def estimate(self, keys: Union[np.ndarray, Columns]) -> np.ndarray:
        """Point estimates (int64) — min across rows, ``>=`` truth."""
        columns = _as_columns(keys)
        if not columns:
            raise ValueError("need at least one key column")
        if len(columns[0]) == 0:
            return np.zeros(0, dtype=np.int64)
        return self.table.reshape(-1)[
            self._flat_indices(columns)].min(axis=0)

    # -- merge (OctoSketch-style worker combination) -----------------------

    def compatible(self, other: "CountMinSketch") -> bool:
        """Same shape and seed — the precondition for lossless merge."""
        return (self.width == other.width and
                self.depth == other.depth and
                self.seed == other.seed)

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Absorb ``other`` in place (elementwise table sum).

        Lossless: both sketches share one hash family, so the merged
        table is bit-exactly the sketch of the concatenated update
        stream. Returns ``self`` for chaining.
        """
        if not self.compatible(other):
            raise SketchMismatchError(
                f"cannot merge ({self.width}x{self.depth}, seed "
                f"{self.seed}) with ({other.width}x{other.depth}, "
                f"seed {other.seed})")
        self.table += other.table
        self.total += other.total
        return self

    def copy(self) -> "CountMinSketch":
        out = CountMinSketch(self.width, self.depth, seed=self.seed)
        out.table = self.table.copy()
        out.total = self.total
        return out

    def reset(self) -> None:
        """Zero every counter (start a new estimation window)."""
        self.table.fill(0)
        self.total = 0

    # -- accounting --------------------------------------------------------

    @property
    def state_bytes(self) -> int:
        """Resident bytes of sketch state (the counter table)."""
        return int(self.table.nbytes)

    @property
    def epsilon(self) -> float:
        """Additive-error factor: overestimate <= epsilon * total
        with probability ``1 - delta``."""
        return math.e / self.width

    @property
    def delta(self) -> float:
        """Failure probability of the epsilon bound per query."""
        return math.exp(-self.depth)

    def error_bound(self) -> float:
        """Absolute additive error bound at the current total."""
        return self.epsilon * self.total

    def __repr__(self) -> str:
        return (f"CountMinSketch(width={self.width}, "
                f"depth={self.depth}, seed={self.seed}, "
                f"total={self.total})")
