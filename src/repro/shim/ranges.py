"""Hash-range compilation (Section 7.1).

The management engine converts the LP's fractional decisions into
non-overlapping hash ranges: for each class it loops over the ``p_{c,j}``
values, mapping each to a hash range and extending the range as it
moves to the next node, then loops similarly over the ``o_{c,j,j'}``.
The order of iteration is irrelevant for correctness (the paper notes
only *some* fixed order is required); we sort keys for determinism.
Because the formulations make the fractions sum to 1 per class, the
union of the ranges covers [0, 1).

:func:`compile_hash_ranges` is that loop for one class, as the paper
states it. :func:`layout_rows` is the same loop for every class at
once, on a padded ``classes x width`` matrix of fractions — what the
config builders run, and bit for bit what the one-row function gives
each row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

import numpy as np

_EPSILON = 1e-9

#: names a row — and, when given, one of its slots — in an error
Describe = Callable[[int, Optional[int]], str]


def _describe_row(row: int, slot: Optional[int]) -> str:
    return f"row {row}" if slot is None else f"row {row} slot {slot}"


@dataclass(frozen=True)
class HashRange:
    """A half-open hash interval [start, end) owned by one action key."""

    key: Hashable
    start: float
    end: float

    @property
    def width(self) -> float:
        return self.end - self.start

    def contains(self, value: float) -> bool:
        """Membership test for a hash value in [0, 1)."""
        return self.start <= value < self.end


def compile_hash_ranges(fractions: Sequence[Tuple[Hashable, float]],
                        require_full_coverage: bool = True
                        ) -> List[HashRange]:
    """Map ordered (key, fraction) pairs to contiguous hash ranges.

    Args:
        fractions: pairs in the order the ranges should be laid out;
            zero-fraction entries produce no range.
        require_full_coverage: when True, the fractions must sum to 1
            (within tolerance) and the final range is snapped to end
            exactly at 1.0 so no hash value is unowned. When False
            (partial coverage, e.g., an infeasible split-traffic class)
            the tail of [0, 1) is simply left unassigned.

    Returns:
        Non-overlapping :class:`HashRange` objects covering [0, total).

    Raises:
        ValueError: on negative fractions, or totals above 1 + tol, or
            (with ``require_full_coverage``) totals below 1 - tol.
    """
    total = 0.0
    for key, fraction in fractions:
        if fraction < -_EPSILON:
            raise ValueError(f"negative fraction for key {key!r}")
        total += max(0.0, fraction)
    if total > 1.0 + 1e-6:
        raise ValueError(f"fractions sum to {total}, above 1")
    if require_full_coverage and total < 1.0 - 1e-6:
        raise ValueError(
            f"fractions sum to {total}, below 1 while full coverage "
            "was required")

    ranges: List[HashRange] = []
    cursor = 0.0
    for key, fraction in fractions:
        fraction = max(0.0, fraction)
        if fraction <= _EPSILON:
            continue
        ranges.append(HashRange(key, cursor, cursor + fraction))
        cursor += fraction
    if require_full_coverage and ranges:
        last = ranges[-1]
        ranges[-1] = HashRange(last.key, last.start, 1.0)
    return ranges


def row_sums(matrix: np.ndarray) -> np.ndarray:
    """Each row summed left to right — the float a Python ``sum`` or
    ``total +=`` over the row gives (``np.sum`` adds pairwise)."""
    if not matrix.shape[1]:
        return np.zeros(len(matrix), dtype=np.float64)
    return np.cumsum(matrix, axis=1)[:, -1]


def check_fractions(fractions: np.ndarray,
                    describe: Describe = _describe_row) -> None:
    """Reject what no layout can place: a fraction that is not a
    number (``max(0.0, nan)`` is 0.0 in the one-row loop, so there a
    NaN shows up as a sum that falls short; ``np.maximum`` would
    carry it into every boundary after it) or is negative beyond
    float noise."""
    bad = ~np.isfinite(fractions)
    if bad.any():
        row, slot = np.argwhere(bad)[0].tolist()
        raise ValueError(f"non-finite fraction {fractions[row, slot]} "
                         f"for {describe(row, slot)}")
    bad = fractions < -_EPSILON
    if bad.any():
        row, slot = np.argwhere(bad)[0].tolist()
        raise ValueError(f"negative fraction {fractions[row, slot]} "
                         f"for {describe(row, slot)}")


def layout_rows(fractions: np.ndarray,
                require_full_coverage: bool = True,
                describe: Describe = _describe_row
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`compile_hash_ranges` on every row of a padded matrix.

    Args:
        fractions: ``rows x width``; a row lists one class's fractions
            in layout order, padded with zeros.
        require_full_coverage: as for the one-row function.
        describe: names a row (and slot) in an error message.

    Returns:
        ``(keep, starts, ends)``, each ``rows x width``: slot ``w`` of
        row ``r`` is a range ``[starts[r, w], ends[r, w])`` where
        ``keep[r, w]``.

    Raises:
        ValueError: as the one-row function would for some row, naming
            the row; also on a non-finite fraction.

    A row's boundaries are a running sum *along the row*
    (``np.cumsum(axis=1)`` adds left to right, as ``cursor +=`` does;
    a pairwise or segmented sum would round differently), over the
    kept fractions only: entries at or below ``1e-9`` are zeroed
    first, and adding 0.0 changes nothing.
    """
    check_fractions(fractions, describe)
    clamped = np.maximum(fractions, 0.0)
    total = row_sums(clamped)
    above = total > 1.0 + 1e-6
    wrong = above | (require_full_coverage & (total < 1.0 - 1e-6))
    if wrong.any():
        row = int(np.argmax(wrong))
        raise ValueError(
            f"fractions of {describe(row, None)} sum to {total[row]}, "
            + ("above 1" if above[row] else
               "below 1 while full coverage was required"))
    keep = clamped > _EPSILON
    ends = np.cumsum(np.where(keep, clamped, 0.0), axis=1)
    starts = np.concatenate(
        (np.zeros((len(ends), 1), dtype=np.float64), ends[:, :-1]),
        axis=1)
    if require_full_coverage and keep.shape[1]:
        # The last kept range of a row is snapped to end at 1.0.
        last = keep.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)
        rows = np.flatnonzero(keep.any(axis=1))
        ends[rows, last[rows]] = 1.0
    return keep, starts, ends


def lookup(ranges: Sequence[HashRange], value: float) -> Hashable:
    """Owner key of ``value``, or ``None`` if it falls in a gap."""
    for rng in ranges:
        if rng.contains(value):
            return rng.key
    return None
