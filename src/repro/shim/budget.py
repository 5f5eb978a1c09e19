"""Rule-budgeted hash-range lowering (the TCAM model).

:func:`~repro.shim.ranges.compile_hash_ranges` emits one range per
nonzero LP fraction — however many fall out. Real shims install their
ranges into bounded rule tables (switch TCAMs, the runtime agents'
``rule_capacity``), so the compiler must be able to *approximate* the
LP's weight partition with a bounded number of ranges. "Optimal
Weighted Load Balancing in TCAMs" (Sadeh, Rottenstreich, Kaplan)
studies exactly this approximation problem; this module implements the
variant our layout needs:

- keep the ``budget`` largest fractions (deterministic ties: first in
  layout order), drop the rest;
- scale the kept fractions proportionally so they absorb the dropped
  mass — the emitted ranges still tile the same span of hash space,
  so coverage is never sacrificed, only *balance fidelity*;
- quantify the fidelity loss as the L1/Linf deviation of the realized
  range widths from the target fractions (dropped keys deviate by
  their full target weight).

Proportional redistribution makes both error norms monotonically
non-increasing in the budget: with ``D`` the dropped mass, the L1
error is exactly ``2 * D`` (the dropped mass plus the same mass
re-landed on kept keys), and the Linf error is the larger of the
biggest dropped fraction and the overshoot of the biggest kept one —
all shrinking as the budget grows. ``tests/test_budget_properties.py``
pins these properties over random fraction vectors.

An unset budget (``None``) reproduces the unbudgeted compiler
bit-for-bit, so the budgeted mode is a strict superset.

:func:`budgeted_hash_ranges` lowers one class, as stated above.
:class:`LoweredRows` lowers every class of a plan at once — the
selection is a stable row-wise ``argsort``, the rescale a row-wise
running sum, the layout :func:`~repro.shim.ranges.layout_rows` — and
gives each row the floats the one-row function gives it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (Any, Callable, Dict, Hashable, List, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.shim.ranges import (Describe, HashRange, _describe_row,
                               check_fractions, compile_hash_ranges,
                               layout_rows, row_sums)

_EPSILON = 1e-9


@dataclass(frozen=True)
class BudgetedLowering:
    """The outcome of one budgeted range compilation.

    Attributes:
        ranges: the emitted ranges (at most ``budget`` of them; they
            tile the same span the unbudgeted compiler would cover).
        budget: the budget applied (``None`` = unbounded).
        targets: the requested per-key fractions (zero entries kept
            for error accounting).
        realized: the per-key widths actually emitted; dropped keys
            are present with width 0.
        dropped_keys: keys whose fractions were dropped to fit.
    """

    ranges: Tuple[HashRange, ...]
    budget: Optional[int]
    targets: Dict[Hashable, float]
    realized: Dict[Hashable, float]
    dropped_keys: Tuple[Hashable, ...]

    @property
    def num_rules(self) -> int:
        return len(self.ranges)

    @property
    def error_l1(self) -> float:
        """Total absolute deviation of realized widths from targets."""
        return sum(abs(self.realized[key] - target)
                   for key, target in self.targets.items())

    @property
    def error_linf(self) -> float:
        """Worst single-key deviation of realized width from target."""
        return max((abs(self.realized[key] - target)
                    for key, target in self.targets.items()),
                   default=0.0)


def budgeted_hash_ranges(fractions: Sequence[Tuple[Hashable, float]],
                         budget: Optional[int],
                         require_full_coverage: bool = True
                         ) -> BudgetedLowering:
    """Compile ``fractions`` into at most ``budget`` hash ranges.

    Args:
        fractions: ordered (key, fraction) pairs, exactly as
            :func:`~repro.shim.ranges.compile_hash_ranges` takes them.
        budget: maximum number of ranges to emit; ``None`` disables
            the bound (the result is then identical to the unbudgeted
            compiler's).
        require_full_coverage: forwarded to the range compiler — when
            True the fractions must sum to 1 and the emitted ranges
            tile all of [0, 1); when False the covered prefix is
            preserved instead.

    Returns:
        A :class:`BudgetedLowering`; ``.ranges`` always tiles the same
        total span as the unbudgeted layout (coverage is preserved,
        only the per-key weights are approximated).

    Raises:
        ValueError: on a non-positive budget, on negative fractions,
            or when a budget is smaller than 1 range while nonzero
            fractions exist.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"rule budget must be >= 1, got {budget}")

    targets: Dict[Hashable, float] = {}
    for key, fraction in fractions:
        if fraction < -_EPSILON:
            raise ValueError(f"negative fraction for key {key!r}")
        if key in targets:
            raise ValueError(f"duplicate layout key {key!r}")
        targets[key] = max(0.0, fraction)

    nonzero = [(key, fraction) for key, fraction in fractions
               if max(0.0, fraction) > _EPSILON]

    if budget is None or len(nonzero) <= budget:
        ranges = compile_hash_ranges(
            list(fractions),
            require_full_coverage=require_full_coverage)
        realized = {key: 0.0 for key in targets}
        for rng in ranges:
            realized[rng.key] = rng.width
        return BudgetedLowering(ranges=tuple(ranges), budget=budget,
                                targets=targets, realized=realized,
                                dropped_keys=())

    # Keep the `budget` largest fractions; ties resolve to the
    # earliest layout position so the choice is deterministic.
    ordered = sorted(range(len(nonzero)),
                     key=lambda i: (-nonzero[i][1], i))
    kept_positions = sorted(ordered[:budget])
    dropped_positions = sorted(ordered[budget:])
    kept_sum = sum(nonzero[i][1] for i in kept_positions)
    total = sum(fraction for _, fraction in nonzero)
    scale = total / kept_sum

    scaled: List[Tuple[Hashable, float]] = [
        (nonzero[i][0], nonzero[i][1] * scale)
        for i in kept_positions]
    ranges = compile_hash_ranges(
        scaled, require_full_coverage=require_full_coverage)

    realized = {key: 0.0 for key in targets}
    for rng in ranges:
        realized[rng.key] = rng.width
    dropped = tuple(nonzero[i][0] for i in dropped_positions)
    return BudgetedLowering(ranges=tuple(ranges), budget=budget,
                            targets=targets, realized=realized,
                            dropped_keys=dropped)


class LoweredRows:
    """:func:`budgeted_hash_ranges` on every row of a padded matrix.

    Args:
        fractions: ``rows x width``, a class per row in layout order,
            zero padded.
        budget / require_full_coverage: as for the one-row function.
        describe: names a row (and slot) in an error message.

    Attributes (``rows x width`` unless noted):
        keep / starts / ends: the emitted ranges, as
            :func:`~repro.shim.ranges.layout_rows` returns them.
        targets: the requested fractions, clamped at 0.
        realized: the widths emitted (0.0 where nothing was).
        dropped: nonzero fractions that got no range.
        error_l1 / error_linf: per row, the deviation of ``realized``
            from ``targets``.

    Ties among equal fractions resolve to the earliest slot
    (``kind="stable"``); ``kept_sum`` and ``total`` are running sums
    along the row, like the one-row function's ``sum()``.
    """

    def __init__(self, fractions: np.ndarray, budget: Optional[int],
                 require_full_coverage: bool = True,
                 describe: Describe = _describe_row) -> None:
        if budget is not None and budget < 1:
            raise ValueError(f"rule budget must be >= 1, got {budget}")
        check_fractions(fractions, describe)
        self.budget = budget
        self.targets = np.maximum(fractions, 0.0)
        nonzero = self.targets > _EPSILON
        laid = fractions
        if budget is not None and fractions.shape[1] > budget:
            sized = np.where(nonzero, self.targets, 0.0)
            rank = np.empty(sized.shape, dtype=np.int64)
            np.put_along_axis(
                rank, np.argsort(-sized, axis=1, kind="stable"),
                np.arange(sized.shape[1], dtype=np.int64)[None, :],
                axis=1)
            top = nonzero & (rank < budget)
            over = nonzero.sum(axis=1) > budget
            total = row_sums(sized)
            scale = np.divide(
                total, row_sums(np.where(top, sized, 0.0)),
                out=np.ones(len(total), dtype=np.float64), where=over)
            laid = np.where(
                over[:, None],
                np.where(top, sized * scale[:, None], 0.0), fractions)
        self.keep, self.starts, self.ends = layout_rows(
            laid, require_full_coverage, describe)
        self.realized = np.where(self.keep, self.ends - self.starts,
                                 0.0)
        self.dropped = nonzero & ~self.keep
        deviation = np.abs(self.realized - self.targets)
        self.error_l1 = row_sums(deviation)
        self.error_linf = deviation.max(axis=1, initial=0.0)


class RowLowering(BudgetedLowering):
    """One row of a :class:`LoweredRows`, as a view: the error report
    reads the row-wise vectors, the five fields are built from the
    arrays when one of them is first read. ``keys_of(row)`` lists the
    layout keys of the row's slots (what is beyond them is padding)."""

    def __init__(self, rows: LoweredRows, row: int,
                 keys_of: Callable[[int], Sequence[Hashable]]) -> None:
        object.__setattr__(self, "_source", (rows, row, keys_of))

    def __getattr__(self, name: str) -> Any:
        if name not in _LOWERING_FIELDS:
            raise AttributeError(name)
        rows, row, keys_of = self.__dict__["_source"]
        keys = keys_of(row)
        slots = range(len(keys))
        starts, ends, targets, realized = (
            column[row].tolist() for column in (
                rows.starts, rows.ends, rows.targets, rows.realized))
        keep, dropped = rows.keep[row], rows.dropped[row]
        for field, value in (
                ("ranges", tuple(HashRange(keys[w], starts[w], ends[w])
                                 for w in slots if keep[w])),
                ("budget", rows.budget),
                ("targets", {keys[w]: targets[w] for w in slots}),
                ("realized", {keys[w]: realized[w] for w in slots}),
                ("dropped_keys", tuple(keys[w] for w in slots
                                       if dropped[w]))):
            object.__setattr__(self, field, value)
        return self.__dict__[name]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BudgetedLowering):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in _LOWERING_FIELDS)

    __hash__ = None  # type: ignore[assignment]

    @property
    def num_rules(self) -> int:
        rows, row, _ = self.__dict__["_source"]
        return int(rows.keep[row].sum())

    @property
    def error_l1(self) -> float:
        rows, row, _ = self.__dict__["_source"]
        return float(rows.error_l1[row])

    @property
    def error_linf(self) -> float:
        rows, row, _ = self.__dict__["_source"]
        return float(rows.error_linf[row])


_LOWERING_FIELDS = tuple(f.name for f in fields(BudgetedLowering))
