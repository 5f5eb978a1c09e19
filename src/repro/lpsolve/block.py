"""Row blocks: a row family whose coefficients live in one vector.

A :class:`RowBlock` holds a formulation's big row family (one load row
per node, one link row per link, one cover row per group of classes)
as arrays and is the *only* owner of its coefficients: the compiler
reads them, a warm patch overwrites them, a solution is unpacked from
them. The :class:`BlockRow` constraints the model lists are views,
materialised from the arrays on every access; editing one changes
nothing.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.lpsolve.constraint import Constraint, ConstraintSense
from repro.lpsolve.errors import ModelError, StructureError
from repro.lpsolve.expr import LinExpr
from repro.lpsolve.variable import Variable

if TYPE_CHECKING:  # pragma: no cover
    from repro.lpsolve.model import Model


class RowBlock:
    """Affine expressions ``constants[r] + sum(coeffs[e] * x[cols[e]])``
    over the entries ``e`` of row ``r``; a row the model lists reads
    ``(the terms of r) <= rhs[r]`` (``== rhs[r]`` in an ``equality``
    block) or, under a ``lead`` variable, ``lead - (the terms of r) >=
    rhs[r]``.

    Built from terms ``(rows[t], cols[t], coeffs[t])`` — row ordinal,
    variable index, coefficient — in generator order; lists no row
    (:meth:`Model.add_block_row` does). Entries are the distinct
    ``(row, variable)`` pairs, grouped by row (``indptr``) in order of
    first appearance; a variable named twice in a row is one entry
    whose coefficient is ``0.0 + c1 + c2`` in term order — what a
    ``{var: coeff}`` dict would have accumulated. ``live`` marks the
    entries of rows the model lists.
    """

    __slots__ = ("model", "lead", "sense", "rows", "cols", "indptr",
                 "coeffs", "constants", "rhs", "live", "_entry_of_term")

    def __init__(self, model: "Model", rows: Sequence[int],
                 cols: Sequence[int], coeffs: Sequence[float],
                 constants: Sequence[float],
                 lead: Optional[Variable] = None,
                 equality: bool = False) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        num_rows, width = len(constants), model.num_variables
        for kind, index, bound in (("row", rows, num_rows),
                                   ("column", cols, width)):
            if len(index) and not 0 <= index.min() <= index.max() < bound:
                raise ModelError(
                    f"row block {kind} index outside [0, {bound})")
        if lead is not None and (cols == lead.index).any():
            raise ModelError(
                f"lead variable {lead.name!r} is also a term of the block")
        if lead is not None and equality:
            raise ModelError("an equality block has no lead variable")
        pairs, first, entry = np.unique(rows * width + cols,
                                        return_index=True,
                                        return_inverse=True)
        order = np.lexsort((first, pairs // width))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self._entry_of_term = rank[entry]
        self.rows = (pairs // width)[order]
        self.cols = (pairs % width)[order]
        self.indptr = np.searchsorted(self.rows, np.arange(num_rows + 1))
        self.model, self.lead = model, lead
        self.sense = (ConstraintSense.EQ if equality else
                      ConstraintSense.LE if lead is None else
                      ConstraintSense.GE)
        self.constants = np.asarray(constants, dtype=float)
        self.rhs = np.zeros(num_rows)
        self.live = np.zeros(len(self.rows), dtype=bool)
        self.coeffs = self.entry_coeffs(np.asarray(coeffs, dtype=float))

    def entry_coeffs(self, term_coeffs: np.ndarray) -> np.ndarray:
        """Per-entry coefficients from per-term ones (same generator,
        same order as at construction)."""
        if len(term_coeffs) != len(self._entry_of_term):
            raise StructureError(
                f"row block built from {len(self._entry_of_term)} terms "
                f"cannot take {len(term_coeffs)}")
        return np.bincount(self._entry_of_term, weights=term_coeffs,
                           minlength=len(self.rows))

    def values(self, x: np.ndarray) -> np.ndarray:
        """Every expression evaluated at ``x``, each accumulated from
        its constant in entry order — the bits ``Solution.value`` gets
        from the materialised :meth:`expr`."""
        num_rows = len(self.constants)
        return np.bincount(
            np.concatenate((np.arange(num_rows), self.rows)),
            weights=np.concatenate((self.constants,
                                    self.coeffs * x[self.cols])),
            minlength=num_rows)

    def expr(self, ordinal: int) -> LinExpr:
        """Expression ``ordinal``, materialised (a copy)."""
        lo, hi = self.indptr[ordinal:ordinal + 2]
        variables = self.model._variables
        return LinExpr(
            {variables[col]: coeff for col, coeff in zip(
                self.cols[lo:hi].tolist(), self.coeffs[lo:hi].tolist())},
            self.constants[ordinal])


class BlockRow(Constraint):
    """One listed row of a :class:`RowBlock`, as a view: ``expr`` is
    materialised from the block's arrays (editing it changes nothing),
    ``rhs`` reads and writes the block's."""

    __slots__ = ("block", "ordinal")

    def __init__(self, block: RowBlock, ordinal: int, name: str) -> None:
        self.block = block
        self.ordinal = ordinal
        self.sense = block.sense
        self.name = name

    @property
    def expr(self) -> LinExpr:  # type: ignore[override]
        lead = self.block.lead
        terms = self.block.expr(self.ordinal).coeffs
        if lead is not None:
            terms = {lead: 1.0,
                     **{var: -coeff for var, coeff in terms.items()}}
        return LinExpr(terms, -self.rhs)

    @property
    def rhs(self) -> float:
        return float(self.block.rhs[self.ordinal])

    @rhs.setter
    def rhs(self, value: float) -> None:
        self.block.rhs[self.ordinal] = value
