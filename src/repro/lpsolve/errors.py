"""Exception hierarchy for the LP substrate."""


class LPError(Exception):
    """Base class for all errors raised by :mod:`repro.lpsolve`."""


class ModelError(LPError):
    """A model was built or used incorrectly.

    Examples include adding a variable that belongs to a different
    model, solving a model with no objective, or mixing variables from
    two models in one expression.
    """


class StructureError(LPError):
    """An incremental patch would change the compiled LP's structure.

    Raised by :meth:`Model.set_block_coefficients` /
    :meth:`Model.set_rhs` when the targeted entry does not exist in
    the compiled model (a block's term count changed, a row the model
    does not list would become non-zero, or the constraint was never
    compiled). Callers should invalidate the compiled structure and
    rebuild from scratch.
    """


class InfeasibleError(LPError):
    """The model has no feasible solution."""


class UnboundedError(LPError):
    """The objective can be improved without bound."""
