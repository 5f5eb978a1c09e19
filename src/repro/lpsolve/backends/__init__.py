"""The solver backends of the LP substrate.

A backend consumes a :class:`~repro.lpsolve.compiled.CompiledLP` (the
sense-normalized *minimize* form with ``A_ub x <= b_ub`` rows) and
returns a :class:`BackendResult`. Two backends ship with the
reproduction:

- ``scipy`` — :func:`scipy.optimize.linprog` with HiGHS, the default
  and the stand-in for the paper's CPLEX.
- ``dense`` — a dependency-light bounded-variable simplex on dense
  numpy arrays, the fallback for environments where the compiled
  HiGHS library is unavailable (and an independent cross-check).

The process picks one of them for every solve: the one named by
:func:`set_default_backend` (the CLI's ``--solver`` flag), else the
``REPRO_SOLVER`` environment variable (blank reads as unset), else
``scipy``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.lpsolve.compiled import CompiledLP
from repro.lpsolve.errors import LPError
from repro.lpsolve.solution import SolveStatus

ENV_VAR = "REPRO_SOLVER"


@dataclass
class BackendResult:
    """Outcome of one backend solve, in the compiled (minimize) form.

    Attributes:
        status: terminal solve status.
        x: primal values (undefined unless ``status`` is OPTIMAL).
        objective: ``c @ x`` of the compiled minimize form.
        iterations: solver iteration count.
        message: backend-specific diagnostic text.
    """

    status: SolveStatus
    x: Optional[np.ndarray] = None
    objective: float = float("nan")
    iterations: int = 0
    message: str = ""


class SolverBackend:
    """Interface every solver backend implements."""

    #: its key in :data:`BACKENDS`.
    name: str = ""

    def solve(self, compiled: CompiledLP) -> BackendResult:
        """Solve the compiled minimize-form LP."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def _make_scipy() -> SolverBackend:
    from repro.lpsolve.backends.scipy_highs import ScipyHighsBackend

    return ScipyHighsBackend()


def _make_dense() -> SolverBackend:
    from repro.lpsolve.backends.dense import DenseSimplexBackend

    return DenseSimplexBackend()


#: every backend, by name; each is built on first use and cached.
BACKENDS: Dict[str, Callable[[], SolverBackend]] = {
    "scipy": _make_scipy,
    "dense": _make_dense,
}
_INSTANCES: Dict[str, SolverBackend] = {}
_default_name: Optional[str] = None


def get_backend(name: str) -> SolverBackend:
    """The (cached) backend named ``name``."""
    key = name.lower()
    if key not in BACKENDS:
        raise LPError(
            f"unknown solver backend {name!r}; available: "
            f"{', '.join(sorted(BACKENDS))}")
    if key not in _INSTANCES:
        _INSTANCES[key] = BACKENDS[key]()
    return _INSTANCES[key]


def set_default_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide backend,
    overriding the ``REPRO_SOLVER`` environment variable."""
    global _default_name
    if name is not None:
        get_backend(name)  # validate eagerly
    _default_name = name


def default_backend_name() -> str:
    """The name of the backend the next solve uses."""
    if _default_name is not None:
        return _default_name
    return os.environ.get(ENV_VAR, "").strip() or "scipy"


__all__ = [
    "BACKENDS",
    "BackendResult",
    "ENV_VAR",
    "SolverBackend",
    "default_backend_name",
    "get_backend",
    "set_default_backend",
]
