"""Shared scaffolding for the four LP formulations.

:class:`Formulation` factors out what :class:`ReplicationProblem`,
:class:`SplitTrafficProblem`, :class:`AggregationProblem` and
:class:`CombinedProblem` used to each re-implement: model caching,
solve-then-unpack, and — new with this layer — *named parameters* kept
separate from LP *structure*.

A parameter (``max_link_load``, ``beta``, ``gamma``, the per-class
``volumes``) only scales coefficients or right-hand sides of an
already-built LP; the set of variables and constraints never depends on
it. Each subclass declares its parameters in ``__init__`` and, while
building, registers *bindings*: closures that re-derive the affected
coefficients from the current parameter values and patch them into the
model in place (see :meth:`~repro.lpsolve.Model.set_rhs` and friends).

:meth:`Formulation.resolve` is the payoff — the sweep experiments
(Figures 11, 15, 18) and the controller's refresh loop change one
parameter per step, and a resolve re-uses the compiled sparse matrices
instead of rebuilding the LP from scratch. When a patch would change
the compiled structure (a variable that was never a term of the row it
is patched into, or a formulation extension outside the incremental
path), the formulation falls back to a cold rebuild and counts it
(``lp.resolve.fallbacks``), so ``resolve`` is always *correct* and
merely usually *fast*.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import (Any, Callable, Dict, FrozenSet, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from repro.core.inputs import NetworkState
from repro.lpsolve import Model, SolverBackend, StructureError
from repro.obs import get_registry
from repro.traffic.classes import TrafficClass

Validator = Callable[[Any], None]


def _check_max_link_load(value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError("max_link_load must be in [0, 1]")


def _check_non_negative(name: str) -> Validator:
    def check(value: float) -> None:
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    return check


class Formulation:
    """Base class for the optimization problems.

    Subclasses implement:

    - ``_build(model)`` — add variables, constraints and the objective
      to a fresh model, and register parameter bindings via
      :meth:`_bind`;
    - ``_reset()`` — clear the variable/expression bookkeeping filled
      in by ``_build`` (called before every (re)build);
    - ``_unpack(model, solution)`` — turn a solved model into the
      formulation's result dataclass.

    Args:
        state: calibrated network-wide inputs.
        backend: solver backend forwarded to the underlying
            :class:`~repro.lpsolve.Model` (name, instance, or None for
            the process default).
    """

    #: label used in the model name, e.g. ``replication[internet2]``.
    kind = "lp"

    def __init__(self, state: NetworkState,
                 backend: Union[None, str, SolverBackend] = None) -> None:
        self.state = state
        self.backend = backend
        self._model: Optional[Model] = None
        self._params: Dict[str, Any] = {}
        self._validators: Dict[str, Validator] = {}
        self._bindings: List[Tuple[FrozenSet[str],
                                   Callable[[], None]]] = []
        # Extensions that rewrite the objective/constraints beyond the
        # parameter calculus opt out of in-place patching; resolve()
        # then always rebuilds (still correct, just not incremental).
        self._incremental_ok = True
        self._declare_param(
            "volumes",
            {cls.name: cls.num_sessions for cls in state.classes},
            self._check_volumes)

    # -- parameters --------------------------------------------------------

    def _declare_param(self, name: str, value: Any,
                       validate: Optional[Validator] = None) -> None:
        """Register a named parameter (validated now and on resolve)."""
        if validate is not None:
            validate(value)
            self._validators[name] = validate
        self._params[name] = value

    def param(self, name: str) -> Any:
        """Current value of a declared parameter."""
        return self._params[name]

    @property
    def param_names(self) -> Sequence[str]:
        """Names accepted by :meth:`resolve`."""
        return tuple(sorted(self._params))

    @property
    def volumes(self) -> Dict[str, float]:
        """Per-class session counts ``|T_c|`` (a copy)."""
        return dict(self._params["volumes"])

    def _check_volumes(self, volumes: Mapping[str, float]) -> None:
        expected = {cls.name for cls in self.state.classes}
        got = set(volumes)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ValueError(
                "volumes must cover exactly the state's classes"
                + (f"; missing {missing}" if missing else "")
                + (f"; unknown {extra}" if extra else ""))
        for name, sessions in volumes.items():
            if sessions < 0:
                raise ValueError(
                    f"volumes[{name!r}] must be non-negative")

    # -- building ----------------------------------------------------------

    def _bind(self, depends: Sequence[str],
              apply_fn: Callable[[], None]) -> None:
        """Register a patch closure run when any of ``depends``
        changes via :meth:`resolve` (registration order preserved)."""
        self._bindings.append((frozenset(depends), apply_fn))

    def build_model(self) -> Model:
        """Construct the LP, or return the cached one.

        Idempotent: repeated calls reuse the same model (re-building
        into the same model used to duplicate every variable under
        ``#N``-suffixed names).
        """
        if self._model is not None:
            return self._model
        self._bindings = []
        self._reset()
        model = Model(f"{self.kind}[{self.state.topology.name}]",
                      backend=self.backend)
        self._build(model)
        self._model = model
        return model

    def invalidate(self) -> None:
        """Drop the cached model; the next solve rebuilds from the
        current state and parameters."""
        self._model = None
        self._bindings = []

    # -- solving -----------------------------------------------------------

    def solve(self) -> Any:
        """Build (or reuse) the model, solve, and unpack the result.

        With ``REPRO_VERIFY_MODELS=1`` in the environment, the built
        model is passed through the static model verifier
        (:func:`repro.analysis.modelcheck.precheck`) before the solver
        runs, so structural corruption (dangling columns, duplicate
        rows, broken coverage rows) fails fast with a diagnostic
        instead of surfacing as solver noise or silent misconfigs.
        """
        model = self.build_model()
        if os.environ.get("REPRO_VERIFY_MODELS", "").strip() not in (
                "", "0"):
            from repro.analysis.modelcheck import precheck

            precheck(model)
        solution = model.solve()
        return self._unpack(model, solution)

    def resolve(self, **params: Any) -> Any:
        """Re-solve after changing named parameters.

        Patches only the coefficients and right-hand sides the changed
        parameters touch (via the bindings registered at build time),
        keeping the compiled sparse structure warm. Falls back to a
        full rebuild when the model was never built, an extension
        disables incremental patching, or a patch raises
        :class:`~repro.lpsolve.StructureError`.

        Args:
            **params: new values for declared parameters (see
                :attr:`param_names`); ``volumes`` takes a full
                ``{class name: num_sessions}`` mapping.

        Returns:
            The same result type as :meth:`solve`.
        """
        metrics = get_registry()
        with metrics.span("lp.resolve"):
            metrics.inc("lp.resolves")
            return self._resolve(params)

    def _resolve(self, params: Dict[str, Any]):
        unknown = sorted(set(params) - set(self._params))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {unknown}; {type(self).__name__} "
                f"accepts {list(self.param_names)}")
        changed: Dict[str, Any] = {}
        for name, value in params.items():
            if name == "volumes":
                value = dict(value)
            validator = self._validators.get(name)
            if validator is not None:
                validator(value)
            if self._params[name] != value:
                changed[name] = value

        if not changed:
            return self.solve()

        if "volumes" in changed:
            self._apply_volumes(changed["volumes"])
        for name, value in changed.items():
            if name != "volumes":
                self._params[name] = value

        if self._model is None or not self._incremental_ok:
            self.invalidate()
            return self.solve()

        names = frozenset(changed)
        try:
            for depends, apply_fn in self._bindings:
                if depends & names:
                    apply_fn()
        except StructureError:
            # The patch named a slot the compiled model lacks: a
            # variable that is not a term of its row, or a row that
            # was dropped as constant at build time. (Every term is
            # stored, zeros included, so a value alone cannot cause
            # this.) A partially-patched model is discarded wholesale;
            # the rebuild below re-derives everything from state +
            # params.
            get_registry().inc("lp.resolve.fallbacks")
            self.invalidate()
        return self.solve()

    def _apply_volumes(self, volumes: Dict[str, float]) -> None:
        """Swap in new per-class session counts.

        Rebuilds the state via :meth:`NetworkState.with_traffic` so the
        background link loads track the new traffic exactly as a cold
        construction would.
        """
        new_classes = [replace(cls, num_sessions=volumes[cls.name])
                       for cls in self.state.classes]
        self.state = self.state.with_traffic(new_classes)
        self._params["volumes"] = dict(volumes)

    def resolve_traffic(self, classes: Sequence[TrafficClass],
                        **params: Any) -> Any:
        """Re-solve for a new traffic matrix (Figure 15 / controller).

        When the classes differ from the current ones only in
        ``num_sessions`` this is a ``resolve(volumes=...)`` — the warm
        path. A structural change (different paths, footprints, class
        set) swaps the state and rebuilds from scratch. Extra keyword
        arguments are forwarded to :meth:`resolve` as additional
        parameter changes.
        """
        classes = list(classes)
        volumes = {cls.name: cls.num_sessions for cls in classes}
        if self._traffic_compatible(classes):
            return self.resolve(volumes=volumes, **params)
        self.state = self.state.with_traffic(classes)
        self._params["volumes"] = volumes
        self.invalidate()
        return self.resolve(**params)

    def _traffic_compatible(self,
                            classes: Sequence[TrafficClass]) -> bool:
        """True when ``classes`` matches the current traffic in
        everything except session counts (same order, names, paths,
        byte sizes, footprints)."""
        current = self.state.classes
        if len(classes) != len(current):
            return False
        for new, old in zip(classes, current):
            if replace(new, num_sessions=old.num_sessions) != old:
                return False
        return True

    # -- subclass hooks ----------------------------------------------------

    def _reset(self) -> None:
        raise NotImplementedError

    def _build(self, model: Model) -> None:
        raise NotImplementedError

    def _unpack(self, model: Model, solution):
        raise NotImplementedError


__all__ = ["Formulation"]
