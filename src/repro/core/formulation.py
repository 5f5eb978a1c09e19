"""Shared scaffolding for the LP formulations: one coefficient table.

Every formulation here — :class:`ReplicationProblem` (and its regional
and NIPS variants), :class:`SplitTrafficProblem`,
:class:`AggregationProblem`, :class:`CombinedProblem` — is the paper's
``LoadCost`` LP with the same two row families: load rows (Eq (3), one
per ``(resource, node)``) and link rows (Eqs (4)/(5), one per link that
can carry replicated traffic), plus at most one weighted cost in the
objective (``beta * CommCost`` or ``gamma * MissRate``).

A subclass says *what the coefficients are* exactly once, as index
arrays built once per model (:class:`TermIndex`): term ``t`` of a row
family puts ``volumes[cls[t]] * weight[t] / capacity[rows[t]]`` on row
``rows[t]`` through variable ``cols[t]``, where ``weight`` is the
class's footprint (load rows) or session bytes (link rows), times
whatever fixed factor the formulation applies —

- ``_load_term_index()`` for Eq (3), rows = ``(resource, node)``;
- ``_link_term_index()`` for Eq (4), rows = links;
- ``_cost_expression()`` returns the CommCost / MissRate expression.

:class:`Formulation` owns both consumers of that table. The *cold
build* evaluates the one formula over the index arrays and registers
the result with the model as a :class:`~repro.lpsolve.RowBlock` — the
one owner of that row family's coefficients, a float64 vector in term
order; the ``loadcost[...]`` / ``linkload[...]`` constraints are rows
of the two blocks (views, with no per-term object behind them). The
*warm patch* (:meth:`_patch_load_rows`, :meth:`_patch_link_rows`,
:meth:`_patch_link_bounds`, :meth:`_patch_cost`) evaluates the very
same formula over the very same arrays with the new volumes and
capacities and overwrites the block's vector — and with it the
compiled matrix — in one write per family. The unpacked ``node_loads``
/ ``link_loads`` are evaluated from the same vector. A coefficient
formula therefore cannot differ between a rebuilt and a patched LP:
warm ≡ cold holds by construction, and how rows are stored is this
module's and ``lpsolve``'s business, not any formulation's.

A parameter (``max_link_load``, ``beta``, ``gamma``, the per-class
``volumes``, a region's ``capacity_share``) only scales coefficients or
right-hand sides of an already-built LP; the set of variables and
constraints never depends on it. ``build_model`` registers one
*binding* per consumer — the parameters it reads and the patch method
to run when :meth:`Formulation.resolve` changes one of them — and
subclasses may :meth:`_bind` more (the regional ``link_share`` rhs).

:meth:`Formulation.resolve` is the payoff — the sweep experiments
(Figures 11, 15, 18) and the controller's refresh loop change one
parameter per step, and a resolve re-uses the compiled sparse matrices
instead of rebuilding the LP from scratch. When a patch would change
the compiled structure (a row that was dropped as vacuous at build
time coming alive, or a formulation extension outside the incremental
path), the formulation falls back to a cold rebuild and
counts it (``lp.resolve.fallbacks``), so ``resolve`` is always
*correct* and merely usually *fast*.
"""

from __future__ import annotations

import os
from typing import (Any, Callable, Dict, FrozenSet, Hashable, Iterable,
                    List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core.inputs import NetworkState, same_structure
from repro.core.results import LPStats
from repro.lpsolve import (Constraint, LinExpr, Model, RowBlock,
                           Solution, StructureError, Variable)
from repro.obs import get_registry
from repro.topology.topology import Link
from repro.traffic.classes import TrafficClass

Validator = Callable[[Any], None]
LoadKey = Tuple[str, str]  # (resource, node)


class TermIndex(NamedTuple):
    """One row family's terms, in term order, as index arrays: term
    ``t`` contributes ``volumes[cls[t]] * weight[t] /
    capacity[rows[t]]`` to row ``rows[t]`` at variable ``cols[t]``.
    Built once per model; volumes and capacities are the only things a
    warm patch re-reads."""

    rows: np.ndarray
    cols: np.ndarray
    cls: np.ndarray
    weight: np.ndarray

    @classmethod
    def from_terms(cls, keys: Sequence[Hashable],
                   terms: Iterable[Tuple[Any, Variable, int, float]]
                   ) -> "TermIndex":
        """From ``(row key, var, class index, weight)`` tuples, rows
        numbered by position in ``keys``."""
        ordinal = {key: index for index, key in enumerate(keys)}
        flat = np.fromiter(
            (x for key, var, owner, weight in terms
             for x in (ordinal[key], var.index, owner, weight)),
            dtype=np.float64).reshape(-1, 4)
        return cls(*(flat[:, column].astype(np.int64)
                     for column in range(3)), flat[:, 3])

    def coefficients(self, volumes: np.ndarray,
                     capacity: np.ndarray) -> np.ndarray:
        return volumes[self.cls] * self.weight / capacity[self.rows]


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

    - the coefficient table — :meth:`_load_term_index`, and where
      the formulation has them :meth:`_link_term_index` and
      :meth:`_cost_expression` (with :attr:`_cost_weight` naming the
      parameter that weights it);
    - ``_build(model)`` — add the decision variables and coverage
      rows, call :meth:`_emit_load_rows` / :meth:`_emit_link_rows`,
      and set the objective;
    - ``_reset()`` — extended to clear their own variable maps
      (called before every (re)build);
    - ``_unpack(model, solution)`` — turn a solved model into the
      formulation's result dataclass, on top of
      :meth:`_assignment_fields`.

    Args:
        state: calibrated network-wide inputs.
    """

    #: label used in the model name, e.g. ``replication[internet2]``.
    kind = "lp"
    #: parameters the load coefficients read (link and cost terms read
    #: ``volumes`` alone); a change to one re-emits the load rows.
    _load_params: Tuple[str, ...] = ("volumes",)
    #: parameter weighting :meth:`_cost_expression` in the objective
    #: (``beta`` / ``gamma``); None when the objective is LoadCost alone.
    _cost_weight: Optional[str] = None

    def __init__(self, state: NetworkState) -> None:
        self.state = state
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
        self._reset()

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
        model = Model(f"{self.kind}[{self.state.topology.name}]")
        self._build(model)
        self._model = model
        # One binding per consumer of the coefficient table, in the
        # order a refresh must apply them.
        self._bind(self._load_params, self._patch_load_rows)
        if self._link_block is not None:
            self._bind(("volumes",), self._patch_link_rows)
            self._bind(("max_link_load", "volumes"),
                       self._patch_link_bounds)
        if self._cost_weight is not None:
            self._bind((self._cost_weight, "volumes"), self._patch_cost)
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
        return self._resolve(params)

    def _resolve(self, params: Dict[str, Any],
                 classes: Optional[Sequence[TrafficClass]] = None):
        """:meth:`resolve`; ``classes`` are the current classes at
        ``params["volumes"]``, when the caller has them."""
        metrics = get_registry()
        with metrics.span("lp.resolve"):
            metrics.inc("lp.resolves")
            return self._resolve_changed(params, classes)

    def _resolve_changed(self, params: Dict[str, Any],
                         classes: Optional[Sequence[TrafficClass]]):
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
            self._apply_volumes(changed["volumes"], classes)
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
            # term its block never had, or a row that was dropped as
            # constant at build time. (Every term is stored, zeros
            # included, so a value alone cannot cause this.) A
            # partially-patched model is discarded wholesale; the
            # rebuild below re-derives everything from state + params.
            get_registry().inc("lp.resolve.fallbacks")
            self.invalidate()
        return self.solve()

    def _apply_volumes(self, volumes: Dict[str, float],
                       classes: Optional[Sequence[TrafficClass]] = None
                       ) -> None:
        """Swap in new per-class session counts — as ``classes`` when
        the caller already holds the current classes at those volumes.

        The state is re-derived via :meth:`NetworkState.with_volumes`,
        so the background link loads track the new traffic exactly as
        a cold construction would.
        """
        if classes is None:
            classes = [cls.with_sessions(volumes[cls.name])
                       for cls in self.state.classes]
        self.state = self.state.with_volumes(classes)
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
            return self._resolve({"volumes": volumes, **params},
                                 classes)
        self.state = self.state.with_traffic(classes)
        self._params["volumes"] = volumes
        self.invalidate()
        return self.resolve(**params)

    def _traffic_compatible(self,
                            classes: Sequence[TrafficClass]) -> bool:
        """True when ``classes`` matches the current traffic in
        everything except session counts."""
        return same_structure(classes, self.state.classes)

    # -- the coefficient table (subclass hooks) -----------------------------

    def _load_term_index(self) -> TermIndex:
        """Eq (3): the terms of the ``(resource, node)`` load rows
        (numbered as in ``_load_keys``), weighted by footprint. One
        term wherever the footprint is non-zero, whatever the volume:
        ``|T_c|`` is a parameter, and a class estimated at zero
        sessions now must stay patchable when it reappears."""
        raise NotImplementedError

    def _link_term_index(self) -> Optional[TermIndex]:
        """Eq (4): the terms of the link rows (numbered as in
        ``topology.links``), weighted by session bytes; None for a
        formulation without link rows."""
        return None

    def _cost_expression(self) -> Optional[LinExpr]:
        """The CommCost / MissRate expression :attr:`_cost_weight`
        multiplies in the objective (none by default)."""
        return None

    def _capacity(self, resource: str, node: str) -> float:
        """``Cap_j^r`` as the load terms price it."""
        return self.state.capacity(resource, node)

    def _bg_load(self, link: Link) -> float:
        """``BG_l`` as the link rows account it."""
        return self.state.bg_load(link)

    # -- both consumers: one formula over the index arrays ------------------

    def _volume_vector(self) -> np.ndarray:
        return np.array([cls.num_sessions for cls in self.state.classes],
                        dtype=np.float64)

    def _load_coefficients(self) -> np.ndarray:
        return self._load_index.coefficients(
            self._volume_vector(),
            np.array([self._capacity(resource, node)
                      for resource, node in self._load_keys],
                     dtype=np.float64))

    def _link_coefficients(self) -> np.ndarray:
        state = self.state
        return self._link_index.coefficients(
            self._volume_vector(),
            np.array([state.link_capacity[link]
                      for link in state.topology.links],
                     dtype=np.float64))

    def _emit_load_rows(self, model: Model) -> Variable:
        """Add ``LoadCost`` and one row per (resource, node) bounding
        its load by ``LoadCost`` (Eq (1))."""
        load_cost = model.add_variable("LoadCost", lb=0.0)
        self._load_cost_var = load_cost
        state = self.state
        self._load_keys = [(resource, node)
                           for resource in state.resources
                           for node in state.nids_nodes]
        index = self._load_index = self._load_term_index()
        block = self._load_block = RowBlock(
            model, index.rows, index.cols, self._load_coefficients(),
            np.zeros(len(self._load_keys), dtype=np.float64),
            lead=load_cost)
        # ``LoadCost - expr >= -(0 - constant)``: a negative zero,
        # which is what the ``.lp`` goldens print.
        model.add_block_rows(
            block, -(0.0 - block.constants),
            [f"loadcost[{resource},{node}]"
             for resource, node in self._load_keys])
        return load_cost

    def _emit_link_rows(self, model: Model) -> None:
        """Background plus replicated load per link; a link no
        variable can load keeps its expression (for reporting) but
        gets no row."""
        links = self.state.topology.links
        index = self._link_index = self._link_term_index()
        block = self._link_block = RowBlock(
            model, index.rows, index.cols, self._link_coefficients(),
            [self._bg_load(link) for link in links])
        for ordinal, link in enumerate(links):
            if block.indptr[ordinal] < block.indptr[ordinal + 1]:
                self._add_link_row(model, link, ordinal)

    def _add_link_row(self, model: Model, link: Link,
                      ordinal: int) -> None:
        """Eq (5): ``LinkLoad_l <= max(MaxLinkLoad, BG_l)``."""
        block = self._link_block
        bg = block.constants[ordinal]
        bound = max(self._params["max_link_load"], bg)
        row = model.add_block_row(
            block, ordinal, -(bg - bound),
            name=f"linkload[{link[0]},{link[1]}]")
        # A link only zero-volume classes can load right now got no
        # row, so there is no rhs to patch; ``set_block_coefficients``
        # raises when such a row comes alive.
        if block.live[block.indptr[ordinal]]:
            self._link_cons[link] = row

    # -- warm consumer: the same formula, patched in place ------------------

    def _patch_load_rows(self) -> None:
        self._model.set_block_coefficients(self._load_block,
                                           self._load_coefficients())

    def _patch_link_rows(self) -> None:
        self._model.set_block_coefficients(self._link_block,
                                           self._link_coefficients())

    def _patch_link_bounds(self) -> None:
        """Re-target ``max(MaxLinkLoad, BG_l)`` bounds and background
        constants (BG changes whenever volumes do)."""
        max_link_load = self._params["max_link_load"]
        constants = self._link_block.constants
        for ordinal, link in enumerate(self.state.topology.links):
            bg = constants[ordinal] = self._bg_load(link)
            con = self._link_cons.get(link)
            if con is not None:
                # Negated the way ``expr <= bound`` normalizes it, so a
                # zero headroom carries the sign a cold build gives it.
                self._model.set_rhs(con, -(bg - max(max_link_load, bg)))

    def _patch_cost(self) -> None:
        """Re-emit the cost expression and its ``weight * cost``
        objective coefficients."""
        weight = self._params[self._cost_weight]
        self._cost_expr = self._cost_expression()
        for var, coeff in self._cost_expr.coeffs.items():
            self._model.set_objective_coefficient(var, weight * coeff)

    # -- build / unpack hooks -----------------------------------------------

    def _reset(self) -> None:
        """Clear the bookkeeping a build fills in; subclasses extend
        it with their own variable maps."""
        self._p: Dict[Tuple[str, str], Variable] = {}
        self._load_keys: List[LoadKey] = []
        self._load_index: Optional[TermIndex] = None
        self._link_index: Optional[TermIndex] = None
        self._load_block: Optional[RowBlock] = None
        self._link_block: Optional[RowBlock] = None
        self._link_cons: Dict[Link, Constraint] = {}
        self._cost_expr: Optional[LinExpr] = None
        self._load_cost_var: Optional[Variable] = None

    def _build(self, model: Model) -> None:
        raise NotImplementedError

    def _unpack(self, model: Model, solution: Solution) -> Any:
        raise NotImplementedError

    def _assignment_fields(self, model: Model,
                           solution: Solution) -> Dict[str, Any]:
        """The :class:`~repro.core.results.AssignmentResult` fields
        every formulation reports the same way (all but the
        fractions themselves)."""
        node_loads: Dict[str, Dict[str, float]] = {}
        for (resource, node), load in zip(
                self._load_keys,
                self._load_block.values(solution.x).tolist()):
            node_loads.setdefault(resource, {})[node] = load
        return dict(
            load_cost=solution.value(self._load_cost_var),
            node_loads=node_loads,
            dc_node=self.state.dc_node,
            stats=LPStats(
                num_variables=model.num_variables,
                num_constraints=model.num_constraints,
                solve_seconds=solution.solve_seconds,
                iterations=solution.iterations))

    def _process_fractions(self, solution: Solution
                           ) -> Dict[str, Dict[str, float]]:
        """``p_{c,j}`` as the dict a result without a fraction table
        reports."""
        x = solution.x.tolist()
        process: Dict[str, Dict[str, float]] = {}
        for (cls_name, node), var in self._p.items():
            process.setdefault(cls_name, {})[node] = x[var.index]
        return process

    def _link_loads(self, solution: Solution) -> Dict[Link, float]:
        """Resulting ``LinkLoad_l`` per link."""
        return dict(zip(self.state.topology.links,
                        self._link_block.values(solution.x).tolist()))


__all__ = ["Formulation", "TermIndex"]
