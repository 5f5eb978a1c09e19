"""Model-level verification: LP structure and paper invariants.

Where the AST rules guard *source*, this module guards *built
artifacts*: a :class:`~repro.lpsolve.Model` about to be solved, or a
compiled set of :class:`~repro.shim.config.ShimConfig` tables. Each
artifact kind has one check, and each invariant one walk. The checks
mirror the properties the paper's architecture depends on (Heorhiadi
et al., CoNEXT'12, Sections 4 and 7):

- **LP structure** (MDL001-MDL005): no dangling variables, no
  duplicate constraint rows, no degenerate (all-zero) rows, no
  contradictory variable bounds, and every per-class ``cover[...]``
  row keeps the unit-coefficient / unit-rhs shape that makes the
  process+replication fractions a partition of the class.
- **Shim range tables** (SHIM001, SHIM002, SHIM004): per (node, class,
  direction, hash field) the installed ranges are non-overlapping and,
  under a rule budget, at most ``budget`` of them; per class and
  direction the network-wide PROCESS ranges tile the full hash space
  ``[0, 2^32)`` exactly, in integer hash units. A misconfigured range
  table fails *silently* at runtime (sessions just go unanalyzed).
- **Sharded control plane** (SHRD001-SHRD002): the per-region config
  sets produced by the sharded planner, *unioned*, must still tile
  every class's hash space exactly (each class is planned by exactly
  one region, so cross-region double-coverage or a dropped class is a
  coordination bug), and the coordinator's summed per-region capacity
  allocations at any shared node must not exceed the node's actual
  capacity.

A solved result's fractions are not checked here: the
``core.validation.validate_*`` functions recompute every paper
constraint from them, bounds and coverage sums included.

:func:`precheck` is the library pre-solve guard: call it (or export
``REPRO_VERIFY_MODELS=1`` to have every
:meth:`Formulation.solve <repro.core.formulation.Formulation.solve>`
call it) to fail fast on malformed models instead of shipping bad
configs. Under the same variable, ``ShardedPlanner.plan`` runs
:func:`check_sharded_configs` and :func:`check_shard_capacity` on
every plan. Nothing in the library calls :func:`check_shim_configs`;
the tests run it on compiled config sets.

Note on rollout transients: an *overlap* transition deliberately
installs the union of old and new rules, which double-covers hash
space by design. Run :func:`check_shim_configs` on freshly compiled
config sets (the controller's output), not on mid-transition union
tables.
"""

from __future__ import annotations

import math
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.analysis.engine import Finding, Severity
from repro.lpsolve.constraint import Constraint, ConstraintSense
from repro.lpsolve.model import Model
from repro.shim.config import ShimAction, ShimConfig, ShimRule

_TOL = 1e-6


class ModelCheckError(ValueError):
    """Raised by :func:`precheck` when a model fails verification."""

    def __init__(self, findings: List[Finding]) -> None:
        self.findings = findings
        lines = "\n".join(f.format() for f in findings)
        super().__init__(
            f"model verification failed with {len(findings)} "
            f"finding(s):\n{lines}")


def _finding(rule_id: str, where: str, message: str,
             severity: Severity = Severity.ERROR) -> Finding:
    return Finding(rule_id, severity, where, 0, message)


# -- LP structure ---------------------------------------------------------

def check_model(model: Model) -> List[Finding]:
    """Structural findings for a built (not necessarily solved) model."""
    where = f"<model:{model.name}>"
    findings: List[Finding] = []

    used_vars = set()
    if model.objective is not None:
        for var, coeff in model.objective.coeffs.items():
            if coeff != 0.0:
                used_vars.add(var)

    seen_rows: Dict[Tuple, str] = {}
    for con in model.constraints:
        nonzero = tuple(sorted(
            (var.index, coeff)
            for var, coeff in con.expr.coeffs.items()
            if coeff != 0.0))
        for var, coeff in con.expr.coeffs.items():
            if coeff != 0.0:
                used_vars.add(var)

        if not nonzero:
            rhs = con.rhs
            violated = (abs(rhs) > _TOL
                        if con.sense is ConstraintSense.EQ
                        else (rhs < -_TOL
                              if con.sense is ConstraintSense.LE
                              else rhs > _TOL))
            label = ("trivially infeasible"
                     if violated else "degenerate (tautological)")
            findings.append(_finding(
                "MDL003", where,
                f"constraint {con.name!r} has no nonzero "
                f"coefficients — {label} row; a patch probably "
                "zeroed it out (rebuild instead of patching)"))
            continue

        # Canonical row identity: GE rows are negated into LE form so
        # `x >= 1` and `-x <= -1` collide as duplicates.
        if con.sense is ConstraintSense.GE:
            canonical = ("LE",
                         tuple((i, -c) for i, c in nonzero),
                         -con.rhs)
        else:
            canonical = (con.sense.name, nonzero, con.rhs)
        previous = seen_rows.get(canonical)
        if previous is not None:
            findings.append(_finding(
                "MDL002", where,
                f"constraint {con.name!r} duplicates row "
                f"{previous!r} (same coefficients, sense and rhs); "
                "duplicate rows bloat the basis and usually signal "
                "a double build"))
        else:
            seen_rows[canonical] = con.name or "<unnamed>"

        _check_cover_row(con, nonzero, where, findings)

    for var in model.variables:
        if var.ub is not None and var.ub < var.lb - _TOL:
            findings.append(_finding(
                "MDL004", where,
                f"variable {var.name!r} has contradictory bounds "
                f"[{var.lb}, {var.ub}]"))
        if math.isnan(var.lb) or (var.ub is not None
                                  and math.isnan(var.ub)):
            findings.append(_finding(
                "MDL004", where,
                f"variable {var.name!r} has a NaN bound"))
        if var not in used_vars:
            findings.append(_finding(
                "MDL001", where,
                f"variable {var.name!r} appears in no constraint "
                "or objective (dangling column); likely a stale "
                "build or a typo in the formulation"))

    return findings


def _check_cover_row(con: Constraint, nonzero: Tuple,
                     where: str, findings: List[Finding]) -> None:
    """MDL005: ``cover[...]`` rows must keep the paper's structure.

    Section 4 makes the per-class processing + replication fractions
    a partition of the class: every coefficient is +1 and the row
    says the fractions sum to exactly 1 (or at most 1 for relaxed
    variants). A patched coefficient or rhs breaks the
    hash-range compilation downstream, so it is checked here.
    """
    name = con.name or ""
    if not name.startswith("cover["):
        return
    sense = con.sense
    rhs = con.rhs
    bad_coeff = [index for index, coeff in nonzero
                 if abs(coeff - 1.0) > _TOL]
    if bad_coeff:
        findings.append(_finding(
            "MDL005", where,
            f"coverage row {name!r} has non-unit coefficients at "
            f"column(s) {bad_coeff}; per-class fraction rows must "
            "be plain sums for the hash-range compiler to be valid"))
    if sense is ConstraintSense.EQ:
        if abs(rhs - 1.0) > _TOL:
            findings.append(_finding(
                "MDL005", where,
                f"coverage row {name!r} pins the fraction sum to "
                f"{rhs} instead of 1"))
    elif sense is ConstraintSense.LE:
        if rhs > 1.0 + _TOL:
            findings.append(_finding(
                "MDL005", where,
                f"coverage row {name!r} allows the fraction sum to "
                f"reach {rhs} > 1; fractions of a class cannot "
                "exceed the class"))


# -- shim range tables ----------------------------------------------------

_SPACE = 2 ** 32
#: ``(start, end, owner)`` in hash units; the owner names who installed
#: the span, for the finding's message.
_Span = Tuple[int, int, str]


def _directions(rule: ShimRule) -> Tuple[str, ...]:
    if rule.direction == "both":
        return ("fwd", "rev")
    return (rule.direction,)


def _unit_spans(rules: Iterable[ShimRule]
                ) -> Iterator[Tuple[int, int, ShimRule]]:
    """Every rule that can match, as ``(start, end, rule)`` in integer
    hash units; a zero-width rule matches nothing and takes no table
    slot."""
    for rule in rules:
        start = int(round(rule.hash_range.start * _SPACE))
        end = int(round(rule.hash_range.end * _SPACE))
        if end > start:
            yield start, end, rule


def _tiling_faults(spans: List[_Span], require_full_coverage: bool
                   ) -> Iterator[Tuple[str, int, int, str]]:
    """The one cursor walk of one class's hash space.

    Yields ``("overlap", start, cursor, owner)`` for a span that starts
    below the coverage reached so far, and, with
    ``require_full_coverage``, ``("gap", cursor, start, owner)`` for
    unowned units before a span and ``("tail", cursor, 2^32, "")``
    when coverage stops short of the end of the space.
    """
    cursor = 0
    for start, end, owner in sorted(spans):
        if start < cursor:
            yield "overlap", start, cursor, owner
        elif start > cursor and require_full_coverage:
            yield "gap", cursor, start, owner
        cursor = max(cursor, end)
    if require_full_coverage and cursor != _SPACE:
        yield "tail", cursor, _SPACE, ""


def check_shim_configs(configs: Mapping[str, ShimConfig],
                       budget: Optional[int] = None,
                       require_full_coverage: bool = True
                       ) -> List[Finding]:
    """SHIM001/SHIM002/SHIM004 on a compiled per-node config set.

    One walk per (node, class, direction, hash field) bucket:

    - SHIM001 — the bucket's ranges must be non-overlapping, otherwise
      "first match wins" silently shadows the later rule;
    - SHIM004 — with a finite ``budget``, the bucket may hold at most
      ``budget`` positive-width rules, the declared TCAM capacity.

    One cursor walk per (class, direction) that any config names, in
    exact integer hash units:

    - SHIM002 — the union of PROCESS ranges across *all* nodes must
      tile ``[0, 2^32)`` with neither overlap (a session analyzed
      twice distorts aggregation counts) nor gap (a session analyzed
      nowhere — the silent failure mode this check exists for). A
      budgeted compile rescales its kept fractions, so it is held to
      the same exact tiling. ``require_full_coverage=False``
      (partial-coverage split classes) reports overlaps only.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    findings: List[Finding] = []
    process: Dict[Tuple[str, str], List[_Span]] = {}
    for node in sorted(configs):
        for cls_name, rules in sorted(configs[node].rules.items()):
            buckets: Dict[Tuple[str, str],
                          List[Tuple[int, int, ShimRule]]] = {}
            owned = {direction: process.setdefault(
                (cls_name, direction), []) for direction in ("fwd", "rev")}
            for start, end, rule in _unit_spans(rules):
                for direction in _directions(rule):
                    buckets.setdefault(
                        (direction, rule.hash_mode.value), []).append(
                        (start, end, rule))
                    if rule.action is ShimAction.PROCESS:
                        owned[direction].append(
                            (start, end, f"node {node!r}"))
            for (direction, mode), spans in sorted(buckets.items()):
                where = f"<shim:{node}>"
                label = f"class {cls_name!r} ({direction}/{mode})"
                spans.sort(key=lambda s: (s[0], s[1]))
                for (s1, e1, r1), (s2, e2, r2) in zip(spans, spans[1:]):
                    if s2 < e1:
                        findings.append(_finding(
                            "SHIM001", where,
                            f"{label}: ranges [{s1}, {e1}) "
                            f"({r1.action.value}) and [{s2}, {e2}) "
                            f"({r2.action.value}) overlap — the "
                            "second rule is partially shadowed"))
                if budget is not None and len(spans) > budget:
                    findings.append(_finding(
                        "SHIM004", where,
                        f"{label}: {len(spans)} rules exceed the "
                        f"declared budget of {budget} — the table "
                        "does not fit the TCAM it was compiled for"))

    messages = {
        "overlap": "PROCESS range at {owner} starts at {lo}, inside "
                   "coverage up to {hi} — sessions in the overlap are "
                   "analyzed twice",
        "gap": "coverage gap [{lo}, {hi}) — sessions hashing there "
               "are analyzed nowhere (silent miss)",
        "tail": "PROCESS ranges end at {lo}, not {hi} — the tail of "
                "the hash space is unanalyzed",
    }
    for (cls_name, direction), spans in sorted(process.items()):
        for kind, lo, hi, owner in _tiling_faults(
                spans, require_full_coverage):
            findings.append(_finding(
                "SHIM002", "<shim:network>",
                f"class {cls_name!r} ({direction}): "
                + messages[kind].format(lo=lo, hi=hi, owner=owner)))
    return findings


# -- sharded control plane ------------------------------------------------

def check_sharded_configs(
        regional_configs: Mapping[str, Mapping[str, ShimConfig]],
        class_names: Sequence[str]) -> List[Finding]:
    """SHRD001 — the union of regional configs tiles every class.

    The sharded planner assigns each traffic class to exactly one
    region, and that region's configs must own the class's *entire*
    hash space ``[0, 2^32)``. The SHIM002 cursor walk runs over the
    union of all regions' PROCESS ranges: an overlap means two
    regional controllers both claimed the hash units (sessions
    analyzed twice), a gap or a missing class means no region claimed
    them (silent miss). Every name in ``class_names`` must be covered
    — a class that vanished from every region is exactly the failover
    bug this rule exists to catch.
    """
    findings: List[Finding] = []
    spans_by_class: Dict[Tuple[str, str], List[_Span]] = {}
    owners: Dict[str, Set[str]] = {}
    for region in sorted(regional_configs):
        configs = regional_configs[region]
        for node in sorted(configs):
            for cls_name, rules in sorted(configs[node].rules.items()):
                owners.setdefault(cls_name, set()).add(region)
                for start, end, rule in _unit_spans(rules):
                    if rule.action is not ShimAction.PROCESS:
                        continue
                    for direction in _directions(rule):
                        spans_by_class.setdefault(
                            (cls_name, direction), []).append(
                            (start, end,
                             f"region {region!r} (node {node!r})"))

    messages = {
        "overlap": "PROCESS range from {owner} starts at {lo}, inside "
                   "coverage up to {hi} — two regional controllers "
                   "claim the same hash units",
        "gap": "no region owns hash units [{lo}, {hi}) — sessions "
               "hashing there are analyzed nowhere",
        "tail": "the union of regional PROCESS ranges ends at {lo}, "
                "not {hi} — the tail of the hash space is unowned",
    }
    for cls_name in sorted(class_names):
        regions = sorted(owners.get(cls_name, ()))
        if len(regions) > 1:
            findings.append(_finding(
                "SHRD001", "<shard:union>",
                f"class {cls_name!r} is configured by "
                f"{len(regions)} regions ({', '.join(regions)}) — "
                "the partition must assign each class to exactly "
                "one region"))
        for direction in ("fwd", "rev"):
            for kind, lo, hi, owner in _tiling_faults(
                    spans_by_class.get((cls_name, direction), []), True):
                findings.append(_finding(
                    "SHRD001", "<shard:union>",
                    f"class {cls_name!r} ({direction}): "
                    + messages[kind].format(lo=lo, hi=hi, owner=owner)))
    return findings


def check_shard_capacity(
        capacities: Mapping[str, float],
        allocations: Mapping[str, Mapping[str, float]]
        ) -> List[Finding]:
    """SHRD002 — summed regional allocations fit the real capacity.

    The coordinator hands every region a slice of each shared node's
    capacity (datacenter, shared mirrors, cross-region path nodes) in
    absolute capacity units. Regions plan against their slice, so the
    merged assignment is only feasible if, per node, the slices sum
    to at most the node's actual capacity (within tolerance). An
    allocation for a node with no known capacity is flagged too — the
    coordinator is handing out capacity that does not exist.
    """
    findings: List[Finding] = []
    totals: Dict[str, float] = {}
    for region in sorted(allocations):
        for node, amount in sorted(allocations[region].items()):
            if node not in capacities:
                findings.append(_finding(
                    "SHRD002", "<shard:capacity>",
                    f"region {region!r} holds an allocation of "
                    f"{amount:g} at unknown node {node!r}"))
                continue
            if amount < 0:
                findings.append(_finding(
                    "SHRD002", "<shard:capacity>",
                    f"region {region!r} holds a negative allocation "
                    f"of {amount:g} at node {node!r}"))
                continue
            totals[node] = totals.get(node, 0.0) + amount
    for node in sorted(totals):
        capacity = capacities[node]
        if totals[node] > capacity * (1.0 + _TOL) + _TOL:
            regions = sorted(r for r in allocations
                             if node in allocations[r])
            findings.append(_finding(
                "SHRD002", "<shard:capacity>",
                f"node {node!r}: regional allocations sum to "
                f"{totals[node]:g} across {', '.join(regions)} but "
                f"the node's capacity is {capacity:g} — the "
                "coordinator oversubscribed a shared node"))
    return findings


# -- the pre-solve guard --------------------------------------------------

def precheck(model: Model,
             extra: Optional[Iterable[Finding]] = None) -> None:
    """Raise :class:`ModelCheckError` when ``model`` fails
    verification; the library-level guard for
    ``REPRO_VERIFY_MODELS=1``."""
    findings = check_model(model)
    if extra is not None:
        findings = [*findings, *extra]
    errors = [f for f in findings if f.severity is Severity.ERROR]
    if errors:
        raise ModelCheckError(errors)

