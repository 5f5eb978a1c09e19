"""Independent validation of optimization results.

Recomputes every paper constraint from a result's decision fractions —
with no reference to the LP machinery — and reports human-readable
violations. Used by the test suite to check the solver end-to-end and
available to users as a sanity gate before pushing configurations to
shims.

:func:`plan_loads` is the one Eq (3)/(4) accountant over a plan's
fractions: validation, the sharded planner's per-shard loads and the
gap experiments' realized loads all charge a plan through it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.inputs import NetworkState
from repro.core.results import (
    AggregationResult,
    FractionTable,
    Link,
    ReplicationResult,
    SplitTrafficResult,
)

_TOL = 1e-6


def _check_fraction_bounds(fractions: Dict[str, Dict], label: str,
                           problems: List[str]) -> None:
    for class_name, per_key in fractions.items():
        for key, value in per_key.items():
            if value < -_TOL or value > 1.0 + _TOL:
                problems.append(
                    f"{label}[{class_name}][{key}] = {value} out of "
                    f"[0, 1]")


def plan_loads(state: NetworkState, table: FractionTable
               ) -> Tuple[Dict[str, Dict[str, float]], Dict[Link, float]]:
    """Eqs (3) and (4) of a plan: ``(node_loads, link_loads)``.

    ``node_loads[resource][node]`` is ``sum F_c^r |T_c| f / Cap_j^r``
    for every NIDS node of ``state``: a ``p`` fraction charges its
    node, an ``o`` fraction its mirror. ``link_loads[link]`` is the
    replicated bytes over ``LinkCap_l`` of every link a replication
    tunnel crosses, in the order the tunnels first cross them, without
    ``BG_l``. The table's rows are ``state.classes``, in order; volumes,
    footprints and capacities come from ``state``, so one plan can be
    charged with another matrix's volumes.

    Every sum is a ``bincount`` of per-fraction terms ``work f / Cap``
    and ``f bytes / Cap`` in table order, the order the dict views list
    the fractions: it accumulates one by one, as a walk over those
    dicts would.
    """
    layout, values = table.layout, table.values
    nodes = layout.node_names
    classes = state.classes
    if layout.class_names != tuple(cls.name for cls in classes):
        raise ValueError("the table's rows are not the state's classes")
    sessions = np.array([cls.num_sessions for cls in classes],
                        dtype=np.float64)
    charged = np.where(layout.mirror < 0, layout.node, layout.mirror)
    node_loads: Dict[str, Dict[str, float]] = {}
    for resource in state.resources:
        work = sessions * np.array(
            [cls.footprint(resource) for cls in classes],
            dtype=np.float64)
        capacity = np.array([state.capacity(resource, node)
                             for node in nodes], dtype=np.float64)
        loads = dict(zip(nodes, np.bincount(
            charged, weights=work[layout.cls] * values
            / capacity[charged], minlength=len(nodes)).tolist()))
        node_loads[resource] = {node: loads.get(node, 0.0)
                                for node in state.nids_nodes}

    links = state.topology.links
    at, hop = layout.tunnels(state.routing, {
        link: index for index, link in enumerate(links)})
    total_bytes = sessions * np.array(
        [cls.session_bytes for cls in classes], dtype=np.float64)
    capacity = np.array([state.link_capacity[link] for link in links],
                        dtype=np.float64)
    extra = np.bincount(
        hop, weights=(values * total_bytes[layout.cls])[at]
        / capacity[hop], minlength=len(links))
    touched, first = np.unique(hop, return_index=True)
    sums = extra.tolist()
    return node_loads, {links[index]: sums[index] for index in
                        touched[np.argsort(first)].tolist()}


def validate_replication(state: NetworkState, result: ReplicationResult
                         ) -> List[str]:
    """Check a Section 4 result against Eqs (2)-(7).

    Returns:
        A list of violation descriptions; empty when the result is a
        feasible assignment for ``state``.
    """
    problems: List[str] = []
    table = result.fraction_table(cls.name for cls in state.classes)
    layout, values = table.layout, table.values
    names, nodes = layout.class_names, layout.node_names
    local = layout.mirror < 0
    # Eqs (6), (7): every p and o fraction in [0, 1].
    for at in np.flatnonzero(
            (values < -_TOL) | (values > 1.0 + _TOL)).tolist():
        node = nodes[layout.node[at]]
        label, key = ("p", node) if local[at] else \
            ("o", (node, nodes[layout.mirror[at]]))
        problems.append(
            f"{label}[{names[layout.cls[at]]}][{key}] = "
            f"{values[at]} out of [0, 1]")

    # Eq (2): full coverage, summed in table order.
    total = sum(np.bincount(layout.cls, minlength=len(names),
                            weights=np.where(kind, values, 0.0))
                for kind in (local, ~local))
    for index in np.flatnonzero(np.abs(total - 1.0) > 1e-5).tolist():
        problems.append(
            f"class {names[index]!r} coverage {total[index]:.6f} != 1")

    # Eq (3): node loads recomputed from the fractions.
    node_loads, link_loads = plan_loads(state, table)
    for resource, loads in node_loads.items():
        for node, load in loads.items():
            reported = result.node_loads[resource][node]
            if abs(load - reported) > 1e-5:
                problems.append(
                    f"load[{resource}][{node}] recomputed "
                    f"{load:.6f} != reported {reported:.6f}")
            if load > result.load_cost + 1e-5:
                problems.append(
                    f"load[{resource}][{node}] exceeds LoadCost")

    # Eqs (4), (5): link loads under the bound.
    for link, extra in link_loads.items():
        load = state.bg_load(link) + extra
        bound = max(result.max_link_load, state.bg_load(link))
        if load > bound + 1e-5:
            problems.append(
                f"link {link} load {load:.6f} exceeds bound "
                f"{bound:.6f}")
    return problems


def validate_aggregation(state: NetworkState,
                         result: AggregationResult) -> List[str]:
    """Check a Section 6 result: coverage (Eq 14) and CommCost (Eq 13).

    Distances are to each class's recorded aggregation point; classes
    counted at a node outside their path (the combined formulation's
    DC counting) contribute ``D(node, aggregation point)`` like any
    other location.
    """
    problems: List[str] = []
    _check_fraction_bounds(result.process_fractions, "p", problems)
    for cls in state.classes:
        total = sum(result.process_fractions.get(cls.name, {}).values())
        if abs(total - 1.0) > 1e-5:
            problems.append(
                f"class {cls.name!r} coverage {total:.6f} != 1")
    comm = 0.0
    for cls in state.classes:
        point = result.aggregation_points[cls.name]
        for node, fraction in result.process_fractions.get(
                cls.name, {}).items():
            distance = state.routing.hop_count(node, point)
            comm += cls.num_sessions * fraction * cls.record_bytes * \
                distance
    if abs(comm - result.comm_cost) > max(1e-3, 1e-6 * abs(comm)):
        problems.append(
            f"CommCost recomputed {comm:.3f} != reported "
            f"{result.comm_cost:.3f}")
    return problems


def validate_split(state: NetworkState,
                   result: SplitTrafficResult) -> List[str]:
    """Check a Section 5 result: Eqs (8)-(11)."""
    problems: List[str] = []
    _check_fraction_bounds(result.process_fractions, "p", problems)
    _check_fraction_bounds(result.fwd_offloads, "ofwd", problems)
    _check_fraction_bounds(result.rev_offloads, "orev", problems)

    total_sessions = sum(cls.num_sessions for cls in state.classes)
    missed = 0.0
    for cls in state.classes:
        local = sum(result.process_fractions.get(cls.name, {}).values())
        cov_fwd = local + sum(
            result.fwd_offloads.get(cls.name, {}).values())
        cov_rev = local + sum(
            result.rev_offloads.get(cls.name, {}).values())
        # Each direction's offloads extend the shared local prefix of
        # the hash space, so local + either direction fits the class.
        for label, total in (("fwd", cov_fwd), ("rev", cov_rev)):
            if total > 1.0 + 1e-5:
                problems.append(
                    f"class {cls.name!r} local + {label} offload "
                    f"fractions sum to {total:.6f} > 1")
        effective = min(cov_fwd, cov_rev, 1.0)
        reported = result.coverage.get(cls.name, 0.0)
        if reported > effective + 1e-5:
            problems.append(
                f"class {cls.name!r} coverage {reported:.6f} exceeds "
                f"min(fwd, rev, 1) = {effective:.6f}")
        missed += (1.0 - effective) * cls.num_sessions
    recomputed = missed / total_sessions if total_sessions else 0.0
    if result.miss_rate > recomputed + 1e-5:
        problems.append(
            f"MissRate reported {result.miss_rate:.6f} above "
            f"recomputed bound {recomputed:.6f}")
    return problems
