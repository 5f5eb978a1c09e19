"""Gap experiments: sweep one knob, report the distance to the LP.

The paper justifies each mechanism by sweeping a knob and plotting the
distance to the LP optimum (Fig. 11's MaxLinkLoad sweep, Fig. 12's DC
gap). The three experiments here do the same for the knobs this
reproduction added. Each solves the oracle — the global replication LP
on the topology's exact matrix — and measures one series against it.
The defaults are the parameterisation the experiment table runs
(:mod:`repro.experiments.registry`); other knob values are a Python
call.

``budget-sweep`` — lowering fidelity vs. TCAM table size. Real shim
rule tables are bounded, so the compiler's budgeted mode
(:func:`~repro.shim.budget.budgeted_hash_ranges`) approximates each
class's LP fractions with at most ``budget`` hash ranges. Per budget it
compiles the one LP solution under the cap and reports the worst
per-class coverage error (Linf and L1 deviation of the realized range
widths from the LP fractions), the rule-count footprint, and the
*realized* maximum node and replication-link load, recomputed from the
realized fractions by the Eq (3)/(4) accountant
(:func:`~repro.core.validation.plan_loads`) — dropped offload entries
shift work back to the on-path nodes and take replication traffic off
the links. ``budget=None`` is the exact compile and anchors the curve
at zero error.

``shard-gap`` — the sharded control plane
(:mod:`repro.core.controller.sharded`) trades optimality for
scalability: per-region LPs with a bounded coordination loop instead
of one global LP. Per region count it reports the relative LoadCost
gap against the global optimum, the coordination rounds and solves
used, and the partition shape. The gap is published on the
``controller.shard.gap`` gauge.

``sketch-gap`` — the streaming estimator (:mod:`repro.ingest` +
:mod:`repro.sketch`) feeds the controller count-min *estimates*
instead of exact traffic matrices. One sampled epoch trace is streamed
through an :class:`~repro.ingest.daemon.IngestDaemon` at each sketch
width; the LP is solved on the estimates and that assignment is then
**charged with the true volumes**
(:func:`~repro.core.validation.plan_loads`) — the LoadCost an
operator would actually see. A trace sample is itself an
estimator, so the series also carries the ``sampling_gap`` — the gap
when the LP is solved on the *exact* per-class counts of the same
sample — which separates irreducible sampling error from sketch
collision error. The gap is published on the ``sketch.gap`` gauge.

Every rendered column is deterministic for a given seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.controller import GlobalPlanner, PlanOutcome, ShardedPlanner
from repro.core.inputs import NetworkState
from repro.core.mirrors import MIRROR_POLICIES
from repro.core.results import FractionTable, ReplicationResult
from repro.core.validation import plan_loads
from repro.experiments.common import (
    MAX_LINK_LOAD,
    format_table,
    setup_topology,
)
from repro.ingest import IngestDaemon
from repro.obs import get_registry
from repro.shim.batch import BatchShimKernel
from repro.shim.budget import BudgetedLowering
from repro.shim.config import build_replication_configs
from repro.simulation.tracegen import TraceGenerator, TraceSpec
from repro.simulation.tracestore import ChunkedReplay


def _oracle(topology: str, mirror: str, dc_capacity_factor: float
            ) -> Tuple[GlobalPlanner, PlanOutcome]:
    """The still-warm global planner and its plan on the exact
    matrix."""
    setup = setup_topology(topology,
                           dc_capacity_factor=dc_capacity_factor)
    planner = GlobalPlanner(setup.state,
                            mirror_policy=MIRROR_POLICIES[mirror],
                            max_link_load=MAX_LINK_LOAD)
    return planner, planner.plan(setup.classes)


def _relative_gap(cost: float, oracle: float) -> float:
    return (cost - oracle) / oracle if oracle > 0 else 0.0


def _percent(value: float) -> str:
    # Rounded first, and + 0.0 turns -0.0 into 0.0.
    return f"{round(value, 4) + 0.0:.2%}"


# -- budget-sweep ------------------------------------------------------------

@dataclass
class BudgetPoint:
    """One budget's row of the sweep curve."""

    budget: Optional[int]  # None is the exact compile
    error_linf: float
    error_l1: float
    total_rules: int
    max_rules_per_node: int
    max_table_rules: int
    max_node_load: float
    max_link_load: float


@dataclass
class BudgetSweepSeries:
    """One topology's budget curve."""

    topology: str
    lp_load_cost: float
    points: List[BudgetPoint]

    def point(self, budget: Optional[int]) -> BudgetPoint:
        return next(pt for pt in self.points if pt.budget == budget)


def _realized_table(state: NetworkState,
                    lowerings: Mapping[str, BudgetedLowering]
                    ) -> FractionTable:
    """The lowerings' realized widths as a plan: ``("process", j)``
    keys are ``p`` fractions, ``("replicate", j, m)`` keys ``o``."""
    process: Dict[str, Dict[str, float]] = {}
    offload: Dict[str, Dict[Tuple[str, str], float]] = {}
    for name, lowering in lowerings.items():
        for key, width in lowering.realized.items():
            if key[0] == "process":
                process.setdefault(name, {})[key[1]] = width
            else:
                offload.setdefault(name, {})[key[1:]] = width
    return FractionTable.from_dicts(
        [cls.name for cls in state.classes], process, offload)


def run_budget_sweep(topology: str = "tinet",
                     budgets: Sequence[Optional[int]] = (1, 2, 4, 8,
                                                         None)
                     ) -> BudgetSweepSeries:
    """Compile one LP solution (DC + one-hop, DC 10x) under each
    per-class rule budget."""
    _, oracle = _oracle(topology, "dc+one-hop", 10.0)
    state, result = oracle.state, oracle.result
    points = []
    for budget in budgets:
        lowerings: Dict[str, BudgetedLowering] = {}
        configs = build_replication_configs(
            state, result, budget=budget, lowerings=lowerings)
        kernel = BatchShimKernel(
            configs, [cls.name for cls in state.classes],
            state.topology.nodes)
        node_loads, link_loads = plan_loads(
            state, _realized_table(state, lowerings))
        points.append(BudgetPoint(
            budget=budget,
            error_linf=max((low.error_linf
                            for low in lowerings.values()),
                           default=0.0),
            error_l1=max((low.error_l1
                          for low in lowerings.values()),
                         default=0.0),
            total_rules=sum(cfg.num_rules
                            for cfg in configs.values()),
            max_rules_per_node=max((cfg.num_rules
                                    for cfg in configs.values()),
                                   default=0),
            max_table_rules=kernel.max_table_rules,
            max_node_load=max(node_loads["cpu"].values(), default=0.0),
            max_link_load=max(
                (state.bg_load(link) + link_loads.get(link, 0.0)
                 for link in state.topology.links), default=0.0)))
    return BudgetSweepSeries(topology, result.load_cost, points)


def format_budget_sweep(series: BudgetSweepSeries) -> str:
    return format_table(
        ["Budget", "Linf err", "L1 err", "Rules", "Node max",
         "Table max", "Max load", "Max link"],
        [["inf" if pt.budget is None else pt.budget,
          f"{pt.error_linf:.4f}", f"{pt.error_l1:.4f}", pt.total_rules,
          pt.max_rules_per_node, pt.max_table_rules,
          f"{pt.max_node_load:.4f}", f"{pt.max_link_load:.4f}"]
         for pt in series.points],
        title=f"rule-budget sweep on {series.topology} (dc+one-hop, "
              f"MaxLinkLoad {MAX_LINK_LOAD:g}, LP LoadCost "
              f"{series.lp_load_cost:.4f})")


# -- shard-gap ---------------------------------------------------------------

@dataclass
class ShardGapPoint:
    """One region count's row of the gap curve."""

    regions: int
    load_cost: float
    gap: float
    rounds: int
    lp_solves: int
    region_sizes: List[int]


@dataclass
class ShardGapSeries:
    """One topology's sharded-vs-global comparison."""

    topology: str
    seed: int
    global_load_cost: float
    points: List[ShardGapPoint]

    def point(self, regions: int) -> ShardGapPoint:
        return next(pt for pt in self.points if pt.regions == regions)


def run_shard_gap(topology: str = "tinet",
                  regions: Sequence[int] = (2,), seed: int = 0
                  ) -> ShardGapSeries:
    """Plan with each region count and compare to the global LP (DC,
    DC 1x)."""
    planner, oracle = _oracle(topology, "dc", 1.0)
    global_cost = oracle.result.load_cost
    metrics = get_registry()
    points = []
    for count in regions:
        sharded = ShardedPlanner(
            planner.state, mirror_policy=planner.mirror_policy,
            max_link_load=MAX_LINK_LOAD, num_regions=count, seed=seed)
        outcome = sharded.plan(planner.state.classes)
        gap = _relative_gap(outcome.result.load_cost, global_cost)
        metrics.gauge("controller.shard.gap", gap)
        assert sharded.partition is not None
        points.append(ShardGapPoint(
            regions=count,
            load_cost=outcome.result.load_cost,
            gap=gap,
            rounds=sharded.last_rounds,
            lp_solves=sharded.solve_count,
            region_sizes=[len(region.nodes)
                          for region in sharded.partition.regions]))
    return ShardGapSeries(topology, seed, global_cost, points)


def format_shard_gap(series: ShardGapSeries) -> str:
    return format_table(
        ["Regions", "LoadCost", "Gap", "Rounds", "Solves", "Sizes"],
        [[pt.regions, f"{pt.load_cost:.4f}", _percent(pt.gap),
          pt.rounds, pt.lp_solves,
          "/".join(str(size) for size in pt.region_sizes)]
         for pt in series.points],
        title=f"sharded control plane on {series.topology} (dc, "
              f"MaxLinkLoad {MAX_LINK_LOAD:g}, global LoadCost "
              f"{series.global_load_cost:.4f})")


# -- sketch-gap --------------------------------------------------------------

@dataclass
class SketchGapPoint:
    """One sketch width's row of the estimator-gap curve."""

    width: int
    depth: int
    state_bytes: int
    bytes_per_class: float
    load_cost: float
    realized_load_cost: float
    gap: float
    error_l1_rel: float
    error_linf: float


@dataclass
class SketchGapSeries:
    """One topology's sketch-driven vs exact-matrix comparison."""

    topology: str
    seed: int
    sessions: int
    num_classes: int
    oracle_load_cost: float
    sampling_gap: float
    points: List[SketchGapPoint]

    def budget_point(self, bytes_per_class: float) -> SketchGapPoint:
        """The largest sketch that fits a per-class byte budget."""
        return max((pt for pt in self.points
                    if pt.bytes_per_class <= bytes_per_class),
                   key=lambda pt: pt.state_bytes)


def run_sketch_gap(topology: str = "tinet",
                   widths: Sequence[int] = (1024, 4096), seed: int = 0,
                   depth: int = 4, sessions: int = 6000,
                   chunk_packets: int = 512, workers: int = 2
                   ) -> SketchGapSeries:
    """Plan (DC, DC 1x) on count-min estimates at each sketch width
    (``depth`` rows, ``workers`` merged sketches) and charge each plan
    with the true volumes."""
    # An empty sample would make every estimate a division by zero.
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions}")
    planner, oracle = _oracle(topology, "dc", 1.0)
    state = oracle.state
    classes = list(state.classes)
    class_names = [cls.name for cls in classes]
    total_volume = sum(cls.num_sessions for cls in classes)
    oracle_cost = oracle.result.load_cost

    # One sampled epoch trace shared by every sweep point.
    generator = TraceGenerator(
        state.topology.nodes, classes,
        spec=TraceSpec(total_sessions=sessions),
        seed=seed * 1009 + 7)
    batch = generator.generate_batch(state.nids_nodes,
                                     with_payloads=False, direct=True)
    scale = total_volume / sessions
    exact = batch.sessions.class_counts()

    def gap_of(result: ReplicationResult) -> Tuple[float, float]:
        # The assignment charged with the true volumes: the LoadCost
        # an operator actually sees.
        node_loads, _ = plan_loads(state, result.fraction_table(
            class_names))
        realized = max(max(loads.values(), default=0.0)
                       for loads in node_loads.values())
        return _relative_gap(realized, oracle_cost), realized

    # Sampling floor: the LP on the trace's exact counts (no sketch).
    sampled_classes = [
        dataclasses.replace(
            cls, num_sessions=exact.get(cls.name, 0.0) * scale)
        for cls in classes]
    sampling_gap, _ = gap_of(planner.plan(sampled_classes).result)

    metrics = get_registry()
    points = []
    for width in widths:
        ingest = IngestDaemon(class_names, width=width, depth=depth,
                              seed=seed * 613 + 11, workers=workers)
        for chunk in ChunkedReplay(batch, chunk_packets):
            ingest.consume(chunk)
        snapshot = ingest.snapshot()
        errors = snapshot.estimate_errors(exact)
        outcome = planner.plan(
            snapshot.estimated_classes(classes, scale=scale))
        gap, realized = gap_of(outcome.result)
        metrics.gauge("sketch.gap", gap)
        points.append(SketchGapPoint(
            width=width,
            depth=depth,
            state_bytes=snapshot.state_bytes,
            bytes_per_class=snapshot.state_bytes / len(classes),
            load_cost=outcome.result.load_cost,
            realized_load_cost=realized,
            gap=gap,
            error_l1_rel=errors["l1_rel"],
            error_linf=errors["linf"]))
    return SketchGapSeries(topology, seed, sessions, len(classes),
                           oracle_cost, sampling_gap, points)


def format_sketch_gap(series: SketchGapSeries) -> str:
    return format_table(
        ["Width", "Depth", "State", "B/class", "LP cost", "Realized",
         "Gap", "L1 err"],
        [[pt.width, pt.depth, pt.state_bytes,
          f"{pt.bytes_per_class:.0f}", f"{pt.load_cost:.4f}",
          f"{pt.realized_load_cost:.4f}", _percent(pt.gap),
          _percent(pt.error_l1_rel)]
         for pt in series.points],
        title=f"sketch estimator on {series.topology} "
              f"({series.num_classes} classes, {series.sessions} "
              f"sampled sessions, oracle LoadCost "
              f"{series.oracle_load_cost:.4f}, sampling floor "
              f"{_percent(series.sampling_gap)})")
