"""Gap experiments: sweep one knob, report the distance to the LP.

The paper justifies each mechanism by sweeping a knob and plotting the
distance to the LP optimum (Fig. 11's MaxLinkLoad sweep, Fig. 12's DC
gap). The three experiments here do the same for the knobs this
reproduction added. Each is a :class:`GapSpec` — the verb, the swept
knob, its extra parameters and a ``measure`` function holding the only
code that differs — plus a :class:`GapSeries` subclass declaring the
JSON fields and table columns, over one runner, :meth:`GapSpec.run`,
which validates every input before the first solve, builds each
topology, solves the oracle LP and collects one series per topology.

``budget-sweep`` — lowering fidelity vs. TCAM table size. Real shim
rule tables are bounded, so the compiler's budgeted mode
(:func:`~repro.shim.budget.budgeted_hash_ranges`) approximates each
class's LP fractions with at most ``budget`` hash ranges. One LP solve
per topology; per budget it compiles that solution under the cap and
reports the worst per-class coverage error (Linf and L1 deviation of
the realized range widths from the LP fractions), the rule-count
footprint, and the *realized* maximum node and replication-link load,
recomputed from the realized fractions by the Eq (3)/(4) accountant
(:func:`~repro.core.validation.plan_loads`) — dropped offload entries
shift work back to the on-path nodes and take replication traffic off
the links. ``budget=None`` is the exact compile and anchors the curves
at zero error.

``shard-gap`` — the sharded control plane
(:mod:`repro.core.controller.sharded`) trades optimality for
scalability: per-region LPs with a bounded coordination loop instead
of one global LP. Per region count it reports the relative LoadCost
gap against the global optimum, the coordination rounds used, the
wall-clock speedup of the full sharded plan over the global solve, and
the partition shape. The gap is published on the
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

Everything except the ``*_wall_seconds``/``speedup`` fields is
deterministic for a given seed.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.core.controller import GlobalPlanner, PlanOutcome, ShardedPlanner
from repro.core.inputs import NetworkState
from repro.core.mirrors import MIRROR_POLICIES
from repro.core.results import FractionTable, ReplicationResult
from repro.core.validation import plan_loads
from repro.experiments.common import format_table, setup_topology
from repro.ingest import IngestDaemon
from repro.obs import get_registry
from repro.shim.batch import BatchShimKernel
from repro.shim.budget import BudgetedLowering
from repro.shim.config import build_replication_configs
from repro.simulation.tracegen import TraceGenerator, TraceSpec
from repro.simulation.tracestore import ChunkedReplay

Knob = Optional[int]  # None is the unbounded budget
Measured = Tuple[Dict[str, Any], List[Any]]  # header fields, points


# -- the frame ---------------------------------------------------------------

def col(header: str, cell: Callable[[Any], str] = str) -> Any:
    """A point field that is also a table column; ``cell`` renders it."""
    return dataclasses.field(metadata={"header": header, "cell": cell})


def show_knob(value: Knob) -> str:
    return "inf" if value is None else str(value)


@dataclass
class GapSeries:
    """One topology's curve. Experiments add header fields and set the
    class attributes; ``row``'s :func:`col` fields are the table."""

    experiment: ClassVar[str]
    knob: ClassVar[str]  # the ``row`` field holding the swept value
    row: ClassVar[type]
    title: ClassVar[str]  # format template over the series, as ``s``

    topology: str
    mirror: str
    max_link_load: float
    points: List[Any]

    def point(self, value: Knob) -> Any:
        for pt in self.points:
            if getattr(pt, self.knob) == value:
                return pt
        raise KeyError(f"no point for {self.knob} {value!r}")


def gap_to_json(series: Sequence[GapSeries],
                indent: Optional[int] = 2) -> str:
    """Series of one experiment as a JSON document (the CI artifact
    format)."""
    return json.dumps({
        "schema": 1,
        "experiment": series[0].experiment,
        "series": [dataclasses.asdict(entry) for entry in series],
    }, indent=indent, sort_keys=True)


def format_gap(series: Sequence[GapSeries]) -> str:
    """One aligned text table per series."""
    columns = [field for field in dataclasses.fields(series[0].row)
               if "header" in field.metadata]

    return "\n\n".join(
        format_table(
            [field.metadata["header"] for field in columns],
            [[field.metadata["cell"](getattr(pt, field.name))
              for field in columns] for pt in entry.points],
            title=entry.title.format(s=entry))
        for entry in series)


@dataclass(frozen=True)
class Param:
    """One extra parameter of an experiment: ``name`` is the ``run``
    keyword, ``flag`` the CLI option."""

    name: str
    flag: str
    default: Optional[int]
    help: Optional[str] = None
    minimum: Optional[int] = None


@dataclass(frozen=True)
class GapSpec:
    """Everything that distinguishes one gap experiment.

    The runner solves the oracle — the global replication LP on the
    topology's exact matrix — and ``measure(planner, oracle, seconds,
    values, options)`` gets the still-warm planner, its outcome, the
    wall-clock seconds the solve took, the validated knob values and
    every :class:`Param` by name; it returns the series' extra header
    fields and its points.
    """

    series: Type[GapSeries]
    help: str
    values: str  # the knob's keyword and CLI flag, e.g. "budgets"
    defaults: Tuple[Knob, ...]
    topologies: Tuple[str, ...]
    mirror: str
    dc_capacity_factor: float
    measure: Callable[[GlobalPlanner, PlanOutcome, float, Sequence[Any],
                       Mapping[str, Any]], Measured]
    unbounded: bool = False  # the knob accepts "inf" (None)
    params: Tuple[Param, ...] = ()

    @property
    def verb(self) -> str:
        return self.series.experiment

    def parse_values(self, text: str) -> List[Knob]:
        """A comma-separated CLI list of knob values."""
        values: List[Knob] = []
        for token in text.lower().split(","):
            token = token.strip()
            if self.unbounded and token in ("inf", "none", "unbounded"):
                values.append(None)
            elif token:
                values.append(int(token))
        return values

    def validate(self, mirror: str, values: Sequence[Knob],
                 options: Mapping[str, Any]) -> None:
        """Reject bad input before any topology is built or solved."""
        if mirror not in MIRROR_POLICIES:
            raise ValueError(f"unknown mirror {mirror!r}; choose from "
                             f"{sorted(MIRROR_POLICIES)}")
        if not values:
            raise ValueError(f"no {self.values} given")
        for value in values:
            if value is None and self.unbounded:
                continue
            if value is None or value < 1:
                raise ValueError(f"{self.values}: {value} must be >= 1")
        for param in self.params:
            value = options[param.name]
            if (param.minimum is not None and value is not None
                    and value < param.minimum):
                raise ValueError(f"{param.name} must be >= "
                                 f"{param.minimum}, got {value}")

    def run(self, topologies: Optional[Sequence[str]] = None,
            **options: Any) -> List[GapSeries]:
        """Run the experiment: one series per topology.

        ``options`` may carry the knob values under ``self.values``,
        ``mirror``, ``max_link_load``, ``dc_capacity_factor`` (applied
        only when the mirror policy needs a datacenter) and any
        :class:`Param` by name; the rest take the spec's defaults.
        """
        values = list(options.pop(self.values, self.defaults))
        mirror = options.pop("mirror", self.mirror)
        max_link_load = options.pop("max_link_load", 0.4)
        dc_capacity_factor = options.pop("dc_capacity_factor",
                                         self.dc_capacity_factor)
        defaults = {param.name: param.default for param in self.params}
        unknown = sorted(set(options) - set(defaults))
        if unknown:
            raise TypeError(
                f"{self.verb} takes no option {unknown[0]!r}")
        options = {**defaults, **options}
        self.validate(mirror, values, options)

        policy = MIRROR_POLICIES[mirror]
        series = []
        for name in topologies or self.topologies:
            setup = setup_topology(
                name, dc_capacity_factor=dc_capacity_factor
                if policy.needs_datacenter else None)
            planner = GlobalPlanner(setup.state, mirror_policy=policy,
                                    max_link_load=max_link_load)
            oracle, seconds = _timed(planner.plan, setup.classes)
            header, points = self.measure(planner, oracle, seconds,
                                          values, options)
            series.append(self.series(
                topology=name, mirror=mirror,
                max_link_load=max_link_load, points=points, **header))
        return series


def _timed(plan: Callable[[Any], Any], classes: Any
           ) -> Tuple[Any, float]:
    """``plan(classes)`` and the wall-clock seconds it took."""
    start = time.perf_counter()
    outcome = plan(classes)
    return outcome, time.perf_counter() - start


def _relative_gap(cost: float, oracle: float) -> float:
    return (cost - oracle) / oracle if oracle > 0 else 0.0


# -- budget-sweep ------------------------------------------------------------

@dataclass
class BudgetPoint:
    """One budget's row of the sweep curve."""

    budget: Optional[int] = col("Budget", show_knob)
    error_linf: float = col("Linf err", "{:.4f}".format)
    error_l1: float = col("L1 err", "{:.4f}".format)
    total_rules: int = col("Rules")
    max_rules_per_node: int = col("Node max")
    max_table_rules: int = col("Table max")
    max_node_load: float = col("Max load", "{:.4f}".format)
    max_link_load: float = col("Max link", "{:.4f}".format)


@dataclass
class BudgetSweepSeries(GapSeries):
    """One topology's full budget curve."""

    experiment = "budget-sweep"
    knob = "budget"
    row = BudgetPoint
    title = ("rule-budget sweep on {s.topology} ({s.mirror}, "
             "MaxLinkLoad {s.max_link_load:g}, LP LoadCost "
             "{s.lp_load_cost:.4f})")

    lp_load_cost: float


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


def _measure_budgets(planner: GlobalPlanner, oracle: PlanOutcome,
                     seconds: float, budgets: Sequence[Knob],
                     options: Mapping[str, Any]) -> Measured:
    state, result = oracle.state, oracle.result
    points: List[Any] = []
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
    return {"lp_load_cost": result.load_cost}, points


BUDGET_SWEEP = GapSpec(
    series=BudgetSweepSeries,
    help="sweep the per-class TCAM rule budget and report coverage "
         "error and realized load curves",
    values="budgets", unbounded=True,
    defaults=(1, 2, 3, 4, 8, 16, None),
    topologies=("tinet", "sprint"),
    mirror="dc+one-hop", dc_capacity_factor=10.0,
    measure=_measure_budgets)


# -- shard-gap ---------------------------------------------------------------

@dataclass
class ShardGapPoint:
    """One region count's row of the gap curve."""

    regions: int = col("Regions")
    load_cost: float = col("LoadCost", "{:.4f}".format)
    gap: float = col("Gap", "{:.2%}".format)
    rounds: int = col("Rounds")
    lp_solves: int = col("Solves")
    region_sizes: List[int] = col(
        "Sizes", lambda sizes: "/".join(str(size) for size in sizes))
    solve_wall_seconds: float = col("Wall", "{:.2f}s".format)
    speedup: float = col("Speedup", "{:.2f}x".format)


@dataclass
class ShardGapSeries(GapSeries):
    """One topology's sharded-vs-global comparison."""

    experiment = "shard-gap"
    knob = "regions"
    row = ShardGapPoint
    title = ("sharded control plane on {s.topology} ({s.mirror}, "
             "MaxLinkLoad {s.max_link_load:g}, global LoadCost "
             "{s.global_load_cost:.4f} in "
             "{s.global_wall_seconds:.2f}s)")

    seed: int
    global_load_cost: float
    global_wall_seconds: float


def _measure_regions(planner: GlobalPlanner, oracle: PlanOutcome,
                     seconds: float, regions: Sequence[int],
                     options: Mapping[str, Any]) -> Measured:
    global_cost = oracle.result.load_cost
    metrics = get_registry()
    points: List[Any] = []
    for count in regions:
        sharded = ShardedPlanner(
            planner.state, mirror_policy=planner.mirror_policy,
            max_link_load=planner.max_link_load,
            num_regions=count, seed=options["seed"],
            jobs=options["jobs"])
        outcome, wall = _timed(sharded.plan, planner.state.classes)
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
                          for region in sharded.partition.regions],
            solve_wall_seconds=wall,
            speedup=seconds / wall if wall > 0 else 0.0))
    return {"seed": options["seed"], "global_load_cost": global_cost,
            "global_wall_seconds": seconds}, points


SHARD_GAP = GapSpec(
    series=ShardGapSeries,
    help="compare the sharded control plane against the global LP: "
         "optimality gap, rounds, and speedup",
    values="regions", defaults=(2, 3, 4),
    # The three largest topologies, where decomposition matters most.
    topologies=("sprint", "level3", "ntt"),
    mirror="dc", dc_capacity_factor=1.0,
    measure=_measure_regions,
    params=(
        Param("seed", "--seed", 0, "region partitioner seed"),
        Param("jobs", "--jobs", None,
              "concurrent per-region solves (default: one per region "
              "up to the CPU count)", minimum=1)))


# -- sketch-gap --------------------------------------------------------------

@dataclass
class SketchGapPoint:
    """One sketch width's row of the estimator-gap curve."""

    width: int = col("Width")
    depth: int = col("Depth")
    state_bytes: int = col("State")
    bytes_per_class: float = col("B/class", "{:.0f}".format)
    load_cost: float = col("LP cost", "{:.4f}".format)
    realized_load_cost: float = col("Realized", "{:.4f}".format)
    gap: float = col("Gap", "{:.2%}".format)
    error_l1_rel: float = col("L1 err", "{:.2%}".format)
    error_linf: float  # in the JSON document only
    solve_wall_seconds: float = col("Wall", "{:.2f}s".format)


@dataclass
class SketchGapSeries(GapSeries):
    """One topology's sketch-driven vs exact-matrix comparison."""

    experiment = "sketch-gap"
    knob = "width"
    row = SketchGapPoint
    title = ("sketch estimator on {s.topology} ({s.num_classes} "
             "classes, {s.sessions} sampled sessions, oracle LoadCost "
             "{s.oracle_load_cost:.4f}, sampling floor "
             "{s.sampling_gap:.2%})")

    seed: int
    sessions: int
    chunk_packets: int
    num_classes: int
    oracle_load_cost: float
    sampling_gap: float

    def budget_point(self, bytes_per_class: float) -> SketchGapPoint:
        """The largest sketch that fits a per-class byte budget."""
        within = [pt for pt in self.points
                  if pt.bytes_per_class <= bytes_per_class]
        if not within:
            raise KeyError(
                f"no point within {bytes_per_class} B/class")
        return max(within, key=lambda pt: pt.state_bytes)


def _measure_widths(planner: GlobalPlanner, oracle: PlanOutcome,
                    seconds: float, widths: Sequence[int],
                    options: Mapping[str, Any]) -> Measured:
    state = oracle.state
    classes = list(state.classes)
    class_names = [cls.name for cls in classes]
    total_volume = sum(cls.num_sessions for cls in classes)
    sessions, seed = options["sessions"], options["seed"]
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
    points: List[Any] = []
    for width in widths:
        ingest = IngestDaemon(class_names, width=width,
                              depth=options["depth"],
                              seed=seed * 613 + 11,
                              workers=options["workers"])
        for chunk in ChunkedReplay(batch, options["chunk_packets"]):
            ingest.consume(chunk)
        snapshot = ingest.snapshot()
        errors = snapshot.estimate_errors(exact)
        outcome, wall = _timed(
            planner.plan,
            snapshot.estimated_classes(classes, scale=scale))
        gap, realized = gap_of(outcome.result)
        metrics.gauge("sketch.gap", gap)
        points.append(SketchGapPoint(
            width=width,
            depth=options["depth"],
            state_bytes=snapshot.state_bytes,
            bytes_per_class=snapshot.state_bytes / len(classes),
            load_cost=outcome.result.load_cost,
            realized_load_cost=realized,
            gap=gap,
            error_l1_rel=errors["l1_rel"],
            error_linf=errors["linf"],
            solve_wall_seconds=wall))
    return {"seed": seed, "sessions": sessions,
            "chunk_packets": options["chunk_packets"],
            "num_classes": len(classes),
            "oracle_load_cost": oracle_cost,
            "sampling_gap": sampling_gap}, points


SKETCH_GAP = GapSpec(
    series=SketchGapSeries,
    help="sweep count-min sketch widths against the streaming "
         "estimator's LoadCost gap vs the exact-matrix oracle",
    # Depth is fixed across the sweep; width is the memory/error knob.
    values="widths", defaults=(512, 1024, 2048, 4096),
    # tinet has many classes, so sketch collisions actually bite.
    topologies=("tinet",),
    mirror="dc", dc_capacity_factor=1.0,
    measure=_measure_widths,
    params=(
        Param("depth", "--depth", 4, "count-min depth (rows)",
              minimum=1),
        Param("sessions", "--sessions", 6000,
              "sampled sessions in the shared epoch trace", minimum=1),
        Param("chunk_packets", "--chunk", 512,
              "packets per streaming ingest slab", minimum=1),
        Param("workers", "--workers", 2,
              "per-worker sketches merged on snapshot", minimum=1),
        Param("seed", "--seed", 0)))


GAP_SPECS: Dict[str, GapSpec] = {
    spec.verb: spec for spec in (BUDGET_SWEEP, SHARD_GAP, SKETCH_GAP)}
run_budget_sweep = BUDGET_SWEEP.run
run_shard_gap = SHARD_GAP.run
run_sketch_gap = SKETCH_GAP.run
