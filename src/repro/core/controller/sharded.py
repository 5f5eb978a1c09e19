"""Sharded control plane: regional LPs plus a capacity coordinator.

One global replication LP per refresh is the scalability ceiling for
both topology size and refresh rate (ROADMAP item 4). This module
decomposes it:

- :class:`RegionalReplicationProblem` — the Figure 7 LP restricted to
  one region's traffic classes, over the full topology. Two extra
  named parameters make the decomposition sound: ``capacity_share``
  scales shared nodes' capacities (a region only "sees" its slice of
  the datacenter/mirror capacity) and ``link_share`` scales shared
  links' replication headroom. The first is read by the load-term
  generator, the second is one rhs patch; both apply in place to the
  warm :class:`~repro.lpsolve.compiled.CompiledLP`, so coordination
  rounds re-solve without rebuilding.
- :class:`ShardCoordinator` — computes which nodes/links are shared
  between regions, hands out initial traffic-proportional shares, and
  reallocates them toward observed demand over a bounded number of
  rounds.
- :class:`ShardedPlanner` — a
  :class:`~repro.core.controller.planner.SolvePlanner` that grows a
  seeded :class:`~repro.topology.partition.RegionPartition`, solves
  the per-region LPs concurrently, merges the regional assignments
  into one network-wide :class:`ReplicationResult`, and supports
  regional controller failover (a neighbor adopts a dead region's
  shard).

Feasibility of the merged result is guaranteed *by construction*, not
by convergence: each region's link constraints are bounded by its
share of the link headroom and the shares over any element sum to at
most one, so the merged link loads satisfy Eq (5) after every round —
the coordinator rounds only improve the load-balance objective.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

from repro.core.controller.planner import PlanOutcome
from repro.core.inputs import NetworkState
from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.core.results import FractionTable, LPStats, ReplicationResult
from repro.core.validation import plan_loads
from repro.obs import get_registry
from repro.topology.partition import RegionPartition, partition_topology
from repro.topology.topology import Link
from repro.traffic.classes import TrafficClass

ShareKey = Union[str, Link]


def _check_shares(shares: Mapping[ShareKey, float]) -> None:
    for key, value in shares.items():
        if not 0.0 < value <= 1.0:
            raise ValueError(
                f"share for {key!r} must be in (0, 1], got {value}")


class RegionalReplicationProblem(ReplicationProblem):
    """One region's slice of the Figure 7 LP.

    The state carries only the region's classes but the *full*
    topology and true capacities, plus the **global** background link
    bytes (other regions' forwarded traffic still crosses shared
    links). Two extra parameters, patched incrementally like
    ``max_link_load``:

    - ``capacity_share``: node -> fraction of that node's capacity
      this region may plan against. The load terms read
      ``capacity * share``, so the region's LP — freshly built or
      patched — prices the shared node (e.g. the datacenter) as if it
      were that much smaller.
    - ``link_share``: link -> fraction of the replication headroom
      ``max(MaxLinkLoad, BG_l) - BG_l`` this region may consume.

    Args:
        state: regional state (region classes, full topology, global
            background bytes).
        global_background: per-link background bytes computed from the
            *entire* traffic matrix; preserved across warm traffic
            re-solves where the base class would recompute it from the
            region's classes alone.
    """

    kind = "replication-shard"
    _load_params = ("volumes", "capacity_share")

    def __init__(self, state: NetworkState,
                 global_background: Mapping[Link, float],
                 mirror_policy: Optional[MirrorPolicy] = None,
                 max_link_load: float = 0.4,
                 capacity_share: Optional[Mapping[str, float]] = None,
                 link_share: Optional[Mapping[Link, float]] = None
                 ) -> None:
        self._global_background: Dict[Link, float] = dict(
            global_background)
        super().__init__(state, mirror_policy=mirror_policy,
                         max_link_load=max_link_load)
        self._declare_param("capacity_share",
                            dict(capacity_share or {}), _check_shares)
        self._declare_param("link_share",
                            dict(link_share or {}), _check_shares)

    # -- shared-background bookkeeping ------------------------------------

    def set_global_background(self,
                              bg_bytes: Mapping[Link, float]) -> None:
        """Refresh the network-wide background before a traffic
        re-solve (the coordinator recomputes it from all classes)."""
        self._global_background = dict(bg_bytes)

    def _region_state(self, classes: Sequence[TrafficClass]
                      ) -> NetworkState:
        base = self.state
        return NetworkState(base.topology, base.routing, classes,
                            base.node_capacity, base.link_capacity,
                            dict(self._global_background),
                            dc_node=base.dc_node)

    def _apply_volumes(self, volumes: Dict[str, float],
                       classes: Optional[Sequence[TrafficClass]] = None
                       ) -> None:
        # The base class re-derives the background bytes from this
        # region's classes alone; a regional problem must keep the
        # global background.
        if classes is None:
            classes = [cls.with_sessions(volumes[cls.name])
                       for cls in self.state.classes]
        self.state = self._region_state(classes)
        self._params["volumes"] = dict(volumes)

    def resolve_traffic(self, classes: Sequence[TrafficClass],
                        **params: object) -> ReplicationResult:
        classes = list(classes)
        if self._traffic_compatible(classes):
            return super().resolve_traffic(classes, **params)
        # Class-universe change (e.g. shard adoption): swap the state
        # but keep the global background, then rebuild cold.
        self.state = self._region_state(classes)
        self._params["volumes"] = {cls.name: cls.num_sessions
                                   for cls in classes}
        self.invalidate()
        return self.resolve(**params)

    # -- building ----------------------------------------------------------

    def _capacity(self, resource: str, node: str) -> float:
        share = self._params["capacity_share"].get(node)
        capacity = self.state.capacity(resource, node)
        return capacity if share is None else capacity * share

    def build_model(self):  # type: ignore[no-untyped-def]
        fresh = self._model is None
        model = super().build_model()
        if fresh:
            # A build (and every later re-bound) leaves each link at
            # its full headroom; fold the current shares in on top.
            self._bind(("link_share", "max_link_load", "volumes"),
                       self._patch_link_shares)
            self._patch_link_shares()
        return model

    def _patch_link_shares(self) -> None:
        """Bound each shared link at its share of the headroom."""
        shares = self._params["link_share"]
        if not shares:
            return
        state = self.state
        model = self._model
        for link, con in self._link_cons.items():
            share = shares.get(link)
            if share is None:
                continue
            bg = state.bg_load(link)
            headroom = max(self.max_link_load, bg) - bg
            model.set_rhs(con, share * headroom)


@dataclass
class _Shard:
    """One region's planning bundle inside the sharded planner."""

    name: str
    classes: List[TrafficClass]
    node_surface: FrozenSet[str]
    link_surface: FrozenSet[Link]
    problem: Optional[RegionalReplicationProblem] = None
    result: Optional[ReplicationResult] = None
    node_loads: Dict[str, Dict[str, float]] = field(default_factory=dict)
    link_extra: Dict[Link, float] = field(default_factory=dict)


class ShardCoordinator:
    """Reconciles shared node capacity and link headroom.

    Every node/link that appears on at least two regions' load
    surfaces gets split: each involved region receives a share in
    ``(0, 1]`` with the shares summing to one. Initial shares are
    proportional to regional traffic; subsequent rounds move them
    toward the demand each region actually expressed in its solution
    (proportional reallocation with a small floor so a region can
    always re-enter an element it briefly left).

    Args:
        max_rounds: hard bound on coordination rounds per plan.
        tolerance: maximum share movement below which the rounds stop.
        demand_floor: minimum demand, as a fraction of the largest
            demand on the element, credited to every involved region.
    """

    def __init__(self, max_rounds: int = 5, tolerance: float = 1e-3,
                 demand_floor: float = 0.02) -> None:
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not 0.0 < demand_floor < 1.0:
            raise ValueError("demand_floor must be in (0, 1)")
        self.max_rounds = max_rounds
        self.tolerance = tolerance
        self.demand_floor = demand_floor

    def shared_elements(
            self, surfaces: Mapping[str, FrozenSet[ShareKey]]
    ) -> Dict[ShareKey, Tuple[str, ...]]:
        """Elements on >= 2 regions' surfaces -> involved regions."""
        users: Dict[ShareKey, List[str]] = {}
        for region in sorted(surfaces):
            for element in surfaces[region]:
                users.setdefault(element, []).append(region)
        return {element: tuple(regions)
                for element, regions in users.items()
                if len(regions) >= 2}

    def initial_shares(
            self, shared: Mapping[ShareKey, Tuple[str, ...]],
            weights: Mapping[str, float]
    ) -> Dict[str, Dict[ShareKey, float]]:
        """Traffic-proportional split of every shared element."""
        shares: Dict[str, Dict[ShareKey, float]] = {}
        for element, regions in shared.items():
            total = sum(weights.get(region, 0.0) for region in regions)
            for region in regions:
                value = (weights.get(region, 0.0) / total
                         if total > 0 else 1.0 / len(regions))
                shares.setdefault(region, {})[element] = max(
                    value, self.demand_floor / len(regions))
        return self._normalized(shared, shares)

    def reallocate(
            self, shared: Mapping[ShareKey, Tuple[str, ...]],
            current: Mapping[str, Mapping[ShareKey, float]],
            demands: Mapping[str, Mapping[ShareKey, float]]
    ) -> Dict[str, Dict[ShareKey, float]]:
        """Move shares toward observed demand, keeping the sum at one.

        A region's demand for an element is what its last solution
        actually placed there (true utilization for nodes, realized
        replication load for links). Elements nobody used keep their
        current split."""
        shares: Dict[str, Dict[ShareKey, float]] = {}
        for element, regions in shared.items():
            raw = {region: demands.get(region, {}).get(element, 0.0)
                   for region in regions}
            peak = max(raw.values())
            if peak <= 0.0:
                for region in regions:
                    shares.setdefault(region, {})[element] = \
                        current[region][element]
                continue
            floor = self.demand_floor * peak
            for region in regions:
                shares.setdefault(region, {})[element] = max(
                    raw[region], floor)
        return self._normalized(shared, shares)

    def converged(
            self, old: Mapping[str, Mapping[ShareKey, float]],
            new: Mapping[str, Mapping[ShareKey, float]]) -> bool:
        """True when no share moved more than the tolerance."""
        delta = 0.0
        for region, elements in new.items():
            for element, value in elements.items():
                delta = max(delta, abs(
                    value - old.get(region, {}).get(element, 0.0)))
        return delta <= self.tolerance

    def _normalized(
            self, shared: Mapping[ShareKey, Tuple[str, ...]],
            shares: Dict[str, Dict[ShareKey, float]]
    ) -> Dict[str, Dict[ShareKey, float]]:
        for element, regions in shared.items():
            total = sum(shares[region][element] for region in regions)
            for region in regions:
                shares[region][element] /= total
        return shares


class ShardedPlanner:
    """Per-region LPs behind the controller's planner protocol.

    On the first :meth:`plan` (or after the traffic-class universe
    changes) the planner grows a seeded
    :class:`~repro.topology.partition.RegionPartition` and builds one
    warm :class:`RegionalReplicationProblem` per non-empty region.
    Every plan then:

    1. splits the traffic feed by class ownership,
    2. hands out shared-capacity/headroom shares
       (:class:`ShardCoordinator`),
    3. solves all regions — concurrently when ``jobs`` allows,
    4. runs bounded proportional-reallocation rounds, re-solving the
       warm regional LPs with updated shares,
    5. merges the regional fractions into one network-wide
       :class:`~repro.core.results.ReplicationResult` whose loads are
       recomputed against *true* capacities.

    :meth:`fail_region` implements controller failover: the dead
    region's shard is merged into its lightest-traffic neighbor and
    the affected warm problems are dropped for rebuild on the next
    plan.

    Args:
        state: the calibrated network state to partition.
        num_regions: how many shards to grow (clamped to the node
            count of the current topology).
        seed: forwarded to the partitioner.
        coordinator: share-reconciliation policy; default bounds
            coordination at five rounds.
        jobs: worker threads for regional solves; ``None`` picks
            ``min(active regions, cpu count)``, 1 forces serial.
    """

    def __init__(self, state: NetworkState,
                 mirror_policy: Optional[MirrorPolicy] = None,
                 max_link_load: float = 0.4,
                 num_regions: int = 2, seed: int = 0,
                 coordinator: Optional[ShardCoordinator] = None,
                 jobs: Optional[int] = None) -> None:
        if num_regions < 1:
            raise ValueError("num_regions must be >= 1")
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.state = state
        self.mirror_policy = mirror_policy or MirrorPolicy.datacenter()
        self.max_link_load = max_link_load
        self.num_regions = num_regions
        self.seed = seed
        self.coordinator = coordinator or ShardCoordinator()
        self.jobs = jobs
        self.partition: Optional[RegionPartition] = None
        self._shards: Dict[str, _Shard] = {}
        self._class_universe: Optional[FrozenSet[str]] = None
        self.last_rounds = 0
        self.solve_count = 0
        self.failover_count = 0

    # -- partition lifecycle ----------------------------------------------

    def _rebuild_partition(self, full_state: NetworkState,
                           classes: Sequence[TrafficClass]) -> None:
        candidates = [n for n in full_state.topology.nodes
                      if n != full_state.dc_node]
        regions = min(self.num_regions, max(1, len(candidates)))
        self.partition = partition_topology(
            full_state.topology, classes, regions, seed=self.seed,
            dc_node=full_state.dc_node)
        self._shards = {}
        self._class_universe = frozenset(cls.name for cls in classes)
        metrics = get_registry()
        for region in self.partition.regions:
            metrics.observe("controller.shard.region_sizes",
                            len(region.nodes))

    def _surfaces(self, full_state: NetworkState,
                  classes: Sequence[TrafficClass]
                  ) -> Tuple[FrozenSet[str], FrozenSet[Link]]:
        """Nodes/links this class set can load: on-path nodes, their
        allowed mirrors, and the replication tunnels to them."""
        mirror_sets = self.mirror_policy.mirror_sets(full_state)
        nodes: Set[str] = set()
        links: Set[Link] = set()
        for cls in classes:
            path_set = set(cls.path)
            for node in cls.path:
                nodes.add(node)
                for mirror in mirror_sets[node]:
                    if mirror in path_set:
                        continue
                    nodes.add(mirror)
                    links.update(
                        full_state.routing.path_links(node, mirror))
        return frozenset(nodes), frozenset(links)

    def fail_region(self, target: str) -> str:
        """Regional controller death: a neighbor adopts the shard.

        Args:
            target: a region name (``region-N``) or any node name,
                resolved to the region owning it.

        Returns:
            The adopting region's name.
        """
        if self.partition is None:
            raise RuntimeError(
                "no partition grown yet; nothing to fail over")
        if target in self.partition.region_names():
            dead = target
        elif target in self.partition.node_region:
            dead = self.partition.node_region[target]
        else:
            raise ValueError(
                f"{target!r} is neither a region nor a node")
        adopter = self.partition.adopter_for(dead)
        self.partition = self.partition.merge(dead, adopter)
        # Both warm problems are tied to the old class universes.
        self._shards.pop(dead, None)
        self._shards.pop(adopter, None)
        self.failover_count += 1
        metrics = get_registry()
        for region in self.partition.regions:
            metrics.observe("controller.shard.region_sizes",
                            len(region.nodes))
        return adopter

    # -- planning ----------------------------------------------------------

    def plan(self, classes: Sequence[TrafficClass]) -> PlanOutcome:
        classes = list(classes)
        full_state = self.state.with_traffic(classes)
        names = frozenset(cls.name for cls in classes)
        if self.partition is None or names != self._class_universe:
            self._rebuild_partition(full_state, classes)
        assert self.partition is not None

        grouped: Dict[str, List[TrafficClass]] = {
            name: [] for name in self.partition.region_names()}
        for cls in classes:
            grouped[self.partition.region_of_class(cls.name)].append(
                cls)

        active: List[_Shard] = []
        for name in self.partition.region_names():
            region_classes = grouped[name]
            if not region_classes:
                self._shards.pop(name, None)
                continue
            shard = self._shards.get(name)
            if shard is None or \
                    [c.name for c in shard.classes] != \
                    [c.name for c in region_classes]:
                nodes, links = self._surfaces(full_state,
                                              region_classes)
                shard = _Shard(name=name, classes=region_classes,
                               node_surface=nodes, link_surface=links)
                self._shards[name] = shard
            else:
                shard.classes = region_classes
            active.append(shard)

        shared_nodes = self.coordinator.shared_elements(
            {s.name: s.node_surface for s in active})
        shared_links = self.coordinator.shared_elements(
            {s.name: s.link_surface for s in active})
        weights = {s.name: sum(cls.num_sessions for cls in s.classes)
                   for s in active}
        node_shares = self.coordinator.initial_shares(shared_nodes,
                                                      weights)
        link_shares = self.coordinator.initial_shares(shared_links,
                                                      weights)

        global_bg = dict(full_state.bg_bytes)
        self._solve_round(active, full_state, global_bg, node_shares,
                          link_shares)
        rounds = 1
        best = self._merge(full_state, active)
        while rounds < self.coordinator.max_rounds and (
                shared_nodes or shared_links):
            demands_n = {s.name: self._node_demands(s) for s in active}
            demands_l = {s.name: dict(s.link_extra) for s in active}
            new_node = self.coordinator.reallocate(
                shared_nodes, node_shares, demands_n)
            new_link = self.coordinator.reallocate(
                shared_links, link_shares, demands_l)
            if self.coordinator.converged(node_shares, new_node) and \
                    self.coordinator.converged(link_shares, new_link):
                break
            node_shares, link_shares = new_node, new_link
            self._solve_round(active, full_state, global_bg,
                              node_shares, link_shares)
            rounds += 1
            merged = self._merge(full_state, active)
            if merged.load_cost < best.load_cost:
                best = merged

        self.last_rounds = rounds
        metrics = get_registry()
        metrics.observe("controller.shard.coordination_rounds", rounds)
        if os.environ.get("REPRO_VERIFY_MODELS", "").strip() not in (
                "", "0"):
            self._verify(full_state, best)
        return PlanOutcome(state=full_state, result=best)

    # -- solving -----------------------------------------------------------

    def _solve_round(self, active: Sequence[_Shard],
                     full_state: NetworkState,
                     global_bg: Mapping[Link, float],
                     node_shares: Mapping[str, Mapping[str, float]],
                     link_shares: Mapping[str, Mapping[Link, float]]
                     ) -> None:
        tasks: List[Tuple[_Shard, Callable[[], ReplicationResult]]] = []
        for shard in active:
            capacity_share = dict(node_shares.get(shard.name, {}))
            link_share = dict(link_shares.get(shard.name, {}))
            if shard.problem is None:
                region_state = NetworkState(
                    full_state.topology, full_state.routing,
                    shard.classes, full_state.node_capacity,
                    full_state.link_capacity, dict(global_bg),
                    dc_node=full_state.dc_node)
                # One warm problem per region, built once and patched
                # on every later round/refresh via resolve().
                # repro-lint: allow[HYG001]
                problem = RegionalReplicationProblem(
                    region_state, global_bg,
                    mirror_policy=self.mirror_policy,
                    max_link_load=self.max_link_load,
                    capacity_share=capacity_share,
                    link_share=link_share)
                shard.problem = problem
                tasks.append((shard, problem.solve))
            else:
                problem = shard.problem
                problem.set_global_background(global_bg)
                tasks.append((shard, self._warm_solver(
                    problem, shard.classes, capacity_share,
                    link_share)))

        metrics = get_registry()

        def run(task: Tuple[_Shard, Callable[[], ReplicationResult]]
                ) -> Tuple[_Shard, ReplicationResult]:
            shard, solver = task
            result = solver()
            metrics.inc("controller.shard.solves")
            self.solve_count += 1
            return shard, result

        jobs = self.jobs if self.jobs is not None else \
            min(len(tasks), os.cpu_count() or 1)
        if jobs <= 1 or len(tasks) <= 1:
            outcomes = [run(task) for task in tasks]
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(run, tasks))
        for shard, result in outcomes:
            shard.result = result
            # The regional state holds true capacities, not the
            # share-scaled ones the regional LP priced.
            state = shard.problem.state
            shard.node_loads, shard.link_extra = plan_loads(
                state, result.fraction_table(
                    cls.name for cls in state.classes))

    @staticmethod
    def _warm_solver(problem: RegionalReplicationProblem,
                     classes: Sequence[TrafficClass],
                     capacity_share: Dict[str, float],
                     link_share: Dict[Link, float]
                     ) -> Callable[[], ReplicationResult]:
        def solve() -> ReplicationResult:
            return problem.resolve_traffic(
                classes, capacity_share=capacity_share,
                link_share=link_share)
        return solve

    # -- merging -----------------------------------------------------------

    def _node_demands(self, shard: _Shard) -> Dict[str, float]:
        """A shard's demand signal per node: its worst true
        utilization across resources."""
        demands: Dict[str, float] = {}
        for per_node in shard.node_loads.values():
            for node, load in per_node.items():
                demands[node] = max(demands.get(node, 0.0), load)
        return demands

    def _merge(self, full_state: NetworkState,
               active: Sequence[_Shard]) -> ReplicationResult:
        node_loads: Dict[str, Dict[str, float]] = {
            resource: {node: 0.0 for node in full_state.nids_nodes}
            for resource in full_state.resources}
        link_extra: Dict[Link, float] = {}
        tables: List[FractionTable] = []
        num_vars = num_cons = iterations = 0
        solve_seconds = 0.0
        for shard in active:
            assert shard.result is not None
            result = shard.result
            tables.append(result.table)
            for resource, per_node in shard.node_loads.items():
                for node, load in per_node.items():
                    node_loads[resource][node] += load
            for link, extra in shard.link_extra.items():
                link_extra[link] = link_extra.get(link, 0.0) + extra
            num_vars += result.stats.num_variables
            num_cons += result.stats.num_constraints
            iterations += result.stats.iterations
            solve_seconds += result.stats.solve_seconds
        link_loads = {
            link: full_state.bg_load(link) + link_extra.get(link, 0.0)
            for link in full_state.topology.links}
        load_cost = max(
            (load for per_node in node_loads.values()
             for load in per_node.values()), default=0.0)
        return ReplicationResult.from_table(
            FractionTable.gather(
                tables, (cls.name for cls in full_state.classes)),
            load_cost=load_cost,
            node_loads=node_loads,
            link_loads=link_loads,
            max_link_load=self.max_link_load,
            dc_node=full_state.dc_node,
            stats=LPStats(num_variables=num_vars,
                          num_constraints=num_cons,
                          solve_seconds=solve_seconds,
                          iterations=iterations))

    # -- verification hooks ------------------------------------------------

    def regional_configs(self) -> Dict[str, Dict[str, object]]:
        """Per-region compiled shim configs from the last plan, for
        the SHRD001 union-tiling verifier."""
        from repro.shim.config import build_replication_configs

        configs: Dict[str, Dict[str, object]] = {}
        for name in sorted(self._shards):
            shard = self._shards[name]
            if shard.problem is None or shard.result is None:
                continue
            configs[name] = dict(build_replication_configs(
                shard.problem.state, shard.result))
        return configs

    def shard_allocations(self, resource: str = "cpu"
                          ) -> Dict[str, Dict[str, float]]:
        """Per-region capacity allocations at shared nodes (absolute
        units), for the SHRD002 capacity verifier."""
        allocations: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._shards):
            shard = self._shards[name]
            if shard.problem is None:
                continue
            shares = shard.problem.param("capacity_share")
            allocations[name] = {
                node: share * self.state.capacity(resource, node)
                for node, share in shares.items()}
        return allocations

    def _verify(self, full_state: NetworkState,
                merged: ReplicationResult) -> None:
        from repro.analysis.engine import Severity
        from repro.analysis.modelcheck import (ModelCheckError,
                                               check_shard_capacity,
                                               check_sharded_configs)

        findings = list(check_sharded_configs(
            self.regional_configs(),
            [cls.name for cls in full_state.classes]))
        for resource in full_state.resources:
            findings.extend(check_shard_capacity(
                {node: full_state.capacity(resource, node)
                 for node in full_state.nids_nodes},
                self.shard_allocations(resource)))
        errors = [f for f in findings
                  if f.severity is Severity.ERROR]
        if errors:
            raise ModelCheckError(errors)


__all__ = [
    "RegionalReplicationProblem",
    "ShardCoordinator",
    "ShardedPlanner",
]
