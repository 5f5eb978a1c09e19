"""Table 1 — time to compute the optimal solution per topology.

The paper reports CPLEX solve times for the replication and
aggregation formulations on eight PoP-level topologies (0.02s-1.59s).
We report the HiGHS solve time plus the model-build time separately so
the reproduction's overheads are visible. The replication LP timed here
is the grouped and pruned one (``a->b`` and ``b->a`` on one set of
columns, no offload whose tunnel contains another's; see
:mod:`repro.core.replication`): 36 % of the columns Figure 7 states on
NTT, for the same optimum — and fewer than the aggregation LP's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.aggregation import AggregationProblem
from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.experiments.common import (
    evaluation_topologies,
    format_table,
    setup_topology,
)


@dataclass
class Table1Row:
    """One topology's solve-time measurements."""

    topology: str
    num_pops: int
    replication_solve_s: float
    replication_build_s: float
    aggregation_solve_s: float
    aggregation_build_s: float


def run_table1(topologies: Optional[Sequence[str]] = None,
               dc_capacity_factor: float = 10.0,
               max_link_load: float = 0.4) -> List[Table1Row]:
    """Measure LP build+solve time for both formulations per topology."""
    rows = []
    for name in topologies or evaluation_topologies():
        setup = setup_topology(name,
                               dc_capacity_factor=dc_capacity_factor)
        replication = ReplicationProblem(
            setup.state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=max_link_load)
        start = time.perf_counter()
        # Table 1 measures the *cold* build per topology; each loop
        # iteration builds a fresh problem.  # repro-lint: allow[HYG001]
        replication.build_model()
        rep_build = time.perf_counter() - start
        rep_result = replication.solve()

        agg_setup = setup_topology(name)  # aggregation has no DC
        aggregation = AggregationProblem(agg_setup.state, beta=0.0)
        start = time.perf_counter()
        # Same deliberate cold build.  # repro-lint: allow[HYG001]
        aggregation.build_model()
        agg_build = time.perf_counter() - start
        agg_result = aggregation.solve()

        rows.append(Table1Row(
            topology=name,
            num_pops=setup.topology.num_nodes,  # base PoPs (no DC)
            replication_solve_s=rep_result.stats.solve_seconds,
            replication_build_s=rep_build,
            aggregation_solve_s=agg_result.stats.solve_seconds,
            aggregation_build_s=agg_build))
    return rows


def format_table1(rows: Sequence[Table1Row]) -> str:
    return format_table(
        ["Topology", "#PoPs", "Repl solve (s)", "Repl build (s)",
         "Aggr solve (s)", "Aggr build (s)"],
        [[r.topology, r.num_pops,
          f"{r.replication_solve_s:.3f}", f"{r.replication_build_s:.3f}",
          f"{r.aggregation_solve_s:.3f}", f"{r.aggregation_build_s:.3f}"]
         for r in rows],
        title="Table 1: time to compute the optimal solution")
