"""Table 1 — LP solve time for replication and aggregation.

Paper reference (CPLEX, 2012 hardware): replication 0.05s (Internet2)
to 1.59s (NTT); aggregation 0.01-0.11s. The reproduction should land in
the same order of magnitude with HiGHS.
"""

from repro.experiments import format_table1, run_table1
from repro.topology import builtin_topology_names


def test_table1_solve_times(benchmark, save_result):
    rows = benchmark.pedantic(
        run_table1, kwargs={"topologies": builtin_topology_names()},
        iterations=1, rounds=1)
    save_result("table1_solve_time", format_table1(rows))
    # The paper's headline: recomputation is well within reconfiguration
    # timescales (minutes). What the reproduction stands behind: both
    # LPs solve within an order of magnitude of the paper's slowest
    # (NTT: replication 1.59 s, aggregation 0.11 s) on every topology,
    # and the largest topology is the slowest for both — up to timing
    # noise: Level3's pruned replication LP (10 852 columns) solves
    # within 10 % of NTT's (13 371), and one run in nine on a shared
    # host swapped them. The paper's "aggregation solves faster" is not
    # asserted: it came from Figure 7's redundant columns
    # (EXPERIMENTS.md, Table 1) — since PR 24 the replication LP is the
    # smaller of the two.
    assert all(r.replication_solve_s <= 10 * 1.59 for r in rows)
    assert all(r.aggregation_solve_s <= 10 * 0.11 for r in rows)
    largest = max(rows, key=lambda r: r.num_pops)
    assert max(r.replication_solve_s for r in rows) <= \
        1.25 * largest.replication_solve_s
    assert max(r.aggregation_solve_s for r in rows) <= \
        1.25 * largest.aggregation_solve_s
