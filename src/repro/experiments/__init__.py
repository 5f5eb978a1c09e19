"""Experiment runners — one per table/figure of the paper's evaluation.

Each ``run_*`` function returns structured rows; each ``format_*``
renders them as an aligned text table. :mod:`repro.experiments.registry`
names every table with its runner, renderer, results file and paper
claims. See DESIGN.md's experiment index and EXPERIMENTS.md for
paper-vs-measured comparisons.
"""

from repro.experiments.common import (
    TopologySetup,
    asymmetric_classes,
    evaluation_topologies,
    format_table,
    full_scale,
    quartiles,
    setup_topology,
)
from repro.experiments.table1 import Table1Row, format_table1, run_table1
from repro.experiments.fig10_emulation import (
    Fig10Result,
    format_fig10,
    run_fig10,
)
from repro.experiments.fig11_linkload import (
    Fig11Series,
    format_fig11,
    run_fig11,
)
from repro.experiments.fig12_dcgap import Fig12Row, format_fig12, run_fig12
from repro.experiments.fig13_architectures import (
    Fig13Row,
    format_fig13,
    run_fig13,
)
from repro.experiments.fig14_local import Fig14Row, format_fig14, run_fig14
from repro.experiments.fig15_variability import (
    Fig15Row,
    format_fig15,
    run_fig15,
)
from repro.experiments.parallel import ParallelSweepRunner
from repro.experiments.fig16_17_asymmetry import (
    AsymmetryPoint,
    format_fig16,
    format_fig17,
    run_fig16_17,
)
from repro.experiments.fig18_beta import (
    Fig18Series,
    format_fig18,
    run_fig18,
)
from repro.experiments.fig19_imbalance import (
    Fig19Row,
    format_fig19,
    run_fig19,
)
from repro.experiments.ablations import (
    DCCapacitySeries,
    PlacementRow,
    format_dc_capacity,
    format_placement,
    run_dc_capacity_ablation,
    run_placement_ablation,
)
from repro.experiments.gap import (
    BudgetPoint,
    BudgetSweepSeries,
    ShardGapPoint,
    ShardGapSeries,
    SketchGapPoint,
    SketchGapSeries,
    format_budget_sweep,
    format_shard_gap,
    format_sketch_gap,
    run_budget_sweep,
    run_shard_gap,
    run_sketch_gap,
)
from repro.experiments.strategy_ablation import StrategyRow
from repro.experiments.extensions_ablations import (
    CombinedRow,
    FailureRow,
    run_failure_ablation,
    LinkCostRow,
    NIPSRow,
    SlackRow,
)

__all__ = [
    "AsymmetryPoint",
    "BudgetPoint",
    "BudgetSweepSeries",
    "CombinedRow",
    "run_budget_sweep",
    "DCCapacitySeries",
    "LinkCostRow",
    "FailureRow",
    "NIPSRow",
    "SlackRow",
    "run_failure_ablation",
    "ShardGapPoint",
    "ShardGapSeries",
    "run_shard_gap",
    "SketchGapPoint",
    "SketchGapSeries",
    "run_sketch_gap",
    "StrategyRow",
    "Fig10Result",
    "Fig11Series",
    "Fig12Row",
    "Fig13Row",
    "Fig14Row",
    "Fig15Row",
    "Fig18Series",
    "Fig19Row",
    "ParallelSweepRunner",
    "PlacementRow",
    "Table1Row",
    "TopologySetup",
    "asymmetric_classes",
    "evaluation_topologies",
    "format_budget_sweep",
    "format_dc_capacity",
    "format_fig10",
    "format_fig11",
    "format_fig12",
    "format_fig13",
    "format_fig14",
    "format_fig15",
    "format_fig16",
    "format_fig17",
    "format_fig18",
    "format_fig19",
    "format_placement",
    "format_shard_gap",
    "format_sketch_gap",
    "format_table",
    "format_table1",
    "full_scale",
    "quartiles",
    "run_dc_capacity_ablation",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig15",
    "run_fig16_17",
    "run_fig18",
    "run_fig19",
    "run_placement_ablation",
    "run_table1",
    "setup_topology",
]
