"""Split-strategy ablation: Figure 8 at gravity-trace scale.

The paper's Figure 8 compares flow-, destination-, and source-level
splits of Scan detection on a toy example (communication costs 12 vs 6
record-units, with flow-level needing full tuples to stay correct).
This ablation replays the comparison on a full synthetic trace with
*real encoded* report sizes (:mod:`repro.nids.encoding`): all three
strategies must flag identical scanners, and the source-level split
should ship the fewest byte-hops — the paper's reason for choosing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments.common import format_table, setup_topology
from repro.nids.aggregator import SplitStrategy, aggregate_reports
from repro.nids.encoding import encoded_size
from repro.nids.scan import ScanDetector
from repro.shim.hashing import field_hash, session_hash
from repro.simulation.tracegen import TraceGenerator, TraceSpec

TOPOLOGY = "internet2"
TOTAL_SESSIONS = 3000
SCANNER_COUNT = 4
#: A source contacting more distinct destinations is a scanner.
THRESHOLD = 20
SEED = 8


@dataclass
class StrategyRow:
    """One strategy's cost and outcome."""

    strategy: SplitStrategy
    record_hops: float
    encoded_byte_hops: float
    alerts: Tuple[int, ...]


def _assign_node(strategy: SplitStrategy, session, path) -> str:
    """Which on-path node handles this flow under each split."""
    if strategy is SplitStrategy.FLOW_LEVEL:
        value = session_hash(session.five_tuple)
    elif strategy is SplitStrategy.SOURCE_LEVEL:
        value = field_hash(session.src_ip)
    else:
        value = field_hash(session.dst_ip)
    return path[min(int(value * len(path)), len(path) - 1)]


def run_strategy_ablation() -> List[StrategyRow]:
    """Compare the three Figure 8 splits on one synthetic trace."""
    setup = setup_topology(TOPOLOGY)
    spec = TraceSpec(total_sessions=TOTAL_SESSIONS,
                     scanner_count=SCANNER_COUNT,
                     scanner_fanout=3 * THRESHOLD)
    generator = TraceGenerator(setup.topology.nodes, setup.classes,
                               spec=spec, seed=SEED)
    sessions = generator.generate(with_payloads=False)
    class_by_name = {cls.name: cls for cls in setup.classes}

    rows = []
    for strategy in (SplitStrategy.FLOW_LEVEL,
                     SplitStrategy.DESTINATION_LEVEL,
                     SplitStrategy.SOURCE_LEVEL):
        # Per (node, gateway) detectors, flows assigned by the split.
        detectors: Dict[Tuple[str, str], ScanDetector] = {}
        for session in sessions:
            cls = class_by_name[session.class_name]
            node = _assign_node(strategy, session, cls.path)
            detectors.setdefault(
                (node, cls.ingress), ScanDetector()).observe_flow(
                    session.src_ip, session.dst_ip,
                    flow_key=session.five_tuple)

        record_hops = 0.0
        byte_hops = 0.0
        alerts: List[int] = []
        gateways = sorted({gw for _, gw in detectors})
        for gateway in gateways:
            reports = []
            for (node, gw), det in sorted(detectors.items()):
                if gw != gateway:
                    continue
                if strategy is SplitStrategy.FLOW_LEVEL:
                    report = det.flow_tuple_report(node)
                elif strategy is SplitStrategy.DESTINATION_LEVEL:
                    report = det.destination_set_report(node)
                else:
                    report = det.source_count_report(node)
                hops = setup.routing.hop_count(node, gateway)
                record_hops += report.record_count * hops
                byte_hops += encoded_size(report) * hops
                reports.append(report)
            counts = aggregate_reports(strategy, reports)
            alerts.extend(src for src, count in counts.items()
                          if count > THRESHOLD)
        rows.append(StrategyRow(strategy, record_hops, byte_hops,
                                tuple(sorted(alerts))))
    return rows


def format_strategies(rows: Sequence[StrategyRow]) -> str:
    body = [[r.strategy.value, f"{r.record_hops:,.0f}",
             f"{r.encoded_byte_hops:,.0f}", len(r.alerts)]
            for r in rows]
    return format_table(
        ["Strategy", "Record-hops", "Encoded byte-hops", "Alerts"],
        body,
        title="Ablation: Figure 8 split strategies at trace scale")
