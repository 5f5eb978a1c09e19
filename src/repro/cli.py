"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``topologies`` — list the built-in evaluation topologies.
- ``solve`` — run one formulation on one topology and print the
  assignment summary (the controller's one-shot operation).
- ``compare`` — Figure 13-style architecture comparison for one
  topology.
- ``experiment`` — regenerate one of the paper's tables/figures.
- ``stats`` — run one instrumented controller cycle plus a trace
  replay and report the collected metrics (optionally as JSONL).
- ``scenario`` — play a canned closed-loop scenario through the
  discrete-event runtime and print the epoch timeline (optionally
  writing the full report and a per-epoch timeline as JSON/JSONL).
- ``trace`` — ``pack`` a synthesized trace into a zero-copy on-disk
  store, ``info`` its manifest, or ``replay`` it through the
  signature emulation in bounded-memory chunks (``--follow``
  streams it through the ingest daemon's sketch estimator
  instead, as a live-feed fixture).
- ``lint`` — run the domain-aware static-analysis rules.
- ``racecheck`` — replay the canned scenarios under perturbed
  same-instant orderings and assert fingerprint invariance.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Callable, List, Optional, TypeVar

from repro.core import (
    AggregationProblem,
    ArchitectureEvaluator,
    ArchitectureKind,
    CombinedProblem,
    NIPSProblem,
    ReplicationProblem,
    SplitTrafficProblem,
)
from repro.core.mirrors import MIRROR_POLICIES
from repro.experiments import format_table, setup_topology
from repro.experiments.registry import EXPERIMENTS, ExperimentRuns
from repro.topology import builtin_topology, builtin_topology_names

Number = TypeVar("Number", int, float)


def _positive(cast: Callable[[str], Number]) -> Callable[[str], Number]:
    """An argparse type: ``cast(text)``, rejected unless it is > 0, so
    a zero or negative count is a usage error (exit 2), not a
    traceback from deep in the run."""
    def parse(text: str) -> Number:
        value = cast(text)
        if not value > 0:  # also rejects nan
            raise argparse.ArgumentTypeError(
                f"must be positive, got {text!r}")
        return value

    # argparse names the type in its "invalid int value" message.
    parse.__name__ = cast.__name__
    return parse


def _build_parser() -> argparse.ArgumentParser:
    from repro.lpsolve import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Network-wide NIDS load balancing (CoNEXT'12 "
                    "reproduction)")
    parser.add_argument(
        "--solver", default=None, choices=sorted(BACKENDS),
        help="LP solver backend for every formulation (default: the "
             "REPRO_SOLVER env var, falling back to scipy/HiGHS)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("topologies",
                   help="list built-in evaluation topologies")

    solve = sub.add_parser("solve", help="run one formulation")
    solve.add_argument("topology", choices=builtin_topology_names())
    solve.add_argument("--formulation", default="replication",
                       choices=["replication", "aggregation", "split",
                                "nips", "combined"])
    solve.add_argument("--mirror", default="dc",
                       choices=sorted(MIRROR_POLICIES))
    solve.add_argument("--max-link-load", type=float, default=0.4)
    solve.add_argument("--dc-capacity", type=float, default=10.0)
    solve.add_argument("--beta", type=float, default=None,
                       help="aggregation comm-cost weight "
                            "(default: scale-matched)")
    solve.add_argument("--top", type=_positive(int), default=10,
                       help="show the N most loaded nodes")

    compare = sub.add_parser(
        "compare", help="compare architectures on one topology")
    compare.add_argument("topology", choices=builtin_topology_names())
    compare.add_argument("--max-link-load", type=float, default=0.4)
    compare.add_argument("--dc-capacity", type=float, default=10.0)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure")
    experiment.add_argument("name",
                            choices=sorted(EXPERIMENTS) + ["all"])

    stats = sub.add_parser(
        "stats",
        help="run an instrumented optimize+replay cycle and report "
             "the collected metrics")
    stats.add_argument("topology", nargs="?", default="internet2",
                       choices=builtin_topology_names())
    stats.add_argument("--mirror", default="dc",
                       choices=sorted(MIRROR_POLICIES))
    stats.add_argument("--max-link-load", type=float, default=0.4)
    stats.add_argument("--dc-capacity", type=float, default=8.0)
    stats.add_argument("--sessions", type=int, default=1000,
                       help="synthetic trace size for the replay")
    stats.add_argument("--seed", type=int, default=7)
    stats.add_argument("--jsonl", default=None, metavar="PATH",
                       help="also write the metrics snapshot as "
                            "JSON lines to PATH")

    from repro.runtime.scenario import CANNED_SCENARIOS

    scenario = sub.add_parser(
        "scenario",
        help="play a closed-loop runtime scenario and print the "
             "per-epoch timeline")
    scenario.add_argument("name", choices=sorted(CANNED_SCENARIOS))
    scenario.add_argument("--topology", default=None,
                          choices=builtin_topology_names(),
                          help="override the scenario's topology")
    scenario.add_argument("--epochs", type=_positive(int), default=None,
                          help="override the scenario's epoch count")
    scenario.add_argument("--seed", type=int, default=None,
                          help="override the scenario's seed")
    from repro.runtime.rollout import RolloutDriver

    scenario.add_argument("--strategy", default=None,
                          choices=RolloutDriver.STRATEGIES,
                          help="override the scenario's rollout "
                               "strategy (e.g. 'delta' for "
                               "incremental diff rollouts)")
    scenario.add_argument("--json", default=None, metavar="PATH",
                          help="write the full ScenarioReport as JSON "
                               "('-' for stdout)")
    scenario.add_argument("--timeline", default=None, metavar="PATH",
                          help="write the per-epoch metric timeline "
                               "as JSON lines")

    trace = sub.add_parser(
        "trace",
        help="pack, inspect, and replay zero-copy columnar trace "
             "stores (memmap-backed slabs)")
    trace_sub = trace.add_subparsers(dest="trace_command",
                                     required=True)

    pack = trace_sub.add_parser(
        "pack",
        help="synthesize a trace (vectorized direct build) and pack "
             "it into an on-disk trace store")
    pack.add_argument("path", metavar="DIR",
                      help="directory for the trace store")
    pack.add_argument("--topology", default="internet2",
                      choices=builtin_topology_names())
    pack.add_argument("--sessions", type=int, default=5000)
    pack.add_argument("--seed", type=int, default=7)
    pack.add_argument("--scanners", type=int, default=0,
                      help="injected scanner sources")
    pack.add_argument("--payload-sigma", type=float, default=0.0,
                      help="lognormal payload-size spread (0 = fixed)")
    pack.add_argument("--dc-capacity", type=float, default=8.0)

    info = trace_sub.add_parser(
        "info", help="print a trace store's manifest summary")
    info.add_argument("path", metavar="DIR")
    info.add_argument("--verify", action="store_true",
                      help="recompute the content fingerprint "
                           "(reads every column)")

    replay = trace_sub.add_parser(
        "replay",
        help="stream a stored trace through the signature emulation "
             "in bounded-memory chunks")
    replay.add_argument("path", metavar="DIR")
    replay.add_argument("--chunk", type=_positive(int), default=65536,
                        help="target packets per replay slab")
    replay.add_argument("--mirror", default="dc",
                        choices=sorted(MIRROR_POLICIES))
    replay.add_argument("--max-link-load", type=float, default=0.4)
    replay.add_argument("--topology", default=None,
                        choices=builtin_topology_names(),
                        help="override the topology recorded in the "
                             "store manifest")
    replay.add_argument("--dc-capacity", type=float, default=None,
                        help="override the DC capacity recorded in "
                             "the store manifest")
    replay.add_argument("--follow", action="store_true",
                        help="stream the store through the ingest "
                             "daemon's sketch estimator on the event "
                             "loop (a live-feed fixture) instead of "
                             "the signature emulation")
    replay.add_argument("--width", type=_positive(int), default=1024,
                        help="count-min width for --follow")
    replay.add_argument("--depth", type=_positive(int), default=4,
                        help="count-min depth for --follow")
    replay.add_argument("--workers", type=_positive(int), default=2,
                        help="ingest workers for --follow")
    replay.add_argument("--interval", type=_positive(float),
                        default=0.05,
                        help="simulated seconds between chunk "
                             "arrivals for --follow")
    replay.add_argument("--seed", type=int, default=1,
                        help="sketch hash seed for --follow")

    lint = sub.add_parser(
        "lint",
        help="run the domain-aware static-analysis rules over the "
             "source tree (see docs/static-analysis.md)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to scan (default: "
                           "the repository's src/ tree)")
    lint.add_argument("--json", default=None, metavar="PATH",
                      help="write findings as JSON to PATH "
                           "('-' for stdout)")
    lint.add_argument("--rules", default=None, metavar="IDS",
                      help="comma-separated rule ids to run "
                           "(default: all)")

    racecheck = sub.add_parser(
        "racecheck",
        help="replay canned scenarios under schedule-perturbation "
             "seeds and assert fingerprint invariance")
    racecheck.add_argument("scenarios", nargs="*", metavar="NAME",
                           help="canned scenario names (default: "
                                "all)")
    racecheck.add_argument("--seeds", type=int, default=8,
                           help="number of perturbation seeds "
                                "(default: 8)")
    racecheck.add_argument("--seed-base", type=int, default=0,
                           help="offset for the derived perturbation "
                                "seeds")
    racecheck.add_argument("--epochs", type=_positive(int), default=None,
                           help="override every scenario's epoch "
                                "count (smoke runs)")
    racecheck.add_argument("--topology", default=None,
                           help="override every scenario's topology "
                                "(e.g. tinet for smoke runs)")
    racecheck.add_argument("--json", default=None, metavar="PATH",
                           help="write the invariance report as "
                                "JSON to PATH ('-' for stdout)")
    racecheck.add_argument("--quiet", action="store_true",
                           help="suppress per-replay progress lines")
    return parser


def _cmd_topologies() -> int:
    rows = []
    for name in builtin_topology_names():
        topo = builtin_topology(name)
        mean_degree = 2.0 * topo.num_links / topo.num_nodes
        rows.append([name, topo.num_nodes, topo.num_links,
                     f"{mean_degree:.2f}", topo.diameter(),
                     f"{topo.mean_path_length():.2f}"])
    print(format_table(
        ["Topology", "PoPs", "Links", "Mean degree", "Diameter",
         "Mean path"],
        rows, title="Built-in evaluation topologies"))
    return 0


def _needs_dc(args) -> bool:
    return (args.formulation in ("split", "combined") or
            MIRROR_POLICIES[args.mirror].needs_datacenter)


def _cmd_solve(args) -> int:
    dc_factor = args.dc_capacity if _needs_dc(args) else None
    setup = setup_topology(args.topology,
                           dc_capacity_factor=dc_factor)
    state = setup.state
    mirror = MIRROR_POLICIES[args.mirror]

    if args.formulation == "replication":
        result = ReplicationProblem(
            state, mirror_policy=mirror,
            max_link_load=args.max_link_load).solve()
        extra = [f"replicated classes: "
                 f"{sum(1 for c in state.classes if result.replicated_fraction(c.name) > 1e-6)}"]
    elif args.formulation == "nips":
        result = NIPSProblem(
            state, mirror_policy=mirror,
            max_link_load=args.max_link_load).solve()
        extra = [f"mean detour: {result.mean_extra_hops:.2f} hops"]
    elif args.formulation == "split":
        result = SplitTrafficProblem(
            state, max_link_load=args.max_link_load).solve()
        extra = [f"miss rate: {result.miss_rate:.2%}"]
    elif args.formulation == "aggregation":
        problem = AggregationProblem(state)
        beta = args.beta if args.beta is not None else \
            problem.suggested_beta()
        result = AggregationProblem(state, beta=beta).solve()
        extra = [f"beta: {beta:.3g}",
                 f"comm cost: {result.comm_cost:,.0f} byte-hops"]
    else:  # combined
        beta = args.beta if args.beta is not None else \
            AggregationProblem(state).suggested_beta()
        result = CombinedProblem(
            state, beta=beta,
            max_link_load=args.max_link_load).solve()
        extra = [f"beta: {beta:.3g}",
                 f"comm cost: {result.comm_cost:,.0f} byte-hops"]

    print(f"{args.formulation} on {args.topology}: "
          f"LoadCost = {result.load_cost:.4f}")
    for line in extra:
        print(f"  {line}")
    print(f"  LP: {result.stats.num_variables} vars, "
          f"{result.stats.num_constraints} constraints, "
          f"solved in {result.stats.solve_seconds:.3f}s")
    loads = sorted(result.node_loads["cpu"].items(),
                   key=lambda kv: kv[1], reverse=True)[:args.top]
    print(format_table(
        ["Node", "Load"],
        [[node, f"{load:.4f}"] for node, load in loads],
        title=f"top {len(loads)} node loads"))
    return 0


def _cmd_compare(args) -> int:
    setup = setup_topology(args.topology)
    evaluator = ArchitectureEvaluator(
        setup.topology, setup.classes,
        dc_capacity_factor=args.dc_capacity,
        max_link_load=args.max_link_load)
    rows = []
    for kind in (ArchitectureKind.INGRESS,
                 ArchitectureKind.PATH_NO_REPLICATE,
                 ArchitectureKind.PATH_AUGMENTED,
                 ArchitectureKind.ONE_HOP,
                 ArchitectureKind.PATH_REPLICATE,
                 ArchitectureKind.DC_PLUS_ONE_HOP):
        result = evaluator.evaluate(kind)
        rows.append([kind.value, f"{result.load_cost:.4f}",
                     f"{result.dc_load():.4f}"])
    print(format_table(
        ["Architecture", "Max load", "DC load"], rows,
        title=f"architecture comparison on {args.topology} "
              f"(DC {args.dc_capacity:g}x, MaxLinkLoad "
              f"{args.max_link_load:g})"))
    return 0


def _cmd_stats(args) -> int:
    from repro.core.controller import NIDSController
    from repro.obs import MetricsRegistry, use_registry, write_jsonl
    from repro.simulation.emulation import Emulation
    from repro.simulation.tracegen import TraceGenerator, TraceSpec

    dc_factor = (args.dc_capacity
                 if MIRROR_POLICIES[args.mirror].needs_datacenter
                 else None)
    setup = setup_topology(args.topology,
                           dc_capacity_factor=dc_factor)
    state = setup.state
    with use_registry(MetricsRegistry()) as metrics:
        controller = NIDSController(
            state, mirror_policy=MIRROR_POLICIES[args.mirror],
            max_link_load=args.max_link_load)
        rollout = controller.refresh()
        generator = TraceGenerator(
            state.topology.nodes, state.classes,
            spec=TraceSpec(total_sessions=args.sessions),
            seed=args.seed)
        sessions = generator.generate(with_payloads=True)
        emulation = Emulation(state, rollout.configs,
                              generator.classifier)
        emulation.run_signature(sessions)

        snap = metrics.snapshot()
        print(format_table(
            ["Counter", "Value"],
            [[name, f"{value:g}"]
             for name, value in sorted(snap["counters"].items())],
            title=f"counters ({args.topology}, "
                  f"{args.sessions} sessions)"))
        print(format_table(
            ["Gauge", "Value"],
            [[name, f"{value:g}"]
             for name, value in sorted(snap["gauges"].items())],
            title="gauges"))
        rows = []
        for name, summary in sorted(snap["histograms"].items()):
            rows.append([name, f"{summary['count']:g}",
                         f"{summary['mean']:.6g}",
                         f"{summary['p50']:.6g}",
                         f"{summary['p95']:.6g}",
                         f"{summary['p99']:.6g}"])
        print(format_table(
            ["Histogram", "Count", "Mean", "p50", "p95", "p99"],
            rows, title="histograms"))
        if args.jsonl:
            try:
                count = write_jsonl(metrics, args.jsonl)
            except OSError as exc:
                print(f"error: cannot write {args.jsonl}: {exc}",
                      file=sys.stderr)
                return 1
            print(f"wrote {count} JSONL records to {args.jsonl}")
    return 0


def _write_json(payload: str, target: str, what: str) -> int:
    """Write a JSON document to ``target`` (``-`` is stdout).

    Returns 0, or 1 after an ``error:`` line when the path cannot be
    written.
    """
    if target == "-":
        print(payload)
        return 0
    try:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    except OSError as exc:
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {what} to {target}")
    return 0


def _cmd_scenario(args) -> int:
    from repro.obs import write_timeline_jsonl
    from repro.runtime.scenario import CANNED_SCENARIOS, run_scenario

    kwargs = {}
    if args.topology is not None:
        kwargs["topology"] = args.topology
    if args.epochs is not None:
        kwargs["epochs"] = args.epochs
    if args.seed is not None:
        kwargs["seed"] = args.seed
    scenario = CANNED_SCENARIOS[args.name](**kwargs)
    if args.strategy is not None:
        scenario = dataclasses.replace(scenario,
                                       strategy=args.strategy)
    report = run_scenario(scenario)

    rows = []
    for rec in report.records:
        rows.append([
            rec.epoch,
            rec.refresh_reason or "-",
            "; ".join(rec.faults) or "-",
            "ok" if rec.solve_ok else "FAIL",
            f"{rec.lp_load_cost:.4f}" if rec.lp_load_cost is not None
            else "-",
            f"{rec.coverage_min:.3f}",
            f"{rec.miss_rate:.4f}",
            f"{rec.duplication_max:.3f}",
            f"{rec.rollout_latency:.1f}s"
            if rec.rollout_latency is not None else "-",
            f"{rec.emulated_max_work:,.0f}",
        ])
    print(format_table(
        ["Epoch", "Refresh", "Faults", "Solve", "LoadCost",
         "MinCov", "Miss", "MaxDup", "Rollout", "MaxWork"],
        rows,
        title=f"scenario {scenario.name!r} on {scenario.topology} "
              f"({scenario.epochs} epochs, seed {scenario.seed})"))
    summary = report.summary()
    print(f"  refreshes: {summary['refreshes']}  "
          f"faults: {summary['faults_injected']}  "
          f"min coverage: {summary['min_coverage']:.3f}  "
          f"max duplication: {summary['max_duplication']:.3f}")
    print(f"  fingerprint: {report.fingerprint()[:16]}")

    if args.json and _write_json(report.to_json(), args.json,
                                 "report"):
        return 1
    if args.timeline:
        try:
            count = write_timeline_jsonl(
                report.timeline_rows(), args.timeline,
                source=f"scenario:{scenario.name}")
        except OSError as exc:
            print(f"error: cannot write {args.timeline}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"wrote {count} timeline records to {args.timeline}")
    return 0


def _follow_store(store, args) -> int:
    """``trace replay --follow``: the packed store as a live feed.

    Streams the store's chunks through an
    :class:`~repro.ingest.daemon.IngestDaemon` on the event loop at
    a fixed simulated inter-chunk interval, then reports the merged
    sketch's view against the store's exact per-class counts — the
    demo/test fixture for the streaming estimation path.
    """
    from repro.ingest import IngestDaemon
    from repro.obs import MetricsRegistry, use_registry
    from repro.runtime.events import EventLoop
    from repro.simulation.tracestore import ChunkedReplay

    batch = store.batch()
    class_names = list(batch.sessions.class_names)
    exact = batch.sessions.class_counts()

    replay = ChunkedReplay(batch, args.chunk)
    with use_registry(MetricsRegistry()):
        ingest = IngestDaemon(class_names, width=args.width,
                              depth=args.depth, seed=args.seed,
                              workers=args.workers)
        loop = EventLoop()
        ingest.stream(loop, iter(replay), start=0.0,
                      interval=args.interval)
        loop.run_all()
        snapshot = ingest.snapshot()
    errors = snapshot.estimate_errors(exact)
    stats = ingest.stats

    volumes = snapshot.class_volumes()
    top = sorted(zip(class_names, volumes),
                 key=lambda kv: kv[1], reverse=True)[:5]
    print(f"followed {stats.packets} packets "
          f"({stats.sessions} sessions) in {stats.chunks} chunk(s) "
          f"of <= {args.chunk} (+session alignment), one per "
          f"{args.interval}s of sim time")
    print(f"  sketch: width {args.width} x depth {args.depth}, "
          f"{args.workers} worker(s), {snapshot.state_bytes:,} "
          f"bytes of state")
    print(f"  resident high-water: "
          f"{stats.max_resident_bytes:,} bytes "
          f"(sketches + one chunk)")
    print(f"  estimate error: L1 {100.0 * errors['l1_rel']:.2f}% "
          f"relative, Linf {errors['linf']:.0f} sessions")
    print(format_table(
        ["Class", "Estimated sessions", "Exact"],
        [[name, f"{volume:,.0f}", f"{exact.get(name, 0.0):,.0f}"]
         for name, volume in top],
        title="top 5 estimated classes"))
    return 0


def _cmd_trace(args) -> int:
    from repro.simulation.tracestore import TraceStore, TraceStoreError

    if args.trace_command == "pack":
        from repro.simulation.tracegen import TraceGenerator, TraceSpec

        setup = setup_topology(args.topology,
                               dc_capacity_factor=args.dc_capacity)
        state = setup.state
        generator = TraceGenerator(
            state.topology.nodes, state.classes,
            spec=TraceSpec(total_sessions=args.sessions,
                           payload_sigma=args.payload_sigma,
                           scanner_count=args.scanners),
            seed=args.seed)
        batch = generator.generate_batch(tuple(state.nids_nodes),
                                         direct=True)
        try:
            store = TraceStore.pack(batch, args.path, meta={
                "topology": args.topology,
                "seed": str(args.seed),
                "sessions": str(args.sessions),
                "dc_capacity": str(args.dc_capacity),
            })
        except OSError as exc:
            print(f"error: cannot write {args.path}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"packed {store.num_packets} packets "
              f"({store.num_sessions} sessions, "
              f"{store.payload_bytes:,} payload bytes) "
              f"into {store.path}")
        print(f"  fingerprint: {store.fingerprint[:16]}")
        return 0

    try:
        store = TraceStore.open(args.path)
    except (TraceStoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace_command == "info":
        meta = store.manifest.get("meta", {})
        print(f"trace store {store.path}")
        print(f"  format: {store.manifest['format']} "
              f"v{store.manifest['version']}")
        print(f"  fingerprint: {store.fingerprint}")
        print(f"  sessions: {store.num_sessions}  "
              f"packets: {store.num_packets}  "
              f"payload bytes: {store.payload_bytes:,}")
        print(f"  classes: {len(store.manifest['class_names'])}  "
              f"nodes: {len(store.manifest['node_order'])}  "
              f"paths: {len(store.manifest['paths'])}  "
              f"hash seed: {store.manifest['hash_seed']}")
        if meta:
            pairs = ", ".join(f"{k}={v}"
                              for k, v in sorted(meta.items()))
            print(f"  meta: {pairs}")
        if args.verify:
            if store.verify():
                print("  verify: fingerprint OK")
            else:
                print("  verify: FINGERPRINT MISMATCH",
                      file=sys.stderr)
                return 1
        return 0

    # replay
    from repro.obs import MetricsRegistry, use_registry
    from repro.simulation.emulation import Emulation
    from repro.simulation.tracegen import PrefixClassifier
    from repro.simulation.tracestore import ChunkedReplay
    from repro.shim.config import build_replication_configs

    meta = store.manifest.get("meta", {})
    topology = args.topology or meta.get("topology")
    if topology is None:
        print("error: store manifest records no topology; pass "
              "--topology", file=sys.stderr)
        return 2
    dc_capacity = args.dc_capacity
    if dc_capacity is None:
        dc_capacity = float(meta.get("dc_capacity", 8.0))
    setup = setup_topology(topology, dc_capacity_factor=dc_capacity)
    state = setup.state
    if tuple(store.manifest["node_order"]) != \
            tuple(state.nids_nodes):
        print(f"error: store node order does not match topology "
              f"{topology!r} (was it packed against a different "
              f"topology or DC setting?)", file=sys.stderr)
        return 2
    if args.follow:
        return _follow_store(store, args)
    result = ReplicationProblem(
        state, mirror_policy=MIRROR_POLICIES[args.mirror],
        max_link_load=args.max_link_load).solve()
    configs = build_replication_configs(state, result)
    classifier = PrefixClassifier(state.topology.nodes, state.classes)
    emulation = Emulation(state, configs, classifier,
                          hash_seed=int(store.manifest["hash_seed"]))
    replay = ChunkedReplay(store.batch(), args.chunk)
    with use_registry(MetricsRegistry()) as metrics:
        report = emulation.run_signature_chunked(replay)
        pps = metrics.gauge_value("emulation.packets_per_second")
        bps = metrics.gauge_value("emulation.bytes_per_second")
    top = sorted(report.work_units.items(), key=lambda kv: kv[1],
                 reverse=True)[:5]
    print(f"replayed {report.packets_total} packets in "
          f"{replay.num_chunks} chunk(s) of <= {args.chunk} "
          f"(+session alignment)")
    print(f"  alerts: {report.alerts}  replicated: "
          f"{report.replicated_bytes:,.0f} bytes")
    print(f"  throughput: {pps:,.0f} packets/s, {bps:,.0f} bytes/s")
    print(format_table(
        ["Node", "Work units"],
        [[node, f"{work:,.0f}"] for node, work in top],
        title="top 5 node work"))
    return 0


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.analysis import (
        LintEngine,
        Severity,
        render_json,
        render_text,
    )

    # The installed package lives at <root>/src/repro; the project
    # root anchors both the default scan paths and the docs lookup.
    project_root = Path(__file__).resolve().parents[2]
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = [project_root / "src"]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2

    rule_ids = (None if args.rules is None
                else [r.strip() for r in args.rules.split(",")])
    try:
        engine = LintEngine(project_root=project_root,
                            rule_ids=rule_ids)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings = engine.run(paths)

    if args.json is not None and _write_json(
            render_json(findings), args.json,
            f"{len(findings)} finding(s)"):
        return 1
    if args.json != "-":
        hint = ", ".join(str(p) for p in paths)
        print(render_text(findings, files_hint=hint))
    errors = sum(1 for f in findings
                 if f.severity is Severity.ERROR)
    return 1 if errors else 0


def _cmd_racecheck(args) -> int:
    from repro.runtime.racecheck import racecheck_canned

    progress = None
    if not args.quiet:
        def progress(message: str) -> None:
            print(f"  {message}", file=sys.stderr)

    try:
        report = racecheck_canned(
            names=args.scenarios or None, seeds=args.seeds,
            seed_base=args.seed_base, epochs=args.epochs,
            topology=args.topology, progress=progress)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json is not None and _write_json(
            report.to_json(), args.json, "racecheck report"):
        return 1
    if args.json != "-":
        rows = []
        for result in report.scenarios:
            status = ("invariant" if result.invariant else
                      f"DIVERGED under seeds {result.divergent_seeds}")
            rows.append([result.name, result.topology,
                         str(result.epochs),
                         result.baseline_fingerprint[:12], status])
        print(format_table(
            ["Scenario", "Topology", "Epochs", "Fingerprint",
             f"Across {len(report.seeds)} perturbation seeds"],
            rows, title="schedule-perturbation racecheck"))
    if not report.all_invariant:
        print("error: scenario fingerprints diverged under "
              "schedule perturbation — a same-timestamp ordering "
              "race is live", file=sys.stderr)
        return 1
    return 0


def _cmd_experiment(args) -> int:
    runs = ExperimentRuns()
    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        experiment = EXPERIMENTS[name]
        table = experiment.format(runs[experiment.run])
        if args.name == "all":
            print(f"==== {name} ====\n{table}\n")
        else:
            print(table)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.solver is not None:
        from repro.lpsolve import set_default_backend

        set_default_backend(args.solver)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro experiment fig12 | head -1``):
        # point stdout at devnull so that the interpreter's exit flush
        # cannot raise again, and exit as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "topologies":
        return _cmd_topologies()
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "racecheck":
        return _cmd_racecheck(args)
    return _cmd_experiment(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
