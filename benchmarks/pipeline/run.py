"""One layer-attributed benchmark for the control + data pipeline.

    python3 benchmarks/pipeline/run.py [--seed N] [--trace] [--out FILE]
    python3 benchmarks/pipeline/run.py --workload NAME --seed N \
        --seconds S --trace 0|1
    python3 benchmarks/pipeline/run.py compare A.json B.json

Without ``--workload`` every workload runs in a fresh interpreter of
its own and the reports are gathered into ``--out``.  With it, this
process runs that workload, prints every metric by name with its unit
and ends with the one-line JSON result ``BENCHMARK.json`` describes.
See ``README.md`` beside this file.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()

# Single-threaded BLAS/OpenMP: the box has two cores and a pass must
# not contend with itself.  Has to be set before numpy is imported.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
WORK = HERE / ".work"
#: set-up is measured in this many fresh interpreters (this one plus
#: probes) and reported as their fastest, like every other timing
SETUP_SAMPLES = 3


def _import_workloads() -> Any:
    source = REPO / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {source}/repro is "
                 f"missing (run from a checkout of the repository)")
    for entry in (str(source), str(HERE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import workloads

    return workloads


# -- one workload, in this process -----------------------------------------


def _format(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_report(report: Dict[str, Any]) -> None:
    name = report["workload"]
    passes = report["passes"]
    print(f"== {name} (seed {report['seed']}, scale {report['scale']}, "
          f"{passes['warmup']} warm-up + {passes['timed']} timed"
          + (f" + {passes['traced']} traced" if passes["traced"] else "")
          + " passes)")
    for metric, entry in report["end_to_end"].items():
        spread = ""
        if "q1" in entry:
            spread = (f"  [median {_format(entry['median'])}, q1 "
                      f"{_format(entry['q1'])}, q3 "
                      f"{_format(entry['q3'])}, min "
                      f"{_format(entry['min'])}, max "
                      f"{_format(entry['max'])}, n {entry['n']}]")
        print(f"{name}.{metric} = {_format(entry['value'])} "
              f"{entry['unit']}{spread}")
    checks = report["checks"]
    print(f"{name}.checks = {checks['failed']} failed of "
          f"{checks['attempted']} attempted")
    for failure in checks["failures"]:
        print(f"  FAILED {failure}")
    print(f"{name}.descheduled_passes = "
          f"{len(report['descheduled_passes'])}")
    if "per_layer" in report:
        for metric, entry in report["per_layer"].items():
            print(f"{name}.{metric} = {_format(entry['value'])} "
                  f"{entry['unit']}")
        print(f"-- {name}: layer self time as a share of the traced "
              f"pass_s ({_format(report['traced_pass_s'])} s)")
        for layer, share in sorted(report["layer_shares"].items(),
                                   key=lambda item: -item[1]):
            print(f"  {layer:<28} {share:7.2%}")


def _probe_setup(args: argparse.Namespace) -> float:
    """``setup_s`` of one more fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         args.workload, "--seed", str(args.seed), "--scale", args.scale,
         "--setup-probe"],
        check=True, capture_output=True, text=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def run_single(args: argparse.Namespace) -> int:
    workloads = _import_workloads()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        report, tracer = workloads.run_workload(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), scale=args.scale, workdir=workdir,
            process_start=PROCESS_START, setup_only=args.setup_probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.setup_probe:
        print(json.dumps(report))
        return 0

    if not args.trace and args.scale == "default":
        setups = [report["end_to_end"]["setup_s"]["value"]]
        setups += [_probe_setup(args)
                   for _ in range(SETUP_SAMPLES - 1)]
        report["end_to_end"]["setup_s"].update(
            workloads.summarize(setups))
    _print_report(report)
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps(report, indent=2, sort_keys=True)
                       + "\n")
        if tracer is not None:
            out.with_suffix(".trace.json").write_text(
                json.dumps(tracer.chrome_trace()))

    section = "per_layer" if args.trace else "end_to_end"
    declared = json.loads((REPO / "BENCHMARK.json").read_text())[section]
    checks = report["checks"]
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {
            entry["name"]: {
                "value": report[section][entry["name"]]["value"],
                "unit": entry["unit"]}
            for entry in declared},
    }))
    return 0


# -- every workload, one fresh interpreter each ----------------------------


def run_all(args: argparse.Namespace) -> int:
    workloads = _import_workloads()
    WORK.mkdir(parents=True, exist_ok=True)
    reports: Dict[str, Any] = {}
    for name in workloads.WORKLOADS:
        part = WORK / f"report-{os.getpid()}-{name}.json"
        try:
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace),
                 "--scale", args.scale, "--out", str(part)],
                check=True)
            reports[name] = json.loads(part.read_text())
            trace_part = part.with_suffix(".trace.json")
            if args.out and trace_part.exists():
                out = Path(args.out)
                trace_part.replace(out.with_name(
                    f"{out.stem}.{name}.trace.json"))
        finally:
            part.unlink(missing_ok=True)
            part.with_suffix(".trace.json").unlink(missing_ok=True)
    combined = {"schema": 1, "seed": args.seed, "scale": args.scale,
                "trace": args.trace, "workloads": reports}
    if args.out:
        Path(args.out).write_text(
            json.dumps(combined, indent=2, sort_keys=True) + "\n")
    failed = sum(r["checks"]["failed"] for r in reports.values())
    attempted = sum(r["checks"]["attempted"] for r in reports.values())
    print(f"== all workloads: {failed} failed of {attempted} checks")
    return 0


# -- compare two result files ----------------------------------------------


def _load_reports(path: str) -> Dict[str, Any]:
    data = json.loads(Path(path).read_text())
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: data}


def worse_by(metric: Any, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of
    ``base`` (negative when it is better)."""
    if base == other:
        return 0.0
    delta = other - base if metric.better == "lower" else base - other
    return delta / abs(base) if base else float("inf")


def compare(path_a: str, path_b: str) -> int:
    workloads = _import_workloads()
    reports_a, reports_b = _load_reports(path_a), _load_reports(path_b)
    outside: List[str] = []
    print(f"{'workload':<16} {'metric':<18} {'A':>14} {'B':>14} "
          f"{'B worse by':>11} {'bound':>8}")
    for name in reports_a:
        if name not in reports_b:
            outside.append(f"{name}: missing from {path_b}")
            continue
        a, b = reports_a[name], reports_b[name]
        for metric in workloads.END_TO_END:
            entry_a = a["end_to_end"].get(metric.name)
            entry_b = b["end_to_end"].get(metric.name)
            if entry_a is None and entry_b is None:
                continue
            if entry_a is None or entry_b is None:
                outside.append(f"{name}.{metric.name}: reported by "
                               f"one side only")
                continue
            worse = worse_by(metric, entry_a["value"], entry_b["value"])
            ok = worse <= metric.bound
            print(f"{name:<16} {metric.name:<18} "
                  f"{_format(entry_a['value']):>14} "
                  f"{_format(entry_b['value']):>14} {worse:>+11.2%} "
                  f"{metric.bound:>8.2%}{'' if ok else '  OUTSIDE'}")
            if not ok:
                outside.append(f"{name}.{metric.name}: {worse:+.2%} "
                               f"worse, bound {metric.bound:.2%}")
        same_input = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
        if same_input and a["deterministic"] != b["deterministic"]:
            outside.append(f"{name}: deterministic outputs differ: "
                           f"{a['deterministic']} != "
                           f"{b['deterministic']}")
    for line in outside:
        print(f"OUTSIDE {line}")
    print(f"compare: {len(outside)} outside their bound")
    return 1 if outside else 0


# -- command line ----------------------------------------------------------


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Layer-attributed pipeline benchmark "
                    "(or: run.py compare A.json B.json)")
    parser.add_argument("--workload", help="run only this workload, in "
                        "this process, and end with the JSON result line")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long a workload's warm-up and timed "
                             "passes run (default: 35; at least 5 "
                             "passes are timed)")
    parser.add_argument("--trace", nargs="?", type=int, const=1,
                        default=0, choices=(0, 1),
                        help="traced run: per-layer metrics and layer "
                             "shares instead of end-to-end numbers")
    parser.add_argument("--scale", default="default",
                        choices=("default", "smoke"))
    parser.add_argument("--out", help="write the report(s) as JSON here "
                        "(a traced run writes Chrome trace JSON beside it)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    args = parse_args(argv)
    workloads = _import_workloads()
    if args.seconds is None:
        args.seconds = float(workloads.RUN_SECONDS)
    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; choose "
                 f"from {', '.join(workloads.WORKLOADS)}")
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
