"""Functional check of the pipeline benchmark at ``--scale smoke``.

Collected by ``pytest benchmarks/pipeline`` (not by tier-1): every
metric ``BENCHMARK.json`` names is emitted with its unit, spans nest
and their self times add up to the traced pass, tracing leaves no
wrapper behind, a corrupted store is counted as a failed check, and
the command line keeps the driver's contract.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

workloads = run._import_workloads()
import trace as tracing  # noqa: E402  (benchmarks/pipeline/trace.py)

DECLARED = json.loads((run.REPO / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced smoke run per workload: report and tracer."""
    workdir = tmp_path_factory.mktemp("pipeline")
    return {name: workloads.run_workload(
        name, seed=3, trace=True, scale="smoke", workdir=workdir / name)
        for name in workloads.WORKLOADS}


def test_benchmark_json_matches_the_harness():
    assert DECLARED["command"][-1] == "benchmarks/pipeline/run.py"
    assert DECLARED["paths"] == ["benchmarks/pipeline"]
    assert DECLARED["run_seconds"] == workloads.RUN_SECONDS
    # the driver's time limit leaves room for three of the five
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == \
        [(name, workloads.WORKLOADS[name])
         for name in ("stream_fine", "control_global", "loop_sketch")]
    for entry in DECLARED["end_to_end"]:
        metric = workloads.END_TO_END_BY_NAME[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == \
            (metric.unit, metric.better, metric.bound)
    assert {e["name"]: (e["unit"], e["better"])
            for e in DECLARED["per_layer"]} == \
        {name: (unit, better)
         for name, (unit, better, _) in workloads.PER_LAYER.items()}


def test_every_declared_metric_is_emitted_with_its_unit(traced):
    for name, (report, _) in traced.items():
        assert report["checks"]["failed"] == 0, report["checks"]
        for section in ("end_to_end", "per_layer"):
            for entry in DECLARED[section]:
                emitted = report[section][entry["name"]]
                assert emitted["unit"] == entry["unit"], (name, entry)
                assert emitted["value"] == emitted["value"]  # not NaN
        assert report["end_to_end"]["failed_share"]["value"] == 0


def test_each_workload_reports_its_own_end_to_end_metrics(traced):
    expected = {
        "stream_bulk": {"synth_pkts_per_s", "stream_pkts_per_s",
                        "estimate_l1_rel"},
        "stream_fine": {"synth_pkts_per_s", "stream_pkts_per_s",
                        "estimate_l1_rel"},
        "control_global": {"refresh_cold_s", "refresh_warm_s",
                           "load_cost", "rules_installed"},
        "control_sharded": {"refresh_cold_s", "refresh_warm_s",
                            "load_cost", "rules_installed"},
        "loop_sketch": {"refresh_warm_s", "load_cost",
                        "rules_installed", "estimate_l1_rel"},
    }
    everywhere = {"setup_s", "pass_s", "peak_rss_bytes", "failed_share"}
    for name, (report, _) in traced.items():
        assert set(report["end_to_end"]) == expected[name] | everywhere


def test_layers_match_the_workload(traced):
    sharded = ("core.controller.sharded_rounds",
               "core.controller.sharded_solves")
    for name, (report, _) in traced.items():
        layers = report["per_layer"]
        for metric in sharded:
            assert (layers[metric]["value"] > 0) == \
                (name == "control_sharded"), (name, metric)
        assert layers["obs.trace_overhead_ratio"]["value"] > 0
        if name != "loop_sketch":
            assert layers["pipeline.unattributed_share"]["value"] < 0.05
    shares = traced["stream_bulk"][0]["layer_shares"]
    assert sum(share for layer, share in shares.items()
               if layer.split(".")[0] in
               ("simulation", "shim", "sketch", "ingest")) >= 0.9
    shares = traced["control_global"][0]["layer_shares"]
    assert sum(share for layer, share in shares.items()
               if layer.split(".")[0] in ("core", "lpsolve", "shim")
               ) >= 0.9


def test_spans_nest_and_self_times_add_up(traced):
    for name, (report, tracer) in traced.items():
        spans = tracer.closed_spans()
        assert len(spans) == len(tracer.spans)
        assert tracing.nesting_errors(spans) == []
        for entry in report["traced_passes"]:
            total = sum(tracer.self_times(entry["pass"]).values())
            assert total == pytest.approx(entry["pass_s"], rel=0.02), name
        events = tracer.chrome_trace()["traceEvents"]
        assert len(events) == len(spans)


def test_tracing_leaves_no_wrapper_behind(traced):
    for target in tracing.TARGETS:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = vars(owner)[attr]
        raw = getattr(raw, "__func__", raw)
        assert not hasattr(raw, "__wrapped__"), target.qualname
    for alias in ("setup_topology", "run_scenario", "diff_configs",
                  "coverage_report", "validate_replication",
                  "build_replication_configs"):
        assert not hasattr(getattr(workloads, alias), "__wrapped__")


def test_corrupted_store_is_counted_not_raised(tmp_path):
    def flip_one_byte(store_dir: Path) -> None:
        column = store_dir / "size_bytes.npy"
        data = bytearray(column.read_bytes())
        data[-1] ^= 0xFF
        column.write_bytes(bytes(data))

    report, _ = workloads.run_workload(
        "stream_bulk", seed=3, scale="smoke", workdir=tmp_path,
        after_pack=flip_one_byte)
    assert report["checks"]["failed"] > 0
    assert report["end_to_end"]["failed_share"]["value"] > 0
    assert any("store.verify" in failure
               for failure in report["checks"]["failures"])


def test_compare_flags_a_regression(traced, tmp_path, capsys):
    report = traced["control_global"][0]
    slower = json.loads(json.dumps(report))
    slower["end_to_end"]["pass_s"]["value"] *= 1.5
    moved = json.loads(json.dumps(report))
    moved["end_to_end"]["rules_installed"]["value"] += 1
    paths = {}
    for label, data in (("base", report), ("slower", slower),
                        ("moved", moved)):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(data))
    assert run.compare(str(paths["base"]), str(paths["base"])) == 0
    assert run.compare(str(paths["base"]), str(paths["slower"])) == 1
    assert run.compare(str(paths["slower"]), str(paths["base"])) == 0
    assert run.compare(str(paths["base"]), str(paths["moved"])) == 1
    assert "OUTSIDE control_global.pass_s" in capsys.readouterr().out


def _driver_run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload",
         "control_sharded", "--seed", "5", "--seconds", "15", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section",
                         [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_contract(trace, section):
    done = _driver_run(run.REPO, "--trace", trace, "--scale", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: value["unit"]
            for name, value in result["metrics"].items()} == \
        {entry["name"]: entry["unit"] for entry in DECLARED[section]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns(
                        "__pycache__", ".work", ".pytest_cache"))
    done = _driver_run(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
