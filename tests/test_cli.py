"""Tests for the command-line interface."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import _build_parser, main

ROOT = pathlib.Path(__file__).parent.parent


def _subcommands():
    (subparsers,) = [action for action in _build_parser()._actions
                     if action.dest == "command"]
    return subparsers.choices


class TestTopologies:
    def test_lists_all_builtins(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        for name in ("internet2", "geant", "ntt"):
            assert name in out


class TestSolve:
    def test_replication_default(self, capsys):
        assert main(["solve", "internet2"]) == 0
        out = capsys.readouterr().out
        assert "LoadCost" in out
        assert "replicated classes" in out

    def test_replication_no_mirror(self, capsys):
        assert main(["solve", "internet2", "--mirror", "none"]) == 0
        out = capsys.readouterr().out
        assert "LoadCost" in out

    def test_aggregation(self, capsys):
        assert main(["solve", "internet2",
                     "--formulation", "aggregation"]) == 0
        out = capsys.readouterr().out
        assert "comm cost" in out

    def test_split(self, capsys):
        assert main(["solve", "internet2",
                     "--formulation", "split"]) == 0
        out = capsys.readouterr().out
        assert "miss rate" in out

    def test_nips(self, capsys):
        assert main(["solve", "internet2",
                     "--formulation", "nips"]) == 0
        out = capsys.readouterr().out
        assert "detour" in out

    def test_combined(self, capsys):
        assert main(["solve", "internet2",
                     "--formulation", "combined"]) == 0
        out = capsys.readouterr().out
        assert "comm cost" in out

    def test_top_limits_rows(self, capsys):
        assert main(["solve", "internet2", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "top 3 node loads" in out

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "arpanet"])


class TestCompare:
    def test_compare_internet2(self, capsys):
        assert main(["compare", "internet2"]) == 0
        out = capsys.readouterr().out
        assert "ingress" in out
        assert "path-replicate" in out
        assert "dc+one-hop" in out


class TestExperiment:
    def test_fig13(self, capsys):
        assert main(["experiment", "fig13"]) == 0
        out = capsys.readouterr().out
        assert "Figure 13" in out

    def test_all_runs_every_experiment(self, capsys, monkeypatch):
        from repro.experiments.registry import EXPERIMENTS, Experiment

        for name in list(EXPERIMENTS):
            monkeypatch.delitem(EXPERIMENTS, name)
        for name in ("alpha", "beta"):
            monkeypatch.setitem(EXPERIMENTS, name, Experiment(
                lambda name=name: name.upper(),
                lambda rows: f"{rows} TABLE", f"{name}.txt", ()))
        assert main(["experiment", "all"]) == 0
        out = capsys.readouterr().out
        assert "==== alpha ====" in out
        assert "ALPHA TABLE" in out
        assert "==== beta ====" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_there_is_no_jobs_flag(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["experiment", "fig13", "--jobs", "2"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_closed_pipe_exits_without_traceback(self):
        """``repro experiment fig12 | head -1``: the reader is gone
        before the first write (a pipe whose read end is closed)."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "topologies"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr


class TestStats:
    def test_stats_reports_metrics(self, capsys):
        assert main(["stats", "internet2", "--sessions", "200"]) == 0
        out = capsys.readouterr().out
        assert "lp.solves" in out
        assert "shim.decision.process" in out
        assert "emulation.packets_per_second" in out
        assert "lp.solve.seconds" in out

    def test_stats_jsonl_is_schema_valid(self, capsys, tmp_path):
        from repro.obs import read_jsonl

        path = tmp_path / "stats.jsonl"
        assert main(["stats", "internet2", "--sessions", "200",
                     "--jsonl", str(path)]) == 0
        records = read_jsonl(path.read_text().splitlines())
        assert records[0]["type"] == "meta"
        names = {r.get("name") for r in records}
        # The acceptance-criteria trio: LP solve-phase timings, shim
        # decision counters, emulation throughput.
        assert "lp.solve.seconds" in names
        assert "shim.decision.process" in names
        assert "emulation.packets_per_second" in names

    def test_stats_restores_null_registry(self, capsys):
        from repro.obs import NULL_REGISTRY, get_registry

        assert main(["stats", "internet2", "--sessions", "100"]) == 0
        assert get_registry() is NULL_REGISTRY

    def test_stats_without_mirror_dc(self, capsys):
        assert main(["stats", "internet2", "--mirror", "none",
                     "--sessions", "100"]) == 0
        out = capsys.readouterr().out
        assert "controller.refreshes" in out

    def test_stats_unwritable_jsonl_is_clean_error(self, capsys):
        assert main(["stats", "internet2", "--sessions", "100",
                     "--jsonl", "/nonexistent-dir/x.jsonl"]) == 1
        err = capsys.readouterr().err
        assert "cannot write" in err


class TestScenario:
    def test_flash_crowd_prints_timeline(self, capsys):
        assert main(["scenario", "flash-crowd", "--epochs", "4"]) == 0
        out = capsys.readouterr().out
        assert "scenario 'flash-crowd'" in out
        assert "bootstrap" in out
        assert "surge" in out
        assert "fingerprint:" in out

    def test_report_json_and_timeline_written(self, capsys, tmp_path):
        import json

        from repro.obs import read_timeline_jsonl

        json_path = tmp_path / "report.json"
        timeline_path = tmp_path / "timeline.jsonl"
        assert main(["scenario", "steady-drift", "--epochs", "3",
                     "--seed", "5", "--json", str(json_path),
                     "--timeline", str(timeline_path)]) == 0
        report = json.loads(json_path.read_text())
        assert report["schema"] == 1
        assert len(report["epochs"]) == 3
        assert report["scenario"]["seed"] == 5
        records = read_timeline_jsonl(
            timeline_path.read_text().splitlines())
        assert records[0]["type"] == "timeline-meta"
        assert records[0]["source"] == "scenario:steady-drift"
        assert [r["epoch"] for r in records[1:]] == [0, 1, 2]

    def test_seed_override_changes_fingerprint(self, capsys):
        assert main(["scenario", "steady-drift", "--epochs", "2",
                     "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["scenario", "steady-drift", "--epochs", "2",
                     "--seed", "2"]) == 0
        second = capsys.readouterr().out

        def fingerprint(out):
            for line in out.splitlines():
                if "fingerprint:" in line:
                    return line.split("fingerprint:")[1].strip()
            raise AssertionError("no fingerprint printed")

        assert fingerprint(first) != fingerprint(second)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "meteor-strike"])

    def test_unwritable_json_is_clean_error(self, capsys):
        assert main(["scenario", "steady-drift", "--epochs", "2",
                     "--json", "/nonexistent-dir/x.json"]) == 1
        err = capsys.readouterr().err
        assert "cannot write" in err


class TestWriteJson:
    """Every ``--json PATH`` goes through one emitter."""

    @pytest.mark.parametrize("argv", [
        ["lint", str(ROOT / "src" / "repro" / "core" / "mirrors.py")],
        ["racecheck", "steady-drift", "--seeds", "1", "--epochs", "2",
         "--quiet"],
        ["scenario", "steady-drift", "--epochs", "2"],
    ], ids=["lint", "racecheck", "scenario"])
    def test_unwritable_path_is_clean_error(self, argv, capsys):
        assert main(argv + ["--json", "/nonexistent-dir/x.json"]) == 1
        err = capsys.readouterr().err
        assert "error: cannot write /nonexistent-dir/x.json" in err

    def test_scenario_json_to_stdout(self, capsys):
        assert main(["scenario", "steady-drift", "--epochs", "2",
                     "--json", "-"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("\n{"):])
        assert len(report["epochs"]) == 2


class TestNumberFlags:
    """A count or interval that must be positive is a usage error."""

    @pytest.mark.parametrize("argv", [
        ["solve", "internet2", "--top", "-1"],
        ["scenario", "steady-drift", "--epochs", "0"],
        ["racecheck", "--epochs", "0"],
        ["trace", "replay", "store", "--chunk", "0"],
        ["trace", "replay", "store", "--follow", "--width", "0"],
        ["trace", "replay", "store", "--follow", "--depth", "0"],
        ["trace", "replay", "store", "--follow", "--workers", "0"],
        ["trace", "replay", "store", "--follow", "--interval", "-1"],
    ], ids=["top", "scenario-epochs", "racecheck-epochs", "chunk",
            "width", "depth", "workers", "interval"])
    def test_nonpositive_value_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[-2]}: must be positive, got '{argv[-1]}'" in err
        assert "Traceback" not in err

    def test_non_number_names_the_type(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["trace", "replay", "store", "--interval", "soon"])
        assert caught.value.code == 2
        assert "invalid float value: 'soon'" in capsys.readouterr().err


class TestReadme:
    def test_every_verb_is_listed(self):
        readme = (ROOT / "README.md").read_text()
        match = re.search(r"There is also a CLI:\n\n```bash\n(.*?)```",
                          readme, re.DOTALL)
        assert match, "README has no CLI block"
        listed = set(re.findall(r"^python -m repro ([a-z0-9-]+)",
                                match.group(1), re.MULTILINE))
        assert listed == set(_subcommands())


class TestTraceFollowCli:
    def test_follow_streams_store_through_ingest(self, capsys,
                                                 tmp_path):
        store_dir = tmp_path / "store"
        assert main(["trace", "pack", str(store_dir),
                     "--topology", "internet2",
                     "--sessions", "800", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["trace", "replay", str(store_dir),
                     "--follow", "--chunk", "256",
                     "--width", "512"]) == 0
        out = capsys.readouterr().out
        assert "followed" in out
        assert "resident high-water" in out
        assert "top 5 estimated classes" in out


class TestScenarioStrategy:
    def test_delta_strategy_flag(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "report.json"
        assert main(["scenario", "steady-drift", "--epochs", "3",
                     "--strategy", "delta", "--json",
                     str(json_path)]) == 0
        report = json.loads(json_path.read_text())
        assert report["scenario"]["strategy"] == "delta"
        installed = [epoch["rules_installed"]
                     for epoch in report["epochs"]
                     if epoch["rules_installed"] is not None]
        assert installed and all(n >= 0 for n in installed)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "steady-drift", "--strategy", "magic"])
