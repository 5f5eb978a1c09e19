"""Instrumentation integration: solve/shim/controller/emulation paths
report into the registry, and the JSONL trajectory they emit matches
the documented schema."""


from repro.core import MirrorPolicy, ReplicationProblem
from repro.core.controller import NIDSController
from repro.lpsolve import Model, lp_string
from repro.obs import (
    MetricsRegistry,
    get_registry,
    read_jsonl,
    use_registry,
    write_jsonl,
)
from repro.shim import FiveTuple, HashRange, Shim, ShimAction, \
    ShimConfig, ShimRule
from repro.shim.config import build_replication_configs
from repro.simulation import Emulation, TraceGenerator
from repro.simulation.tracegen import TraceSpec
from repro.traffic.classes import TrafficClass


def _solve_tiny_model():
    model = Model("tiny")
    x = model.add_variable("x", lb=0, ub=1)
    model.add_constraint(x >= 0.25)
    model.minimize(x)
    return model.solve()


class TestLPInstrumentation:
    def test_solve_emits_phase_spans_and_sizes(self):
        with use_registry(MetricsRegistry()) as reg:
            _solve_tiny_model()
        assert reg.counter_value("lp.solves") == 1.0
        assert reg.histogram("lp.build.seconds").count == 1
        assert reg.histogram("lp.solve.seconds").count == 1
        assert reg.gauge_value("lp.num_variables") == 1.0
        assert reg.gauge_value("lp.num_constraints") == 1.0

    def test_writer_emits_write_span(self):
        model = Model("tiny")
        x = model.add_variable("x", lb=0, ub=1)
        model.minimize(x)
        with use_registry(MetricsRegistry()) as reg:
            lp_string(model)
        assert reg.counter_value("lp.writes") == 1.0
        assert reg.histogram("lp.write.seconds").count == 1

    def test_disabled_registry_collects_nothing(self):
        _solve_tiny_model()
        assert get_registry().snapshot()["counters"] == {}


class TestShimInstrumentation:
    def _shim(self):
        rules = {"c": [
            ShimRule("c", HashRange("p", 0.0, 0.5), ShimAction.PROCESS),
            ShimRule("c", HashRange("o", 0.5, 1.0),
                     ShimAction.REPLICATE, target="DC"),
        ]}
        return Shim(ShimConfig(node="N1", rules=rules),
                    classifier=lambda t: "c")

    def test_decision_counters_and_hash_timing(self):
        with use_registry(MetricsRegistry()) as reg:
            shim = self._shim()
            for i in range(200):
                shim.handle(FiveTuple(6, i, 1000 + i, 2**16 + i, 80),
                            "fwd", 100.0)
        processed = reg.counter_value("shim.decision.process")
        replicated = reg.counter_value("shim.decision.replicate")
        assert reg.counter_value("shim.packets") == 200.0
        assert processed + replicated == 200.0
        assert processed == shim.counters.packets_processed
        assert replicated == shim.counters.packets_replicated
        assert reg.histogram("shim.hash_lookup.seconds").count == 200

    def test_unmonitored_class_counts_as_ignore(self):
        with use_registry(MetricsRegistry()) as reg:
            shim = Shim(ShimConfig(node="N1", rules={}),
                        classifier=lambda t: None)
            shim.handle(FiveTuple(6, 1, 1, 2, 80))
        assert reg.counter_value("shim.decision.ignore") == 1.0

    def test_zero_overhead_binding_when_disabled(self):
        # Under the default null registry the per-packet path is the
        # plain class method: no instance-level wrapper is installed.
        shim = self._shim()
        assert "handle" not in shim.__dict__
        with use_registry(MetricsRegistry()):
            instrumented = self._shim()
            assert "handle" in instrumented.__dict__


class TestControllerInstrumentation:
    def test_refresh_span_and_counters(self, line_state_dc):
        with use_registry(MetricsRegistry()) as reg:
            controller = NIDSController(line_state_dc)
            controller.refresh()
        assert reg.counter_value("controller.refreshes") == 1.0
        assert reg.histogram("controller.refresh.seconds").count == 1

    def test_second_refresh_reports_transition_overlap(self,
                                                       line_state_dc):
        with use_registry(MetricsRegistry()) as reg:
            controller = NIDSController(line_state_dc)
            first = controller.refresh()
            second = controller.refresh()
        assert first.previous is None
        assert second.previous is first.configs
        nodes = reg.gauge_value("controller.transition.nodes")
        assert nodes == len(second.configs)
        union_rules = reg.gauge_value("controller.transition.union_rules")
        expected = sum(first.configs[n].num_rules
                       + second.configs[n].num_rules
                       for n in second.configs)
        assert union_rules == expected

    def test_drift_trigger_counter(self, line_state_dc):
        with use_registry(MetricsRegistry()) as reg:
            controller = NIDSController(line_state_dc,
                                        drift_threshold=0.2)
            controller.refresh()
            doubled = [
                TrafficClass(name=cls.name, source=cls.source,
                             target=cls.target, path=cls.path,
                             num_sessions=cls.num_sessions * 4,
                             session_bytes=cls.session_bytes)
                for cls in line_state_dc.classes]
            assert controller.needs_refresh(doubled)
            assert controller.needs_refresh(list(
                line_state_dc.classes)) is False
        assert reg.counter_value("controller.drift_triggers") == 1.0


class TestEmulationInstrumentation:
    def test_end_to_end_trajectory_has_required_metrics(
            self, line_state_dc, tmp_path):
        """The acceptance-criteria trajectory: one optimize+replay
        cycle emits LP solve-phase timings, shim decision counters,
        and emulation throughput, all schema-valid JSONL."""
        with use_registry(MetricsRegistry()) as reg:
            result = ReplicationProblem(
                line_state_dc, mirror_policy=MirrorPolicy.datacenter(),
                max_link_load=0.4).solve()
            configs = build_replication_configs(line_state_dc, result)
            generator = TraceGenerator(
                line_state_dc.topology.nodes, line_state_dc.classes,
                spec=TraceSpec(total_sessions=300), seed=5)
            sessions = generator.generate(with_payloads=True)
            emulation = Emulation(line_state_dc, configs,
                                  generator.classifier)
            report = emulation.run_signature(sessions)
            path = tmp_path / "trajectory.jsonl"
            write_jsonl(reg, str(path))

        records = read_jsonl(path.read_text().splitlines())
        by_key = {(r["type"], r.get("name")): r for r in records}
        # LP solve-phase timings.
        assert by_key[("histogram", "lp.solve.seconds")]["count"] >= 1
        assert by_key[("histogram", "lp.build.seconds")]["count"] >= 1
        # Shim decision counters.
        assert by_key[("counter", "shim.decision.process")]["value"] > 0
        assert ("counter", "shim.packets") in by_key
        # Emulation throughput and per-node work gauges.
        assert by_key[("counter", "emulation.packets")]["value"] == \
            report.packets_total
        assert by_key[("gauge", "emulation.packets_per_second")][
            "value"] > 0
        for node in line_state_dc.nids_nodes:
            gauge = by_key[("gauge", f"emulation.work_units.{node}")]
            assert gauge["value"] == report.work_units[node]

    def test_stateful_run_reports_throughput(self, line_state_dc):
        result = ReplicationProblem(
            line_state_dc, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4).solve()
        configs = build_replication_configs(line_state_dc, result)
        generator = TraceGenerator(
            line_state_dc.topology.nodes, line_state_dc.classes,
            spec=TraceSpec(total_sessions=100), seed=5)
        sessions = generator.generate(with_payloads=False)
        with use_registry(MetricsRegistry()) as reg:
            emulation = Emulation(line_state_dc, configs,
                                  generator.classifier)
            emulation.run_stateful(sessions)
        assert reg.counter_value("emulation.packets") > 0
        assert reg.histogram("emulation.run_stateful.seconds").count == 1
