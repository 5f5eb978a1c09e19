"""Integration tests for budgeted compilation: verifier coverage,
kernel/scalar parity, capacity accounting and metrics. The tinet
acceptance curve is the ``budget-sweep`` entry of
:data:`repro.experiments.registry.EXPERIMENTS`.

The module solves tinet's replication LP once; every test below reads
that solution — the budget only changes the lowering.
"""

import numpy as np
import pytest

from repro.analysis.modelcheck import check_shim_configs
from repro.core import MirrorPolicy, ReplicationProblem
from repro.experiments.common import setup_topology
from repro.obs import MetricsRegistry, use_registry
from repro.runtime.agents import ConfigMessage, MessageKind, NodeAgent
from repro.shim.batch import (
    ACTION_IGNORE,
    ACTION_PROCESS,
    ACTION_REPLICATE,
    BatchShimKernel,
)
from repro.shim.config import (
    ShimAction,
    ShimConfig,
    ShimRule,
    build_replication_configs,
)
from repro.shim.diff import diff_configs
from repro.shim.ranges import HashRange, compile_hash_ranges

@pytest.fixture(scope="module")
def tinet():
    setup = setup_topology("tinet", dc_capacity_factor=10.0)
    result = ReplicationProblem(
        setup.state,
        mirror_policy=MirrorPolicy.datacenter_plus_neighbors(1),
        max_link_load=0.4).solve()
    return setup.state, result


class TestModelcheckIntegration:
    @pytest.mark.parametrize("budget", [1, 2, 4, None])
    def test_compiled_tables_verify_clean(self, tinet, budget):
        """SHIM002/SHIM004 pass on every budget the compiler emits:
        exact hash-space tiling, within-budget tables."""
        state, result = tinet
        configs = build_replication_configs(state, result,
                                            budget=budget)
        assert check_shim_configs(configs, budget=budget) == []

    def test_missing_owner_is_detected(self, tinet):
        """Removing a PROCESS rule from a bucket that keeps others
        leaves a hash-space gap that SHIM002 must flag."""
        state, result = tinet
        configs = build_replication_configs(state, result, budget=2)
        for node, config in configs.items():
            for cls, rules in config.rules.items():
                procs = [r for r in rules
                         if r.action is ShimAction.PROCESS
                         and r.hash_range.width > 0]
                if procs and len(rules) > 1:
                    kept = list(rules)
                    kept.remove(procs[0])
                    configs[node] = ShimConfig(
                        node, {**config.rules, cls: kept})
                    findings = check_shim_configs(configs, budget=2)
                    assert any(f.rule_id == "SHIM002"
                               for f in findings)
                    return
        pytest.fail("no PROCESS rule found to mutate")

    def test_over_budget_table_is_detected(self, tinet):
        state, result = tinet
        configs = build_replication_configs(state, result, budget=1)
        for node, config in configs.items():
            for cls, rules in config.rules.items():
                if rules:
                    half = rules[0].hash_range.start + \
                        rules[0].hash_range.width / 2
                    configs[node] = ShimConfig(node, {
                        **config.rules, cls: [*rules, ShimRule(
                            cls, HashRange(("extra",),
                                           rules[0].hash_range.start,
                                           half),
                            rules[0].action, target=rules[0].target)]})
                    findings = check_shim_configs(configs, budget=1)
                    assert any(f.rule_id == "SHIM004"
                               for f in findings)
                    return
        pytest.fail("no rule bucket found to mutate")

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            check_shim_configs({}, budget=0)


class TestKernelScalarParity:
    @pytest.mark.parametrize("budget", [1, 2, 4, None])
    def test_batch_decisions_match_scalar(self, tinet, budget):
        """The vectorized kernel and ShimConfig.decide agree on every
        sampled (node, class, hash) under budgeted tables."""
        state, result = tinet
        configs = build_replication_configs(state, result,
                                            budget=budget)
        class_names = [cls.name for cls in state.classes]
        node_order = list(state.topology.nodes)
        kernel = BatchShimKernel(configs, class_names, node_order)
        if budget is not None:
            assert kernel.max_table_rules <= budget

        rng = np.random.default_rng(17)
        count = 600
        node_ids = rng.integers(0, len(node_order), count)
        class_ids = rng.integers(0, len(class_names), count)
        hashes = rng.random(count)
        directions = np.zeros(count, dtype=np.int64)
        mode = next(iter(kernel.modes_used))
        actions, targets = kernel.decide(
            node_ids, class_ids, directions, {mode: hashes})

        for i in range(count):
            config = configs[node_order[node_ids[i]]]
            rule = config.decide(class_names[class_ids[i]],
                                 hashes[i], "fwd")
            if rule is None:
                assert actions[i] == ACTION_IGNORE
                assert targets[i] == -1
            elif rule.action is ShimAction.PROCESS:
                assert actions[i] == ACTION_PROCESS
            else:
                assert actions[i] == ACTION_REPLICATE
                assert node_order[targets[i]] == rule.target

    def test_budget_none_matches_unbudgeted_builder(self, tinet):
        """budget=None is the exact compile: bit-identical configs to
        the original builder path."""
        state, result = tinet
        assert build_replication_configs(state, result) == \
            build_replication_configs(state, result, budget=None)


class TestCapacityAccounting:
    def _config(self, node, widths):
        """A config with one positive-width rule per entry."""
        ranges = compile_hash_ranges(
            [(f"k{i}", w) for i, w in enumerate(widths)],
            require_full_coverage=False)
        return ShimConfig(node=node, rules={"c": [
            ShimRule("c", rng, ShimAction.PROCESS)
            for rng in ranges]})

    def test_agent_accepts_exactly_budget_rules(self):
        budget = 4
        config = self._config("A", [0.1] * budget)
        agent = NodeAgent("A", {"cpu": 1.0}, rule_capacity=budget)
        ack = agent.deliver(ConfigMessage(
            MessageKind.INSTALL, 1, "A", config), now=0.0)
        assert ack.ok
        assert agent.effective_config() is config

    def test_agent_refuses_budget_plus_one(self):
        """The regression the accounting fix pins: one rule over the
        table capacity is refused, not silently truncated."""
        budget = 4
        config = self._config("A", [0.1] * (budget + 1))
        agent = NodeAgent("A", {"cpu": 1.0}, rule_capacity=budget)
        ack = agent.deliver(ConfigMessage(
            MessageKind.INSTALL, 1, "A", config), now=0.0)
        assert not ack.ok
        assert agent.effective_config() is None

    def test_zero_width_rules_occupy_no_capacity(self):
        """num_rules counts installable rules only — zero-width
        ranges can never match and must not consume table space."""
        budget = 4
        config = self._config("A", [0.1] * budget)
        config = ShimConfig("A", {"c": [*config.rules["c"], ShimRule(
            "c", HashRange(("pad",), 0.9, 0.9), ShimAction.PROCESS)]})
        assert config.num_rules == budget
        agent = NodeAgent("A", {"cpu": 1.0}, rule_capacity=budget)
        ack = agent.deliver(ConfigMessage(
            MessageKind.INSTALL, 1, "A", config), now=0.0)
        assert ack.ok


class TestBudgetMetrics:
    def test_budgeted_compile_publishes_metrics(self, tinet):
        state, result = tinet
        with use_registry(MetricsRegistry()) as registry:
            build_replication_configs(state, result, budget=2)
            errors = registry.histogram("shim.coverage_error")
            rules = registry.histogram("shim.rules_per_node")
        assert errors is not None and errors.count > 0
        assert rules is not None and rules.count > 0
        assert max(errors.samples) > 0.0  # budget 2 is lossy on tinet

    def test_diff_publishes_rollout_churn_metrics(self, tinet):
        state, result = tinet
        old = build_replication_configs(state, result, budget=2)
        new = build_replication_configs(state, result, budget=4)
        with use_registry(MetricsRegistry()) as registry:
            diff_configs(old, new)
            delta = registry.histogram("rollout.delta_rules")
            fraction = registry.histogram("rollout.delta_fraction")
        assert delta is not None and delta.count == 1
        assert fraction is not None
        assert 0.0 < fraction.samples[0] <= 2.0
