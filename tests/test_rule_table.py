"""The array path from fractions to installed rules.

``LoweredRows`` / ``layout_rows`` lay every class out at once and
``build_replication_configs`` hands each node a slice of one
:class:`~repro.shim.table.RuleTable`. Everything here compares that
path with the code it stands in for — the one-row, paper-faithful
``compile_hash_ranges`` / ``budgeted_hash_ranges`` and configs built
from rule objects — on drawn instances (``tests/strategies.py``), with
float boundaries compared by ``==``: a boundary that moves in the last
bit moves a session from one node to another.
"""

import hashlib
import json
import math
import pathlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (AggregationProblem, MirrorPolicy,
                        ReplicationProblem)
from repro.experiments.common import setup_topology
from repro.shim.batch import (ACTION_IGNORE, ACTION_PROCESS,
                              ACTION_REPLICATE, BatchShimKernel)
from repro.shim.budget import LoweredRows, budgeted_hash_ranges
from repro.shim.config import (HashMode, ShimAction, ShimConfig,
                               ShimRule, build_aggregation_configs,
                               build_replication_configs)
from repro.shim.diff import (apply_delta, canonical_config,
                             diff_config, diff_configs)
from repro.shim.ranges import compile_hash_ranges, layout_rows
from repro.shim.table import ACTIONS, RuleTable
from tests.strategies import budgets, fraction_matrices, small_states

GOLDEN = pathlib.Path(__file__).parent / "golden" / "rule_tables.json"


def _entries(row):
    return [(f"k{slot}", fraction) for slot, fraction in enumerate(row)]


def _keys_of(rows):
    return lambda index: [key for key, _ in _entries(rows[index])]


def _assert_rows_equal_the_one_row_rung(rows, matrix, budget, full):
    lowered = LoweredRows(np.array(matrix, dtype=np.float64), budget,
                          require_full_coverage=full)
    for index, row in enumerate(rows):
        rung = budgeted_hash_ranges(_entries(row), budget,
                                    require_full_coverage=full)
        keys = _keys_of(rows)(index)
        emitted = [
            (keys[slot], float(lowered.starts[index, slot]),
             float(lowered.ends[index, slot]))
            for slot in range(len(keys)) if lowered.keep[index, slot]]
        assert emitted == [(r.key, r.start, r.end) for r in rung.ranges]
        assert not lowered.keep[index, len(keys):].any()
        assert lowered.targets[index, :len(keys)].tolist() == \
            list(rung.targets.values())
        assert lowered.realized[index, :len(keys)].tolist() == \
            list(rung.realized.values())
        assert tuple(key for slot, key in enumerate(keys)
                     if lowered.dropped[index, slot]) == \
            rung.dropped_keys
        assert float(lowered.error_l1[index]) == rung.error_l1
        assert float(lowered.error_linf[index]) == rung.error_linf


class TestKernelEqualsOneRowRung:
    @settings(max_examples=150, deadline=None)
    @given(drawn=fraction_matrices(full=True), budget=budgets)
    def test_full_coverage_rows(self, drawn, budget):
        _assert_rows_equal_the_one_row_rung(*drawn, budget, True)

    @settings(max_examples=100, deadline=None)
    @given(drawn=fraction_matrices(full=False), budget=budgets)
    def test_partial_coverage_rows(self, drawn, budget):
        _assert_rows_equal_the_one_row_rung(*drawn, budget, False)

    @settings(max_examples=60, deadline=None)
    @given(drawn=fraction_matrices(full=True, max_rows=3, max_width=40),
           budget=budgets)
    def test_wide_rows_sum_left_to_right(self, drawn, budget):
        """Trap (a): with 8+ entries a pairwise ``np.sum`` or a
        segmented ``reduceat`` rounds differently from ``cursor +=``;
        only a running sum along the row reproduces the boundaries."""
        _assert_rows_equal_the_one_row_rung(*drawn, budget, True)

    def test_layout_rows_is_compile_hash_ranges(self):
        rows = [[0.25, 0.0, 0.5, 0.25], [1 / 3, 1 / 3, 1 / 3],
                [-1e-12, 1.0]]
        width = max(len(row) for row in rows)
        keep, starts, ends = layout_rows(np.array(
            [row + [0.0] * (width - len(row)) for row in rows]))
        for index, row in enumerate(rows):
            ranges = compile_hash_ranges(_entries(row))
            assert [(starts[index, slot], ends[index, slot])
                    for slot in np.flatnonzero(keep[index])] == \
                [(r.start, r.end) for r in ranges]
            assert ends[index, np.flatnonzero(keep[index])[-1]] == 1.0

    def test_sub_epsilon_entries_are_skipped_not_added(self):
        """Trap (b): an entry at or below 1e-9 gets no range *and*
        does not move the cursor."""
        row = [0.5, 9e-10, 0.25, 1e-9, 0.25 - 1.9e-9]
        keep, starts, ends = layout_rows(np.array([row]))
        assert keep[0].tolist() == [True, False, True, False, True]
        assert starts[0, 2] == 0.5  # not 0.5 + 9e-10
        assert starts[0, 4] == 0.75
        _assert_rows_equal_the_one_row_rung([row], [row], None, True)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fraction_is_rejected(self, bad):
        """Trap (c): ``np.maximum(nan, 0.0)`` is NaN and every
        comparison with it is False, so without an explicit check a
        NaN would pass the sum test and poison every boundary."""
        matrix = np.array([[0.5, 0.5], [0.5, bad]])
        for lower in (lambda: layout_rows(matrix),
                      lambda: LoweredRows(matrix, 1),
                      lambda: LoweredRows(matrix, None)):
            with pytest.raises(ValueError, match="row 1"):
                lower()

    def test_ties_keep_the_earliest_slot(self):
        """Trap (d): equal fractions compete by layout position."""
        lowered = LoweredRows(np.array([[0.25, 0.25, 0.25, 0.25]]), 2)
        assert lowered.keep[0].tolist() == [True, True, False, False]
        assert lowered.ends[0, :2].tolist() == [0.5, 1.0]
        assert lowered.dropped[0].tolist() == [False, False, True, True]

    def test_a_bad_row_is_named(self):
        def describe(row, slot):
            return f"class c{row}" + ("" if slot is None
                                      else f" key k{slot}")

        good = [0.5, 0.5, 0.0]
        for matrix, message in (
                ([good, [0.5, 0.47, 0.0]], "class c1 sum to 0.97"),
                ([good, [0.7, 0.7, 0.0]], "class c1 sum to 1.4"),
                ([good, [1.1, 0.0, -0.1]], "for class c1 key k2")):
            with pytest.raises(ValueError, match=message):
                LoweredRows(np.array(matrix), None, describe=describe)
        with pytest.raises(ValueError, match="budget"):
            LoweredRows(np.array([good]), 0)


# -- table-backed configs against object-built ones -------------------------


def _walked_configs(state, result, budget=None,
                    hash_mode=HashMode.SESSION, lowerings=None):
    """``build_replication_configs`` (and, for a result without ``o``
    fractions, ``build_aggregation_configs``) as a walk over the
    one-row rung, building every rule object — the builders the
    array path replaced, kept here as the reference."""
    rules = {node: {} for node in state.nids_nodes}
    for cls in state.classes:
        entries = []
        process = result.process_fractions.get(cls.name, {})
        for node in sorted(process):
            entries.append((("process", node), process[node]))
        offload = getattr(result, "offload_fractions", {}).get(
            cls.name, {})
        for node, mirror in sorted(offload):
            entries.append((("replicate", node, mirror),
                            offload[(node, mirror)]))
        lowering = budgeted_hash_ranges(entries, budget)
        if lowerings is not None:
            lowerings[cls.name] = lowering
        ranges = lowering.ranges
        for rng in ranges:
            if rng.key[0] == "process":
                rule = ShimRule(cls.name, rng, ShimAction.PROCESS,
                                hash_mode=hash_mode)
            else:
                rule = ShimRule(cls.name, rng, ShimAction.REPLICATE,
                                target=rng.key[2])
            rules[rng.key[1]].setdefault(cls.name, []).append(rule)
        for rng in ranges:
            if rng.key[0] == "replicate":
                rules[rng.key[2]].setdefault(cls.name, []).append(
                    ShimRule(cls.name, rng, ShimAction.PROCESS))
    return {node: ShimConfig(node, node_rules)
            for node, node_rules in rules.items()}


def _solve(state):
    return ReplicationProblem(
        state, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.4).solve()


def _items(config):
    return [(name, list(rules)) for name, rules in config.rules.items()]


class TestTableBackedConfigs:
    @settings(max_examples=25, deadline=None)
    @given(state=small_states(), budget=budgets, other=budgets)
    def test_equal_object_built_configs(self, state, budget, other):
        result = _solve(state)
        built = build_replication_configs(state, result, budget=budget)
        walked = _walked_configs(state, _solve(state), budget)
        assert list(built) == list(walked)
        changed = build_replication_configs(state, result, budget=other)
        walked_changed = _walked_configs(state, result, other)
        for node in built:
            table = built[node].table()
            assert built[node].num_rules == walked[node].num_rules \
                == int(np.count_nonzero(table.end > table.start))
            # Slice against objects, both ways: nothing to ship.
            assert diff_config(built[node], walked[node]).is_empty
            assert diff_config(walked[node], built[node]).is_empty
            # A real transition diffs the same whichever form each
            # side is in, and replays onto the old config.
            delta = diff_config(built[node], changed[node])
            assert delta == diff_config(walked[node],
                                        walked_changed[node])
            assert apply_delta(built[node], delta) == \
                canonical_config(changed[node])
        assert diff_configs(built, changed) == \
            diff_configs(walked, walked_changed)
        # Reading ``rules`` gives the walk's dicts, item for item.
        for node in built:
            assert _items(built[node]) == _items(walked[node])

    @settings(max_examples=15, deadline=None)
    @given(state=small_states(), budget=budgets,
           hash_mode=st.sampled_from([HashMode.SOURCE,
                                      HashMode.DESTINATION]))
    def test_aggregation_configs_are_the_same_walk(self, state, budget,
                                                   hash_mode):
        result = AggregationProblem(state, beta=1e-9).solve()
        lowered, reference = {}, {}
        built = build_aggregation_configs(
            state, result, hash_mode=hash_mode, budget=budget,
            lowerings=lowered)
        walked = _walked_configs(state, result, budget, hash_mode,
                                 reference)
        assert [(node, _items(config)) for node, config in built.items()] \
            == [(node, _items(config)) for node, config in walked.items()]
        assert list(lowered.items()) == list(reference.items())

    @settings(max_examples=15, deadline=None)
    @given(state=small_states(), budget=budgets,
           seed=st.integers(0, 2 ** 16))
    def test_batch_kernel_decides_like_the_rule_walk(self, state,
                                                     budget, seed):
        """``BatchShimKernel.decide`` on slices ≡ the first-match walk
        over rule objects (``ShimConfig.decide``, which is the loop
        ``Shim.handle`` runs once it has the packet's hash)."""
        result = _solve(state)
        configs = build_replication_configs(state, result, budget=budget)
        walked = _walked_configs(state, result, budget)
        class_names = [cls.name for cls in state.classes]
        node_order = list(state.nids_nodes)
        kernel = BatchShimKernel(configs, class_names, node_order)
        rng = np.random.default_rng(seed)
        count = 200
        node_ids = rng.integers(0, len(node_order), count)
        class_ids = rng.integers(0, len(class_names), count)
        hashes = rng.random(count)
        actions, targets = kernel.decide(
            node_ids, class_ids, np.zeros(count, dtype=np.int64),
            {mode: hashes for mode in kernel.modes_used})
        for index in range(count):
            rule = walked[node_order[node_ids[index]]].decide(
                class_names[class_ids[index]], hashes[index], "fwd")
            if rule is None:
                assert (actions[index], targets[index]) == \
                    (ACTION_IGNORE, -1)
            elif rule.action is ShimAction.PROCESS:
                assert actions[index] == ACTION_PROCESS
            else:
                assert actions[index] == ACTION_REPLICATE
                assert node_order[targets[index]] == rule.target

    def test_rules_is_a_read_only_view_of_the_table(
            self, line_state_dc):
        """The table is the config's one storage: reading ``rules``
        keeps it, an edit through ``rules`` raises, and a config whose
        ``rules`` was read still pickles (sweeps ship configs to
        worker processes)."""
        configs = build_replication_configs(line_state_dc,
                                            _solve(line_state_dc))
        config = next(c for c in configs.values() if c.num_rules)
        table = config.table()
        name, rules = next(iter(config.rules.items()))
        assert config.table() is table
        with pytest.raises(TypeError):
            config.rules[name] = list(rules)
        with pytest.raises(AttributeError):
            rules.append(rules[0])
        assert pickle.loads(pickle.dumps(config)) == config

    def test_tables_of_different_vocabularies_concatenate(self):
        from repro.shim.ranges import HashRange

        left = RuleTable.from_rules("A", {"x": [ShimRule(
            "x", HashRange("k", 0.0, 0.5), ShimAction.REPLICATE,
            target="B")]})
        right = RuleTable.from_rules("B", {"y": [ShimRule(
            "y", HashRange("k2", 0.5, 1.0), ShimAction.PROCESS)]})
        both = RuleTable.concat([left, right])
        assert both.node_names == ("A", "B")
        assert both.class_names == ("x", "y")
        assert [both.node_names[n] for n in both.node.tolist()] == \
            ["A", "B"]
        assert both.target.tolist() == [1, -1]
        assert both.rules() == {**left.rules(), **right.rules()}
        assert ACTIONS[both.action[0]] is ShimAction.REPLICATE


def rule_table_digests(topology):
    """``{"<topology>/<budget>": {"rules": n, "sha256": digest}}`` over
    every installed rule of the datacenter plan at budgets None, 4 and
    1 — what ``tests/golden/rule_tables.json`` pins
    (``tests/regen.py`` rewrites it)."""
    state = setup_topology(topology, dc_capacity_factor=10.0).state
    result = _solve(state)
    digests = {}
    for budget in (None, 4, 1):
        digest = hashlib.sha256()
        rows = 0
        for node, config in build_replication_configs(
                state, result, budget=budget).items():
            table = config.table()
            for cls, start, end, action, target in zip(
                    table.cls.tolist(), table.start.tolist(),
                    table.end.tolist(), table.action.tolist(),
                    table.target.tolist()):
                rows += 1
                digest.update("|".join((
                    node, table.class_names[cls], start.hex(),
                    end.hex(), ACTIONS[action].value,
                    "" if target < 0 else table.node_names[target]
                )).encode() + b"\n")
        digests[f"{topology}/{budget}"] = {
            "rules": rows, "sha256": digest.hexdigest()}
    return digests


GOLDEN_TOPOLOGIES = ("internet2", "geant", "tinet")


class TestRuleTableGolden:
    """sha256 over every installed rule of the evaluation topologies,
    generated at the commit before the builder became a kernel: no
    later change can move a boundary, reorder an install or retarget a
    rule silently."""

    @pytest.mark.parametrize("topology", GOLDEN_TOPOLOGIES)
    def test_tables_hash_to_the_parent_generated_digest(self, topology):
        golden = json.loads(GOLDEN.read_text())
        for key, digest in rule_table_digests(topology).items():
            assert digest == golden[key]
