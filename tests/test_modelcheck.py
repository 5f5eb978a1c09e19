"""Model verification: LP structure, shim tables, sharded tables.

The hypothesis section is the acceptance property: every LP the four
paper problems (Replication / Split / Aggregation / Combined)
generate on the tinet evaluation topology — cold-built or warm
re-solved at drawn parameters — must pass ``check_model`` with zero
findings, and its solution its ``core.validation`` validator. The
unit sections construct each defect the checker exists for and assert
the right rule fires; the last section keeps the rule catalog of
``docs/static-analysis.md`` equal to the ids the checker emits.
"""

from __future__ import annotations

import ast
import pathlib

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.analysis.modelcheck import (
    ModelCheckError,
    check_model,
    check_shard_capacity,
    check_sharded_configs,
    check_shim_configs,
    precheck,
)
from repro.core.aggregation import AggregationProblem
from repro.core.combined import CombinedProblem
from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.core.split import SplitTrafficProblem
from repro.core.validation import (
    validate_aggregation,
    validate_replication,
    validate_split,
)
from repro.experiments.common import setup_topology
from repro.lpsolve.model import Model
from repro.shim.config import (
    ShimAction,
    ShimConfig,
    ShimRule,
    build_aggregation_configs,
    build_replication_configs,
    build_split_configs,
)
from repro.shim.ranges import HashRange


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


# -- LP structure (MDL) ---------------------------------------------------

class TestCheckModel:
    def test_clean_model_has_no_findings(self):
        m = Model("clean")
        x = m.add_variable("x", ub=1.0)
        y = m.add_variable("y", ub=1.0)
        m.add_constraint(x + y <= 1.0, name="cap")
        m.minimize(x + 2 * y)
        assert check_model(m) == []

    def test_dangling_variable(self):
        m = Model("dangling")
        x = m.add_variable("x", ub=1.0)
        m.add_variable("orphan", ub=1.0)
        m.add_constraint(x <= 1.0)
        m.minimize(x)
        findings = check_model(m)
        assert rule_ids(findings) == ["MDL001"]
        assert "orphan" in findings[0].message

    def test_duplicate_rows_collide_across_senses(self):
        # x >= 1 and -x <= -1 are the same half-space; the GE row is
        # canonicalized into LE form so they collide.
        m = Model("dup")
        x = m.add_variable("x", ub=2.0)
        m.add_constraint(x >= 1.0, name="stated_ge")
        m.add_constraint(-x <= -1.0, name="stated_le")
        m.minimize(x)
        findings = check_model(m)
        assert rule_ids(findings) == ["MDL002"]
        assert "stated_le" in findings[0].message

    def test_zeroed_row_reported_as_degenerate(self):
        # Simulates a bad patch that zeroed a row's coefficients.
        m = Model("zeroed")
        x = m.add_variable("x", ub=1.0)
        con = m.add_constraint(x <= 1.0, name="was_cap")
        m.minimize(x)
        con.expr.coeffs[x] = 0.0
        findings = check_model(m)
        assert "MDL003" in rule_ids(findings)

    def test_contradictory_bounds(self):
        m = Model("bounds")
        x = m.add_variable("x", ub=1.0)
        m.add_constraint(x <= 1.0)
        m.minimize(x)
        x.lb = 2.0  # simulate a bad in-place patch
        findings = check_model(m)
        assert rule_ids(findings) == ["MDL004"]

    def test_cover_row_with_non_unit_coefficient(self):
        m = Model("cover")
        p = m.add_variable("p", ub=1.0)
        o = m.add_variable("o", ub=1.0)
        m.add_constraint(2 * p + o == 1.0, name="cover[web]")
        m.minimize(p + o)
        findings = check_model(m)
        assert rule_ids(findings) == ["MDL005"]
        assert "non-unit" in findings[0].message

    def test_cover_row_with_wrong_rhs(self):
        m = Model("cover-rhs")
        p = m.add_variable("p", ub=1.0)
        o = m.add_variable("o", ub=1.0)
        m.add_constraint(p + o == 2.0, name="cover[web]")
        m.minimize(p + o)
        findings = check_model(m)
        assert rule_ids(findings) == ["MDL005"]
        assert "instead of 1" in findings[0].message

    def test_relaxed_cover_row_at_most_one_is_legal(self):
        m = Model("cover-le")
        p = m.add_variable("p", ub=1.0)
        o = m.add_variable("o", ub=1.0)
        m.add_constraint(p + o <= 1.0, name="cover[web]")
        m.minimize(p + o)
        assert check_model(m) == []


class TestPrecheck:
    def test_clean_model_passes(self):
        m = Model("ok")
        x = m.add_variable("x", ub=1.0)
        m.add_constraint(x <= 1.0)
        m.minimize(x)
        precheck(m)  # must not raise

    def test_bad_model_raises_with_findings(self):
        m = Model("bad")
        x = m.add_variable("x", ub=1.0)
        m.add_variable("orphan", ub=1.0)
        m.add_constraint(x <= 1.0)
        m.minimize(x)
        with pytest.raises(ModelCheckError) as excinfo:
            precheck(m)
        assert excinfo.value.findings
        assert "MDL001" in str(excinfo.value)

    def test_env_guard_wires_precheck_into_solve(self, monkeypatch,
                                                 line_state):
        monkeypatch.setenv("REPRO_VERIFY_MODELS", "1")
        problem = ReplicationProblem(line_state)
        result = problem.solve()  # guard active, clean model passes
        assert result.process_fractions


# -- shim range tables (SHIM) ---------------------------------------------

def _config(node, rules):
    return ShimConfig(node=node, rules={"web": rules})


def _process(start, end, direction="both"):
    return ShimRule("web", HashRange(("p",), start, end),
                    ShimAction.PROCESS, direction=direction)


class TestCheckShimConfigs:
    def test_full_tiling_is_clean(self):
        configs = {
            "A": _config("A", [_process(0.0, 0.6)]),
            "B": _config("B", [_process(0.6, 1.0)]),
        }
        assert check_shim_configs(configs) == []

    def test_overlap_within_one_node_is_caught(self):
        # Acceptance check: an overlapping range table must not
        # compile silently.
        configs = {
            "A": _config("A", [_process(0.0, 0.6),
                               _process(0.5, 1.0)]),
        }
        findings = check_shim_configs(configs)
        assert "SHIM001" in rule_ids(findings)

    def test_cross_node_double_coverage_is_caught(self):
        configs = {
            "A": _config("A", [_process(0.0, 0.6)]),
            "B": _config("B", [_process(0.5, 1.0)]),
        }
        findings = check_shim_configs(configs)
        assert rule_ids(findings) == ["SHIM002"]
        assert "analyzed twice" in findings[0].message

    def test_coverage_gap_is_caught(self):
        configs = {
            "A": _config("A", [_process(0.0, 0.4)]),
            "B": _config("B", [_process(0.6, 1.0)]),
        }
        findings = check_shim_configs(configs)
        assert rule_ids(findings) == ["SHIM002"]
        assert "gap" in findings[0].message

    def test_uncovered_tail_is_caught(self):
        configs = {"A": _config("A", [_process(0.0, 0.8)])}
        findings = check_shim_configs(configs)
        assert rule_ids(findings) == ["SHIM002"]
        assert "tail" in findings[0].message

    def test_partial_coverage_allowed_when_requested(self):
        configs = {"A": _config("A", [_process(0.0, 0.8)])}
        assert check_shim_configs(
            configs, require_full_coverage=False) == []

    def test_gap_of_a_few_hash_units_is_caught(self):
        """The walk is exact: ten unowned units are a gap."""
        configs = {
            "A": _config("A", [_process(0.0, 0.5)]),
            "B": _config("B", [_process(0.5 + 10 / 2 ** 32, 1.0)]),
        }
        findings = check_shim_configs(configs)
        assert rule_ids(findings) == ["SHIM002"]
        assert all("[2147483648, 2147483658)" in f.message
                   for f in findings)

    def test_class_without_process_owner_is_caught(self):
        """A class whose every rule replicates is analyzed on no path
        node: both directions' whole space is unowned."""
        configs = {"A": _config("A", [ShimRule(
            "web", HashRange(("o",), 0.0, 1.0), ShimAction.REPLICATE,
            target="B")])}
        findings = check_shim_configs(configs)
        assert rule_ids(findings) == ["SHIM002"]
        assert len(findings) == 2
        assert all("tail" in f.message for f in findings)

    def test_directions_are_disjoint_buckets(self):
        # fwd and rev ranges may overlap each other: different packets.
        configs = {
            "A": _config("A", [_process(0.0, 0.7, "fwd"),
                               _process(0.0, 0.7, "rev")]),
            "B": _config("B", [_process(0.7, 1.0, "fwd"),
                               _process(0.7, 1.0, "rev")]),
        }
        assert check_shim_configs(configs) == []


# -- sharded control plane (SHRD) -----------------------------------------

def _cls_rule(cls_name, start, end, direction="both"):
    return ShimRule(cls_name, HashRange(("p",), start, end),
                    ShimAction.PROCESS, direction=direction)


def _cls_config(node, cls_name, rules):
    return ShimConfig(node=node, rules={cls_name: rules})


class TestCheckShardedConfigs:
    def test_disjoint_regions_fully_tiled_are_clean(self):
        regional = {
            "region-0": {"A": _cls_config("A", "web",
                                          [_cls_rule("web", 0.0, 0.5)]),
                         "B": _cls_config("B", "web",
                                          [_cls_rule("web", 0.5, 1.0)])},
            "region-1": {"C": _cls_config("C", "dns",
                                          [_cls_rule("dns", 0.0, 1.0)])},
        }
        assert check_sharded_configs(regional, ["web", "dns"]) == []

    def test_multi_region_class_ownership_is_caught(self):
        regional = {
            "region-0": {"A": _cls_config("A", "web",
                                          [_cls_rule("web", 0.0, 0.5)])},
            "region-1": {"C": _cls_config("C", "web",
                                          [_cls_rule("web", 0.5, 1.0)])},
        }
        findings = check_sharded_configs(regional, ["web"])
        assert "SHRD001" in rule_ids(findings)
        assert any("2 regions" in f.message for f in findings)

    def test_cross_region_overlap_is_caught(self):
        regional = {
            "region-0": {"A": _cls_config("A", "web",
                                          [_cls_rule("web", 0.0, 0.6)])},
            "region-1": {"C": _cls_config("C", "web",
                                          [_cls_rule("web", 0.5, 1.0)])},
        }
        findings = check_sharded_configs(regional, ["web"])
        assert any("claim the same hash units" in f.message
                   for f in findings)

    def test_union_gap_is_caught(self):
        regional = {
            "region-0": {"A": _cls_config("A", "web",
                                          [_cls_rule("web", 0.0, 0.4),
                                           _cls_rule("web", 0.6, 1.0)])},
        }
        findings = check_sharded_configs(regional, ["web"])
        assert rule_ids(findings) == ["SHRD001"]
        assert any("analyzed nowhere" in f.message for f in findings)

    def test_uncovered_tail_is_caught(self):
        regional = {
            "region-0": {"A": _cls_config("A", "web",
                                          [_cls_rule("web", 0.0, 0.8)])},
        }
        findings = check_sharded_configs(regional, ["web"])
        assert any("tail" in f.message for f in findings)

    def test_vanished_class_is_caught(self):
        """A class no region configures — the failover bug SHRD001
        exists to catch — is reported for both directions."""
        regional = {
            "region-0": {"A": _cls_config("A", "web",
                                          [_cls_rule("web", 0.0, 1.0)])},
        }
        findings = check_sharded_configs(regional, ["web", "dns"])
        assert len(findings) == 2
        assert all("dns" in f.message for f in findings)


class TestCheckShardCapacity:
    CAPS = {"dc": 100.0, "X": 10.0}

    def test_exact_split_is_clean(self):
        allocations = {"region-0": {"dc": 60.0},
                       "region-1": {"dc": 40.0}}
        assert check_shard_capacity(self.CAPS, allocations) == []

    def test_oversubscription_is_caught(self):
        allocations = {"region-0": {"dc": 80.0},
                       "region-1": {"dc": 40.0}}
        findings = check_shard_capacity(self.CAPS, allocations)
        assert rule_ids(findings) == ["SHRD002"]
        assert "dc" in findings[0].message

    def test_unknown_node_is_caught(self):
        findings = check_shard_capacity(
            self.CAPS, {"region-0": {"ghost": 5.0}})
        assert rule_ids(findings) == ["SHRD002"]
        assert "unknown node" in findings[0].message

    def test_negative_allocation_is_caught(self):
        findings = check_shard_capacity(
            self.CAPS, {"region-0": {"X": -1.0}})
        assert rule_ids(findings) == ["SHRD002"]
        assert "negative" in findings[0].message


# -- the acceptance property on tinet -------------------------------------

_TINET = {}


def _tinet_problems():
    """Build (once) the four paper problems on tinet."""
    if not _TINET:
        dc = setup_topology("tinet", dc_capacity_factor=10.0)
        plain = setup_topology("tinet")
        _TINET["dc_state"] = dc.state
        _TINET["plain_state"] = plain.state
        _TINET["replication"] = ReplicationProblem(
            dc.state, mirror_policy=MirrorPolicy.datacenter())
        _TINET["split"] = SplitTrafficProblem(dc.state)
        _TINET["aggregation"] = AggregationProblem(plain.state)
        _TINET["combined"] = CombinedProblem(dc.state)
    return _TINET


@pytest.mark.slow
class TestPaperProblemsOnTinet:
    @settings(max_examples=8, deadline=None)
    @given(kind=st.sampled_from(["replication", "split",
                                 "aggregation", "combined"]),
           knob=st.floats(min_value=0.3, max_value=0.9))
    def test_generated_lps_pass_modelcheck(self, kind, knob):
        problems = _tinet_problems()
        problem = problems[kind]
        if kind in ("replication", "split"):
            result = problem.resolve(max_link_load=knob)
        elif kind == "aggregation":
            result = problem.resolve(beta=knob)
        else:
            result = problem.resolve(beta=knob, max_link_load=knob)
        assert check_model(problem.build_model()) == []
        state = problems["plain_state" if kind == "aggregation"
                         else "dc_state"]
        validate = {"replication": validate_replication,
                    "split": validate_split}.get(kind, validate_aggregation)
        assert validate(state, result) == []

    def test_compiled_configs_pass_shim_checks(self):
        problems = _tinet_problems()
        rep = problems["replication"].resolve(max_link_load=0.4)
        configs = build_replication_configs(problems["dc_state"], rep)
        assert check_shim_configs(configs) == []

        agg = problems["aggregation"].resolve(beta=0.5)
        configs = build_aggregation_configs(problems["plain_state"],
                                            agg)
        assert check_shim_configs(configs) == []

        # Split deliberately leaves hash space uncovered (missed
        # sessions are the objective); only overlap rules apply.
        spl = problems["split"].resolve(max_link_load=0.4)
        configs = build_split_configs(problems["dc_state"], spl)
        assert check_shim_configs(
            configs, require_full_coverage=False) == []


# -- the rule catalog -----------------------------------------------------

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_catalog_lists_exactly_the_emitted_rules():
    """Every id ``modelcheck`` passes to ``_finding`` has a row in the
    model-check table of docs/static-analysis.md, and every row names
    an id it still emits."""
    tree = ast.parse(
        (_ROOT / "src/repro/analysis/modelcheck.py").read_text())
    emitted = {
        node.args[0].value for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_finding"
        and isinstance(node.args[0], ast.Constant)}
    doc = (_ROOT / "docs/static-analysis.md").read_text()
    table = doc.split("### Model checks", 1)[1].split("\n\n")[1]
    rows = [line.split("|")[1].strip()
            for line in table.splitlines()[2:]]
    assert sorted(emitted) == sorted(rows)
