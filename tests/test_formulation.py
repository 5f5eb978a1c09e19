"""Formulation-layer behavior: idempotent builds, named parameters,
compile-cache metrics, and the structure-change fallback."""

from dataclasses import replace

import pytest

from repro.core.aggregation import AggregationProblem
from repro.core.formulation import Formulation
from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.obs import MetricsRegistry, use_registry


def _replication(state, **kwargs):
    kwargs.setdefault("mirror_policy", MirrorPolicy.datacenter())
    return ReplicationProblem(state, **kwargs)


class TestBuildIdempotence:
    def test_build_model_returns_same_model(self, line_state_dc):
        problem = _replication(line_state_dc)
        first = problem.build_model()
        second = problem.build_model()
        assert first is second

    def test_rebuild_after_invalidate_has_no_suffixed_names(
            self, line_state_dc):
        # Rebuilding must not hit the model's duplicate-name
        # deduplication ("p[...]#1"): each build starts clean.
        problem = _replication(line_state_dc)
        problem.build_model()
        problem.invalidate()
        model = problem.build_model()
        names = [var.name for var in model.variables]
        assert not any("#" in name for name in names)
        assert len(names) == len(set(names))

    def test_repeated_solves_are_stable(self, line_state_dc):
        problem = _replication(line_state_dc)
        first = problem.solve()
        second = problem.solve()
        assert second.load_cost == pytest.approx(first.load_cost,
                                                 abs=1e-12)


class TestParameters:
    def test_param_names_cover_declared_knobs(self, line_state_dc):
        problem = _replication(line_state_dc)
        assert set(problem.param_names) == {"max_link_load", "volumes"}
        agg = AggregationProblem(line_state_dc)
        assert set(agg.param_names) == {"beta", "volumes"}

    def test_volumes_reflect_state(self, line_state_dc):
        problem = _replication(line_state_dc)
        expected = {cls.name: cls.num_sessions
                    for cls in line_state_dc.classes}
        assert problem.volumes == expected

    def test_resolve_rejects_unknown_param(self, line_state_dc):
        problem = _replication(line_state_dc)
        with pytest.raises(ValueError, match="unknown parameter"):
            problem.resolve(gamma=1.0)

    def test_max_link_load_validated(self, line_state_dc):
        problem = _replication(line_state_dc)
        with pytest.raises(ValueError):
            problem.resolve(max_link_load=-0.1)
        with pytest.raises(ValueError):
            problem.resolve(max_link_load=1.5)

    def test_beta_validated(self, line_state_dc):
        problem = AggregationProblem(line_state_dc)
        with pytest.raises(ValueError):
            problem.resolve(beta=-1.0)

    def test_volumes_require_exact_class_coverage(self, line_state_dc):
        problem = _replication(line_state_dc)
        with pytest.raises(ValueError):
            problem.resolve(volumes={"A->D": 1000.0})  # missing B->C
        with pytest.raises(ValueError):
            problem.resolve(volumes={"A->D": 1000.0, "B->C": 500.0,
                                     "ghost": 1.0})
        with pytest.raises(ValueError):
            problem.resolve(volumes={"A->D": -1.0, "B->C": 500.0})


class TestCompileCacheMetrics:
    def test_cold_then_warm_counters(self, line_state_dc):
        with use_registry(MetricsRegistry()) as reg:
            problem = _replication(line_state_dc)
            problem.solve()
            assert reg.counter_value("lp.compile_cache.misses") == 1
            assert reg.counter_value("lp.compile_cache.hits") == 0

            problem.resolve(max_link_load=0.2)
            assert reg.counter_value("lp.compile_cache.misses") == 1
            assert reg.counter_value("lp.compile_cache.hits") == 1
            assert reg.counter_value("lp.resolves") == 1
            assert reg.histogram("lp.resolve.seconds") is not None

    def test_structure_change_recompiles(self, line_state_dc):
        with use_registry(MetricsRegistry()) as reg:
            problem = _replication(line_state_dc)
            problem.solve()
            problem.invalidate()
            problem.solve()
            assert reg.counter_value("lp.compile_cache.misses") == 2

    def test_build_span_recorded(self, line_state_dc):
        with use_registry(MetricsRegistry()) as reg:
            _replication(line_state_dc).solve()
            assert reg.histogram("lp.build.seconds") is not None
            assert reg.histogram("lp.solve.seconds") is not None


class TestStructureFallback:
    def test_volume_zero_to_nonzero_matches_cold(self, line_state_dc):
        # A zero-volume class still owns its (zero) compiled
        # coefficients — volume is a parameter, not structure — so
        # raising it back up is a warm patch with a cold solve's bits.
        zeroed = [replace(cls, num_sessions=0.0)
                  if cls.name == "B->C" else cls
                  for cls in line_state_dc.classes]
        restored = {cls.name: cls.num_sessions
                    for cls in line_state_dc.classes}
        with use_registry(MetricsRegistry()) as reg:
            problem = _replication(line_state_dc.with_traffic(zeroed))
            problem.solve()
            warm = problem.resolve(volumes=restored)
        assert reg.counter_value("lp.compile_cache.hits") == 1
        assert reg.counter_value("lp.resolve.fallbacks") == 0
        cold = _replication(line_state_dc).solve()
        assert warm.load_cost == cold.load_cost
        assert warm.process_fractions == cold.process_fractions
        assert warm.offload_fractions == cold.offload_fractions

    def test_unregistered_row_falls_back_and_is_counted(
            self, line_state_dc):
        # With every volume zero the link rows have no non-zero term,
        # so add_constraint drops them; patching volumes back in names
        # rows the compiled model never had. The fallback rebuilds —
        # visibly.
        silent = [replace(cls, num_sessions=0.0)
                  for cls in line_state_dc.classes]
        restored = {cls.name: cls.num_sessions
                    for cls in line_state_dc.classes}
        with use_registry(MetricsRegistry()) as reg:
            problem = _replication(line_state_dc.with_traffic(silent))
            problem.solve()
            warm = problem.resolve(volumes=restored)
        assert reg.counter_value("lp.resolve.fallbacks") == 1
        assert reg.counter_value("lp.compile_cache.misses") == 2
        cold = _replication(line_state_dc).solve()
        assert warm.load_cost == cold.load_cost

    def test_incompatible_traffic_rebuilds(self, line_state_dc,
                                           line_topology):
        # Changing anything but num_sessions (here: session bytes)
        # is not volume-patchable; resolve_traffic must rebuild.
        heavier = [replace(cls, session_bytes=cls.session_bytes * 2)
                   for cls in line_state_dc.classes]
        problem = _replication(line_state_dc)
        problem.solve()
        warm = problem.resolve_traffic(heavier)
        cold = _replication(
            line_state_dc.with_traffic(heavier)).solve()
        assert warm.load_cost == pytest.approx(cold.load_cost,
                                               abs=1e-9)

    def test_formulation_is_shared_base(self, line_state_dc):
        assert isinstance(_replication(line_state_dc), Formulation)
        assert isinstance(AggregationProblem(line_state_dc),
                          Formulation)
