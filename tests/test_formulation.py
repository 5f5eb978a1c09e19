"""Formulation-layer behavior: idempotent builds, named parameters,
compile-cache metrics, and the structure-change fallback."""

import re
from dataclasses import fields, replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.aggregation import AggregationProblem
from repro.core.controller.sharded import RegionalReplicationProblem
from repro.core.formulation import Formulation
from repro.core.mirrors import MirrorPolicy
from repro.core.replication import ReplicationProblem
from repro.lpsolve import lp_string
from repro.obs import MetricsRegistry, use_registry
from repro.traffic.classes import TrafficClass
from tests.test_lp_writer_golden import (FORMULATIONS, _paired_instance,
                                          _small_instance)


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

    @pytest.mark.parametrize("change", [
        dict(name="renamed"),
        dict(source="B", path=("B", "C", "D")),
        dict(target="C"),
        dict(path=("A", "B", "D")),
        dict(session_bytes=123.0),
        dict(footprints={"cpu": 2.0}),
        dict(record_bytes=99.0),
        dict(rev_path=("D", "C", "A")),
    ], ids=lambda change: "+".join(change))
    def test_each_structural_field_blocks_the_warm_path(
            self, line_state_dc, change):
        problem = _replication(line_state_dc)
        current = list(line_state_dc.classes)
        assert set(change) <= {f.name for f in fields(current[0])}
        flipped = [replace(current[0], **change)] + current[1:]
        assert not problem._traffic_compatible(flipped)
        assert not problem._traffic_compatible(current[:-1])
        # Volumes alone — on the same objects, on copies, or with equal
        # but distinct field values — stay warm.
        assert problem._traffic_compatible(current)
        assert problem._traffic_compatible(
            [replace(cls, num_sessions=cls.num_sessions * 3.0,
                     path=tuple(list(cls.path)),
                     footprints=dict(cls.footprints))
             for cls in current])

    def test_every_field_but_the_volume_is_structural(self):
        from repro.core.inputs import _STRUCTURAL_FIELDS
        from repro.traffic.classes import TrafficClass

        assert set(_STRUCTURAL_FIELDS) == {
            f.name for f in fields(TrafficClass)} - {"num_sessions"}

    def test_formulation_is_shared_base(self, line_state_dc):
        assert isinstance(_replication(line_state_dc), Formulation)
        assert isinstance(AggregationProblem(line_state_dc),
                          Formulation)


# NIPS rebuilds on every resolve; the other five patch in place.
RESOLVABLE = sorted(set(FORMULATIONS) - {"nips_small"})

volume = st.one_of(st.just(0.0), st.floats(min_value=1.0,
                                           max_value=5000.0))
fraction = st.floats(min_value=0.0, max_value=1.0)
share = st.floats(min_value=0.05, max_value=1.0)


def _drawn_params(problem, volumes, max_link_load, weight, shares):
    """The drawn values under whichever names ``problem`` declares."""
    drawn = {
        "volumes": dict(zip(problem.volumes, volumes)),
        "max_link_load": max_link_load,
        "beta": weight * 1e-4, "gamma": weight * 100.0,
        "capacity_share": {"A": shares[0], "DC": shares[1]},
        "link_share": {("A", "DC"): shares[2]},
    }
    return {name: drawn[name] for name in problem.param_names}


def _comparable(model):
    """``.lp`` text and compiled ``(c, A_ub, b_ub, A_eq, b_eq)`` minus
    vacuous rows. A row whose every coefficient is zero right now
    (all its classes drawn at zero volume) constrains nothing: a cold
    build drops it in ``Model.add_constraint``, a warm model keeps it
    as ``0 <= headroom`` so it stays patchable."""
    text = [line for line in lp_string(model).splitlines()
            if not re.match(r" \S+: 0 (<=|>=|=) ", line)]
    compiled = model.compiled
    arrays = [compiled.c]
    for matrix, rhs in ((compiled.a_ub, compiled.b_ub),
                        (compiled.a_eq, compiled.b_eq)):
        if matrix is not None:
            dense = matrix.toarray()
            keep = dense.any(axis=1)
            arrays += [dense[keep], rhs[keep]]
    return text, arrays


def _names(problem):
    return {con.name for con in problem.build_model().constraints}


class TestWarmEqualsCold:
    """Build and patch read one coefficient table, so a model patched
    to some parameters *is* the model built from them."""

    @pytest.mark.parametrize("stem", RESOLVABLE)
    @settings(max_examples=20, deadline=None)
    @given(volumes=st.tuples(volume, volume), max_link_load=fraction,
           weight=fraction, shares=st.tuples(share, share, share))
    def test_patched_model_is_the_rebuilt_model(
            self, stem, volumes, max_link_load, weight, shares):
        factory = FORMULATIONS[stem]
        warm = factory(_small_instance())
        warm.solve()
        params = _drawn_params(warm, volumes, max_link_load, weight,
                               shares)
        with use_registry(MetricsRegistry()) as reg:
            patched = warm.resolve(**params)
        assert reg.counter_value("lp.resolve.fallbacks") == 0
        assert reg.counter_value("lp.compile_cache.misses") == 0

        cold = factory(_small_instance())
        rebuilt = cold.resolve(**params)  # never built: a cold build

        warm_text, warm_arrays = _comparable(warm.build_model())
        cold_text, cold_arrays = _comparable(cold.build_model())
        assert warm_text == cold_text
        for ours, theirs in zip(warm_arrays, cold_arrays):
            assert np.array_equal(ours, theirs)
        assert patched.load_cost == pytest.approx(rebuilt.load_cost,
                                                  abs=1e-9)

    @pytest.mark.parametrize(
        "factory", [_replication, FORMULATIONS["regional_small"]],
        ids=["replication", "regional"])
    @settings(max_examples=20, deadline=None)
    @given(forward=st.floats(0.25, 0.75), reverse=st.floats(1.5, 4.0),
           silent=st.sampled_from(["A->B", "B->A", "A->C", "C->A"]))
    def test_members_of_a_pair_drift_apart(self, factory, forward,
                                           reverse, silent):
        """Two classes on one set of columns are still two volumes:
        pairs whose members scale by different factors — one class to
        zero — are patched exactly as they are built."""
        warm = factory(_paired_instance())
        warm.solve()
        volumes = {
            name: sessions * (0.0 if name == silent else
                              forward if name.startswith("A") else
                              reverse)
            for name, sessions in warm.volumes.items()}
        with use_registry(MetricsRegistry()) as reg:
            patched = warm.resolve(volumes=volumes)
        assert reg.counter_value("lp.resolve.fallbacks") == 0
        assert reg.counter_value("lp.compile_cache.misses") == 0

        cold = factory(_paired_instance())
        rebuilt = cold.resolve(volumes=volumes)  # never built: cold

        assert warm.build_model().num_variables == 1 + 6
        warm_text, warm_arrays = _comparable(warm.build_model())
        cold_text, cold_arrays = _comparable(cold.build_model())
        assert warm_text == cold_text
        for ours, theirs in zip(warm_arrays, cold_arrays):
            assert np.array_equal(ours, theirs)
        assert patched.load_cost == pytest.approx(rebuilt.load_cost,
                                                  abs=1e-9)

    @pytest.mark.parametrize("factory", [
        _replication,
        lambda state: RegionalReplicationProblem(
            state, state.bg_bytes,
            mirror_policy=MirrorPolicy.datacenter(),
            link_share={("B", "C"): 0.5, ("B", "DC"): 0.7}),
    ], ids=["replication", "regional"])
    def test_an_idle_link_stays_warm_until_a_class_loads_it(
            self, factory, line_state_dc):
        """``C->D`` alone tunnels over ``B - C``; built at zero
        sessions, that link has no row, and so no rhs to patch: a
        refresh that leaves the class idle is a patch, the one that
        wakes it is the one fallback."""
        state = line_state_dc.with_traffic(line_state_dc.classes + [
            TrafficClass("C->D", "C", "D", ("C", "D"), 0.0,
                         session_bytes=10_000.0)])
        warm = factory(state)
        warm.solve()
        assert "linkload[B,C]" not in _names(warm)
        volumes = {"A->D": 700.0, "B->C": 900.0, "C->D": 0.0}
        for woken, fallbacks in ((0.0, 0), (300.0, 1)):
            volumes["C->D"] = woken
            with use_registry(MetricsRegistry()) as reg:
                patched = warm.resolve(volumes=volumes)
            assert reg.counter_value("lp.resolve.fallbacks") == \
                fallbacks
            cold = factory(state)
            rebuilt = cold.resolve(volumes=volumes)  # never built
            assert lp_string(warm.build_model()) == \
                lp_string(cold.build_model())
            assert patched.load_cost == pytest.approx(
                rebuilt.load_cost, abs=1e-9)
        assert "linkload[B,C]" in _names(warm)

