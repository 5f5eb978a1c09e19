"""End-to-end integration scenarios on the real Internet2 topology.

Each test exercises the full pipeline the paper deploys: traffic ->
calibration -> LP -> shim configs -> trace emulation -> detection,
cross-validating the LP predictions against emulated behavior.
"""

import numpy as np
import pytest

from repro.core import (
    MirrorPolicy,
    NetworkState,
    ReplicationProblem,
    SplitTrafficProblem,
    validate_replication,
    validate_split,
)
from repro.experiments.common import asymmetric_classes, setup_topology
from repro.shim import build_replication_configs, build_split_configs
from repro.simulation import Emulation, TraceGenerator
from repro.simulation.tracegen import TraceSpec
from repro.topology import AsymmetricRoutingModel


@pytest.fixture(scope="module")
def internet2_dc():
    setup = setup_topology("internet2", dc_capacity_factor=10.0)
    return setup


class TestReplicationPipeline:
    def test_lp_to_emulation(self, internet2_dc):
        state = internet2_dc.state
        result = ReplicationProblem(
            state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4).solve()
        assert validate_replication(state, result) == []

        configs = build_replication_configs(state, result)
        generator = TraceGenerator(
            state.topology.nodes, state.classes,
            spec=TraceSpec(total_sessions=2500), seed=21)
        sessions = generator.generate(with_payloads=True)
        emulation = Emulation(state, configs, generator.classifier)
        report = emulation.run_signature(sessions)

        # Every session analyzed somewhere, exactly once.
        assert sum(report.sessions_processed.values()) == len(sessions)
        # Replication happened and traversed the DC anchor link.
        assert report.replicated_bytes > 0
        # Emulated link bytes stay under the LP's link budget.
        for link, volume in report.link_replicated_bytes.items():
            lp_extra = (result.link_loads[link] -
                        state.bg_load(link))
            if lp_extra <= 1e-9:
                continue
            emulated_extra = volume / (
                sum(s.total_bytes for s in sessions))
            # Same order of magnitude as LP fraction of bytes.
            lp_fraction = lp_extra * state.link_capacity[link] / sum(
                cls.total_bytes for cls in state.classes)
            assert emulated_extra == pytest.approx(lp_fraction,
                                                   abs=0.1)

class TestSplitPipeline:
    def test_asymmetric_lp_vs_emulation(self, internet2_dc):
        setup = setup_topology("internet2")
        model = AsymmetricRoutingModel(setup.topology, setup.routing)
        classes = asymmetric_classes(setup, model, 0.2,
                                     np.random.default_rng(3))
        state = NetworkState.calibrated(setup.topology, classes,
                                        dc_capacity_factor=10.0)
        lp = SplitTrafficProblem(state, max_link_load=0.4).solve()
        assert validate_split(state, lp) == []

        configs = build_split_configs(state, lp)
        generator = TraceGenerator(
            state.topology.nodes, classes,
            spec=TraceSpec(total_sessions=2000), seed=23)
        sessions = generator.generate(with_payloads=False)
        emulation = Emulation(state, configs, generator.classifier)
        report = emulation.run_stateful(sessions)
        assert report.miss_rate == pytest.approx(lp.miss_rate,
                                                 abs=0.05)
