"""Golden-file tests: the LP text of every formulation on one small
fixed instance is byte-stable.

Any change to variable ordering, constraint naming, coefficient
formatting, or — most importantly — the formulation itself (an extra
or missing constraint, a reordered term) shows up as a diff against
the checked-in golden files. Regenerate deliberately with::

    PYTHONPATH=src python tests/test_lp_writer_golden.py
"""

import pathlib

import pytest

from repro.core import (AggregationProblem, CombinedProblem,
                        MirrorPolicy, NIPSProblem, ReplicationProblem,
                        SplitTrafficProblem)
from repro.core.controller.sharded import RegionalReplicationProblem
from repro.core.inputs import NetworkState
from repro.lpsolve import lp_string
from repro.topology.routing import shortest_path_routing
from repro.topology.topology import Topology
from repro.traffic.classes import TrafficClass

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "replication_small.lp"
GOLDEN_PAIRED = GOLDEN_DIR / "replication_paired_small.lp"


def _small_instance() -> NetworkState:
    """A fixed three-node triangle with two classes; fully
    deterministic (no randomness anywhere in the construction)."""
    topology = Topology(
        "tri", ["A", "B", "C"],
        [("A", "B"), ("B", "C"), ("A", "C")],
        populations={"A": 2.0, "B": 1.0, "C": 1.0})
    routing = shortest_path_routing(topology)
    classes = [
        TrafficClass(name="A->B", source="A", target="B",
                     path=routing.path("A", "B"),
                     num_sessions=800.0, session_bytes=5_000.0),
        TrafficClass(name="A->C", source="A", target="C",
                     path=routing.path("A", "C"),
                     num_sessions=400.0, session_bytes=5_000.0),
    ]
    return NetworkState.calibrated(topology, classes,
                                   dc_capacity_factor=4.0)


def _paired_instance() -> NetworkState:
    """The triangle with ``B->A`` and ``C->A`` added at a quarter of
    their forward class's volume: each crosses the same nodes with
    the same session size and footprint, so it shares its forward
    class's fraction columns and ``cover`` row."""
    state = _small_instance()
    return state.with_traffic(state.classes + [
        TrafficClass(name=f"{cls.target}->{cls.source}",
                     source=cls.target, target=cls.source,
                     path=state.routing.path(cls.target, cls.source),
                     num_sessions=cls.num_sessions / 4,
                     session_bytes=cls.session_bytes)
        for cls in state.classes])


def _golden_text(state: NetworkState) -> str:
    model = ReplicationProblem(
        state, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.5).build_model()
    return lp_string(model)


# The other formulations on the same instance: golden file stem ->
# problem factory. The regional shares are deliberately non-trivial
# (a shared on-path node, the shared datacenter, one shared tunnel
# link) so the share-aware coefficients and rhs are pinned too.
FORMULATIONS = {
    "replication_nomirror_small": lambda state: ReplicationProblem(
        state, max_link_load=0.5),
    "regional_small": lambda state: RegionalReplicationProblem(
        state, state.bg_bytes,
        mirror_policy=MirrorPolicy.datacenter(), max_link_load=0.5,
        capacity_share={"A": 0.5, "DC": 0.6},
        link_share={("A", "DC"): 0.7}),
    "split_small": lambda state: SplitTrafficProblem(
        state, max_link_load=0.5, gamma=50.0),
    "combined_small": lambda state: CombinedProblem(
        state, beta=2e-5, max_link_load=0.5),
    "aggregation_small": lambda state: AggregationProblem(
        state, beta=2e-5),
    "nips_small": lambda state: NIPSProblem(
        state, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.5, max_latency_penalty=1.5),
}


def _formulation_text(stem: str) -> str:
    problem = FORMULATIONS[stem](_small_instance())
    return lp_string(problem.build_model())


def test_replication_lp_text_is_byte_stable():
    assert GOLDEN.exists(), (
        f"golden file missing: {GOLDEN}; regenerate with "
        f"`PYTHONPATH=src python {__file__}`")
    assert _golden_text(_small_instance()) == GOLDEN.read_text(), (
        "LP text drifted from the golden file — if the formulation "
        "change is intentional, regenerate the golden file")


def test_paired_replication_lp_text_is_byte_stable():
    """Shared columns, one ``cover`` row per group, and coefficients
    summed over a group's members, pinned."""
    assert _golden_text(_paired_instance()) == \
        GOLDEN_PAIRED.read_text(), (
        "LP text drifted from the golden file — if the formulation "
        "change is intentional, regenerate the golden file")


@pytest.mark.parametrize("stem", sorted(FORMULATIONS))
def test_formulation_lp_text_is_byte_stable(stem):
    golden = GOLDEN_DIR / f"{stem}.lp"
    assert golden.exists(), (
        f"golden file missing: {golden}; regenerate with "
        f"`PYTHONPATH=src python {__file__}`")
    assert _formulation_text(stem) == golden.read_text(), (
        f"{stem}: LP text drifted from the golden file — if the "
        "formulation change is intentional, regenerate the golden "
        "file")


def test_golden_instance_still_solves():
    """The pinned instance stays feasible (golden file is not stale
    relative to a solvable model)."""
    state = _small_instance()
    result = ReplicationProblem(
        state, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.5).solve()
    assert result.load_cost > 0.0


def golden_texts():
    """``{golden file: LP text}`` for every file this module pins."""
    texts = {GOLDEN: _golden_text(_small_instance()),
             GOLDEN_PAIRED: _golden_text(_paired_instance())}
    texts.update({GOLDEN_DIR / f"{stem}.lp": _formulation_text(stem)
                  for stem in FORMULATIONS})
    return texts


if __name__ == "__main__":  # regenerate the golden files
    GOLDEN_DIR.mkdir(exist_ok=True)
    for path, text in golden_texts().items():
        path.write_text(text)
        print(f"wrote {path}")
