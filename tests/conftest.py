"""Shared fixtures: small hand-analyzable networks and traffic."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.inputs import NetworkState
from repro.lpsolve import set_default_backend
from repro.topology.routing import shortest_path_routing
from repro.topology.topology import Topology
from repro.traffic.classes import TrafficClass

GOLDEN = pathlib.Path(__file__).parent / "golden"


def is_wall_clock(key: str) -> bool:
    """A gap document's timing fields: never pinned, never compared."""
    return key.endswith("_wall_seconds") or key == "speedup"


def _same_document(current, golden, where: str) -> None:
    if isinstance(golden, dict):
        timed = {key for key in current if is_wall_clock(key)}
        assert set(current) - timed == set(golden), where
        for key, value in golden.items():
            _same_document(current[key], value, f"{where}.{key}")
    elif isinstance(golden, list):
        assert len(current) == len(golden), where
        for index, value in enumerate(golden):
            _same_document(current[index], value, f"{where}[{index}]")
    elif isinstance(golden, float):
        assert current == pytest.approx(golden, abs=1e-6), where
    else:
        assert current == golden, where


@pytest.fixture(scope="session")
def assert_matches_golden():
    """Compare a gap experiment's JSON document to
    ``tests/golden/<name>`` (generated at the commit before the three
    gap modules became one): key for key, floats to 1e-6, wall-clock
    fields (``*_wall_seconds``, ``speedup``) ignored."""
    def check(document: str, name: str) -> None:
        _same_document(json.loads(document),
                       json.loads((GOLDEN / name).read_text()), "$")
    return check


@pytest.fixture
def use_backend():
    """``set_default_backend`` for one test: every solve in it uses the
    named backend; the process default is restored afterwards."""
    yield set_default_backend
    set_default_backend(None)


@pytest.fixture
def line_topology() -> Topology:
    """A -- B -- C -- D chain (paths are unique and obvious)."""
    return Topology(
        "line", ["A", "B", "C", "D"],
        [("A", "B"), ("B", "C"), ("C", "D")],
        populations={"A": 4.0, "B": 1.0, "C": 1.0, "D": 2.0})


@pytest.fixture
def diamond_topology() -> Topology:
    """A diamond: A-B-D and A-C-D, plus B-C. Multiple shortest paths."""
    return Topology(
        "diamond", ["A", "B", "C", "D"],
        [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"), ("B", "C")],
        populations={"A": 2.0, "B": 1.0, "C": 1.0, "D": 2.0})


@pytest.fixture
def line_classes(line_topology) -> list:
    """Two classes on the chain: A->D (full path) and B->C."""
    routing = shortest_path_routing(line_topology)
    return [
        TrafficClass(name="A->D", source="A", target="D",
                     path=routing.path("A", "D"),
                     num_sessions=1000.0, session_bytes=10_000.0),
        TrafficClass(name="B->C", source="B", target="C",
                     path=routing.path("B", "C"),
                     num_sessions=500.0, session_bytes=10_000.0),
    ]


@pytest.fixture
def line_state(line_topology, line_classes) -> NetworkState:
    """Calibrated state without a datacenter."""
    return NetworkState.calibrated(line_topology, line_classes)


@pytest.fixture
def line_state_dc(line_topology, line_classes) -> NetworkState:
    """Calibrated state with a 10x datacenter."""
    return NetworkState.calibrated(line_topology, line_classes,
                                   dc_capacity_factor=10.0)
