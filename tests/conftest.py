"""Shared fixtures: small hand-analyzable networks and traffic."""

from __future__ import annotations

import os
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.core.inputs import NetworkState
from repro.lpsolve import set_default_backend
from repro.simulation import emulation
from repro.topology.routing import shortest_path_routing
from repro.topology.topology import Topology
from repro.traffic.classes import TrafficClass


@pytest.fixture
def use_backend():
    """``set_default_backend`` for one test: every solve in it uses the
    named backend; the process default is restored afterwards."""
    yield set_default_backend
    set_default_backend(None)


@pytest.fixture(scope="session")
def replay_workers():
    """``with replay_workers(n, chunk_packets):`` a signature replay of
    any size sees ``n`` CPUs and forks into up to ``n`` processes, and
    ``run_signature(fast=True)`` streams ``chunk_packets``-packet
    chunks. Session-scoped (it patches only inside the block), so
    hypothesis properties can use it."""
    @contextmanager
    def force(workers: int, chunk_packets: int = 8):
        with mock.patch.object(emulation, "MIN_PACKETS_PER_WORKER", 1), \
                mock.patch.object(emulation, "REPLAY_CHUNK_PACKETS",
                                  chunk_packets), \
                mock.patch.object(os, "sched_getaffinity",
                                  lambda pid: set(range(workers))):
            yield
    return force


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
