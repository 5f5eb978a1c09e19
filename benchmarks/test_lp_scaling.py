"""LP build/solve microbenchmarks (repeated-timing companions to
Table 1's one-shot measurements)."""

import json
import pathlib
import time

import pytest

from repro.core import MirrorPolicy, ReplicationProblem
from repro.experiments.common import setup_topology

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="module")
def internet2_state():
    return setup_topology("internet2", dc_capacity_factor=10.0).state


def test_replication_model_build(benchmark, internet2_state):
    def build():
        problem = ReplicationProblem(
            internet2_state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4)
        return problem.build_model()

    model = benchmark(build)
    assert model.num_variables > 0


def test_replication_solve(benchmark, internet2_state):
    def solve():
        return ReplicationProblem(
            internet2_state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=0.4).solve()

    result = benchmark(solve)
    assert result.load_cost < 1.0


def test_resolve_warm_vs_cold():
    """A warm volume step spends at most a quarter of its solver time
    outside the solver.

    Uses the largest evaluation topology (tinet, ~11.5k variables) —
    the instance where the Figure 11 sweep actually spends its time —
    and records the measurements as a JSON artifact so CI can archive
    the trend. Each warm step is split into the seconds the backend
    reports and the rest (patching the compiled LP, unpacking the
    result): a budget step patches right-hand sides only, a volume
    step (Figure 15, controller refresh) re-writes every load and
    link coefficient. The cold build is cheap enough by now that
    warm-vs-cold is mostly HiGHS against HiGHS (the recorded
    ``speedup``, ~1.5x); what this layer can keep small, and what the
    bound is on, is the warm step's own overhead.
    """
    state = setup_topology("tinet", dc_capacity_factor=10.0).state

    def cold_once(limit):
        start = time.perf_counter()
        ReplicationProblem(
            state, mirror_policy=MirrorPolicy.datacenter(),
            max_link_load=limit).solve()
        return time.perf_counter() - start

    problem = ReplicationProblem(
        state, mirror_policy=MirrorPolicy.datacenter(),
        max_link_load=0.4)
    problem.solve()  # prime the compiled structure

    def warm_once(**params):
        start = time.perf_counter()
        result = problem.resolve(**params)
        total = time.perf_counter() - start
        return total, result.stats.solve_seconds

    # Alternate the link budget so every warm step really patches and
    # re-solves; min-of-3 filters scheduler noise.
    limits = (0.3, 0.4, 0.35)
    cold = min(cold_once(limit) for limit in limits)
    warm, warm_solver = min(warm_once(max_link_load=limit)
                            for limit in limits)
    baseline = problem.volumes
    volume, volume_solver = min(
        warm_once(volumes={name: sessions * factor
                           for name, sessions in baseline.items()})
        for factor in (1.1, 0.9, 1.05))
    speedup = cold / warm

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "benchmark": "resolve_warm_vs_cold",
        "topology": "tinet",
        "cold_seconds": cold,
        "warm_seconds": warm,
        "warm_solver_seconds": warm_solver,
        "warm_patch_seconds": warm - warm_solver,
        "warm_volume_seconds": volume,
        "warm_volume_solver_seconds": volume_solver,
        "warm_volume_patch_seconds": volume - volume_solver,
        "speedup": speedup,
    }
    path = RESULTS_DIR / "lp_resolve_speedup.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwarm re-solve speedup: {speedup:.2f}x "
          f"(cold {cold:.3f}s, warm {warm:.3f}s of which "
          f"{warm - warm_solver:.3f}s outside the solver; volume "
          f"re-solve {volume:.3f}s of which "
          f"{volume - volume_solver:.3f}s outside) [saved to {path}]")

    assert volume - volume_solver <= 0.25 * volume_solver, (
        f"a warm volume step spends {volume - volume_solver:.3f}s "
        f"outside a {volume_solver:.3f}s solve")
