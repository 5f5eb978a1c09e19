"""The NIPS LP's optimum is pinned against LoadCosts generated at a
parent commit (``tests/golden/nips_load_costs.json``).

internet2, geant and tinet with a 10x datacenter, datacenter reroutes
and ``MaxLinkLoad`` 0.4, at latency budgets 0, 1, 2 and 4 hops. A
change to how the NIPS LP is written (a row that other rows imply
dropped, say) must keep every ``LoadCost`` and keep every link load
non-negative. ``tests/regen.py`` refuses the file: a diff here is a
finding. Regenerate (at a commit whose LoadCosts are trusted) with::

    PYTHONPATH=src:. python tests/test_nips_load_costs.py

The LPs have thousands of columns, so this module is not part of the
dense-backend run.
"""

import functools
import json
import pathlib

import pytest

from repro.core.mirrors import MirrorPolicy
from repro.core.nips import NIPSProblem
from repro.experiments.common import setup_topology

NIPS_LOAD_COSTS = (pathlib.Path(__file__).parent / "golden"
                   / "nips_load_costs.json")
TOPOLOGIES = ("internet2", "geant", "tinet")
LATENCY_BUDGETS = (0.0, 1.0, 2.0, 4.0)


@functools.lru_cache(maxsize=None)
def _state(topology):
    return setup_topology(topology, dc_capacity_factor=10.0).state


def solve(topology, budget):
    return NIPSProblem(_state(topology),
                       mirror_policy=MirrorPolicy.datacenter(),
                       max_link_load=0.4,
                       max_latency_penalty=budget).solve()


def nips_load_costs():
    """``{topology: {budget: LoadCost}}`` over the pinned cases."""
    return {topology: {f"{budget:g}": solve(topology, budget).load_cost
                       for budget in LATENCY_BUDGETS}
            for topology in TOPOLOGIES}


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("budget", LATENCY_BUDGETS)
def test_nips_load_cost_equals_the_parent_generated_one(topology, budget):
    golden = json.loads(NIPS_LOAD_COSTS.read_text())
    assert set(golden) == set(TOPOLOGIES)
    result = solve(topology, budget)
    assert result.load_cost == pytest.approx(
        golden[topology][f"{budget:g}"], abs=1e-9)
    assert min(result.link_loads.values()) >= -1e-9


if __name__ == "__main__":
    NIPS_LOAD_COSTS.write_text(json.dumps(nips_load_costs(), indent=2)
                               + "\n")
    print(f"wrote {NIPS_LOAD_COSTS}")
