"""The compiled replication and NIPS LPs are pinned bit for bit.

One sha256 per model over what the solver is handed: ``c``, the
zero-pruned CSR arrays of ``A_ub`` and ``A_eq`` (what
``scipy_highs._without_zeros`` passes to HiGHS), ``b_ub``, ``b_eq``,
the bounds, and the column and row names. A byte-identical LP makes
HiGHS return the same vertex, so a change to how the LP is *built*
that leaves these digests alone moves no golden, fingerprint or
claim. The models are compiled, not solved.

The digests were generated at a parent commit and are not re-pinned
by ``tests/regen.py`` (it refuses the file): a diff here is a finding.
Regenerate (at a commit whose LPs are trusted) with::

    PYTHONPATH=src:. python tests/test_lp_digests.py
"""

import functools
import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.core.mirrors import MirrorPolicy
from repro.core.nips import NIPSProblem
from repro.core.replication import ReplicationProblem
from repro.experiments.common import setup_topology
from repro.topology.library import builtin_topology_names

DIGESTS = pathlib.Path(__file__).parent / "golden" / "lp_digests.json"

POLICIES = {
    "none": MirrorPolicy.none(),
    "dc": MirrorPolicy.datacenter(),
    "one-hop": MirrorPolicy.neighbors(1),
    "dc+one-hop": MirrorPolicy.datacenter_plus_neighbors(1),
}
NIPS_TOPOLOGIES = ("internet2", "geant")
LATENCY_BUDGETS = (0.0, 1.0, 2.0, 4.0)


def lp_digest(model):
    """sha256 of the compiled LP as the solver gets it."""
    compiled = model._compile()
    digest = hashlib.sha256()

    def add(array, dtype):
        array = np.ascontiguousarray(array, dtype=dtype)
        digest.update(f"{array.shape}".encode())
        digest.update(array.tobytes())

    add(compiled.c, np.float64)
    for matrix, b in ((compiled.a_ub, compiled.b_ub),
                      (compiled.a_eq, compiled.b_eq)):
        if matrix is None:
            digest.update(b"none")
        else:
            pruned = matrix.copy()
            pruned.eliminate_zeros()
            add(pruned.indptr, np.int64)
            add(pruned.indices, np.int64)
            add(pruned.data, np.float64)
        add(b, np.float64)
    add(compiled.bounds, np.float64)
    names = ([var.name for var in model.variables] + ["--"]
             + [con.name for con in compiled.ub_rows] + ["--"]
             + [con.name for con in compiled.eq_rows])
    digest.update("\n".join(names).encode())
    return digest.hexdigest()


def _cases():
    """``(key, problem factory)`` for every pinned model."""
    for name in builtin_topology_names():
        for label, policy in POLICIES.items():
            yield (f"replication/{name}/{label}",
                   lambda state, policy=policy: ReplicationProblem(
                       state, mirror_policy=policy, max_link_load=0.4))
    for name in NIPS_TOPOLOGIES:
        for budget in LATENCY_BUDGETS:
            yield (f"nips/{name}/{budget:g}",
                   lambda state, budget=budget: NIPSProblem(
                       state, mirror_policy=MirrorPolicy.datacenter(),
                       max_link_load=0.4, max_latency_penalty=budget))


CASES = dict(_cases())


@functools.lru_cache(maxsize=None)
def _state(topology):
    return setup_topology(topology, dc_capacity_factor=10.0).state


def case_digest(key):
    topology = key.split("/")[1]
    return lp_digest(CASES[key](_state(topology)).build_model())


@pytest.mark.parametrize("key", list(CASES))
def test_compiled_lp_equals_the_parent_generated_one(key):
    golden = json.loads(DIGESTS.read_text())
    assert set(golden) == set(CASES)
    assert case_digest(key) == golden[key]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {key: case_digest(key) for key in CASES}, indent=2) + "\n")
    print(f"wrote {DIGESTS}")
