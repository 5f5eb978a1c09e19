"""Every table of the paper's evaluation, regenerated and checked
against what the paper claims of it: one case per entry of
:data:`repro.experiments.registry.EXPERIMENTS`. The claims see the
committed table as it was before the run rewrote it. Quick scale by
default; ``REPRO_SCALE=full`` runs the paper's parameterisations.
"""

import pathlib

import pytest

from repro.experiments.registry import EXPERIMENTS, ExperimentRuns

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="module")
def runs():
    return ExperimentRuns()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_paper_claims(name, runs):
    experiment = EXPERIMENTS[name]
    path = RESULTS_DIR / experiment.results
    recorded = path.read_text() if path.exists() else ""
    rows = runs[experiment.run]
    table = experiment.format(rows)
    path.write_text(table + "\n")
    print(f"\n{table}\n[saved to {path}]")
    failed = experiment.failed_claims(rows, recorded)
    assert not failed, f"{name} no longer bears out: " + "; ".join(failed)
