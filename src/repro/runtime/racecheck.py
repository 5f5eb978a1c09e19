"""Schedule-perturbation determinism verification (``repro racecheck``).

The runtime's bit-reproducibility rests on two legs: every random
draw descends from ``Scenario.seed``, and same-timestamp events fire
in insertion (``seq``) order. The second leg is fragile — it holds
only as long as no observable depends on *which* same-instant event
fires first. This module stress-tests that contract dynamically: it
replays a scenario once on the standard :class:`~repro.runtime.events.EventLoop`
and then under N :class:`~repro.runtime.events.PerturbedEventLoop`
seeds, each of which shuffles same-instant events into a different
legal order, and asserts every run produces the identical
:meth:`~repro.runtime.scenario.ScenarioReport.fingerprint`.

A divergence means some event handler communicates through ordering —
two handlers writing the same module state at one instant, two sites
scheduling at the same timestamp, a sequence-consumed RNG, a
last-writer-wins config install. This is the repo's only check for
ordering races; there is no static counterpart. The CI
``racecheck-smoke`` job runs all canned scenarios under 8
perturbation seeds and publishes the JSON report as an artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs import get_registry
from repro.runtime.events import EventLoop, PerturbedEventLoop
from repro.runtime.scenario import (
    CANNED_SCENARIOS,
    Scenario,
    run_scenario,
)

#: perturbation seeds are derived from this stride so scenario seeds
#: and perturbation seeds never collide by construction
PERTURB_SEED_STRIDE = 7741


def perturbation_seeds(count: int, base: int = 0) -> List[int]:
    """``count`` distinct perturbation seeds starting at ``base``."""
    if count < 1:
        raise ValueError("need at least one perturbation seed")
    return [base + i * PERTURB_SEED_STRIDE + 1 for i in range(count)]


@dataclass
class ScenarioRacecheck:
    """Fingerprint invariance evidence for one scenario."""

    name: str
    topology: str
    epochs: int
    scenario_seed: int
    baseline_fingerprint: str
    perturbed_fingerprints: Dict[int, str] = field(default_factory=dict)

    @property
    def divergent_seeds(self) -> List[int]:
        """Perturbation seeds whose run diverged from the baseline."""
        return sorted(
            seed for seed, fingerprint
            in self.perturbed_fingerprints.items()
            if fingerprint != self.baseline_fingerprint)

    @property
    def invariant(self) -> bool:
        """True when every perturbed replay reproduced the baseline."""
        return not self.divergent_seeds

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "topology": self.topology,
            "epochs": self.epochs,
            "scenario_seed": self.scenario_seed,
            "baseline_fingerprint": self.baseline_fingerprint,
            "perturbed_fingerprints": {
                str(seed): fingerprint for seed, fingerprint
                in sorted(self.perturbed_fingerprints.items())},
            "divergent_seeds": self.divergent_seeds,
            "invariant": self.invariant,
        }


@dataclass
class RacecheckReport:
    """The full verifier outcome across scenarios."""

    seeds: List[int]
    scenarios: List[ScenarioRacecheck]

    @property
    def all_invariant(self) -> bool:
        return all(s.invariant for s in self.scenarios)

    def to_dict(self) -> Dict:
        return {
            "schema": 1,
            "perturbation_seeds": list(self.seeds),
            "scenarios": [s.to_dict() for s in self.scenarios],
            "all_invariant": self.all_invariant,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent,
                          sort_keys=True)


def racecheck_scenario(scenario: Scenario,
                       seeds: Sequence[int],
                       progress: Optional[Callable[[str], None]] = None
                       ) -> ScenarioRacecheck:
    """Replay one scenario under every perturbation seed.

    The baseline run uses the standard seq-tie-break loop; each
    perturbed run swaps in a :class:`PerturbedEventLoop` whose
    same-instant ordering is shuffled by ``seed``. All runs share the
    scenario's own seed, so any fingerprint difference is attributable
    purely to event ordering.
    """
    metrics = get_registry()

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    note(f"{scenario.name}: baseline replay")
    baseline = run_scenario(scenario, loop_factory=EventLoop)
    result = ScenarioRacecheck(
        name=scenario.name,
        topology=scenario.topology,
        epochs=scenario.epochs,
        scenario_seed=scenario.seed,
        baseline_fingerprint=baseline.fingerprint())
    for seed in seeds:
        note(f"{scenario.name}: perturbation seed {seed}")

        def make_loop(perturb_seed: int = seed) -> EventLoop:
            return PerturbedEventLoop(perturb_seed)

        report = run_scenario(scenario, loop_factory=make_loop)
        result.perturbed_fingerprints[seed] = report.fingerprint()
        metrics.inc("racecheck.replays")
    if not result.invariant:
        metrics.inc("racecheck.divergences",
                    len(result.divergent_seeds))
    return result


def racecheck_canned(names: Optional[Sequence[str]] = None,
                     seeds: int = 8,
                     seed_base: int = 0,
                     epochs: Optional[int] = None,
                     topology: Optional[str] = None,
                     progress: Optional[Callable[[str], None]] = None
                     ) -> RacecheckReport:
    """Run the verifier over the canned scenario library.

    Args:
        names: scenario names (default: every canned scenario).
        seeds: how many perturbation seeds to replay under.
        seed_base: offset for the derived perturbation seeds.
        epochs: optional epoch-count override (smoke runs).
        topology: optional topology override, forwarded to each
            scenario factory.
        progress: optional per-replay progress callback.
    """
    chosen = sorted(CANNED_SCENARIOS) if names is None else list(names)
    unknown = [name for name in chosen
               if name not in CANNED_SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {unknown}; "
            f"choose from {sorted(CANNED_SCENARIOS)}")
    seed_list = perturbation_seeds(seeds, seed_base)
    results = []
    for name in chosen:
        kwargs: Dict = {}
        if topology is not None:
            kwargs["topology"] = topology
        if epochs is not None:
            kwargs["epochs"] = epochs
        scenario = CANNED_SCENARIOS[name](**kwargs)
        results.append(racecheck_scenario(scenario, seed_list,
                                          progress=progress))
    return RacecheckReport(seeds=seed_list, scenarios=results)
