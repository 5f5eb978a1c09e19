"""Determinism rules (DET): keep the replay/runtime layers
bit-reproducible.

Scenario fingerprints (sha256 over per-epoch records) and the
scalar-vs-vectorized parity suite both assume that nothing in
``runtime/``, ``simulation/``, ``sketch/`` or ``ingest/`` reads the
wall clock or draws from process-global randomness. ``time.perf_counter``
stays legal — it is the designated clock for timing *metrics*, which
are excluded from fingerprints by construction — and seeded generators
(``np.random.default_rng(seed)``) are the sanctioned randomness
source. The sketch and ingest layers are in scope because sketch
merging is lossless only when every worker hashes with the same
configured seed.

- DET001 — a wall-clock read.
- DET002 — process-global or unseeded randomness.
- DET003 — an RNG construction or seed-ish keyword argument whose
  value does not derive from the scenario seed (see
  :mod:`repro.analysis.dataflow`); hard-coded or ambient seeds break
  the single-root provenance the fingerprint contract assumes.

Same-instant event ordering is checked dynamically, not here:
``repro racecheck`` replays every canned scenario with same-timestamp
events shuffled and requires the fingerprint to stay identical.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.dataflow import is_seed_name, iter_scoped_calls
from repro.analysis.engine import FileContext, Finding, Rule
from repro.analysis.rules.common import ImportMap, path_in_scope

#: modules whose determinism the fingerprint tests depend on
DETERMINISM_SCOPE = ("/runtime/", "/simulation/", "/sketch/", "/ingest/")

#: RNG constructors whose first argument is the seed
_RNG_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
})

#: wall-clock reads that break bit-reproducibility
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.strftime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: numpy legacy global-state RNG entry points
_NUMPY_GLOBAL_RNG = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform",
    "normal", "poisson", "exponential", "seed", "bytes",
})


class WallClockRule(Rule):
    """DET001 — wall-clock reads inside the deterministic layers."""

    rule_id = "DET001"
    title = "wall-clock call in a bit-reproducible module"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not path_in_scope(ctx.posix_path, DETERMINISM_SCOPE):
            return
        imports = ImportMap.from_tree(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = imports.qualify(node.func)
            if qualified in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, node.lineno,
                    f"{qualified}() reads the wall clock; scenario "
                    "fingerprints require simulated time (SimClock) "
                    "or time.perf_counter for timing metrics only")


class UnseededRandomRule(Rule):
    """DET002 — process-global or unseeded randomness in the
    deterministic layers."""

    rule_id = "DET002"
    title = "unseeded randomness in a bit-reproducible module"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not path_in_scope(ctx.posix_path, DETERMINISM_SCOPE):
            return
        imports = ImportMap.from_tree(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = imports.qualify(node.func)
            if qualified is None:
                continue
            finding = self._classify(qualified, node)
            if finding is not None:
                yield self.finding(ctx, node.lineno, finding)

    def _classify(self, qualified: str,
                  node: ast.Call) -> Optional[str]:
        if qualified.startswith("random."):
            tail = qualified.split(".", 1)[1]
            if tail == "Random":
                if not node.args and not node.keywords:
                    return ("random.Random() without a seed draws "
                            "from OS entropy; pass an explicit seed")
                return None
            if tail == "SystemRandom":
                return ("random.SystemRandom is never reproducible; "
                        "use a seeded generator")
            return (f"random.{tail}() uses the process-global RNG; "
                    "use a seeded np.random.default_rng / "
                    "random.Random instead")
        if qualified == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                return ("np.random.default_rng() without a seed is "
                        "non-reproducible; thread an explicit seed "
                        "through the Scenario/config")
            return None
        if qualified == "numpy.random.RandomState":
            if not node.args and not node.keywords:
                return ("np.random.RandomState() without a seed is "
                        "non-reproducible; pass an explicit seed")
            return None
        if qualified.startswith("numpy.random."):
            tail = qualified.rsplit(".", 1)[1]
            if tail in _NUMPY_GLOBAL_RNG:
                return (f"np.random.{tail}() mutates numpy's global "
                        "RNG state; use a seeded "
                        "np.random.default_rng(seed) generator")
        return None


class SeedProvenanceRule(Rule):
    """DET003 — seeds that do not descend from the scenario seed."""

    rule_id = "DET003"
    title = "RNG/sketch seed not derived from the scenario seed"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not path_in_scope(ctx.posix_path, DETERMINISM_SCOPE):
            return
        imports = ImportMap.from_tree(ctx.tree)
        for env, call in iter_scoped_calls(ctx.tree):
            handled = set()
            qualified = imports.qualify(call.func)
            if qualified in _RNG_CONSTRUCTORS:
                seed_expr: Optional[ast.expr] = None
                if call.args:
                    seed_expr = call.args[0]
                else:
                    for keyword in call.keywords:
                        if keyword.arg == "seed":
                            seed_expr = keyword.value
                            handled.add(id(keyword))
                if seed_expr is not None \
                        and not env.rooted(seed_expr):
                    yield self.finding(
                        ctx, call.lineno,
                        f"{qualified}(...) is seeded with a value "
                        "whose provenance does not reach the "
                        "scenario seed; derive it from "
                        "Scenario.seed (or a seed-named parameter/"
                        "attribute) so replays stay single-rooted")
            for keyword in call.keywords:
                if id(keyword) in handled:
                    continue
                if (keyword.arg is None
                        or not is_seed_name(keyword.arg)):
                    continue
                if not env.rooted(keyword.value):
                    yield self.finding(
                        ctx, call.lineno,
                        f"keyword {keyword.arg}= receives a value "
                        "whose provenance does not reach the "
                        "scenario seed; thread the seed from "
                        "Scenario.seed instead of a constant or "
                        "ambient value")
