"""The seed-taint layer (:mod:`repro.analysis.dataflow`) under DET003.

Seed-provenance rooting: which names, attributes and subscripts count
as seed plumbing, how taint flows through assignment chains and into
closures, and that every call is visited once.
"""

from __future__ import annotations

import ast

import pytest

from repro.analysis.dataflow import (
    SeedTaint,
    is_seed_name,
    iter_scoped_calls,
    scope_env,
)


class TestSeedTaint:
    def _env(self, source, func="f"):
        tree = ast.parse(source)
        scope = next(n for n in ast.walk(tree)
                     if isinstance(n, ast.FunctionDef)
                     and n.name == func)
        return scope_env(scope, frozenset())

    def _expr(self, text):
        return ast.parse(text, mode="eval").body

    @pytest.mark.parametrize("name,expected", [
        ("seed", True), ("rng", True), ("hash_seed", True),
        ("seeds", True), ("rng_pool", True), ("seedling", False),
        ("arranged", False), ("width", False),
    ])
    def test_seed_name_convention(self, name, expected):
        assert is_seed_name(name) is expected

    def test_constant_is_never_rooted(self):
        env = SeedTaint(frozenset())
        assert not env.rooted(self._expr("1234"))

    def test_seedish_attribute_is_rooted(self):
        env = SeedTaint(frozenset())
        assert env.rooted(self._expr("scenario.seed"))
        assert env.rooted(self._expr("scenario.seed * 7919 + 1"))

    def test_string_key_subscript_is_rooted(self):
        env = SeedTaint(frozenset())
        assert env.rooted(self._expr("manifest['hash_seed']"))
        assert not env.rooted(self._expr("manifest['width']"))

    def test_assignment_chain_taints_local(self):
        env = self._env(
            "def f(scenario):\n"
            "    derived = scenario.seed + 3\n"
            "    doubled = derived * 2\n"
            "    return doubled\n")
        assert env.rooted(self._expr("doubled"))

    def test_untainted_local_is_not_rooted(self):
        env = self._env(
            "def f(scenario):\n"
            "    width = 64\n"
            "    return width\n")
        assert not env.rooted(self._expr("width"))

    def test_closure_inherits_enclosing_taint(self):
        tree = ast.parse(
            "def outer(scenario):\n"
            "    derived = scenario.seed + 1\n"
            "    def inner():\n"
            "        return default_rng(derived)\n"
            "    return inner\n")
        rooted_calls = [
            env.rooted(call.args[0])
            for env, call in iter_scoped_calls(tree)
            if getattr(call.func, "id", None) == "default_rng"]
        assert rooted_calls == [True]

    def test_each_call_yielded_exactly_once(self):
        # Calls inside loop/if bodies must not be visited twice.
        tree = ast.parse(
            "def f(items):\n"
            "    for item in items:\n"
            "        if item:\n"
            "            probe(item)\n")
        calls = [call for _, call in iter_scoped_calls(tree)
                 if getattr(call.func, "id", None) == "probe"]
        assert len(calls) == 1
