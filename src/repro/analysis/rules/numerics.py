"""Numerics rules (NUM): float discipline on solver and hash paths.

NUM001 guards against ``==`` on LP solution values — solver outputs
are floating-point and backend-dependent in their last bits, so exact
comparison is a latent flake (use ``math.isclose`` /
``pytest.approx`` / an explicit tolerance). NUM002 guards the
vectorized hash path: lookup3 is bit-exact only when every array on
the path wraps modulo 2^32, which in numpy means *explicit*
``uint32`` dtypes — an implicit ``int64`` array silently changes
hashes for the top half of the space. NUM003 guards the zero-copy
trace path: ``np.memmap`` / ``np.frombuffer`` reinterpret raw bytes
as whatever dtype they are told — and their *defaults* disagree
(``uint8`` vs ``float64``), so a dtype-less call silently decodes
the trace store's columns as the wrong width.
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from repro.analysis.engine import FileContext, Finding, Rule
from repro.analysis.rules.common import ImportMap, path_in_scope

#: attributes whose values come out of the solver
_SOLUTION_ATTRS = frozenset({"objective_value", "solve_seconds"})
#: methods whose return values come out of the solver
_SOLUTION_METHODS = frozenset({"value"})
#: comparison wrappers that make float comparison legitimate
_TOLERANT_CALLS = frozenset({"approx", "isclose", "allclose"})

#: modules where implicit numpy dtypes can corrupt hash values
HASH_PATH_SCOPE = ("/shim/",)

#: numpy array constructors that must pin a dtype on the hash path
_ARRAY_CTORS = frozenset({
    "numpy.array", "numpy.asarray", "numpy.zeros", "numpy.ones",
    "numpy.empty", "numpy.full", "numpy.arange",
})

#: modules where raw-byte reinterpretation feeds the replay engines
TRACE_PATH_SCOPE = ("/simulation/",)

#: byte-reinterpreting constructors that must pin a dtype on the
#: trace path (their defaults disagree: uint8 vs float64)
_RAW_BYTE_CTORS = frozenset({"numpy.memmap", "numpy.frombuffer"})


def _is_solution_value(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _SOLUTION_ATTRS
    if isinstance(node, ast.Call) and isinstance(node.func,
                                                 ast.Attribute):
        return node.func.attr in _SOLUTION_METHODS
    return False


def _is_tolerant(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else "")
    return name in _TOLERANT_CALLS


class FloatEqualityRule(Rule):
    """NUM001 — exact ``==`` / ``!=`` on LP solution values."""

    rule_id = "NUM001"
    title = "float equality on an LP solution value"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq))
                       for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(_is_tolerant(operand) for operand in operands):
                continue
            if any(_is_solution_value(operand)
                   for operand in operands):
                yield self.finding(
                    ctx, node.lineno,
                    "exact ==/!= on a solver output (objective_value "
                    "/ .value()); solver floats differ "
                    "across backends in their last bits — compare "
                    "with a tolerance (math.isclose, pytest.approx)")


class HashDtypeRule(Rule):
    """NUM002 — numpy arrays built without an explicit dtype on the
    uint32 hash path."""

    rule_id = "NUM002"
    title = "hash-path numpy array without explicit dtype"

    def __init__(self, scope: Sequence[str] = HASH_PATH_SCOPE) -> None:
        self.scope = tuple(scope)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not path_in_scope(ctx.posix_path, self.scope):
            return
        imports = ImportMap.from_tree(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = imports.qualify(node.func)
            if qualified not in _ARRAY_CTORS:
                continue
            has_dtype = any(kw.arg == "dtype" for kw in node.keywords)
            if not has_dtype:
                ctor = qualified.rsplit(".", 1)[1]
                yield self.finding(
                    ctx, node.lineno,
                    f"np.{ctor}(...) without dtype= on the hash "
                    "path; lookup3 is bit-exact only under "
                    "disciplined uint32 (or an explicitly chosen) "
                    "dtype — implicit int64 silently changes hashes")


class MemmapDtypeRule(Rule):
    """NUM003 — ``np.memmap`` / ``np.frombuffer`` without an explicit
    dtype on the zero-copy trace path."""

    rule_id = "NUM003"
    title = "trace-path byte reinterpretation without explicit dtype"

    def __init__(self,
                 scope: Sequence[str] = TRACE_PATH_SCOPE) -> None:
        self.scope = tuple(scope)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not path_in_scope(ctx.posix_path, self.scope):
            return
        imports = ImportMap.from_tree(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = imports.qualify(node.func)
            if qualified not in _RAW_BYTE_CTORS:
                continue
            has_dtype = any(kw.arg == "dtype" for kw in node.keywords)
            if not has_dtype:
                ctor = qualified.rsplit(".", 1)[1]
                yield self.finding(
                    ctx, node.lineno,
                    f"np.{ctor}(...) without dtype= on the trace "
                    "path; it reinterprets raw bytes and the "
                    "defaults disagree (memmap=uint8, "
                    "frombuffer=float64) — a dtype-less call decodes "
                    "trace-store columns at the wrong width")
