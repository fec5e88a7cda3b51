"""``replay-determinism``: WAL replay and replication apply must be pure.

Recovery replays the log from scratch; a replica replays the *shipped*
log.  Both must land bit-identical engines, so the replay paths in
``exec/durable.py`` and ``service/replication.py`` may not consult wall
clocks, entropy sources, or iterate sets in hash order (set iteration
order varies across processes with ``PYTHONHASHSEED``) — the primary and
a replica would silently diverge.

``hash-ordered-sum``: the same divergence through arithmetic.  A float
sum over a set's iteration order differs across processes in the last
ulp, which is enough to flip an answer sitting exactly on ``τT``; the
similarity code sums exactly (``math.fsum``) or in the global token
order instead.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.analysis.lint.framework import Checker, Finding, register

__all__ = ["HashOrderedSumChecker", "ReplayDeterminismChecker"]

#: ``module.attr`` calls that read clocks or entropy.
_NONDETERMINISTIC_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("os", "urandom"),
    ("os", "getrandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
}

#: Any attribute on these modules is an entropy source.
_NONDETERMINISTIC_MODULES = ("random", "secrets")


def _dotted(func: ast.expr) -> Optional[Tuple[str, str]]:
    """``(root, attr)`` for a ``root.attr`` or ``pkg.root.attr`` call."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Attribute):  # datetime.datetime.now
        value = value.value if isinstance(value.value, ast.Name) else value
        root = value.id if isinstance(value, ast.Name) else None
        if root is None:
            return None
        return (root, func.attr)
    if isinstance(value, ast.Name):
        return (value.id, func.attr)
    return None


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


#: ``a & b``, ``a | b``, ``a - b``, ``a ^ b``: on sets, a new set.
_SET_OPERATORS = (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)


def _is_set_operation(node: ast.expr) -> bool:
    return _is_set_expr(node) or (
        isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPERATORS)
    )


@register
class ReplayDeterminismChecker(Checker):
    """Clocks, entropy, and hash-ordered iteration in replay paths."""

    name = "replay-determinism"
    description = (
        "no time.time/random/os.urandom and no hash-ordered set iteration in "
        "the WAL-replay (exec/durable.py) and replication-apply "
        "(service/replication.py) paths — primary and replica would diverge"
    )
    scope = ("exec/durable.py", "service/replication.py")

    def check(self, tree: ast.Module, source: str, path: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is None:
                    continue
                root, attr = dotted
                if dotted in _NONDETERMINISTIC_CALLS:
                    findings.append(
                        self.finding(
                            path,
                            node,
                            f"{root}.{attr}() in a replay/apply module: replayed "
                            "state must not depend on the wall clock",
                        )
                    )
                elif root in _NONDETERMINISTIC_MODULES:
                    findings.append(
                        self.finding(
                            path,
                            node,
                            f"{root}.{attr}() is an entropy source; replay must "
                            "be deterministic",
                        )
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(node.iter):
                findings.append(
                    self.finding(
                        path,
                        node,
                        "iterating a set directly is hash-ordered (varies with "
                        "PYTHONHASHSEED); iterate sorted(...) so replay order "
                        "is deterministic",
                    )
                )
        return findings


def _counts(node: ast.expr) -> bool:
    """An increment that is an integer, whose sum no order changes: an
    int literal or a ``len(...)``."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len"


def _binds_set(node: ast.expr) -> bool:
    """A value that makes the name bound to it a set: a set expression or
    a ``.tokens`` attribute (every object's and query's token set)."""
    return _is_set_operation(node) or (isinstance(node, ast.Attribute) and node.attr == "tokens")


@register
class HashOrderedSumChecker(Checker):
    """Float sums in a set's hash order in the similarity arithmetic."""

    name = "hash-ordered-sum"
    description = (
        "no sum(...) over a comprehension, and no float += in a for loop, "
        "that iterates a set: a set expression (set()/frozenset(), a set "
        "literal or comprehension, a & | - ^ b), a .tokens attribute, or a "
        "name the function bound to either, in the similarity paths — float addition "
        "is not associative, so the total, and an answer at simT = τ, "
        "would move with PYTHONHASHSEED"
    )
    scope = ("core/", "text/", "signatures/", "filters/", "exec/", "baselines/")

    def check(self, tree: ast.Module, source: str, path: str) -> List[Finding]:
        findings: List[Finding] = []
        functions = [tree] + [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for function in functions:
            findings.extend(self._check_scope(function, path))
        return findings

    def _check_scope(self, scope: ast.AST, path: str) -> List[Finding]:
        """The findings in ``scope``'s own statements, in source order
        (nested functions are scopes of their own): ``sets`` holds the
        names bound to a set so far."""
        findings: List[Finding] = []
        sets: set = set()

        def hashed(node: ast.expr) -> bool:
            return _binds_set(node) or (isinstance(node, ast.Name) and node.id in sets)

        for node in _own_nodes(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    (sets.add if _binds_set(node.value) else sets.discard)(target.id)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
                and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
                and any(hashed(loop.iter) for loop in node.args[0].generators)
            ):
                findings.append(self.finding(
                    path, node,
                    "sum() over a set iterates in hash order (varies with "
                    "PYTHONHASHSEED) and float sums depend on order; use "
                    "math.fsum, or sum in the weighter's global token order",
                ))
            elif isinstance(node, (ast.For, ast.AsyncFor)) and hashed(node.iter):
                for inner in (n for statement in node.body for n in ast.walk(statement)):
                    if (
                        isinstance(inner, ast.AugAssign)
                        and isinstance(inner.op, ast.Add)
                        and not _counts(inner.value)
                    ):
                        findings.append(self.finding(
                            path, inner,
                            "+= in a loop over a set accumulates in hash order "
                            "(varies with PYTHONHASHSEED) and float sums depend "
                            "on order; loop in the weighter's global token order",
                        ))
        return findings


def _own_nodes(scope: ast.AST):
    """``scope``'s nodes in source order, without descending into the
    functions defined in it."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _own_nodes(child)
