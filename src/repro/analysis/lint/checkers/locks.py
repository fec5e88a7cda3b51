"""``lock-order``: a lockdep-style static analyzer for the service core.

Builds, per class, a lock-acquisition graph from ``with self._lock``-style
contexts (including ``with self._lock.reading()`` / ``.writing()`` on the
service's RW lock) propagated through the intraprocedural ``self.method()``
call graph, then fails on:

* **re-acquisition** — taking a lock already held on the same path (the
  locks here are non-reentrant ``threading.Lock``s: instant deadlock);
* **cycles** — two paths acquiring the same pair of locks in opposite
  orders (classic ABBA deadlock);
* **checkpoint ordering** — acquiring a checkpoint mutex while holding
  any other lock.  The canonical order, established by
  ``QueryService.checkpoint()``, is checkpoint mutex *first*, RW lock
  second; the reverse order deadlocks against it.

Attributes count as locks when their name contains ``lock`` or ``mutex``
(``_lock``, ``_checkpoint_lock``, ``_metrics_lock``...).  The analysis is
per-class and per-file — lock attribute names are instance-scoped, so
same-named locks on different classes never alias.  Nested ``def``s and
lambdas are skipped: they run on other threads or later, outside the
lexical held-set.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.lint.framework import Checker, Finding, register

__all__ = ["LockOrderChecker"]

_LOCK_HINTS = ("lock", "mutex")

_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def _lock_name(expr: ast.expr) -> Optional[str]:
    """The lock attribute acquired by a with-item, or ``None``.

    Matches ``self.X`` and ``self.X.method()`` (``.reading()``,
    ``.writing()``, ``.acquire_timeout()``...) where ``X`` looks like a
    lock attribute.
    """
    node: ast.expr = expr
    if isinstance(node, ast.Call):
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        node = func.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        name = node.attr.lower()
        if any(hint in name for hint in _LOCK_HINTS):
            return node.attr
    return None


def _self_call_name(node: ast.expr) -> Optional[str]:
    """``m`` when ``node`` is a ``self.m(...)`` call."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
    ):
        return node.func.attr
    return None


class _MethodFacts:
    """Direct acquisitions and self-calls of one method (pass 1)."""

    def __init__(self) -> None:
        self.acquires: Set[str] = set()
        self.calls: Set[str] = set()

    @classmethod
    def scan(cls, fn: ast.AST) -> "_MethodFacts":
        facts = cls()

        def visit(node: ast.AST, top: bool) -> None:
            if not top and isinstance(node, _FuncDef + (ast.Lambda,)):
                return  # closures run outside this method's held-set
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    lock = _lock_name(item.context_expr)
                    if lock is not None:
                        facts.acquires.add(lock)
            called = _self_call_name(node)
            if called is not None:
                facts.calls.add(called)
            for child in ast.iter_child_nodes(node):
                visit(child, False)

        visit(fn, True)
        return facts


@register
class LockOrderChecker(Checker):
    """Cycles and ordering violations in the static lock graph."""

    name = "lock-order"
    description = (
        "static lock-acquisition graph over with-self-lock contexts and the "
        "intraprocedural call graph: re-acquisition, ABBA cycles, and "
        "taking a checkpoint mutex while holding another lock"
    )
    scope = (
        "src/repro/service/",
        "src/repro/exec/planner.py",
        "src/repro/io/wal.py",
    )

    def check(self, tree: ast.Module, source: str, path: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(node, path))
        return findings

    # ------------------------------------------------------------------

    def _check_class(self, cls: ast.ClassDef, path: str) -> List[Finding]:
        methods = {
            stmt.name: stmt for stmt in cls.body if isinstance(stmt, _FuncDef)
        }
        facts = {name: _MethodFacts.scan(fn) for name, fn in methods.items()}

        # Transitive lock footprint per method (fixpoint over self-calls).
        trans: Dict[str, Set[str]] = {m: set(f.acquires) for m, f in facts.items()}
        changed = True
        while changed:
            changed = False
            for name, fact in facts.items():
                for callee in fact.calls:
                    callee_locks = trans.get(callee)
                    if callee_locks and not callee_locks <= trans[name]:
                        trans[name] |= callee_locks
                        changed = True

        findings: List[Finding] = []
        # outer lock -> inner lock -> (method, line) of first observation
        edges: Dict[str, Dict[str, Tuple[str, int]]] = {}

        def acquire(
            held: FrozenSet[str], inner: Set[str], method: str, line: int
        ) -> None:
            for new in inner:
                if new in held:
                    findings.append(
                        self.finding(
                            path,
                            line,
                            f"{cls.name}.{method} re-acquires {new!r} while "
                            "already holding it (non-reentrant lock: deadlock)",
                        )
                    )
                    continue
                for outer in held:
                    edges.setdefault(outer, {}).setdefault(new, (method, line))

        def walk(node: ast.AST, held: FrozenSet[str], method: str, top: bool) -> None:
            if not top and isinstance(node, _FuncDef + (ast.Lambda,)):
                return
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner_held = held
                for item in node.items:
                    line = item.context_expr.lineno
                    lock = _lock_name(item.context_expr)
                    if lock is not None:
                        acquire(inner_held, {lock}, method, line)
                        inner_held = inner_held | {lock}
                    else:
                        called = _self_call_name(item.context_expr)
                        if called is not None and trans.get(called):
                            acquire(inner_held, trans[called], method, line)
                            inner_held = inner_held | frozenset(trans[called])
                for stmt in node.body:
                    walk(stmt, inner_held, method, False)
                return
            called = _self_call_name(node)
            if called is not None and held and trans.get(called):
                acquire(held, trans[called], method, node.lineno)
            for child in ast.iter_child_nodes(node):
                walk(child, held, method, False)

        for name, fn in methods.items():
            walk(fn, frozenset(), name, True)

        findings.extend(self._ordering_findings(cls.name, path, edges))
        findings.extend(self._cycle_findings(cls.name, path, edges))
        return findings

    # ------------------------------------------------------------------

    def _ordering_findings(
        self, class_name: str, path: str, edges: Dict[str, Dict[str, Tuple[str, int]]]
    ) -> List[Finding]:
        findings = []
        for outer, inners in edges.items():
            for inner, (method, line) in inners.items():
                if "checkpoint" in inner.lower() and "checkpoint" not in outer.lower():
                    findings.append(
                        self.finding(
                            path,
                            line,
                            f"{class_name}.{method} acquires checkpoint mutex "
                            f"{inner!r} while holding {outer!r}; the canonical "
                            "order (QueryService.checkpoint) takes the "
                            "checkpoint mutex first",
                        )
                    )
        return findings

    def _cycle_findings(
        self, class_name: str, path: str, edges: Dict[str, Dict[str, Tuple[str, int]]]
    ) -> List[Finding]:
        findings: List[Finding] = []
        reported: Set[FrozenSet[str]] = set()

        def dfs(node: str, stack: List[str], on_stack: Set[str]) -> None:
            for inner in sorted(edges.get(node, ())):
                if inner in on_stack:
                    cycle = stack[stack.index(inner):] + [inner]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        method, line = edges[node][inner]
                        order = " -> ".join(cycle)
                        findings.append(
                            self.finding(
                                path,
                                line,
                                f"lock-order cycle in {class_name}: {order} "
                                f"(closing edge observed in {method}); two "
                                "threads taking these in opposite orders "
                                "deadlock",
                            )
                        )
                    continue
                dfs(inner, stack + [inner], on_stack | {inner})

        for start in sorted(edges):
            dfs(start, [start], {start})
        return findings
