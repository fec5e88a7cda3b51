"""``threshold-contract``: a filter bound is formed by one function,
``core/similarity.py::filter_threshold``, whose slack keeps it below
every float order the verifier's ``I ≥ τ·U`` can take."""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.lint.framework import Checker, Finding, register

__all__ = ["ThresholdContractChecker"]

_TAUS = ("tau_r", "tau_t")


def _names(node: ast.AST, names) -> bool:
    """Whether ``node`` mentions one of ``names`` (as a name or attribute)."""
    return any(
        getattr(sub, "id", None) in names or getattr(sub, "attr", None) in names
        for sub in ast.walk(node)
    )


@register
class ThresholdContractChecker(Checker):
    name = "threshold-contract"
    description = (
        "no tau_r/tau_t product in the filter-side modules except as an "
        "argument of core/similarity.py::filter_threshold — an inline bound "
        "can round an ulp above the verifier's and drop an answer at sim = τ"
    )
    scope = ("filters/", "signatures/", "baselines/", "extensions/", "index/iomodel.py")

    def check(self, tree: ast.Module, source: str, path: str) -> List[Finding]:
        routed = {
            id(sub)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and _names(call.func, ("filter_threshold",))
            for arg in call.args + [keyword.value for keyword in call.keywords]
            for sub in ast.walk(arg)
        }
        flagged = {}
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "op", None), ast.Mult):
                continue
            operands = (node.target, node.value) if isinstance(node, ast.AugAssign) else (
                node.left, node.right)
            if id(node) not in routed and any(_names(operand, _TAUS) for operand in operands):
                flagged.setdefault(node.lineno, self.finding(
                    path, node,
                    "a tau_r/tau_t product outside filter_threshold can round above "
                    "the verifier's bound and drop an answer at sim = τ",
                ))
        return list(flagged.values())
