"""``no-pickle``: serialization of live handles stays in the snapshot module.

``DurableSegmentedSealSearch`` and the other live-handle types (open WAL
file descriptors, mmap views, locks) refuse pickling for a reason — a
pickled handle resurrects pointing at nothing.  The one sanctioned
pickle boundary is ``io/snapshot.py``, which snapshots *data*, strips
the handles, and owns the format-version negotiation.  Everywhere else
in ``src/``, importing or using ``pickle`` is a red flag.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.lint.framework import Checker, Finding, register

__all__ = ["NoPickleChecker"]

_PICKLE_MODULES = ("pickle", "cPickle", "dill", "cloudpickle", "shelve")


@register
class NoPickleChecker(Checker):
    """Pickle imports/usage outside ``io/snapshot.py``."""

    name = "no-pickle"
    description = (
        "pickle (import or attribute use) is forbidden outside io/snapshot.py "
        "— live engine handles don't survive it, and snapshot format "
        "negotiation lives in exactly one module"
    )
    scope = ("src/repro/",)
    exclude = ("io/snapshot.py",)

    def check(self, tree: ast.Module, source: str, path: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in _PICKLE_MODULES:
                        findings.append(
                            self.finding(
                                path,
                                node,
                                f"import {alias.name}: serialization of engine "
                                "state belongs in io/snapshot.py",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] in _PICKLE_MODULES:
                    findings.append(
                        self.finding(
                            path,
                            node,
                            f"from {node.module} import ...: serialization of "
                            "engine state belongs in io/snapshot.py",
                        )
                    )
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in _PICKLE_MODULES
            ):
                findings.append(
                    self.finding(
                        path,
                        node,
                        f"{node.value.id}.{node.attr} outside io/snapshot.py: "
                        "live handles (DurableSegmentedSealSearch, services) "
                        "are not picklable; go through save_engine/load_engine",
                    )
                )
        return findings
