"""Every module under ``src/repro/`` is reached from an entry point.

The entry points are the CLI (``repro.cli``, ``repro.__main__``) and
every file under ``benchmarks/``.  The walk reads source only: it
parses each file with :mod:`ast`, resolves absolute and relative
imports (function-level ones too), and counts importing ``a.b.c`` as
reaching the packages ``a`` and ``a.b`` as well.  A module nothing
reaches is dead code: delete it, or give it an entry point.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent
SRC = REPO_ROOT / "src"


def _module_name(path: Path, root: Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path, name: str, known):
    """The modules of ``known`` that ``path`` (module ``name``) imports."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    reached = set()
    for module in found:
        parts = module.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return reached & known


def _unreached(src: Path, entry_modules, entry_files):
    """The modules under ``src`` that no entry point reaches, sorted."""
    modules = {_module_name(path, src): path for path in src.rglob("*.py")}
    known = set(modules)
    frontier = set(entry_modules) & known
    for path, name in entry_files:
        frontier |= _imports(path, name, known)
    reached = set()
    while frontier:
        name = frontier.pop()
        reached.add(name)
        frontier |= _imports(modules[name], name, known) - reached
    return sorted(known - reached)


def test_every_module_is_reached_from_an_entry_point():
    benchmarks = [(path, _module_name(path, REPO_ROOT))
                  for path in (REPO_ROOT / "benchmarks").rglob("*.py")]
    unreached = _unreached(SRC, {"repro.cli", "repro.__main__"}, benchmarks)
    assert not unreached, f"no entry point reaches {unreached}"


# ----------------------------------------------------------------------
# The walk itself, on a small tree: pkg/{__init__,a,b,dead}.py and
# pkg/sub/{__init__,c}.py, with one line of source put into one file.
# ----------------------------------------------------------------------

_TREE = ("pkg/__init__.py", "pkg/a.py", "pkg/b.py", "pkg/dead.py",
         "pkg/sub/__init__.py", "pkg/sub/c.py")


@pytest.mark.parametrize("where, source, reached", [
    ("entry", "import pkg.a", {"pkg", "pkg.a"}),
    ("entry", "from pkg import a", {"pkg", "pkg.a"}),
    ("entry", "from pkg.a import helper", {"pkg", "pkg.a"}),
    ("entry", "import os.path", set()),
    ("entry", "def load():\n    import pkg.b", {"pkg", "pkg.b"}),
    ("pkg/__init__.py", "from . import a", {"pkg", "pkg.a"}),
    ("pkg/__init__.py", "from .sub import c", {"pkg", "pkg.sub", "pkg.sub.c"}),
    ("pkg/b.py", "from .a import helper", {"pkg", "pkg.a", "pkg.b"}),
    ("pkg/sub/c.py", "from ..b import helper", {"pkg", "pkg.b", "pkg.sub", "pkg.sub.c"}),
    ("pkg/sub/c.py", "from .. import dead",
     {"pkg", "pkg.dead", "pkg.sub", "pkg.sub.c"}),
], ids=["import", "from-package", "from-module", "outside-tree", "function-level",
        "relative-in-init", "relative-subpackage", "relative-sibling", "two-levels-up",
        "two-levels-up-bare"])
def test_walk_resolves(tmp_path, where, source, reached):
    src = tmp_path / "src"
    for name in _TREE:
        (src / name).parent.mkdir(parents=True, exist_ok=True)
        (src / name).write_text("", encoding="utf-8")
    # The entry imports the module holding the line, so the walk gets there.
    target = None if where == "entry" else _module_name(src / where, src)
    if target is not None:
        (src / where).write_text(source, encoding="utf-8")
        source = f"import {target}"
    entry = tmp_path / "entry.py"
    entry.write_text(source, encoding="utf-8")
    unreached = _unreached(src, set(), [(entry, "entry")])
    modules = {_module_name(src / name, src) for name in _TREE}
    assert set(unreached) == modules - reached
