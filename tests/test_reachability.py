"""Every module under ``src/repro/`` is reached from an entry point, and
every function and class in it is referenced from code that ships.

The entry points are the CLI (``repro.cli``, ``repro.__main__``) and
every file under ``benchmarks/``.  The walk reads source only: it
parses each file with :mod:`ast`, resolves absolute and relative
imports (function-level ones too), and counts importing ``a.b.c`` as
reaching the packages ``a`` and ``a.b`` as well.  A module nothing
reaches is dead code: delete it, or give it an entry point.

A live module can still hold a dead function, so the second guard goes
by name: every ``def`` and ``class`` under ``src/repro/`` must be
referenced outside its own definition — by a name, an attribute, an
import or an identifier string in ``src/``, ``benchmarks/`` or
``examples/``, or in a code span of ``README.md`` (documented API).
Tests do not count: code only a test calls is dead to every user.
Dunders are exempt (the interpreter calls them).
"""

from __future__ import annotations

import ast
import re
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


def _references(tree: ast.AST):
    """``(name, line)`` of every name, attribute, import and identifier
    string in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def _unreferenced(package: Path, roots, readme: str):
    """``(path, name)`` of each def and class under ``package`` that no
    file under ``roots`` references outside the definition itself and
    no code span of ``readme`` names, sorted."""
    where = {}
    definitions = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name, line in _references(tree):
                where.setdefault(name, []).append((path, line))
            if path.is_relative_to(package):
                definitions += [
                    (path, node) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                ]
    documented = {
        name
        for span in re.findall(r"```.*?```|`[^`]*`", readme, re.DOTALL)
        for name in re.findall(r"[A-Za-z_]\w*", span)
    }
    unreferenced = set()
    for path, node in definitions:
        name = node.name
        if (name.startswith("__") and name.endswith("__")) or name in documented:
            continue
        inside = range(node.lineno, node.end_lineno + 1)
        if all(at == path and line in inside for at, line in where.get(name, ())):
            unreferenced.add((str(path.relative_to(package.parent)), name))
    return sorted(unreferenced)


def test_every_def_is_referenced_outside_the_tests():
    roots = [SRC, REPO_ROOT / "benchmarks", REPO_ROOT / "examples"]
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    unreferenced = _unreferenced(SRC / "repro", roots, readme)
    assert not unreferenced, f"only tests (or nothing) reference {unreferenced}"


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


# ----------------------------------------------------------------------
# The reference guard, on a small tree: pkg/mod.py defines ``used``,
# ``dead`` and ``documented``; one line of source goes into a caller.
# ----------------------------------------------------------------------

_MODULE = """\
def used():
    return 1


def dead():
    return dead()


def documented():
    return 2


class Box:
    def method(self):
        return Box
"""


def _guard_tree(tmp_path, caller, source):
    """``src/pkg/mod.py`` plus ``source`` appended to ``caller``; the
    roots are ``src/`` and ``app/`` (``tests/`` is not one)."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "mod.py").write_text(_MODULE, encoding="utf-8")
    (tmp_path / "app").mkdir()
    target = tmp_path / caller
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a", encoding="utf-8") as handle:
        handle.write(source)
    return package, [tmp_path / "src", tmp_path / "app"]


@pytest.mark.parametrize("caller, source, unreferenced", [
    ("app/main.py", "", {"used", "dead", "Box", "method"}),
    ("app/main.py", "from pkg.mod import used, Box\nused()\nBox().method()", {"dead"}),
    ("app/main.py", "import pkg.mod as m\nm.used(); m.Box.method", {"dead"}),
    ("app/main.py", "handler = getattr(obj, 'used')\n__all__ = ['Box', 'method']", {"dead"}),
    ("src/pkg/mod.py", "\nvalue = used() + Box().method()", {"dead"}),
    ("src/pkg/other.py", "dead_value = 'dead code'", {"used", "dead", "Box", "method"}),
    ("tests/test_mod.py", "from pkg.mod import used, dead, Box\nBox().method()",
     {"used", "dead", "Box", "method"}),
], ids=["nothing", "import-and-call", "attribute", "identifier-string", "same-module",
        "not-an-identifier", "tests-only"])
def test_reference_guard(tmp_path, caller, source, unreferenced):
    package, roots = _guard_tree(tmp_path, caller, source)
    found = _unreferenced(package, roots, "Call `documented()` for two.")
    assert found == sorted(("pkg/mod.py", name) for name in unreferenced)


@pytest.mark.parametrize("readme, unreferenced", [
    ("Call `documented()` for two.", set()),
    ("Or:\n\n```python\nvalue = documented()\n```\n", set()),
    ("The documented function returns two.", {"documented"}),
], ids=["code-span", "code-block", "prose"])
def test_reference_guard_reads_the_readme_code(tmp_path, readme, unreferenced):
    source = "from pkg.mod import used, Box\nused()\nBox().method()\n"
    package, roots = _guard_tree(tmp_path, "app/main.py", source)
    found = _unreferenced(package, roots, readme)
    assert found == sorted(("pkg/mod.py", name) for name in unreferenced | {"dead"})
