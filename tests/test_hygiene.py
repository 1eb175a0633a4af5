"""Every name imported in the package modules and the tests is used, and
every private module-level function or constant of the package is read.

Package `__init__.py` files re-export names and `from __future__` imports
switch on language features, so neither counts."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = (ROOT / "src" / "confosc", ROOT / "tests")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_sees_unused_and_used_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nimport sys\n"
              "from math import pi, tau\n"
              "def f():\n    return np.zeros(3), pi\n")
    assert unused_imports(source) == ["os", "sys", "tau"]


def test_no_unused_imports():
    found = []
    for folder in CHECKED:
        for path in sorted(folder.glob("*.py")):
            if path.name == "__init__.py":
                continue
            for name in unused_imports(path.read_text(encoding="utf-8")):
                found.append("%s: %s" % (path.relative_to(ROOT), name))
    assert not found, "unused imports:\n" + "\n".join(found)


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """`module: name` for each private function, class or constant bound at
    the top level of one of `sources` (module name -> text) that no module
    reads, by bare name or as an attribute."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                                ast.Name):
                names = [node.target.id]
            else:
                continue
            found.extend("%s: %s" % (mod, name) for name in names
                         if name.startswith("_")
                         and not name.startswith("__") and name not in read)
    return sorted(found)


def test_the_check_sees_unused_and_used_private_names():
    sources = {
        "a": ("__all__ = ['f']\n_LIMIT = 3\n_DEAD = 4\n"
              "def _helper():\n    return _LIMIT\n"
              "def _leftover(x):\n    _local = x\n    return _local\n"
              "def _shared():\n    return 0\n"
              "def f():\n    return _helper()\n"),
        "b": "from . import a\n\ndef g():\n    return a._shared()\n",
    }
    assert unused_private_names(sources) == ["a: _DEAD", "a: _leftover"]


def test_no_unused_private_names():
    package = CHECKED[0]
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    found = unused_private_names(sources)
    assert not found, "private names nothing reads:\n" + "\n".join(found)
