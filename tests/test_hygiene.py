"""Every name imported in the package modules and the tests is used.

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
