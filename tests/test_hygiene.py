"""Every name imported in the package modules and the tests is used, every
private module-level function or constant of the package is read, and the
package integrates with its own Simpson rule and refines roots with its own
Brent's method, so neither `scipy.integrate` nor `scipy.optimize` is loaded;
nor is `scipy.fft`, since the momentum transform is numpy's, nor
`scipy.linalg` by a run that never relaxes, such as any report table.

No package module takes an underscore name from a sibling module, so
each module's private helpers stay its own and the gate reaches the
solvers only through their public entry points. The sweep engine parses
no arguments, the CLI reaches the solvers only through it, and the gate
takes it from `sweep`, not from the CLI. The measure layer, which the
sweep's worker threads run, makes no BLAS call.

The mass is part of the problem: it is a field of `ConfinedPotential` and
nothing else, so no function takes one beside the potential it belongs to.

Package `__init__.py` files re-export names and `from __future__` imports
switch on language features, so neither counts."""

import ast
import os
import subprocess
import sys
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


def private_sibling_imports(source: str) -> list[str]:
    """Underscore names that `source`, a package module, takes from a
    sibling module: imported by name, or read as an attribute of a sibling
    module it imported."""
    tree = ast.parse(source)
    siblings, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("confosc")):
            private = [a.name for a in node.names if a.name.startswith("_")]
            found.update(private)
            if not node.module or node.module == "confosc":
                siblings.update(a.asname or a.name for a in node.names
                                if a.name not in private)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            found.add("%s.%s" % (node.value.id, node.attr))
    return sorted(found)


def test_the_check_sees_private_sibling_imports():
    source = ("from __future__ import annotations\n"
              "from . import spectral, model as m\n"
              "from .cli_reports import ReportRow, _solve_with\n"
              "from confosc.model import _helper\n"
              "from numpy import _globals\n"
              "def f(x):\n"
              "    return (m._check(x), spectral.to_momentum(x), x._own,\n"
              "            spectral.__name__, ReportRow)\n")
    assert private_sibling_imports(source) == [
        "_helper", "_solve_with", "m._check"]


def test_no_module_takes_a_private_name_from_a_sibling():
    found = ["%s: %s" % (path.name, name)
             for path in sorted(CHECKED[0].glob("*.py"))
             for name in private_sibling_imports(
                 path.read_text(encoding="utf-8"))]
    assert not found, "private names taken from a sibling:\n" + "\n".join(
        found)


def imported_names(source: str) -> dict[str, set[str]]:
    """Module -> names that `source` imports from it; a module imported
    whole maps to the empty set. Package-relative modules are named without
    the package prefix."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for a in node.names:
                found.setdefault(a.name, set())
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("confosc."):
                module = module[len("confosc."):]
            if (node.level and not module) or module == "confosc":
                for a in node.names:      # `from . import sibling`
                    found.setdefault(a.name, set())
            else:
                found.setdefault(module, set()).update(
                    a.name for a in node.names)
    return found


def test_the_check_sees_imported_modules_and_names():
    source = ("import sys, os.path\n"
              "from . import spectral\n"
              "from .sweep import SweepSpec, run_sweep\n"
              "from confosc.model import DomainError\n")
    assert imported_names(source) == {
        "sys": set(), "os.path": set(), "spectral": set(),
        "sweep": {"SweepSpec", "run_sweep"}, "model": {"DomainError"}}


def mass_parameters(source: str) -> list[str]:
    """`function: mass` for each function or lambda in `source` with a
    parameter called `mass`, and `class: mass` for each class that declares
    a `mass` field, bar `ConfinedPotential`, the problem record."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            names = [a.arg for a in (*args.posonlyargs, *args.args,
                                     *args.kwonlyargs, args.vararg,
                                     args.kwarg) if a is not None]
            if "mass" in names:
                found.append("%s: mass" % getattr(node, "name", "lambda"))
        elif (isinstance(node, ast.ClassDef)
              and node.name != "ConfinedPotential"):
            found.extend("%s: mass" % node.name for item in node.body
                         if isinstance(item, ast.AnnAssign)
                         and getattr(item.target, "id", None) == "mass")
    return found


def test_the_check_sees_mass_parameters():
    source = ("class ConfinedPotential:\n    mass: float = 1.0\n"
              "class Problem:\n    k: float\n    mass: float\n"
              "def bands(pot, grid, mass=1.0):\n    return mass\n"
              "def orbit(pot, *, mass):\n    return pot.mass\n"
              "route = lambda pot, mass: pot\n"
              "def solve(pot, grid):\n    return pot.mass\n")
    assert mass_parameters(source) == [
        "Problem: mass", "bands: mass", "orbit: mass", "lambda: mass"]


def test_only_the_potential_carries_a_mass():
    found = ["%s: %s" % (path.name, hit)
             for path in sorted(CHECKED[0].glob("*.py"))
             for hit in mass_parameters(path.read_text(encoding="utf-8"))]
    assert not found, "a mass beside the potential:\n" + "\n".join(found)


SOLVER_LAYERS = {"itp_solver", "exact_scho", "variational", "perturbation",
                 "spectral", "infomeasures"}


def test_the_sweep_engine_is_not_part_of_the_cli():
    def imports(name):
        return imported_names((CHECKED[0] / name).read_text(encoding="utf-8"))
    # the engine parses no arguments and writes nothing
    assert not {"argparse", "sys", "cli_reports"} & set(imports("sweep.py"))
    # the CLI reaches the solvers and measures only through the engine
    assert not SOLVER_LAYERS & set(imports("cli_reports.py"))
    # the gate measures states through the same engine as the CLI
    assert {"run_sweep", "SweepSpec", "ReportRow"} <= imports(
        "acceptance.py").get("sweep", set())


# the measure layer: what the sweep's worker threads run. It makes no BLAS
# or LAPACK call, so the threads never contend with the BLAS library's own
MEASURE_LAYERS = ("spectral.py", "infomeasures.py", "semiclassical.py")
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum",
              "linalg"}


def blas_calls(source: str) -> list[str]:
    """The matrix-product operator, the BLAS-backed numpy functions and the
    linear-algebra modules that `source` uses or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            found.add("@")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for a in node.names:
                name = "%s.%s" % (module, a.name) if module else a.name
                if a.name in BLAS_NAMES or any(
                        part == "linalg" for part in name.split(".")):
                    found.add(name)
    return sorted(found)


def test_the_check_sees_blas_calls():
    source = ("import numpy as np\n"
              "from numpy import einsum\n"
              "from scipy.linalg import eigh\n"
              "import scipy.linalg as sl\n"
              "def f(a, b, c):\n"
              "    c @= a\n"
              "    return (a @ b, np.dot(a, b), a.dot(b), np.linalg.norm(a),\n"
              "            np.matmul(a, b), np.inner(a, b), np.vdot(a, b),\n"
              "            np.tensordot(a, b), einsum('i,i', a, b))\n")
    assert blas_calls(source) == [
        "@", "dot", "einsum", "inner", "linalg", "matmul", "numpy.einsum",
        "scipy.linalg", "scipy.linalg.eigh", "tensordot", "vdot"]
    assert blas_calls("from scipy import linalg\n") == ["scipy.linalg"]
    assert not blas_calls("import numpy as np\n"
                          "from dataclasses import dataclass\n"
                          "@dataclass\nclass A:\n    x: int\n"
                          "def f(a, b):\n"
                          "    return np.sum(a * b), np.fft.rfft(a)\n")


def test_the_measure_layer_makes_no_blas_call():
    found = ["%s: %s" % (name, call) for name in MEASURE_LAYERS
             for call in blas_calls(
                 (CHECKED[0] / name).read_text(encoding="utf-8"))]
    assert not found, "BLAS calls in the measure layer:\n" + "\n".join(
        found)


# scipy subpackages the package does without: it integrates with its own
# Simpson rule, refines roots with its own Brent's method and sums its own
# confluent hypergeometric series
FORBIDDEN_SCIPY = ("integrate", "optimize", "special")


def forbidden_scipy_imports(source: str) -> list[str]:
    """The FORBIDDEN_SCIPY subpackages that `source` imports, itself or a
    name from it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.module == "scipy":
                modules += ["scipy." + a.name for a in node.names]
        else:
            continue
        for module in modules:
            top, _, rest = module.partition(".")
            sub = rest.partition(".")[0]
            if top == "scipy" and sub in FORBIDDEN_SCIPY:
                found.add(sub)
    return sorted(found)


def test_the_check_sees_forbidden_scipy_imports():
    assert forbidden_scipy_imports("from scipy.integrate import simpson\n") \
        == ["integrate"]
    assert forbidden_scipy_imports("import scipy.integrate as si\n") \
        == ["integrate"]
    assert forbidden_scipy_imports("from scipy import integrate, linalg\n") \
        == ["integrate"]
    assert forbidden_scipy_imports("from scipy.optimize import brentq\n") \
        == ["optimize"]
    assert forbidden_scipy_imports("import numpy, scipy.optimize._zeros_py\n") \
        == ["optimize"]
    assert forbidden_scipy_imports("from scipy import optimize as so\n"
                                   "from scipy.integrate import quad\n") \
        == ["integrate", "optimize"]
    assert forbidden_scipy_imports("from scipy.special import hyp1f1\n") \
        == ["special"]
    assert forbidden_scipy_imports("import scipy.special\n") == ["special"]
    assert not forbidden_scipy_imports("from scipy.linalg import eigh\n"
                                       "from scipy import fft\n")


def test_package_has_one_simpson_rule_and_one_root_refiner():
    found = ["%s: scipy.%s" % (path.name, sub)
             for path in sorted(CHECKED[0].glob("*.py"))
             for sub in forbidden_scipy_imports(
                 path.read_text(encoding="utf-8"))]
    assert not found, "forbidden scipy imports:\n" + "\n".join(found)


# loaded by no run either: the momentum transform is numpy's real FFT, and
# importing scipy.fft would only add start-up time
UNLOADED_SCIPY = FORBIDDEN_SCIPY + ("fft",)


def test_a_fresh_run_loads_no_forbidden_scipy_subpackage():
    # what the source check cannot see: a subpackage that comes in through
    # another module (numpy, scipy.linalg) at import or at first use. Only
    # the relaxation route loads scipy.linalg, when it runs, and no report
    # table relaxes, so no table command loads it either.
    script = (
        "import os, sys\n"
        "from confosc import cli_reports\n"
        "from confosc.exact_scho import scho_eigenvalue, scho_states\n"
        "from confosc.model import box_grid\n"
        "from confosc.spectral import to_momentum\n"
        "from confosc.variational import build_basis\n"
        "scho_eigenvalue(0, 1.0)\n"
        "build_basis(50, box_grid(-1.0, 1.0, 2001))\n"
        "to_momentum(scho_states(1, 1.0, box_grid(-1.0, 1.0, 201))[1])\n"
        "for tid in cli_reports.TABLES:\n"
        "    assert cli_reports.main(['table', tid,\n"
        "                             '--out', os.devnull]) == 0\n"
        "print(' '.join(sub for sub in %r if 'scipy.' + sub in sys.modules))\n"
        % (UNLOADED_SCIPY + ("linalg",),))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    assert run.stdout.split() == []


# what a library caller that never relaxes and never sweeps need not load
UNNEEDED_BY_THE_LIBRARY = ("scipy.linalg", "confosc.itp_solver",
                           "confosc.sweep", "confosc.cli_reports")


def test_a_library_run_loads_only_the_modules_it_imports():
    # the package root re-exports nothing, so importing one module does not
    # pull in the relaxation route, the sweep engine or the CLI
    script = (
        "import sys\n"
        "from confosc import (model, exact_scho, variational, perturbation,\n"
        "                     spectral, infomeasures, semiclassical)\n"
        "grid = model.box_grid(-1.0, 1.0, 301)\n"
        "pot = model.scho_unit_box(0.1)\n"
        "for state in (exact_scho.scho_states(1, 2.0,\n"
        "                                     model.box_grid(-2.0, 2.0, 301))[1],\n"
        "              perturbation.pt_wavefunction(1, 0.1, grid)):\n"
        "    infomeasures.full_report(state, spectral.to_momentum(state))\n"
        "semiclassical.phase_area(pot, 1.0)\n"
        "print(' '.join(m for m in %r if m in sys.modules))\n"
        % (UNNEEDED_BY_THE_LIBRARY,))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    assert run.stdout.split() == []
