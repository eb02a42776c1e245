"""Each layout has one owner: no seqrep module imports another's private name.

No module imports scipy, so importing the package loads numpy only, and no
public name exists only for the tests.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import seqrep

PACKAGE = Path(seqrep.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def private_imports() -> list[str]:
    """``"<file>: <module>.<name>"`` for every ``from .module import _name`` in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}: {node.module}.{a.name}"
                          for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    assert private_imports() == []


def test_no_module_imports_scipy():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def test_import_loads_no_scipy_submodule():
    # scipy.stats, .spatial and .cluster were about 68 of the 101 MB that the
    # import left resident, back when ranks and distances came from scipy
    code = ("import sys, seqrep, seqrep.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'spatial'], "
            "['scipy', 'cluster'])))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def code_names(path: Path) -> set[str]:
    """Every name, attribute and imported name that the code of ``path`` uses."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def test_every_public_name_has_a_library_demo_or_benchmark_caller():
    """Each public top-level def or class is used by package code (its own
    module's included, ``__init__``'s re-export not), a demo or the benchmark."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    callers = modules + sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    used = set().union(*map(code_names, callers))
    unused = [f"{path.name}: {node.name}" for path in modules
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert unused == []


def test_no_rng_parameter_has_a_default():
    """Every stochastic entry takes its stream from its caller: no hidden seed."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):] + [
                    arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found += [f"{path.name}:{node.lineno}" for arg in defaulted if arg.arg == "rng"]
    assert found == []
