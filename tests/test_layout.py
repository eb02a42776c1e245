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


def code_names(path: Path) -> tuple[set[str], set[str]]:
    """``(names, attributes)`` that the code of ``path`` uses: every name and
    imported name, and every attribute read (``x.name``)."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names, attributes


def test_every_public_name_has_a_library_demo_or_benchmark_caller():
    """Each public top-level def or class is used by package code (its own
    module's included, ``__init__``'s re-export not), a demo or the benchmark,
    as is each public method or property of a public class. A method counts as
    used only where that code reads it as an attribute: a bare name of the same
    spelling (a local ``load``) is not a call of it."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    callers = modules + sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    names, attributes = (set().union(*found) for found in zip(*map(code_names, callers)))
    unused = []
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if node.name not in names | attributes:
                unused.append(f"{path.name}: {node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{path.name}: {node.name}.{m.name}" for m in node.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                           and m.name not in attributes]
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
