"""Each layout has one owner: no seqrep module imports another's private name."""

import ast
from pathlib import Path

import seqrep

PACKAGE = Path(seqrep.__file__).parent


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
