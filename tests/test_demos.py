"""The demo scripts still name only what the library provides.

Running all demos takes minutes, so this parses them instead: every
``sr.<name>`` and every ``from seqrep... import <name>`` must resolve.
"""

import ast
import importlib
from pathlib import Path

import pytest

import seqrep as sr

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_names_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "sr" and not hasattr(sr, node.attr)):
            missing.append(f"sr.{node.attr} (line {node.lineno})")
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("seqrep"):
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name} (line {node.lineno})"
                        for a in node.names if not hasattr(module, a.name)]
    assert not missing, f"{path.name} uses missing names: {missing}"
