"""The demo scripts still name only what the library provides.

Running all demos takes minutes, so this parses them instead: every
``sr.<name>`` and every ``from seqrep... import <name>`` must resolve.
Parsing cannot see attributes of returned objects, so demo 01, which
runs in about a second, is also run whole.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqrep as sr

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_demo_01_runs_and_its_audit_agrees():
    path = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [path, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / "01_sequence_matching.py")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "auditor agrees: True" in run.stdout
