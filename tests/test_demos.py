"""The demo scripts still name only what the library provides.

Running every demo takes about 40 s on a 2-core Xeon, demo 04 alone about
25 s, so this parses them instead: every ``sr.<name>`` and every
``from seqrep... import <name>`` must resolve, and every call of one binds
to its signature, so a removed default or a renamed keyword shows. Parsing
cannot see attributes of returned objects (such as ``log.epoch_loss``) or
what a function returns, so demos 01-03, which take about 1, 1 and 6 s, are
also run whole.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqrep as sr

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(name: str) -> str:
    """Run ``demos/<name>`` against this checkout's sources; returns its stdout."""
    path = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [path, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


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


def library_calls(tree: ast.Module):
    """``(line, name, callee, call)`` for every call of ``sr.<name>`` or of a name
    imported from seqrep in ``tree``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("seqrep"):
            module = importlib.import_module(node.module)
            imported.update({a.asname or a.name: getattr(module, a.name) for a in node.names})
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "sr":
            yield node.lineno, f"sr.{f.attr}", getattr(sr, f.attr), node
        elif isinstance(f, ast.Name) and f.id in imported:
            yield node.lineno, f.id, imported[f.id], node


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind_to_their_signatures(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unbound, bound = [], 0
    for line, name, callee, call in library_calls(tree):
        if (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)):
            continue  # *args or **kwargs: the count and names are not in the source
        try:
            inspect.signature(callee).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"{name} (line {line}): {exc}")
        bound += 1
    assert bound and not unbound, f"{path.name}: {unbound}"


def test_demo_01_runs_and_its_audit_agrees():
    assert "auditor agrees: True" in run_demo("01_sequence_matching.py")


def test_demo_02_runs_and_its_checks_hold():
    out = run_demo("02_synthetic_benchmark.py")
    for line in ("deterministic: True", "truth is monotone: True", "f32-exact: True"):
        assert line in out


def test_demo_03_runs_through_training_and_every_protocol():
    out = run_demo("03_train_embedding.py")
    for line in ("mean batch loss: epoch 0", "negative-mining percentile schedule: [100.0",
                 "trained retrieval AUC", "zero-shot latent error", "neighbors of seq000: ['",
                 "seq003: 0."):
        assert line in out
