"""The demo scripts still name only what the library provides.

Running every demo takes about 40 s on a 2-core Xeon, demo 04 alone about
25 s, so this parses them instead: every ``sr.<name>`` and every
``from seqrep... import <name>`` must resolve. Parsing cannot see
attributes of returned objects (such as ``log.epoch_loss``) or what a
function returns, so demos 01-03, which take about 1, 1 and 6 s, are also
run whole.
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
