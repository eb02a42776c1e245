"""In-memory spans around calls into seqrep's public functions.

A :class:`Recorder` keeps every span (name, start, end, parent) in memory;
all spans of one recorder share its trace id. :func:`patched` wraps each
listed function in every loaded ``seqrep`` module that holds it, so a call is
recorded wherever its caller looks the name up (``seqrep.embed.match_features``
as well as ``seqrep.align.match_features``). A listed name that no longer
exists is skipped and records zero calls; the drop in coverage then shows
work that moved out of a wrapped call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(eq=False)
class Span:
    name: str
    lib: bool  # True for a wrapped seqrep call, False for a benchmark-side span
    start: float
    parent: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Stack of open spans plus the list of every span opened so far."""

    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, lib: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, lib, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def within(self, root: Span) -> list[Span]:
        """Spans whose ancestor chain reaches ``root``."""
        root_idx = self.spans.index(root)
        out = []
        for s in self.spans:
            p = s.parent
            while p > root_idx:
                p = self.spans[p].parent
            if p == root_idx:
                out.append(s)
        return out


class NullRecorder:
    """Stand-in used by untraced passes: benchmark-side spans cost nothing."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _tree_bytes(path) -> int:
    p = Path(path)
    if p.is_file():
        return p.stat().st_size
    return sum(f.stat().st_size for f in p.rglob("*") if f.is_file())


# Per traced name: None, or a function (args, kwargs, result) -> span attrs.
# Extractors read only shapes and sizes, after the span has closed.
TRACED = {
    "synthdata.generate_dataset": None,
    "synthdata.resample_pair": None,
    "align.match_features": None,
    "align.solve_exact_dp": lambda a, k, out: {
        "n": _rows(a[0]), "m": _rows(a[1]),
        "matched": int(np.count_nonzero(out.pi)),
    },
    "embed.train": None,
    "embed.triplet_grad": lambda a, k, out: {"rows": 3 * _rows(a[1])},
    "embed.augment": None,
    "embed.embed_batch": None,
    "dynamics.train_predictor": None,
    "dynamics.batch_loss_and_grad": lambda a, k, out: {
        "batch": _rows(a[1]), "loss": float(out[0]),
    },
    "dynamics.rnn_forward_batch": None,
    "dynamics.synthesize": None,
    "evaluate.retrieval_auc": None,
    "evaluate.zero_shot_pose_error": None,
    "evaluate.knn_prediction_curve": None,
    "seqpack.write_seqpack": lambda a, k, out: {"written": _tree_bytes(a[1])},
    "seqpack.read_seqpack": lambda a, k, out: {"read": _tree_bytes(a[0])},
    "seqpack.save_model": lambda a, k, out: {"written": _tree_bytes(a[1])},
    "seqpack.load_model": lambda a, k, out: {"read": _tree_bytes(a[0])},
    "seqpack.save_predictor": lambda a, k, out: {"written": _tree_bytes(a[1])},
    "seqpack.load_predictor": lambda a, k, out: {"read": _tree_bytes(a[0])},
}


def _wrap(rec: Recorder, name: str, fn, extract):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name, lib=True)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if extract is not None:
            try:
                rec.spans[idx].attrs = extract(args, kwargs, out)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                pass  # a changed signature loses the attrs, never the call
        return out
    return wrapper


@contextlib.contextmanager
def patched(rec: Recorder):
    """Wrap every :data:`TRACED` function for the duration of the block."""
    undo = []
    try:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "seqrep" or n.startswith("seqrep."))]
        for name, extract in TRACED.items():
            mod_name, attr = name.split(".")
            try:
                home = importlib.import_module(f"seqrep.{mod_name}")
            except ImportError:
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            wrapper = _wrap(rec, name, fn, extract)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, fn))
        yield rec
    finally:
        for mod, key, fn in reversed(undo):
            setattr(mod, key, fn)
