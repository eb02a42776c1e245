"""Shared fixtures: the reference benchmark and its trained artifacts.

Training runs once per session; every module that needs the trained
embedding or predictor reuses the same instances. Acceptance tests register
their verdicts here so the terminal summary prints one line per criterion.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import seqrep as sr
from seqrep.core import RngState

TRAIN_SEED = 99
PREDICTOR_SEED = 4

_acceptance_results: list[tuple[int, str, bool, str]] = []
_timings: dict[str, float] = {}


def record_criterion(number: int, name: str, passed: bool, detail: str = ""):
    _acceptance_results.append((number, name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, passed, detail in sorted(_acceptance_results):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d} {name}: {status}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ref_config():
    return sr.RunConfig()


@pytest.fixture(scope="session")
def pipeline_timings():
    """Wall-clock seconds of the expensive reference-pipeline stages."""
    return _timings


@pytest.fixture(scope="session")
def ref_dataset(ref_config):
    import time

    t0 = time.perf_counter()
    ds = sr.generate_dataset(ref_config.generator)
    _timings["generate"] = time.perf_counter() - t0
    return ds


@pytest.fixture(scope="session")
def ref_training(ref_config, ref_dataset):
    """(model, log) of the reference embedding run; trained once per session."""
    import time

    t0 = time.perf_counter()
    out = sr.train(ref_dataset, ref_config.train, chunk_len=ref_config.chunk_len,
                   rng=RngState(TRAIN_SEED))
    _timings["train_embed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def ref_model(ref_training):
    return ref_training[0]


@pytest.fixture(scope="session")
def ref_predictor_training(ref_config, ref_dataset, ref_model):
    import time

    t0 = time.perf_counter()
    out = sr.train_predictor(ref_dataset, ref_model,
                             context_len=ref_config.context_len,
                             config=ref_config.predictor,
                             rng=RngState(PREDICTOR_SEED))
    _timings["train_predictor"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def ref_predictor(ref_predictor_training):
    return ref_predictor_training[0]


@pytest.fixture(scope="session")
def small_dataset():
    """A light 6-sequence benchmark for module-level tests."""
    cfg = sr.GeneratorConfig(num_sequences=6, frames_range=(50, 60), seed=314)
    return sr.generate_dataset(cfg)


@pytest.fixture()
def rng():
    return RngState(2024)


@pytest.fixture(params=["warnings-error", "errstate-raise"])
def strict_numpy(request):
    """A stricter numpy error state than the default: every warning raises,
    or every floating-point error does."""
    with warnings.catch_warnings():
        if request.param == "warnings-error":
            warnings.simplefilter("error")
            yield
        else:
            with np.errstate(all="raise"):
                yield


def float64(model):
    """``model`` (an embedding or a predictor) with its parameters widened to
    float64, so it runs the float64 kernels."""
    return replace(model, theta=model.theta.astype(np.float64))


def random_unit_rows(g: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = g.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def integer_rows(rows, width):
    """(rows, width) small integers as float64: squared distances tie often."""
    return arrays(np.float64, st.tuples(rows, st.just(width)),
                  elements=st.integers(-2, 2).map(float))
