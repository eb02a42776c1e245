"""Run configuration: one JSON file with explicit keys, strictly validated.

Every section mirrors a module's config dataclass and inherits its
defaults; unknown keys anywhere are hard errors so typos surface instead of
silently falling back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .core import ConfigError
from .align import PenaltyConfig
from .embed import TrainConfig
from .dynamics import PredictorConfig
from .synthdata import GeneratorConfig


@dataclass(frozen=True)
class EvalConfig:
    num_queries: int = 500
    pose_epsilon: float | None = None
    k_max: int = 10
    exclusion_window: int = 2
    alignment_pairs: int = 20

    def __post_init__(self):
        if self.num_queries < 1 or self.k_max < 1 or self.alignment_pairs < 1:
            raise ConfigError("evaluation counts must be >= 1")
        if self.exclusion_window < 0:
            raise ConfigError("eval exclusion_window must be >= 0")
        if self.pose_epsilon is not None and self.pose_epsilon <= 0:
            raise ConfigError("eval.pose_epsilon must be > 0")


@dataclass(frozen=True)
class RunConfig:
    """Defaults to the reference run, the CLI's run without ``--config``."""

    seed: int = GeneratorConfig.seed
    chunk_len: int = 80  # about one latent cycle: each chunk's matching sees every pose once
    context_len: int = 4
    penalties: PenaltyConfig = field(default_factory=PenaltyConfig)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.chunk_len < 2:
            raise ConfigError(f"chunk_len must be >= 2, got {self.chunk_len}")
        if self.context_len < 1:
            raise ConfigError("context_len must be >= 1")

    def with_seed(self, seed: int) -> "RunConfig":
        """Override every seed in the configuration."""
        return dataclasses.replace(
            self, seed=seed,
            generator=dataclasses.replace(self.generator, seed=seed),
        )


def _check_type(value, tp, name: str):
    """``value`` if JSON gave the declared type ``tp``; lists become tuples.

    A float field takes any number a finite float holds, so neither NaN nor
    Infinity (which ``json`` accepts) nor a larger integer; an int field
    takes only integers. Booleans are never numbers here.
    """
    if typing.get_origin(tp) is tuple:
        elems = typing.get_args(tp)
        if not isinstance(value, (list, tuple)) or len(value) != len(elems):
            raise ConfigError(f"{name} must be a {len(elems)}-element list")
        return tuple(_check_type(v, e, name) for v, e in zip(value, elems))
    allowed = typing.get_args(tp) if isinstance(tp, types.UnionType) else (tp,)
    if float in allowed:
        allowed += (int,)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"{name} must be {getattr(tp, '__name__', tp)}, got {value!r}")
    if float in allowed and value is not None and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def _build(cls, data, where: str):
    """Instantiate config dataclass ``cls`` from a JSON object, section by section."""
    if not isinstance(data, dict):
        raise ConfigError(f"section {where!r} must be an object")
    names = {f.name for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        name = f"{where}.{key}" if where else key
        if key not in names:
            raise ConfigError(f"unknown config key {name}")
        if dataclasses.is_dataclass(hints[key]):
            kwargs[key] = _build(hints[key], value, name)
        else:
            kwargs[key] = _check_type(value, hints[key], name)
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    return _build(RunConfig, data, "")


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"missing config file {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ConfigError(f"{p}: not UTF-8 JSON ({exc})") from exc
    return config_from_dict(data)


def reference_run_config(seed: int = RunConfig.seed) -> RunConfig:
    """``RunConfig().with_seed(seed)``; kept only for ``perfbench/run.py``, its one caller."""
    return RunConfig().with_seed(seed)
