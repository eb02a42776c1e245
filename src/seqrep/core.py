"""Shared domain types, distance primitives, and deterministic randomness.

Everything downstream (matching, embedding, dynamics, evaluation) builds on
the conventions fixed here: frames are 1-D float64 vectors, sequences are
(n, f) arrays, and every stochastic operation takes an explicit RngState.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class DimensionError(ValueError):
    """Operands disagree on vector dimension."""


class DegenerateInputError(ValueError):
    """Input is numerically degenerate (zero vector, empty sequence, ...)."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class ResourceLimitError(RuntimeError):
    """Instance exceeds a hard size guard."""


class FormatError(ValueError):
    """On-disk payload violates the declared format."""


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DegenerateInputError(f"{name} contains non-finite entries")
    return a


def as_frames(x, name: str = "frames") -> np.ndarray:
    """Coerce to a finite (n, f) float64 array with n >= 1."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D array, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DegenerateInputError(f"{name} is empty")
    if not np.all(np.isfinite(a)):
        raise DegenerateInputError(f"{name} contains non-finite entries")
    return a


def pairwise_sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) squared euclidean distances between the rows of (n, d) ``a`` and (m, d) ``b``.

    Expanded as |a|^2 + |b|^2 - 2 a.b so no (n, m, d) difference array is
    built; the rounding residue below zero is clipped.
    """
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def write_file(path, data: bytes | str) -> Path:
    """Write ``data`` to ``path`` (text as UTF-8), creating the parent directory."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_bytes(data.encode() if isinstance(data, str) else data)
    return p


def l2_normalize(a, eps: float = 1e-12) -> np.ndarray:
    """Scale a nonzero vector to unit euclidean norm."""
    a = as_vector(a, "a")
    norm = float(np.linalg.norm(a))
    if norm < eps:
        raise DegenerateInputError("cannot normalize a (near-)zero vector")
    return a / norm


@dataclass(frozen=True)
class Sequence:
    """An ordered run of frames with an optional ground-truth latent track.

    frames : (n, f) float64
    latent : (n, q) float64 or None
    """

    id: str
    frames: np.ndarray
    latent: np.ndarray | None = None

    def __post_init__(self):
        frames = as_frames(self.frames, f"sequence {self.id!r} frames")
        frames = frames.copy()
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)
        if self.latent is not None:
            latent = as_frames(self.latent, f"sequence {self.id!r} latent")
            if latent.shape[0] != frames.shape[0]:
                raise DimensionError(
                    f"sequence {self.id!r}: latent has {latent.shape[0]} rows, "
                    f"expected {frames.shape[0]}"
                )
            latent = latent.copy()
            latent.setflags(write=False)
            object.__setattr__(self, "latent", latent)

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def dimension(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class Dataset:
    """A collection of sequences sharing one feature dimension."""

    dimension: int
    sequences: tuple[Sequence, ...]

    def __post_init__(self):
        object.__setattr__(self, "sequences", tuple(self.sequences))
        if len(self.sequences) < 2:
            raise ConfigError("a dataset needs at least 2 sequences")
        ids = [s.id for s in self.sequences]
        if len(set(ids)) != len(ids):
            raise ConfigError("sequence ids must be unique")
        for s in self.sequences:
            if s.dimension != self.dimension:
                raise DimensionError(
                    f"sequence {s.id!r} has dimension {s.dimension}, "
                    f"dataset declares {self.dimension}"
                )

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)

    def by_id(self, seq_id: str) -> Sequence:
        for s in self.sequences:
            if s.id == seq_id:
                return s
        raise KeyError(f"no sequence with id {seq_id!r}")

    @property
    def latent_dimension(self) -> int:
        """Latent dimension q, or 0 if any sequence lacks latents."""
        if any(s.latent is None for s in self.sequences):
            return 0
        return self.sequences[0].latent.shape[1]

    def all_frames(self) -> np.ndarray:
        return np.concatenate([s.frames for s in self.sequences], axis=0)


@dataclass
class RngState:
    """Deterministic splittable random stream backed by counter-based Philox.

    Identical seed + identical call order reproduces identical outputs.
    ``split`` derives an independent child stream addressed by integer keys,
    so concurrent workers can draw without coordinating.
    """

    seed: int
    key: tuple[int, ...] = ()
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        self.seed = int(self.seed)
        self.key = tuple(int(k) for k in self.key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        self._gen = np.random.Generator(np.random.Philox(ss))

    @property
    def gen(self) -> np.random.Generator:
        """The underlying stream; drawing from it advances this state."""
        return self._gen

    def split(self, *subkeys: int) -> "RngState":
        """Fresh independent stream addressed by ``key + subkeys``."""
        return RngState(self.seed, self.key + tuple(int(k) for k in subkeys))
