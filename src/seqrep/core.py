"""Shared domain types, distance primitives, and deterministic randomness.

Everything downstream (matching, embedding, dynamics, evaluation) builds on
the conventions fixed here: frames are 1-D float64 vectors, sequences are
(n, f) arrays, and every stochastic operation takes an explicit RngState.
"""

from __future__ import annotations

import itertools
import math
import os
import re
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


class DivergenceError(RuntimeError):
    """Training diverged: a batch loss was non-finite or blew up, the model
    collapsed, or the parameter vector went non-finite (see :class:`MomentumSGD`).

    ``stage`` names the learner (``embed`` or ``predictor``); ``epoch`` and
    ``batch`` are 0-based and locate the failing batch, or the epoch's last
    batch when only the parameter vector failed; ``loss`` is that batch's loss.
    """

    def __init__(self, stage: str, epoch: int, batch: int, loss: float, what: str):
        super().__init__(f"{stage} training diverged at epoch {epoch}, batch {batch}: "
                         f"{what} (last loss {loss!r})")
        self.stage, self.epoch, self.batch, self.loss = stage, epoch, batch, loss


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


_BLOCK = 1 << 15  # elements per block of the in-place passes below; their scratch is one block


def pairwise_sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) squared euclidean distances between the rows of (n, d) ``a`` and (m, d) ``b``.

    Expanded as |a|^2 + |b|^2 - 2 a.b so no (n, m, d) difference array is
    built; the rounding residue below zero is clipped. One GEMM fills the
    output, which the rest then overwrites row block by row block, so no
    second (n, m) array exists. A distance that is not finite (the squared
    norms overflow) raises :class:`DegenerateInputError`, whatever numpy's
    error state, and without a warning first.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        aa = np.sum(a * a, axis=1)[:, None]
        bb = np.sum(b * b, axis=1)[None, :]
        d = a @ b.T
        rows = max(1, _BLOCK // max(1, d.shape[1]))
        for lo in range(0, len(d), rows):
            blk = d[lo:lo + rows]
            np.subtract(aa[lo:lo + rows] + bb, 2.0 * blk, out=blk)
            np.maximum(blk, 0.0, out=blk)
            if not np.isfinite(blk).all():
                raise DegenerateInputError("squared distances overflow to inf or NaN")
    return d


_ROW_BLOCK = 256  # rows of ``a`` per distance block in nearest_rows


def nearest_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index of each row of ``a``'s nearest row of ``b`` by :func:`pairwise_sqdist`, the
    first of a tie. Rows of ``a`` go 256 at a time, so the working set is one (256,
    len(b)) block of distances, not the whole (len(a), len(b)) matrix."""
    return np.concatenate([np.argmin(pairwise_sqdist(a[r:r + _ROW_BLOCK], b), axis=1)
                           for r in range(0, len(a), _ROW_BLOCK)])


def write_file(path, data: bytes | str) -> Path:
    """Write ``data`` to ``path`` (text as UTF-8), creating the parent directory.

    The bytes go to a temporary file beside ``path``, which then replaces
    it in one rename, so a crashed or failed write leaves the old file (or
    none) and no partial one. Nothing is fsynced: the write is atomic
    against a process crash, not against power loss.
    """
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_name(f".{p.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, p)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return p


MAX_ID_LEN = 128
_SAFE_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")


def is_safe_name(name, max_len: int = MAX_ID_LEN) -> bool:
    """Whether ``name`` may be a sequence id (or, with a larger ``max_len``, a
    SeqPack payload file name): 1 to ``max_len`` of ``[A-Za-z0-9._-]`` without
    a leading dot, so it stays inside its directory and within the file
    system's name limit."""
    return (isinstance(name, str) and len(name) <= max_len
            and _SAFE_NAME.fullmatch(name) is not None)


def block_views(vec: np.ndarray, **shapes: tuple[int, ...]) -> dict[str, np.ndarray]:
    """Named row-major views of consecutive slices of the 1-D ``vec``, in argument order."""
    sizes = [math.prod(shape) for shape in shapes.values()]
    if vec.shape != (sum(sizes),):
        raise DimensionError(
            f"parameter vector has shape {vec.shape}, its layout needs ({sum(sizes)},)"
        )
    return {name: vec[end - size:end].reshape(shape)
            for (name, shape), size, end in zip(shapes.items(), sizes,
                                                itertools.accumulate(sizes))}


@dataclass
class TrainLog:
    """A training run's record, which its :class:`MomentumSGD` alone writes: each
    batch's loss and epoch, in step order, and each epoch's parameter move."""

    batch_loss: list[float] = field(default_factory=list)
    batch_epoch: list[int] = field(default_factory=list)
    epoch_param_delta: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.epoch_param_delta)

    @property
    def epoch_loss(self) -> list[float]:
        """Each finished epoch's mean batch loss, in batch order; NaN for one without batches."""
        per_epoch = [[l for l, b in zip(self.batch_loss, self.batch_epoch) if b == e]
                     for e in range(self.epochs_run)]
        return [float(np.mean(losses)) if losses else math.nan for losses in per_epoch]


class MomentumSGD:
    """Plain momentum SGD on one parameter vector, which it updates in place.

    Each :meth:`step` applies ``v = momentum * v - learning_rate * g`` then
    ``theta = theta + v``, after checking the batch: a non-finite loss, a
    loss above ``BLOWUP_FACTOR`` times the run's first positive one (blew
    up), or a positive loss with an exactly zero gradient (collapsed: no
    step can lower it) raises :class:`DivergenceError` naming ``stage``, the
    epoch and the batch, as does a non-finite vector in :meth:`end_epoch`.
    Both walk the vector in blocks of ``_BLOCK`` elements, so their scratch
    is one block, not a parameter-sized vector. Each records what it did in
    :attr:`log`.
    """

    BLOWUP_FACTOR = 1000.0

    def __init__(self, theta: np.ndarray, learning_rate: float, momentum: float,
                 stage: str):
        self.theta = theta
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.stage = stage
        self.velocity = np.zeros_like(theta)
        self._scaled = np.empty(min(theta.size, _BLOCK), theta.dtype)  # learning_rate * g, a block
        self.epoch = 0
        self.batch = 0  # steps taken in the current epoch
        self.first_loss = math.nan  # the run's first positive batch loss; NaN bounds nothing
        self._epoch_start = theta.copy()
        self.log = TrainLog()

    @np.errstate(over="ignore", invalid="ignore")
    def step(self, loss: float, grad: np.ndarray) -> None:
        """One update from a batch's loss and its gradient (same layout as ``theta``)."""
        if not math.isfinite(loss):
            raise DivergenceError(self.stage, self.epoch, self.batch, loss,
                                  "non-finite batch loss")
        if loss > self.BLOWUP_FACTOR * self.first_loss:
            raise DivergenceError(self.stage, self.epoch, self.batch, loss,
                                  f"blew up: loss above {self.BLOWUP_FACTOR:g}x the first "
                                  f"positive batch loss {self.first_loss!r}")
        if loss > 0 and not (grad[:_BLOCK].any() or grad.any()):  # the first block usually decides
            raise DivergenceError(self.stage, self.epoch, self.batch, loss,
                                  "collapsed: positive loss with an exactly zero gradient")
        if loss > 0 and math.isnan(self.first_loss):
            self.first_loss = loss
        for lo in range(0, self.theta.size, _BLOCK):
            v = self.velocity[lo:lo + _BLOCK]
            v *= self.momentum
            v -= np.multiply(grad[lo:lo + _BLOCK], self.learning_rate,
                             out=self._scaled[:len(v)])
            self.theta[lo:lo + _BLOCK] += v
        self.batch += 1
        self.log.batch_loss.append(loss)
        self.log.batch_epoch.append(self.epoch)

    def end_epoch(self) -> None:
        """Check the vector is finite and log its euclidean move over the epoch."""
        for lo in range(0, self.theta.size, _BLOCK):
            if not np.isfinite(self.theta[lo:lo + _BLOCK]).all():
                last = self.log.batch_loss[-1] if self.log.batch_loss else math.nan
                raise DivergenceError(self.stage, self.epoch, self.batch - 1, last,
                                      "non-finite parameters")
        delta = float(np.linalg.norm(np.subtract(self.theta, self._epoch_start,
                                                 out=self._epoch_start)))
        np.copyto(self._epoch_start, self.theta)
        self.log.epoch_param_delta.append(delta)
        self.epoch += 1
        self.batch = 0


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
        if not is_safe_name(self.id):
            raise ConfigError(f"sequence id {self.id!r} must be 1-{MAX_ID_LEN} of [A-Za-z0-9._-] "
                              "and not start with a dot")
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
        if len({s.latent.shape[1] for s in self.sequences if s.latent is not None}) > 1:
            raise DimensionError("sequence latents must share one dimension")

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)

    def by_id(self, seq_id: str) -> Sequence:
        for s in self.sequences:
            if s.id == seq_id:
                return s
        raise ConfigError(f"no sequence with id {seq_id!r}")

    def all_frames(self) -> np.ndarray:
        return np.concatenate([s.frames for s in self.sequences], axis=0)


@dataclass
class RngState:
    """Deterministic splittable random stream backed by counter-based Philox.

    Identical seed + identical call order reproduces identical outputs.
    ``split`` derives an independent child stream addressed by integer keys,
    so one stage's draws never shift another's.
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
