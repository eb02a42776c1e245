"""Deterministic synthetic activities with known latent pose.

Every sequence traverses a shared cyclic latent trajectory (phase on a
circle plus a slow bounded drift) at its own jittered speed, then renders
each latent pose through a fixed nonlinear feature map followed by a
per-sequence affine nuisance and observation noise. Raw feature distance is
therefore a poor proxy for latent-pose distance across sequences, while the
latent track stays available as ground truth for evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ConfigError, Dataset, RngState, Sequence

_DRIFT_COMPONENTS = 3
_DRIFT_FREQ_LO = 0.2
_DRIFT_FREQ_HI = 0.7
_MIN_SPEED = 0.05
# Nuisance composition at strength 1: feature mixing strong enough that no
# single global linear map can undo it, translation offsets large enough to
# dominate raw cross-sequence distances.
_MIX_SCALE = 1.5
_OFFSET_SCALE = 5.0


@dataclass(frozen=True)
class GeneratorConfig:
    num_sequences: int = 12
    frames_range: tuple[int, int] = (140, 160)
    latent_dim: int = 2
    cycles_range: tuple[float, float] = (1.7, 2.3)
    feature_dim: int = 64
    nuisance_strength: float = 1.0
    observation_noise: float = 0.05
    speed_jitter: float = 0.3
    drift_strength: float = 0.15
    seed: int = 20240511  # also RunConfig's default seed

    def __post_init__(self):
        if self.num_sequences < 2:
            raise ConfigError("need at least 2 sequences")
        if self.frames_range[0] > self.frames_range[1] or self.frames_range[0] < 2:
            raise ConfigError(f"bad frames_range {self.frames_range}")
        if self.cycles_range[0] > self.cycles_range[1] or self.cycles_range[0] <= 0:
            raise ConfigError(f"bad cycles_range {self.cycles_range}")
        if self.latent_dim < 2:
            raise ConfigError("latent_dim must be >= 2 (the cycle needs a plane)")
        if self.feature_dim <= self.latent_dim:
            raise ConfigError("feature_dim must exceed latent_dim")
        for name in ("nuisance_strength", "observation_noise", "speed_jitter",
                     "drift_strength"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


def _feature_map(cfg: GeneratorConfig, rng: RngState):
    """Fixed smooth nonlinearity g: R^q -> R^f shared by all sequences."""
    g = rng.gen
    frequencies = g.normal(0.0, 1.8, size=(cfg.feature_dim, cfg.latent_dim))  # (f, q)
    phases = g.uniform(0.0, 2.0 * math.pi, size=cfg.feature_dim)               # (f,)
    return lambda z: np.sin(z @ frequencies.T + phases)


def _trajectory(cfg: GeneratorConfig, rng: RngState):
    """Continuous latent path u -> z over progress u in [0, 1]."""
    g = rng.gen
    q, k = cfg.latent_dim, _DRIFT_COMPONENTS
    phase0 = float(g.uniform(0.0, 2.0 * math.pi))
    cycles = float(g.uniform(*cfg.cycles_range))
    # (q, K) drift amplitudes: U[-1, 1] at the drift strength, split over the K components
    amp = cfg.drift_strength * g.uniform(-1.0, 1.0, size=(q, k)) / k
    freq = g.uniform(_DRIFT_FREQ_LO, _DRIFT_FREQ_HI, size=(q, k))
    phase = g.uniform(0.0, 2.0 * math.pi, size=(q, k))

    def path(u: np.ndarray) -> np.ndarray:
        phi = phase0 + 2.0 * math.pi * cycles * u
        z = np.einsum("qk,tqk->tq", amp,
                      np.sin(2.0 * math.pi * freq[None, :, :] * u[:, None, None]
                             + phase[None, :, :]))
        z[:, 0] += np.cos(phi)
        z[:, 1] += np.sin(phi)
        return z

    return path


def _progress_grid(n: int, jitter: float, rng: RngState) -> np.ndarray:
    """Monotone grid on [0, 1]; jitter makes the progression nonuniform."""
    g = rng.gen
    w = np.maximum(_MIN_SPEED, 1.0 + jitter * g.uniform(-1.0, 1.0, size=n - 1))
    u = np.concatenate([[0.0], np.cumsum(w)])
    return u / u[-1]


def _render(cfg: GeneratorConfig, feature_map, z: np.ndarray,
            rng: RngState) -> np.ndarray:
    """Per-sequence affine nuisance plus observation noise on top of g(z)."""
    g = rng.gen
    f = cfg.feature_dim
    mix = np.eye(f) + (_MIX_SCALE * cfg.nuisance_strength
                       * g.normal(0.0, 1.0, size=(f, f)) / math.sqrt(f))
    offset = _OFFSET_SCALE * cfg.nuisance_strength * g.normal(0.0, 1.0, size=f)
    x = feature_map(z) @ mix.T + offset
    if cfg.observation_noise > 0:
        x = x + g.normal(0.0, cfg.observation_noise, size=x.shape)
    return x


def generate_dataset(cfg: GeneratorConfig) -> Dataset:
    """Generate the full benchmark; identical config (incl. seed) => identical bits."""
    root = RngState(cfg.seed)
    feature_map = _feature_map(cfg, root.split(0))
    sequences = []
    for i in range(cfg.num_sequences):
        seq_rng = root.split(1, i)
        g = seq_rng.gen
        n = int(g.integers(cfg.frames_range[0], cfg.frames_range[1] + 1))
        traj = _trajectory(cfg, seq_rng)
        u = _progress_grid(n, cfg.speed_jitter, seq_rng)
        z = traj(u)
        x = _render(cfg, feature_map, z, seq_rng)
        sequences.append(Sequence(id=f"seq{i:03d}", frames=x, latent=z))
    return Dataset(dimension=cfg.feature_dim, sequences=tuple(sequences))


def resample_pair(cfg: GeneratorConfig, seed: int,
                  target_scale: float = 1.0) -> tuple[Sequence, Sequence, np.ndarray]:
    """One latent trajectory rendered twice, with the true correspondence.

    Both renderings sample the same continuous path at independently
    jittered time grids and receive independent nuisance maps and noise.
    The returned assignment maps each query frame to the target frame whose
    progress is nearest (1-based; never the outlier index), and is
    non-decreasing by construction. ``target_scale`` stretches the target's
    frame count, e.g. 2.0 renders the target at twice the frame rate.
    """
    if target_scale <= 0:
        raise ConfigError("target_scale must be positive")
    root = RngState(seed)
    feature_map = _feature_map(cfg, root.split(0))
    g = root.split(1).gen
    n_query = int(g.integers(cfg.frames_range[0], cfg.frames_range[1] + 1))
    n_target = max(2, int(round(n_query * target_scale)))
    traj = _trajectory(cfg, root.split(2))

    u_q = _progress_grid(n_query, cfg.speed_jitter, root.split(3))
    u_t = _progress_grid(n_target, cfg.speed_jitter, root.split(4))
    z_q, z_t = traj(u_q), traj(u_t)
    x_q = _render(cfg, feature_map, z_q, root.split(5))
    x_t = _render(cfg, feature_map, z_t, root.split(6))

    nearest = np.abs(u_q[:, None] - u_t[None, :]).argmin(axis=1)
    truth = (nearest + 1).astype(np.int64)

    query = Sequence(id="resample-a", frames=x_q, latent=z_q)
    target = Sequence(id="resample-b", frames=x_t, latent=z_t)
    return query, target, truth


def alignment_pair_config(base: GeneratorConfig) -> GeneratorConfig:
    """Instance settings for correspondence-accuracy evaluation.

    Resampled pairs draw fresh nuisance maps that an embedding trained on a
    fixed sequence collection has never seen, so pair nuisance stays mild;
    heavier observation noise and speed jitter supply the corruption that
    per-frame nearest neighbors cannot fight but temporal constraints can.
    A single latent cycle keeps the true correspondence unambiguous at
    frame resolution.
    """
    return replace(
        base,
        cycles_range=(0.8, 1.2),
        nuisance_strength=0.1,
        observation_noise=0.3,
        speed_jitter=0.4,
    )
