import dataclasses
import math

import numpy as np
import pytest

from seqrep.core import ConfigError
from seqrep.config import reference_run_config
from seqrep.synthdata import (
    _DRIFT_FREQ_HI,
    _MIN_SPEED,
    GeneratorConfig,
    alignment_pair_config,
    generate_dataset,
    resample_pair,
)

SMALL = GeneratorConfig(num_sequences=4, frames_range=(40, 50), seed=7)


def max_latent_step(cfg: GeneratorConfig, n_frames: int) -> float:
    """Config-derived bound on consecutive latent displacement."""
    du = (1.0 + cfg.speed_jitter) / ((n_frames - 1) * max(_MIN_SPEED, 1.0 - cfg.speed_jitter))
    phase_step = 2.0 * math.pi * cfg.cycles_range[1] * du
    drift_rate = cfg.drift_strength * 2.0 * math.pi * _DRIFT_FREQ_HI
    return phase_step + math.sqrt(cfg.latent_dim) * drift_rate * du


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(num_sequences=1)
        with pytest.raises(ConfigError):
            GeneratorConfig(frames_range=(50, 40))
        with pytest.raises(ConfigError):
            GeneratorConfig(latent_dim=1)
        with pytest.raises(ConfigError):
            GeneratorConfig(feature_dim=2, latent_dim=2)
        with pytest.raises(ConfigError):
            GeneratorConfig(observation_noise=-0.1)

    def test_reference_shape(self):
        cfg = reference_run_config().generator
        ds = generate_dataset(cfg)
        assert len(ds) == 12
        assert ds.dimension == 64
        assert {s.latent.shape[1] for s in ds} == {2}
        assert all(140 <= len(s) <= 160 for s in ds)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = generate_dataset(SMALL)
        b = generate_dataset(SMALL)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.frames, sb.frames)
            np.testing.assert_array_equal(sa.latent, sb.latent)

    def test_distinct_seeds_differ(self):
        a = generate_dataset(SMALL)
        b = generate_dataset(dataclasses.replace(SMALL, seed=8))
        assert not np.array_equal(a.sequences[0].frames, b.sequences[0].frames)


class TestLatentStructure:
    def test_continuity_bound(self):
        ds = generate_dataset(SMALL)
        for s in ds:
            bound = max_latent_step(SMALL, len(s))
            steps = np.linalg.norm(np.diff(s.latent, axis=0), axis=1)
            assert float(steps.max()) <= bound

    def test_cycle_count_via_phase_and_autocorrelation(self):
        cfg = GeneratorConfig(num_sequences=2, frames_range=(240, 240),
                              cycles_range=(3.0, 3.0), speed_jitter=0.2,
                              drift_strength=0.1, seed=21)
        ds = generate_dataset(cfg)
        for s in ds:
            z = s.latent
            phase = np.unwrap(np.arctan2(z[:, 1], z[:, 0]))
            recovered = (phase[-1] - phase[0]) / (2 * np.pi)
            assert recovered == pytest.approx(3.0, abs=0.5)

            # autocorrelation of the cos-phase coordinate peaks once per cycle
            x = z[:, 0] - z[:, 0].mean()
            ac = np.correlate(x, x, mode="full")[len(x) - 1:]
            ac /= ac[0]
            interior = [
                lag for lag in range(2, len(ac) - 2)
                if ac[lag] > ac[lag - 1] and ac[lag] >= ac[lag + 1] and ac[lag] > 0.2
            ]
            peaks = []
            for lag in interior:  # collapse plateau neighbors
                if not peaks or lag - peaks[-1] > 5:
                    peaks.append(lag)
            assert abs(len(peaks) - 3.0) <= 1


class TestResamplePair:
    def test_zero_jitter_identity(self):
        cfg = dataclasses.replace(SMALL, speed_jitter=0.0)
        _, _, truth = resample_pair(cfg, seed=5)
        np.testing.assert_array_equal(truth, np.arange(1, len(truth) + 1))

    def test_double_rate_target_has_stride_two(self):
        cfg = dataclasses.replace(SMALL, speed_jitter=0.0)
        q, t, truth = resample_pair(cfg, seed=5, target_scale=2.0)
        assert len(t) == 2 * len(q)
        strides = np.diff(truth)
        assert np.mean(strides) == pytest.approx(2.0, abs=0.1)

    def test_truth_is_monotone(self):
        for seed in range(6):
            _, _, truth = resample_pair(SMALL, seed=seed)
            assert np.all(np.diff(truth) >= 0)
            assert truth.min() >= 1

    def test_shared_trajectory_identical_when_nuisance_free(self):
        cfg = dataclasses.replace(SMALL, nuisance_strength=0.0,
                                  observation_noise=0.0, speed_jitter=0.0)
        q, t, _ = resample_pair(cfg, seed=3)
        np.testing.assert_array_equal(q.frames, t.frames)

    def test_deterministic(self):
        q1, t1, p1 = resample_pair(SMALL, seed=9)
        q2, t2, p2 = resample_pair(SMALL, seed=9)
        np.testing.assert_array_equal(q1.frames, q2.frames)
        np.testing.assert_array_equal(t1.frames, t2.frames)
        np.testing.assert_array_equal(p1, p2)


def test_alignment_pair_config_derivation():
    base = reference_run_config().generator
    cfg = alignment_pair_config(base)
    assert cfg.cycles_range == (0.8, 1.2)
    assert cfg.nuisance_strength < base.nuisance_strength
    assert cfg.feature_dim == 64
