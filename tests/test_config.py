import dataclasses
import json

import pytest

from seqrep.core import ConfigError
from seqrep.align import default_penalties
from seqrep.config import (
    EvalConfig,
    PenaltyConfig,
    RunConfig,
    config_from_dict,
    load_config,
    reference_run_config,
)


class TestDefaults:
    def test_top_level(self):
        cfg = RunConfig()
        assert cfg.chunk_len == 80
        assert cfg.context_len == 4
        assert cfg.seed == 20240511

    def test_train_section(self):
        t = RunConfig().train
        assert t.triplets_per_batch == 300
        assert t.margin == 0.2
        assert t.percentile_start == 100.0
        assert t.percentile_step == 10.0
        assert t.percentile_floor == 30.0
        assert t.learning_rate == 0.02
        assert t.momentum == 0.9
        assert t.neighborhood_size == 10
        assert t.exclusion_window == 2
        assert t.hidden_dim == 256
        assert t.embed_dim == 128

    def test_generator_section(self):
        g = RunConfig().generator
        assert g.latent_dim == 2
        assert g.feature_dim == 64
        assert g.num_sequences == 12

    def test_predictor_section(self):
        p = RunConfig().predictor
        assert p.hidden_dim == 512
        assert p.momentum == 0.9

    def test_penalties_default_to_instance_relative(self, rng):
        pc = RunConfig().penalties
        assert pc == PenaltyConfig()
        q, t = rng.gen.normal(size=(4, 3)), rng.gen.normal(size=(5, 3))
        assert pc.resolve(q, t) == default_penalties(q, t)

    def test_defaults_are_the_reference_run(self):
        """Every default, written out: ``RunConfig()`` is the reference run."""
        assert dataclasses.asdict(RunConfig()) == {
            "seed": 20240511,
            "chunk_len": 80,
            "context_len": 4,
            "penalties": {"lambda1": None, "lambda2": None, "lambda3": None,
                          "outlier_cost": None},
            "generator": {"num_sequences": 12, "frames_range": (140, 160), "latent_dim": 2,
                          "cycles_range": (1.7, 2.3), "feature_dim": 64,
                          "nuisance_strength": 1.0, "observation_noise": 0.05,
                          "speed_jitter": 0.3, "drift_strength": 0.15, "seed": 20240511},
            "train": {"triplets_per_batch": 300, "margin": 0.2, "percentile_start": 100.0,
                      "percentile_step": 10.0, "percentile_floor": 30.0,
                      "learning_rate": 0.02, "momentum": 0.9, "max_epochs": 30,
                      "neighborhood_size": 10, "exclusion_window": 2, "hidden_dim": 256,
                      "embed_dim": 128, "pairs_per_epoch": None, "bootstrap_epochs": 5},
            "predictor": {"hidden_dim": 512, "learning_rate": 0.03, "momentum": 0.9,
                          "max_epochs": 40, "batch_size": 128},
            "eval": {"num_queries": 500, "pose_epsilon": None, "k_max": 10,
                     "exclusion_window": 2, "alignment_pairs": 20},
        }

    @pytest.mark.parametrize("seed", [20240511, 0, 777])
    def test_reference_run_config_is_an_alias(self, seed):
        assert reference_run_config(seed) == RunConfig().with_seed(seed)
        assert reference_run_config() == RunConfig()


class TestLoading:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert load_config(path) == cfg

    def test_unknown_root_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key nope"):
            config_from_dict({"nope": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="train.typo"):
            config_from_dict({"train": {"typo": 3}})

    def test_tuple_fields_coerced(self):
        cfg = config_from_dict({"generator": {"frames_range": [10, 20]}})
        assert cfg.generator.frames_range == (10, 20)

    def test_bad_tuple_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"generator": {"frames_range": [10]}})

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "none.json")

    def test_removed_keys_are_unknown(self):
        with pytest.raises(ConfigError, match="unknown config key threads"):
            config_from_dict({"threads": 2})
        with pytest.raises(ConfigError, match="eval.num_clusters"):
            config_from_dict({"eval": {"num_clusters": 16}})
        with pytest.raises(ConfigError, match="unknown config key train.mining"):
            config_from_dict({"train": {"mining": 1}})
        with pytest.raises(ConfigError, match="unknown config key train.epsilon"):
            config_from_dict({"train": {"epsilon": 1e-4}})
        with pytest.raises(ConfigError, match="unknown config key predictor.epsilon"):
            config_from_dict({"predictor": {"epsilon": 1e-4}})

    @pytest.mark.parametrize("data", [
        {"chunk_len": 20.5},
        {"seed": "7"},
        {"train": {"neighborhood_size": 2.0}},
        {"train": {"pairs_per_epoch": 1.5}},
        {"generator": {"frames_range": [36.5, 44]}},
        {"train": {"margin": "0.2"}},
        {"train": {"exclusion_window": 2.5}},
        {"penalties": {"lambda1": [1.0]}},
        {"predictor": {"batch_size": True}},
    ])
    def test_values_must_have_the_declared_type(self, data):
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_numbers_accepted_where_declared(self):
        cfg = config_from_dict({"train": {"margin": 1, "pairs_per_epoch": None, "momentum": 0},
                                "penalties": {"lambda1": 2},
                                "generator": {"cycles_range": [1, 2.5]}})
        assert cfg.train.margin == 1 and cfg.train.pairs_per_epoch is None
        assert cfg.train.momentum == 0
        assert cfg.penalties.lambda1 == 2
        assert cfg.generator.cycles_range == (1, 2.5)

    def test_section_values_validated(self):
        with pytest.raises(ConfigError):
            config_from_dict({"chunk_len": 1})
        with pytest.raises(ConfigError):
            config_from_dict({"train": {"margin": -1.0}})
        with pytest.raises(ConfigError, match="neighborhood_size"):
            config_from_dict({"train": {"neighborhood_size": 0}})


class TestPenaltyResolution:
    def test_explicit_when_fully_specified(self, rng):
        pc = PenaltyConfig(lambda1=1.0, lambda2=2.0, lambda3=3.0, outlier_cost=4.0)
        q, t = rng.gen.normal(size=(4, 3)), rng.gen.normal(size=(5, 3))
        pen = pc.resolve(q, t)
        assert (pen.lambda1, pen.lambda2, pen.lambda3, pen.outlier_cost) == (1, 2, 3, 4)

    def test_partial_override_resolves_rest_from_instance(self, rng):
        g = rng.gen
        q, t = g.normal(size=(4, 3)), g.normal(size=(5, 3))
        base = default_penalties(q, t)
        pc = PenaltyConfig(lambda1=7.0)
        pen = pc.resolve(q, t)
        assert pen.lambda1 == 7.0
        assert pen.lambda2 == base.lambda2
        assert pen.outlier_cost == base.outlier_cost

    def test_relative_defaults_scale_with_instance(self, rng):
        g = rng.gen
        q, t = g.normal(size=(4, 3)), g.normal(size=(5, 3))
        pen1 = PenaltyConfig().resolve(q, t)
        pen2 = PenaltyConfig().resolve(10 * q, 10 * t)
        assert pen2.lambda1 > pen1.lambda1


def test_with_seed_overrides_everywhere():
    cfg = RunConfig().with_seed(777)
    assert cfg.seed == 777
    assert cfg.generator.seed == 777


def test_eval_config_validation():
    with pytest.raises(ConfigError):
        EvalConfig(num_queries=0)


@pytest.mark.parametrize("section, key, value", [
    ("train", "exclusion_window", -1),
    ("train", "percentile_step", -10.0),
    ("eval", "exclusion_window", -1),
])
def test_negative_windows_and_percentile_step_rejected(section, key, value):
    # a negative window lets a frame be its own negative or its own k-NN;
    # a negative step drives the mining percentile above 100
    with pytest.raises(ConfigError, match=key):
        config_from_dict({section: {key: value}})


def test_negative_noise_sigma_rejected_at_load():
    # the input jitter is gone: any train.noise_sigma, negative or not, is an
    # unknown key at load instead of a value checked later
    for value in (-1.0, 0, 0.05):
        with pytest.raises(ConfigError, match="unknown config key train.noise_sigma"):
            config_from_dict({"train": {"noise_sigma": value}})


@pytest.mark.parametrize("section, key, value", [
    ("train", "max_epochs", 0),
    ("train", "pairs_per_epoch", 0),
    ("train", "pairs_per_epoch", -2),
    ("train", "hidden_dim", 0),
    ("train", "embed_dim", 0),
    ("train", "momentum", 1.0),
    ("train", "momentum", -1),
    ("predictor", "max_epochs", 0),
    ("predictor", "batch_size", 0),
    ("predictor", "hidden_dim", 0),
    ("predictor", "learning_rate", 0),
    ("predictor", "momentum", 1.5),
    ("predictor", "momentum", -1),
])
def test_run_lengths_sizes_and_momentum_rejected(section, key, value):
    # each of these used to train silently (zero batches, the random initial
    # model, an unbounded momentum) or crash with ZeroDivisionError
    with pytest.raises(ConfigError, match=f"{key} must"):
        config_from_dict({section: {key: value}})


@pytest.mark.parametrize("section, key, value", [
    ("train", "learning_rate", float("nan")),
    ("train", "margin", float("inf")),
    ("predictor", "learning_rate", float("inf")),
    ("generator", "observation_noise", float("nan")),
    ("penalties", "lambda3", float("-inf")),
    ("eval", "pose_epsilon", float("nan")),
])
def test_non_finite_floats_rejected(section, key, value):
    # json reads NaN and Infinity; these used to load and then diverge at the
    # first batch, or (NaN > 0 being false) generate noise-free data
    data = json.loads(json.dumps({section: {key: value}}))
    with pytest.raises(ConfigError, match=f"{section}.{key} must be finite"):
        config_from_dict(data)


def test_set_penalty_weights_must_be_finite_and_non_negative():
    # a negative weight used to load and fail only once the first pair resolved it
    with pytest.raises(ConfigError, match="penalties.lambda1 must be finite and >= 0"):
        config_from_dict({"penalties": {"lambda1": -1}})
    with pytest.raises(ConfigError, match="penalties.outlier_cost"):
        PenaltyConfig(outlier_cost=float("nan"))
    assert PenaltyConfig(lambda2=0).lambda2 == 0


@pytest.mark.parametrize("value", [0, -0.5])
def test_non_positive_pose_epsilon_rejected(value):
    with pytest.raises(ConfigError, match="pose_epsilon must be > 0"):
        config_from_dict({"eval": {"pose_epsilon": value}})


@pytest.mark.parametrize("blob", [
    b'{"train": {"margin": 0.2}, "note": "caf\xe9"}',
    b'{"train": ' + b"[" * 100_000,
], ids=["latin-1", "nested-too-deep"])
def test_undecodable_config_is_config_error(tmp_path, blob):
    # both used to escape as UnicodeDecodeError or RecursionError (exit 2)
    p = tmp_path / "bad.json"
    p.write_bytes(blob)
    with pytest.raises(ConfigError, match="bad.json: not UTF-8 JSON"):
        load_config(p)


def test_integers_beyond_float_range_rejected():
    # found by fuzzing: a float field took 10**400 as an int, which then
    # raised OverflowError when the weight or rate was first used (exit 2)
    for section, key in [("penalties", "lambda1"), ("train", "learning_rate")]:
        with pytest.raises(ConfigError, match=f"{section}.{key} must be finite"):
            config_from_dict({section: {key: 10**400}})
    assert config_from_dict({"train": {"margin": 2**64}}).train.margin == 2**64
