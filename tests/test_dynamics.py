import math
from dataclasses import replace

import numpy as np
import pytest

import seqrep as sr
from seqrep.core import (
    ConfigError,
    DegenerateInputError,
    Dataset,
    DimensionError,
    DivergenceError,
    RngState,
    Sequence,
)
from seqrep.dynamics import (
    PredictorConfig,
    RecurrentPredictor,
    batch_loss_and_grad,
    init_predictor,
    interpolate_features,
    predict_next,
    rnn_forward_batch,
    synthesize,
    train_predictor,
)
from seqrep.embed import embed_batch, init_embedding_model

from conftest import random_unit_rows


def zero_predictor(d=3, m=5, bias=None, context_len=4):
    by = np.zeros(d) if bias is None else np.asarray(bias, float)
    theta = np.concatenate([np.zeros(d * 4 * m + m * 4 * m + 4 * m + m * d), by])
    return RecurrentPredictor(theta, d, m, context_len)


def forward_with_zero_state_product(pred, contexts):
    """The gated cell with h0 @ Wh computed at step 0 too, though h0 = 0."""
    m = pred.hidden_dim
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    h = np.zeros((contexts.shape[0], m))
    c = np.zeros_like(h)
    for t in range(contexts.shape[1]):
        z = contexts[:, t] @ pred.Wx + h @ pred.Wh + pred.b
        c = sig(z[:, m:2 * m]) * c + sig(z[:, :m]) * np.tanh(z[:, 2 * m:3 * m])
        h = sig(z[:, 3 * m:]) * np.tanh(c)
    return h @ pred.Wy + pred.by


class TestModel:
    def test_blocks_are_views_in_container_order(self):
        p = init_predictor(3, 6, 4, RngState(1))
        parts = (p.Wx, p.Wh, p.b, p.Wy, p.by)
        np.testing.assert_array_equal(p.theta, np.concatenate([x.ravel() for x in parts]))
        assert all(np.shares_memory(x, p.theta) for x in parts)
        assert p.b[6:12].tolist() == [1.0] * 6  # unit forget-gate bias

    def test_construction_validates(self):
        theta = zero_predictor().theta
        with pytest.raises(DimensionError):
            RecurrentPredictor(theta[1:], 3, 5)
        with pytest.raises(ConfigError):
            RecurrentPredictor(theta, 3, 5, context_len=0)
        theta[0] = np.inf
        with pytest.raises(DegenerateInputError):
            RecurrentPredictor(theta, 3, 5)


class TestForward:
    def test_zero_parameters_output_head_bias(self, rng):
        bias = np.array([0.5, -1.0, 2.0])
        pred = zero_predictor(bias=bias)
        for length in (1, 4, 9):
            contexts = rng.gen.normal(size=(2, length, 3))
            np.testing.assert_allclose(rnn_forward_batch(pred, contexts), [bias, bias])

    def test_default_context_len_is_four(self):
        assert init_predictor(8, 16).context_len == 4

    def test_hidden_must_exceed_embed(self):
        with pytest.raises(ConfigError):
            init_predictor(8, 8)

    def test_order_sensitivity(self, rng):
        hits = 0
        for k in range(20):
            pred = init_predictor(3, 6, 4, RngState(500 + k))
            ctx = rng.gen.normal(size=(4, 3))
            base, flipped = rnn_forward_batch(pred, np.stack([ctx, ctx[::-1]]))
            hits += not np.allclose(base, flipped)
        assert hits >= 1

    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_skipping_the_zero_state_product_is_bit_exact(self, rng, length):
        pred = init_predictor(5, 12, length, RngState(7))
        contexts = rng.gen.normal(size=(9, length, 5))
        np.testing.assert_array_equal(rnn_forward_batch(pred, contexts),
                                      forward_with_zero_state_product(pred, contexts))

    def test_dimension_mismatch(self, rng):
        pred = init_predictor(3, 6, 4, RngState(1))
        with pytest.raises(DimensionError):
            rnn_forward_batch(pred, rng.gen.normal(size=(1, 4, 5)))
        with pytest.raises(DimensionError):
            rnn_forward_batch(pred, rng.gen.normal(size=(4, 3)))


class TestLoss:
    """The regression loss: squared euclidean error, averaged over the batch."""

    def test_zero_when_equal(self, rng):
        v = rng.gen.normal(size=4)
        contexts = rng.gen.normal(size=(2, 3, 4))
        loss, _ = batch_loss_and_grad(zero_predictor(d=4, bias=v), contexts,
                                      np.stack([v, v]))
        assert loss == 0.0

    def test_unit_axes(self, rng):
        contexts = rng.gen.normal(size=(1, 3, 2))
        loss, _ = batch_loss_and_grad(zero_predictor(d=2, bias=[1.0, 0.0]), contexts,
                                      np.array([[0.0, 1.0]]))
        assert loss == 2.0

    def test_equals_shared_primitive(self, rng):
        pred = init_predictor(6, 8, 3, RngState(3))
        contexts = rng.gen.normal(size=(5, 3, 6))
        targets = rng.gen.normal(size=(5, 6))
        loss, _ = batch_loss_and_grad(pred, contexts, targets)
        d2 = sr.pairwise_sqdist(rnn_forward_batch(pred, contexts), targets)
        assert loss == pytest.approx(float(np.mean(np.diag(d2))), rel=1e-12)


class TestGradient:
    def test_bptt_matches_finite_differences(self):
        from gradcheck import max_block_relative_error, numeric_gradients

        worst = 0.0
        for k in range(5):
            r = RngState(700 + k)
            pred = init_predictor(3, 6, 3, r)
            g = r.gen
            contexts = g.normal(size=(4, 3, 3))
            targets = g.normal(size=(4, 3))
            _, grads = batch_loss_and_grad(pred, contexts, targets)

            def loss_fn(theta):
                return batch_loss_and_grad(replace(pred, theta=theta), contexts, targets)[0]

            numeric = numeric_gradients(loss_fn, pred.theta)
            worst = max(worst, max_block_relative_error(pred, grads, numeric))
        assert worst < 1e-4


def cyclic_dataset(seed=11, n_seq=3, n=40, d=6):
    """Tiny deterministic cycles for predictor plumbing tests."""
    g = RngState(seed).gen
    proj = g.normal(size=(2, d))
    seqs = []
    for i in range(n_seq):
        phase = np.linspace(0, 2 * np.pi, n, endpoint=False) + g.uniform(0, 2 * np.pi)
        z = np.stack([np.cos(phase), np.sin(phase)], axis=1)
        seqs.append(Sequence(id=f"s{i}", frames=z @ proj + 0.01 * g.normal(size=(n, d)),
                             latent=z))
    return Dataset(dimension=d, sequences=tuple(seqs))


@pytest.fixture(scope="module")
def tiny_setup():
    ds = cyclic_dataset()
    model = init_embedding_model(ds.dimension, 12, 6, RngState(3))
    cfg = PredictorConfig(hidden_dim=10, learning_rate=0.05, max_epochs=8,
                          batch_size=32)
    pred, log = train_predictor(ds, model, context_len=4, config=cfg,
                                rng=RngState(9))
    return ds, model, pred, log


class TestTrainPredictor:
    def test_loss_decreases(self, tiny_setup):
        _, _, _, log = tiny_setup
        assert log.epoch_loss[5] < log.epoch_loss[0]

    def test_short_sequences_skipped_with_warning(self, caplog):
        ds = cyclic_dataset()
        short = Sequence(id="short", frames=np.zeros((3, ds.dimension)))
        mixed = Dataset(dimension=ds.dimension,
                        sequences=ds.sequences + (short,))
        model = init_embedding_model(ds.dimension, 12, 6, RngState(3))
        cfg = PredictorConfig(hidden_dim=10, max_epochs=1, batch_size=32)
        with caplog.at_level("WARNING"):
            _, log = train_predictor(mixed, model, context_len=4, config=cfg,
                                     rng=RngState(9))
        assert log.skipped_sequences == ["short"]
        assert any("short" in r.message for r in caplog.records)

    def test_invariant_to_dataset_order(self):
        ds = cyclic_dataset()
        seqs = [Sequence(id=s.id, frames=s.frames[:n]) for s, n in zip(ds, (40, 23, 31))]
        short = Sequence(id="short", frames=np.zeros((4, ds.dimension)))
        model = init_embedding_model(ds.dimension, 12, 6, RngState(3))
        cfg = PredictorConfig(hidden_dim=10, max_epochs=2, batch_size=7)
        runs = []
        for order in [[short] + seqs, seqs[::-1] + [short]]:
            mixed = Dataset(dimension=ds.dimension, sequences=tuple(order))
            runs.append(train_predictor(mixed, model, context_len=4, config=cfg,
                                        rng=RngState(9)))
        (p1, log1), (p2, log2) = runs
        np.testing.assert_array_equal(p1.theta, p2.theta)
        assert log1.epoch_loss == log2.epoch_loss
        assert log1.skipped_sequences == log2.skipped_sequences == ["short"]

    def test_all_short_raises(self):
        ds = Dataset(dimension=2, sequences=(
            Sequence(id="a", frames=np.zeros((3, 2))),
            Sequence(id="b", frames=np.zeros((2, 2))),
        ))
        model = init_embedding_model(2, 6, 1, RngState(0))
        with pytest.raises(ConfigError):
            train_predictor(ds, model, context_len=4,
                            config=PredictorConfig(hidden_dim=4), rng=RngState(0))

    def test_deterministic(self):
        ds = cyclic_dataset()
        model = init_embedding_model(ds.dimension, 12, 6, RngState(3))
        cfg = PredictorConfig(hidden_dim=10, max_epochs=2, batch_size=32)
        p1, _ = train_predictor(ds, model, context_len=4, config=cfg, rng=RngState(7))
        p2, _ = train_predictor(ds, model, context_len=4, config=cfg, rng=RngState(7))
        np.testing.assert_array_equal(p1.theta, p2.theta)

    def test_divergence_names_stage_epoch_and_batch(self):
        ds = cyclic_dataset()
        model = init_embedding_model(ds.dimension, 12, 6, RngState(3))
        cfg = PredictorConfig(hidden_dim=10, max_epochs=1, batch_size=32,
                              learning_rate=1e200)
        with pytest.raises(DivergenceError) as info, np.errstate(all="ignore"):
            train_predictor(ds, model, context_len=4, config=cfg, rng=RngState(7))
        err = info.value
        assert (err.stage, err.epoch) == ("predictor", 0) and err.batch >= 1
        assert "predictor training diverged at epoch 0" in str(err)

    def test_blow_up_is_divergence(self, small_dataset):
        # lr 100 stays finite for a while, so only the loss ratio catches it
        model = init_embedding_model(small_dataset.dimension, 16, 8, RngState(0))
        cfg = PredictorConfig(hidden_dim=12, max_epochs=2, batch_size=32,
                              learning_rate=100.0)
        with pytest.raises(DivergenceError, match="blew up") as info:
            train_predictor(small_dataset, model, config=cfg, rng=RngState(0))
        assert (info.value.stage, info.value.epoch) == ("predictor", 0)
        assert math.isfinite(info.value.loss)


class TestPredictNext:
    def test_equals_composition(self, tiny_setup):
        ds, model, pred, _ = tiny_setup
        frames = ds.sequences[0].frames[:4]
        direct = predict_next(pred, model, frames)
        composed = rnn_forward_batch(pred, embed_batch(model, frames)[None])[0]
        np.testing.assert_array_equal(direct, composed)
        np.testing.assert_array_equal(direct, predict_next(pred, model, frames))

    def test_wrong_count_rejected(self, tiny_setup):
        ds, model, pred, _ = tiny_setup
        with pytest.raises(ConfigError, match="exactly 4 frames, got 3"):
            predict_next(pred, model, ds.sequences[0].frames[:3])


class TestSynthesize:
    def test_single_step_is_decode_of_predict_next(self, tiny_setup):
        ds, model, pred, _ = tiny_setup
        seed_frames = ds.sequences[0].frames[:4]
        trail = synthesize(pred, model, seed_frames, 1, ds)
        guess = predict_next(pred, model, seed_frames)
        cb = np.concatenate([embed_batch(model, s.frames) for s in ds], axis=0)
        refs = [(s.id, i) for s in ds for i in range(len(s))]
        j = int(np.argmin(np.sum((cb - guess) ** 2, axis=1)))
        assert trail == [refs[j]]

    def test_length_and_reproducibility(self, tiny_setup):
        ds, model, pred, _ = tiny_setup
        seed_frames = ds.sequences[1].frames[:4]
        t1 = synthesize(pred, model, seed_frames, 12, ds)
        t2 = synthesize(pred, model, seed_frames, 12, ds)
        assert len(t1) == 12 and t1 == t2

    def test_validation(self, tiny_setup):
        ds, model, pred, _ = tiny_setup
        with pytest.raises(ConfigError):
            synthesize(pred, model, ds.sequences[0].frames[:4], 0, ds)
        with pytest.raises(ConfigError):
            synthesize(pred, model, ds.sequences[0].frames[:4], 3, [])
        with pytest.raises(ConfigError, match="exactly 4 seed frames, got 3"):
            synthesize(pred, model, ds.sequences[0].frames[:3], 3, ds)

    def test_cyclic_trail_advances(self, ref_config, ref_dataset, ref_model,
                                   ref_predictor):
        seq = ref_dataset.sequences[0]
        trail = synthesize(ref_predictor, ref_model, seq.frames[:4], 40, ref_dataset)
        phases = []
        for sid, idx in trail:
            z = ref_dataset.by_id(sid).latent[idx]
            phases.append(np.arctan2(z[1], z[0]))
        advances = np.diff(np.unwrap(phases)) > 0
        assert advances.mean() >= 0.8


class TestInterpolate:
    def test_identical_endpoints(self):
        a = np.array([0.0, 1.0])
        np.testing.assert_allclose(interpolate_features(a, a, 1)[0], a)

    def test_midpoint_of_unit_axes(self):
        out = interpolate_features([1.0, 0.0], [0.0, 1.0], 1)[0]
        np.testing.assert_allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_outputs_unit_norm(self, rng):
        a = random_unit_rows(rng.gen, 1, 8)[0]
        b = random_unit_rows(rng.gen, 1, 8)[0]
        for v in interpolate_features(a, b, 5):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-6

    def test_antipodal_rejected(self):
        a = np.array([1.0, 0.0])
        with pytest.raises(DegenerateInputError):
            interpolate_features(a, -a, 1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            interpolate_features([1.0, 0.0], [0.0, 1.0], 0)
        with pytest.raises(DimensionError):
            interpolate_features([1.0, 0.0], [0.0, 1.0, 0.0], 1)
