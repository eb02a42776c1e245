import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import seqrep as sr
from seqrep import dynamics
from seqrep.core import (
    ConfigError,
    DegenerateInputError,
    Dataset,
    DimensionError,
    DivergenceError,
    RngState,
    Sequence,
    TrainLog,
)
from seqrep.dynamics import (
    PredictorConfig,
    RecurrentPredictor,
    _cell_backward,
    _cell_forward,
    batch_loss_and_grad,
    init_predictor,
    interpolate_features,
    rnn_forward_batch,
    synthesize,
    train_predictor,
    transition_pairs,
)
from seqrep.embed import embed_batch, init_embedding_model
from seqrep.seqpack import save_predictor

from conftest import float64, random_unit_rows


def predict_next(pred, model, frames):
    """Embed a context of raw frames and predict the next embedding."""
    return rnn_forward_batch(pred, embed_batch(model, frames)[None])[0]


def zero_predictor(d=3, m=5, bias=None, context_len=4):
    by = np.zeros(d) if bias is None else np.asarray(bias, float)
    theta = np.concatenate([np.zeros(d * 4 * m + m * 4 * m + 4 * m + m * d), by])
    return RecurrentPredictor(theta, d, m, context_len)


def per_step_forward(pred, contexts):
    """The gated cell one step at a time, with h0 @ Wh computed at step 0 too
    though h0 = 0; returns the head output, the last h and the per-step cache."""
    m = pred.hidden_dim
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    h = c = np.zeros((contexts.shape[0], m))
    cache = []
    for t in range(contexts.shape[1]):
        z = contexts[:, t] @ pred.Wx + h @ pred.Wh + pred.b
        i, f, o = sig(z[:, :m]), sig(z[:, m:2 * m]), sig(z[:, 3 * m:])
        g = np.tanh(z[:, 2 * m:3 * m])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        cache.append((contexts[:, t], h, c, i, f, g, o, tc))
        h, c = o * tc, c_new
    return h @ pred.Wy + pred.by, h, cache


def per_step_backward(pred, cache, h_last, d_y):
    """BPTT one step at a time, accumulating every block over the steps."""
    grad = np.zeros_like(pred.theta)
    grads = pred.blocks(grad)
    grads["Wy"][...] = h_last.T @ d_y
    grads["by"][...] = d_y.sum(axis=0)
    dh = d_y @ pred.Wy.T
    dc = np.zeros_like(dh)
    for x_t, h_prev, c_prev, i, f, g, o, tc in reversed(cache):
        dc = dc + dh * o * (1.0 - tc * tc)
        do = dh * tc
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = np.concatenate(
            [di * i * (1 - i), df * f * (1 - f), dg * (1 - g * g), do * o * (1 - o)],
            axis=1,
        )
        grads["Wx"] += x_t.T @ dz
        grads["Wh"] += h_prev.T @ dz
        grads["b"] += dz.sum(axis=0)
        dh = dz @ pred.Wh.T
        dc = dc * f
    return grad


def allocating_cell_backward(pred, cache, d_y):
    """The gate-major backward with its own (l, 4m, B) dZ array; the cache stays as it was."""
    X, Z, (C, TC), H = cache
    m = pred.hidden_dim
    grad = np.empty_like(pred.theta)
    grads = pred.blocks(grad)
    grads["Wy"][...] = H[:, -1] @ d_y
    grads["by"][...] = d_y.sum(axis=0)
    dZ = np.empty_like(Z)
    dh = pred.Wy @ d_y.T
    dc = np.zeros_like(dh)
    for t in reversed(range(len(Z))):
        i, f, g, o = np.split(Z[t], 4)
        dc = dc + dh * o * (1.0 - TC[t] * TC[t])
        dZ[t] = np.concatenate([(dc * g * i) * (1.0 - i),
                                (dc * (C[t - 1] if t else 0.0) * f) * (1.0 - f),
                                (dc * i) * (1.0 - g * g),
                                (dh * TC[t] * o) * (1.0 - o)])
        dh = pred.Wh @ dZ[t]
        dc = dc * f
    gates = dZ.transpose(1, 0, 2).reshape(4 * m, -1)  # a copy: (4m, l·B), columns time-major
    grads["Wx"][...] = X.reshape(gates.shape[1], -1).T @ gates.T
    grads["Wh"][...] = H[:, :-1].reshape(m, -1) @ gates[:, X.shape[1]:].T
    grads["b"][...] = gates.sum(axis=1)
    return grad


def row_major_cell(pred, contexts, d_y):
    """The cell and its BPTT with the gates side by side in (B, 4m) rows, every
    array its own: returns the head output and the gradient."""
    m = pred.hidden_dim
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))  # the ops of dynamics._sigmoid_
    X = np.ascontiguousarray(contexts.transpose(1, 0, 2))
    Z, C, TC, H = [], [], [], []
    for t, x_t in enumerate(X):
        z = x_t @ pred.Wx + H[-1] @ pred.Wh if t else x_t @ pred.Wx
        z = z + pred.b
        i, f, o = sig(z[:, :m]), sig(z[:, m:2 * m]), sig(z[:, 3 * m:])
        g = np.tanh(z[:, 2 * m:3 * m])
        Z.append((i, f, g, o))
        C.append(f * (C[-1] if t else 0.0) + i * g)
        TC.append(np.tanh(C[-1]))
        H.append(o * TC[-1])
    H = np.stack(H)
    grad = np.empty_like(pred.theta)
    grads = pred.blocks(grad)
    grads["Wy"][...] = H[-1].T @ d_y
    grads["by"][...] = d_y.sum(axis=0)
    dZ = []
    dh = d_y @ pred.Wy.T
    dc = np.zeros_like(dh)
    for t in reversed(range(len(X))):
        i, f, g, o = Z[t]
        dc = dc + dh * o * (1.0 - TC[t] * TC[t])
        dZ.insert(0, np.concatenate([(dc * g * i) * (1.0 - i),
                                     (dc * (C[t - 1] if t else 0.0) * f) * (1.0 - f),
                                     (dc * i) * (1.0 - g * g),
                                     (dh * TC[t] * o) * (1.0 - o)], axis=1))
        dh = dZ[0] @ pred.Wh.T
        dc = dc * f
    rows = np.concatenate(dZ)  # (l·B, 4m), time-major
    grads["Wx"][...] = X.reshape(len(rows), -1).T @ rows
    grads["Wh"][...] = H[:-1].reshape(-1, m).T @ rows[len(X[0]):]
    grads["b"][...] = np.ascontiguousarray(rows.T).sum(axis=1)  # pairwise along each gate row
    return H[-1] @ pred.Wy + pred.by, grad


def per_step_loss_and_grad(pred, contexts, targets):
    """The reference for ``batch_loss_and_grad``: the same loss, per-step BPTT."""
    y, h_last, cache = per_step_forward(pred, contexts)
    resid = y - targets
    batch = contexts.shape[0]
    loss = float(np.sum(resid * resid) / batch)
    return loss, per_step_backward(pred, cache, h_last, 2.0 * resid / batch)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("step", [1, 3, 4])
def test_sigmoid_in_place_keeps_the_bits_on_a_strided_view(dtype, step):
    # numpy 2.4.6's in-place np.negative turned b[::4] of arange(1., 33.) in
    # float32 into [-1, -2, -3, -4, 2, ...]
    buf = (np.arange(-64, 64) / 8.0).astype(dtype)
    view = buf[::step]
    expect = 1 / (1 + np.exp(-view))
    dynamics._sigmoid_(view)
    assert view.dtype == dtype and view.tobytes() == expect.tobytes()


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
            RecurrentPredictor(theta[1:], 3, 5, 4)
        with pytest.raises(ConfigError):
            RecurrentPredictor(theta, 3, 5, context_len=0)
        with pytest.raises(ConfigError, match="embed dim must be >= 1"):
            RecurrentPredictor(np.zeros(5 * 20 + 20), 0, 5, 4)
        theta[0] = np.inf
        with pytest.raises(DegenerateInputError):
            RecurrentPredictor(theta, 3, 5, 4)
        with pytest.raises(DegenerateInputError):
            RecurrentPredictor(theta.astype(np.float32), 3, 5, 4)

    def test_init_keeps_the_stream_in_float32_and_bounded_memory(self):
        d, m = 128, 512
        init_predictor(3, 6, 4, RngState(0))  # first-call set-up is not the builder's
        tracemalloc.start()
        try:
            pred = init_predictor(d, m, 4, RngState(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # built as one float64 vector, then copied, the predictor peaked at 22.8 MB
        assert peak <= 15_000_000
        g = RngState(3).gen
        sx, sh, sy = 6.0 / math.sqrt(d), 2.0 / math.sqrt(m), 0.3 / math.sqrt(m)
        b = np.zeros(4 * m)
        b[m:2 * m] = 1.0
        draws = np.concatenate([g.uniform(-sx, sx, size=d * 4 * m),
                                g.uniform(-sh, sh, size=m * 4 * m), b,
                                g.uniform(-sy, sy, size=m * d), np.zeros(d)])
        assert pred.theta.dtype == np.float32
        np.testing.assert_array_equal(pred.theta, draws.astype(np.float32))

    @pytest.mark.parametrize("dtype, kept", [
        (np.float32, np.float32), (np.float64, np.float64), (np.float16, np.float64),
        (np.int64, np.float64)])
    def test_theta_dtype_is_float32_or_float64(self, dtype, kept):
        pred = init_predictor(3, 6, 4, RngState(1))
        theta = pred.theta.astype(dtype)
        for made in (RecurrentPredictor(theta, 3, 6, 4), replace(pred, theta=theta)):
            assert made.theta.dtype == kept and not np.shares_memory(made.theta, theta)
            assert all(v.dtype == kept for v in made.blocks(made.theta).values())
        assert RecurrentPredictor(pred.theta.tolist(), 3, 6, 4).theta.dtype == np.float64
        assert replace(pred, context_len=2).theta.dtype == np.float32


class TestForward:
    def test_zero_parameters_output_head_bias(self, rng):
        bias = np.array([0.5, -1.0, 2.0])
        pred = zero_predictor(bias=bias)
        for length in (1, 4, 9):
            contexts = rng.gen.normal(size=(2, length, 3))
            np.testing.assert_allclose(rnn_forward_batch(pred, contexts), [bias, bias])

    def test_hidden_must_exceed_embed(self):
        with pytest.raises(ConfigError):
            init_predictor(8, 8, 4, RngState(0))

    def test_order_sensitivity(self, rng):
        hits = 0
        for k in range(20):
            pred = init_predictor(3, 6, 4, RngState(500 + k))
            ctx = rng.gen.normal(size=(4, 3))
            base, flipped = rnn_forward_batch(pred, np.stack([ctx, ctx[::-1]]))
            hits += not np.allclose(base, flipped)
        assert hits >= 1

    @pytest.mark.parametrize("batch, length, d, m", [
        (9, 1, 5, 12), (9, 2, 5, 12), (9, 4, 5, 12), (128, 4, 128, 512),
        (1, 4, 5, 12), (1, 4, 128, 512)],  # B = 1: the context synthesize runs
        ids=["1", "2", "4", "reference", "single", "single-reference"])
    def test_skipping_the_zero_state_product_is_bit_exact(self, rng, batch, length, d, m):
        pred = float64(init_predictor(d, m, length, RngState(7)))
        contexts = rng.gen.normal(size=(batch, length, d))
        np.testing.assert_array_equal(rnn_forward_batch(pred, contexts),
                                      per_step_forward(pred, contexts)[0])

    def test_row_blocks_keep_the_bits_and_bound_the_memory(self, rng):
        # the k-NN protocol's 1,750 windows at the reference shapes: one
        # unblocked cell run peaked at 236 MB for a 1.7 MB output, blocks of
        # 256 contexts at 36.4 MB, and blocks of 64 at 10.4 MB in float64 and
        # 9.7 MB in float32 with the whole stack cast at once; cast block by
        # block they peak at 6.1 MB
        pred = init_predictor(128, 512, 4, RngState(7))
        contexts = random_unit_rows(rng.gen, 1750 * 4, 128).reshape(1750, 4, 128)
        tracemalloc.start()
        try:
            y = rnn_forward_batch(pred, contexts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7_000_000
        np.testing.assert_array_equal(y, _cell_forward(pred, contexts.astype(np.float32))[0])

    def test_dimension_mismatch(self, rng):
        pred = init_predictor(3, 6, 4, RngState(1))
        with pytest.raises(DimensionError):
            rnn_forward_batch(pred, rng.gen.normal(size=(1, 4, 5)))
        with pytest.raises(DimensionError):
            rnn_forward_batch(pred, rng.gen.normal(size=(4, 3)))

    def test_empty_context_rejected(self):
        with pytest.raises(DimensionError, match="l >= 1"):
            rnn_forward_batch(init_predictor(3, 6, 4, RngState(1)), np.zeros((2, 0, 3)))

    def test_empty_batch_gives_no_rows(self):
        y = rnn_forward_batch(init_predictor(3, 6, 4, RngState(1)), np.zeros((0, 4, 3)))
        assert y.shape == (0, 3)


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
        pred = float64(init_predictor(6, 8, 3, RngState(3)))
        contexts = rng.gen.normal(size=(5, 3, 6))
        targets = rng.gen.normal(size=(5, 6))
        loss, _ = batch_loss_and_grad(pred, contexts, targets)
        d2 = sr.pairwise_sqdist(rnn_forward_batch(pred, contexts), targets)
        assert loss == pytest.approx(float(np.mean(np.diag(d2))), rel=1e-12)


class TestBatchBoundary:
    """``batch_loss_and_grad`` takes (B >= 1, l >= 1, d) contexts and (B, d) targets."""

    @pytest.fixture
    def pred(self):
        return init_predictor(3, 6, 4, RngState(1))

    def test_single_target_for_many_contexts_rejected(self, pred, rng):
        with pytest.raises(DimensionError, match=r"\(5, 3\) targets"):
            batch_loss_and_grad(pred, rng.gen.normal(size=(5, 4, 3)),
                                rng.gen.normal(size=(1, 3)))

    def test_context_dimension_must_be_embed_dim(self, pred, rng):
        with pytest.raises(DimensionError, match="contexts must be"):
            batch_loss_and_grad(pred, rng.gen.normal(size=(5, 4, 4)),
                                rng.gen.normal(size=(5, 3)))

    def test_empty_batch_rejected(self, pred):
        with pytest.raises(DimensionError, match="B >= 1"):
            batch_loss_and_grad(pred, np.zeros((0, 4, 3)), np.zeros((0, 3)))

    def test_empty_context_rejected(self, pred, rng):
        with pytest.raises(DimensionError, match="l >= 1"):
            batch_loss_and_grad(pred, np.zeros((5, 0, 3)), rng.gen.normal(size=(5, 3)))


class TestGradient:
    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_matches_the_per_step_reference(self, length):
        r = RngState(40 + length)
        pred = float64(init_predictor(5, 11, length, r))
        contexts = r.gen.normal(size=(7, length, 5))
        targets = r.gen.normal(size=(7, 5))
        loss, grad = batch_loss_and_grad(pred, contexts, targets)
        ref_loss, ref = per_step_loss_and_grad(pred, contexts, targets)
        assert loss == ref_loss
        ref_blocks = pred.blocks(ref)
        for name, block in pred.blocks(grad).items():
            scale = np.max(np.abs(ref_blocks[name]))
            assert np.max(np.abs(block - ref_blocks[name])) <= 1e-12 * scale, name
        if length == 1:  # h0 = 0: nothing flows into Wh
            assert not pred.blocks(grad)["Wh"].any()

    def test_independent_of_what_the_buffer_held(self, rng):
        pred = init_predictor(5, 11, 3, RngState(4))
        contexts = rng.gen.normal(size=(7, 3, 5))
        targets = rng.gen.normal(size=(7, 5))
        out = np.full_like(pred.theta, np.nan)
        loss, grad = batch_loss_and_grad(pred, contexts, targets, out)
        assert grad is out
        fresh_loss, fresh = batch_loss_and_grad(pred, contexts, targets)
        assert loss == fresh_loss
        np.testing.assert_array_equal(grad, fresh)

    @pytest.mark.parametrize("batch", [128, 37])
    @pytest.mark.parametrize("length", [1, 4])
    def test_in_place_backward_equals_the_allocating_one(self, batch, length):
        # reference d and m; dZ goes over the gate activations of the cache
        pred = init_predictor(128, 512, length, RngState(5))
        g = RngState(6).gen
        contexts = random_unit_rows(g, batch * length, 128).reshape(batch, length, 128)
        d_y = (g.normal(size=(batch, 128)) / batch).astype(np.float32)
        _, cache = _cell_forward(pred, contexts.astype(np.float32))
        ref = allocating_cell_backward(pred, tuple(a.copy() for a in cache), d_y)
        grad = _cell_backward(pred, cache, d_y, np.full_like(pred.theta, np.nan))
        np.testing.assert_array_equal(grad, ref)

    @pytest.mark.parametrize("batch", [128, 37, 2])
    @pytest.mark.parametrize("length", [1, 4])
    def test_gate_major_cell_keeps_the_bits_of_the_row_major_one(self, batch, length):
        # the head output and every gradient block, at the reference d and m;
        # one context (B = 1) runs the GEMMs as GEMVs, whose bits differ
        pred = init_predictor(128, 512, length, RngState(5))
        g = RngState(16).gen
        contexts = random_unit_rows(g, batch * length, 128).reshape(batch, length, 128)
        contexts = contexts.astype(np.float32)
        d_y = (g.normal(size=(batch, 128)) / batch).astype(np.float32)
        ref_y, ref = row_major_cell(pred, contexts, d_y)
        y, cache = _cell_forward(pred, contexts)
        np.testing.assert_array_equal(y, ref_y)
        grad = _cell_backward(pred, cache, d_y, np.full_like(pred.theta, np.nan))
        np.testing.assert_array_equal(grad, ref)

    @staticmethod
    def reference_batch_peak(pred, rng):
        """Numpy peak of one B=128, l=4 batch into a preallocated gradient."""
        contexts = random_unit_rows(rng.gen, 128 * 4, 128).reshape(128, 4, 128)
        targets = random_unit_rows(rng.gen, 128, 128)
        grad = np.empty_like(pred.theta)
        tracemalloc.start()
        try:
            batch_loss_and_grad(pred, contexts, targets, grad)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_batch_holds_one_gate_array(self, rng):
        # at B=128, l=4, d=128, m=512 the forward's cache is 15.2 MB, of which
        # the gates are 8.4 MB; a separate dZ took the batch from 18.8 to 26.6 MB
        pred = float64(init_predictor(128, 512, 4, RngState(7)))
        assert self.reference_batch_peak(pred, rng) < 21_000_000

    def test_float32_batch_holds_one_gate_array_in_half_the_memory(self, rng):
        # the float64 batch's 18.8 MB is 9.7 MB in float32
        pred = init_predictor(128, 512, 4, RngState(7))
        assert self.reference_batch_peak(pred, rng) < 21_000_000 // 2

    @pytest.mark.parametrize("batch, length, d, m", [(7, 1, 5, 11), (7, 3, 5, 11),
                                                     (128, 4, 128, 512), (1, 4, 128, 512)])
    def test_float32_kernel_matches_the_float64_one(self, batch, length, d, m):
        pred = init_predictor(d, m, length, RngState(8))
        g = RngState(9).gen
        contexts = random_unit_rows(g, batch * length, d).reshape(batch, length, d)
        targets = random_unit_rows(g, batch, d)
        loss, grad = batch_loss_and_grad(pred, contexts, targets)
        ref_loss, ref = batch_loss_and_grad(float64(pred), contexts, targets)
        assert grad.dtype == np.float32 and ref.dtype == np.float64
        assert loss == pytest.approx(ref_loss, rel=1e-6)
        ref_blocks = pred.blocks(ref)
        for name, block in pred.blocks(grad).items():
            scale = np.max(np.abs(ref_blocks[name]))
            assert np.max(np.abs(block - ref_blocks[name])) <= 1e-5 * scale, name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_caches_and_gradient_follow_theta(self, rng, dtype):
        built = init_predictor(5, 11, 3, RngState(4))
        pred = replace(built, theta=built.theta.astype(dtype))
        contexts = rng.gen.normal(size=(7, 3, 5))  # float64 either way
        y, cache = _cell_forward(pred, dynamics._checked_contexts(pred, contexts))
        assert y.dtype == dtype and all(a.dtype == dtype for a in cache)
        _, grad = batch_loss_and_grad(pred, contexts, rng.gen.normal(size=(7, 5)))
        assert grad.dtype == dtype
        assert rnn_forward_batch(pred, contexts).dtype == np.float64

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


class TestTransitionPairs:
    def test_every_window_in_input_order(self):
        # frame value = 100 * sequence + time, so each row names its source
        l, d = 3, 2
        lengths = (6, 3, 8, 4)  # the 3-frame sequence has no pair
        embedded = [np.repeat(100.0 * i + np.arange(n), d).reshape(n, d)
                    for i, n in enumerate(lengths)]
        windows, first = transition_pairs(embedded, l)
        expect = [(i, t) for i, n in enumerate(lengths) for t in range(n - l)]
        assert windows.shape == (6 + 8 + 4 - l, l + 1, d) and first.shape == (len(expect),)
        assert not windows.flags.writeable
        for k, (i, t) in enumerate(expect):
            np.testing.assert_array_equal(windows[first[k], :l], embedded[i][t:t + l])
            np.testing.assert_array_equal(windows[first[k], l], embedded[i][t + l])

    def test_no_pair_raises(self):
        with pytest.raises(ConfigError, match="longer than the context length"):
            transition_pairs([np.zeros((4, 2)), np.zeros((2, 2))], 4)


def copied_pairs(embedded, l):
    """The (w, l, d) context and (w, d) target stacks that training once copied out."""
    long = [e for e in embedded if len(e) > l]
    contexts = [np.lib.stride_tricks.sliding_window_view(e[:-1], l, axis=0)
                .transpose(0, 2, 1) for e in long]
    return np.concatenate(contexts), np.concatenate([e[l:] for e in long])


class TestTrainPredictor:
    def test_batches_gather_the_copied_pairs(self, monkeypatch):
        # each epoch trains on the copied stacks' pairs, each exactly once
        seqs = tuple(Sequence(id=f"s{i}", frames=np.random.default_rng(i).normal(size=(n, 6)))
                     for i, n in enumerate([40, 3, 23, 31]))
        ds = Dataset(dimension=6, sequences=seqs)
        model = init_embedding_model(6, 12, 6, RngState(3))
        seen, real = [], dynamics.batch_loss_and_grad

        def spy(pred, contexts, targets, out=None):
            seen.append(np.concatenate([contexts, targets[:, None]], axis=1)
                        .reshape(len(targets), -1))
            return real(pred, contexts, targets, out)

        monkeypatch.setattr(dynamics, "batch_loss_and_grad", spy)
        cfg = PredictorConfig(hidden_dim=10, max_epochs=2, batch_size=16)
        pred, _ = train_predictor(ds, model, context_len=4, config=cfg, rng=RngState(9))
        assert pred.theta.dtype == np.float32  # and every batch was gathered in it
        assert all(b.dtype == np.float32 for b in seen)
        contexts, targets = copied_pairs(
            [embed_batch(model, s.frames).astype(np.float32) for s in seqs], 4)
        pairs = np.concatenate([contexts, targets[:, None]], axis=1).reshape(len(targets), -1)
        expect = pairs[np.lexsort(pairs.T)]
        per_epoch = len(seen) // 2
        assert [len(b) for b in seen] == ([16] * 5 + [2]) * 2  # 82 pairs an epoch
        for epoch in (seen[:per_epoch], seen[per_epoch:]):
            got = np.concatenate(epoch)
            np.testing.assert_array_equal(got[np.lexsort(got.T)], expect)

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
            train_predictor(mixed, model, context_len=4, config=cfg, rng=RngState(9))
        assert [r.args[0] for r in caplog.records if r.name == dynamics.logger.name] \
            == ["short"]
        assert "'short' has 3 frames, needs > 4; skipped" in caplog.text

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
        assert type(log1) is TrainLog and log1 == log2 and log1.epochs_run == 2
        epochs = np.asarray(log1.batch_epoch)
        assert np.array_equal(epochs, np.repeat([0, 1], len(epochs) // 2))
        assert log1.epoch_loss == [float(np.mean(np.asarray(log1.batch_loss)[epochs == e]))
                                   for e in (0, 1)]

    def test_all_short_raises(self):
        ds = Dataset(dimension=2, sequences=(
            Sequence(id="a", frames=np.zeros((3, 2))),
            Sequence(id="b", frames=np.zeros((2, 2))),
        ))
        model = init_embedding_model(2, 6, 1, RngState(0))
        with pytest.raises(ConfigError):
            train_predictor(ds, model, context_len=4,
                            config=PredictorConfig(hidden_dim=4), rng=RngState(0))

    def test_deterministic(self, tmp_path):
        ds = cyclic_dataset()
        model = init_embedding_model(ds.dimension, 12, 6, RngState(3))
        cfg = PredictorConfig(hidden_dim=10, max_epochs=2, batch_size=32)
        files = []
        for k in range(2):
            pred, _ = train_predictor(ds, model, context_len=4, config=cfg, rng=RngState(7))
            save_predictor(pred, tmp_path / f"p{k}.bin")
            files.append((tmp_path / f"p{k}.bin").read_bytes())
        assert files[0] == files[1]

    def test_divergence_names_stage_epoch_and_batch(self):
        ds = cyclic_dataset()
        model = init_embedding_model(ds.dimension, 12, 6, RngState(3))
        cfg = PredictorConfig(hidden_dim=10, max_epochs=1, batch_size=32,
                              learning_rate=1e200)
        with pytest.raises(DivergenceError) as info:
            train_predictor(ds, model, context_len=4, config=cfg, rng=RngState(7))
        err = info.value
        assert (err.stage, err.epoch) == ("predictor", 0) and err.batch >= 1
        assert "predictor training diverged at epoch 0" in str(err)

    def test_divergence_names_stage_epoch_and_batch_whatever_the_error_state(self,
                                                                             strict_numpy):
        # the overflowing update and the forward after it run under their own errstate
        ds = cyclic_dataset()
        model = init_embedding_model(ds.dimension, 12, 6, RngState(3))
        cfg = PredictorConfig(hidden_dim=10, max_epochs=1, batch_size=32,
                              learning_rate=1e300)
        with pytest.raises(DivergenceError, match="non-finite batch loss") as info:
            train_predictor(ds, model, context_len=4, config=cfg, rng=RngState(7))
        assert (info.value.stage, info.value.epoch, info.value.batch) == ("predictor", 0, 1)

    def test_blow_up_is_divergence(self, small_dataset):
        # lr 100 stays finite for a while, so only the loss ratio catches it
        model = init_embedding_model(small_dataset.dimension, 16, 8, RngState(0))
        cfg = PredictorConfig(hidden_dim=12, max_epochs=2, batch_size=32,
                              learning_rate=100.0)
        with pytest.raises(DivergenceError, match="blew up") as info:
            train_predictor(small_dataset, model, context_len=4, config=cfg, rng=RngState(0))
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
        for count in (3, 5):
            with pytest.raises(ConfigError, match=f"exactly 4 seed frames, got {count}"):
                synthesize(pred, model, ds.sequences[0].frames[:count], 1, ds)


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


    def test_decoding_in_one_buffer_keeps_the_allocating_trail(self, ref_dataset, ref_model,
                                                                ref_predictor):
        refs = [(s.id, i) for s in ref_dataset for i in range(len(s))]
        cb = np.concatenate([embed_batch(ref_model, s.frames) for s in ref_dataset])
        seed_frames = ref_dataset.sequences[2].frames[:4]
        ctx = embed_batch(ref_model, seed_frames)
        trail = []
        for _ in range(40):
            diff = cb - rnn_forward_batch(ref_predictor, ctx[None])[0]
            j = int(np.argmin(np.sum(diff * diff, axis=1)))
            trail.append(refs[j])
            ctx = np.concatenate([ctx[1:], cb[j][None, :]])
        assert synthesize(ref_predictor, ref_model, seed_frames, 40, ref_dataset) == trail

    def test_decoding_holds_no_per_step_codebook_temporary(self):
        # 4,000 codebook frames embedded in 64 dimensions are 2 MB; the
        # embedded codebook and one difference buffer are 4 MB, and a step that
        # allocated its difference and its square peaked 2 MB higher
        g = RngState(12).gen
        codebook = Dataset(dimension=8, sequences=tuple(
            Sequence(id=f"c{k}", frames=g.normal(size=(200, 8))) for k in range(20)))
        model = init_embedding_model(8, 16, 64, RngState(3))
        pred = init_predictor(64, 96, 4, RngState(4))
        seed_frames = codebook.sequences[0].frames[:4]
        synthesize(pred, model, seed_frames, 1, codebook)  # first-call set-up is not the decode's
        tracemalloc.start()
        try:
            synthesize(pred, model, seed_frames, 5, codebook)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 4000 * 64 * 8 + 1_000_000


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

    def test_interpolants_equal_the_norm_division(self):
        # each interpolant is divided by np.linalg.norm of itself, bit for bit
        g = np.random.default_rng(13)
        for _ in range(200):
            d, steps = int(g.integers(1, 130)), int(g.integers(1, 5))
            a, b = g.normal(size=d) * g.uniform(0.1, 10), g.normal(size=d)
            for i, v in enumerate(interpolate_features(a, b, steps), 1):
                alpha = i / (steps + 1)
                u = (1.0 - alpha) * a + alpha * b
                np.testing.assert_array_equal(v, u / np.linalg.norm(u))

    def test_non_finite_interpolant_rejected(self):
        with pytest.raises(DegenerateInputError):
            interpolate_features([np.nan, 0.0], [0.0, 1.0], 1)
        with np.errstate(over="ignore"), pytest.raises(DegenerateInputError):
            interpolate_features([1e200, 0.0], [1e200, 0.0], 1)  # the norm overflows

    def test_antipodal_rejected(self):
        a = np.array([1.0, 0.0])
        with pytest.raises(DegenerateInputError):
            interpolate_features(a, -a, 1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            interpolate_features([1.0, 0.0], [0.0, 1.0], 0)
        with pytest.raises(DimensionError):
            interpolate_features([1.0, 0.0], [0.0, 1.0, 0.0], 1)
        with pytest.raises(DimensionError):
            interpolate_features([[1.0, 0.0]], [[0.0, 1.0]], 1)
