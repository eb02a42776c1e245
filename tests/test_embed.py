import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrep.core import (
    ConfigError,
    DegenerateInputError,
    Dataset,
    DimensionError,
    DivergenceError,
    MomentumSGD,
    RngState,
    Sequence,
    TrainLog,
    pairwise_sqdist,
)
from seqrep import align, embed
from seqrep.align import PenaltyConfig, _chunk_bounds, alignment_cost
from seqrep.embed import (
    EmbeddingModel,
    TrainConfig,
    _sample_triplet_indices,
    embed_batch,
    fit_whitener,
    init_embedding_model,
    sequence_neighbors,
    train,
    triplet_grad,
)

from conftest import float64


def triplet_loss(pa, pp, pn, delta: float) -> float:
    """Margin ranking hinge on squared distances: max(0, d(a,p) - d(a,n) + delta).

    The single-triplet reference that :func:`triplet_grad`'s batch loss is
    held against.
    """
    dp, dn = np.subtract(pa, pp), np.subtract(pa, pn)
    return max(0.0, float(dp @ dp) - float(dn @ dn) + delta)


@pytest.fixture(scope="module")
def tiny_model():
    return init_embedding_model(5, 7, 4, RngState(11))


class TestModel:
    def test_blocks_are_views_in_container_order(self, tiny_model):
        m = tiny_model
        assert m.theta.shape == (5 * 7 + 7 + 7 * 4 + 4,)
        np.testing.assert_array_equal(
            m.theta, np.concatenate([m.W1.ravel(), m.b1, m.W2.ravel(), m.b2]))
        for block in (m.W1, m.b1, m.W2, m.b2):
            assert np.shares_memory(block, m.theta)

    def test_construction_copies_and_validates(self):
        theta = np.zeros(2 * 3 + 3 + 3 * 2 + 2)
        model = EmbeddingModel(theta, 2, 3, 2)
        assert not np.shares_memory(model.theta, theta)
        with pytest.raises(DimensionError):
            EmbeddingModel(theta[:-1], 2, 3, 2)
        theta[4] = np.nan
        with pytest.raises(DegenerateInputError):
            EmbeddingModel(theta, 2, 3, 2)

    def test_init_keeps_the_stream_in_float32(self):
        g = RngState(3).gen
        s1, s2 = 1.0 / math.sqrt(6), 1.0 / math.sqrt(9)
        draws = np.concatenate([g.uniform(-s1, s1, size=6 * 9), g.uniform(-s1, s1, size=9),
                                g.uniform(-s2, s2, size=9 * 4), g.uniform(-s2, s2, size=4)])
        model = init_embedding_model(6, 9, 4, RngState(3))
        assert model.theta.dtype == np.float32
        np.testing.assert_array_equal(model.theta, draws.astype(np.float32))

    @pytest.mark.parametrize("dtype, kept", [
        (np.float32, np.float32), (np.float64, np.float64), (np.float16, np.float64),
        (np.int64, np.float64)])
    def test_theta_dtype_is_float32_or_float64(self, tiny_model, dtype, kept):
        theta = tiny_model.theta.astype(dtype)
        for made in (EmbeddingModel(theta, 5, 7, 4), replace(tiny_model, theta=theta)):
            assert made.theta.dtype == kept and not np.shares_memory(made.theta, theta)
            assert all(getattr(made, k).dtype == kept for k in ("W1", "b1", "W2", "b2"))
        assert EmbeddingModel(tiny_model.theta.tolist(), 5, 7, 4).theta.dtype == np.float64
        with pytest.raises(DegenerateInputError):
            EmbeddingModel(np.full_like(tiny_model.theta, np.inf), 5, 7, 4)

    @pytest.mark.parametrize("dims", [(0, 8, 8), (8, 0, 8), (8, 8, 0), (-1, 8, 8)])
    def test_dimension_below_one_rejected(self, dims):
        f, h, d = dims
        size = max(f * h + h + h * d + d, 0)
        with pytest.raises(ConfigError, match="_dim must be >= 1"):
            EmbeddingModel(np.full(size, 0.5), *dims)


class TestForward:
    def test_constant_head_ignores_input(self, rng):
        f, h, d = 4, 6, 3
        w1, b1 = rng.gen.normal(size=(f, h)), rng.gen.normal(size=h)
        model = EmbeddingModel(
            np.concatenate([w1.ravel(), b1, np.zeros(h * d), [1.0, 0.0, 0.0]]), f, h, d)
        for _ in range(5):
            out = embed_batch(model, rng.gen.normal(size=(1, f)))
            np.testing.assert_allclose(out, [[1.0, 0.0, 0.0]])

    def test_outputs_unit_norm(self, tiny_model, rng):
        x = rng.gen.normal(size=(1000, 5)) * 3
        y = embed_batch(tiny_model, x)
        np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-6)

    def test_default_dims_match_contract(self):
        cfg = TrainConfig()
        assert cfg.embed_dim == 128 and cfg.hidden_dim == 256

    def test_degenerate_prenorm_rejected(self):
        model = EmbeddingModel(np.zeros(2 * 3 + 3 + 3 * 2 + 2), 2, 3, 2)
        with pytest.raises(DegenerateInputError):
            embed_batch(model, [[1.0, 2.0]])

    def test_overflowed_prenorm_rejected(self, tiny_model, rng):
        # a finite 1e300 weight overflows the norm to inf, which passed the
        # near-zero check and divided every output to zero; in float32 a
        # 1e30 weight does (1e300 is no float32)
        for dtype, weight in ((np.float64, 1e300), (np.float32, 1e30)):
            theta = tiny_model.theta.astype(dtype)
            theta[-1] = weight
            model = EmbeddingModel(theta, 5, 7, 4)
            assert model.theta.dtype == dtype and np.isfinite(model.theta).all()
            with pytest.raises(DegenerateInputError, match="overflowed"), \
                    np.errstate(all="ignore"):
                embed_batch(model, rng.gen.normal(size=(3, 5)))

    def test_overflowed_prenorm_rejected_whatever_the_error_state(self, tiny_model, rng,
                                                                  strict_numpy):
        for dtype, weight in ((np.float64, 1e300), (np.float32, 1e30)):
            theta = tiny_model.theta.astype(dtype)
            theta[-1] = weight
            with pytest.raises(DegenerateInputError, match="overflowed"):
                embed_batch(EmbeddingModel(theta, 5, 7, 4), rng.gen.normal(size=(3, 5)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_work_arrays_follow_theta_and_output_is_float64(self, tiny_model, rng, dtype):
        model = replace(tiny_model, theta=tiny_model.theta.astype(dtype))
        for backward in (True, False):
            buf = embed._buffers(model, 6, backward)
            assert all(a.dtype == (bool if k == "live" else dtype) for k, a in buf.items())
        a, p, n = (rng.gen.normal(size=(2, 5)) for _ in range(3))  # float64 either way
        assert triplet_grad(model, a, p, n, 0.3)[1].dtype == dtype
        assert embed_batch(model, a).dtype == np.float64
        sgd = MomentumSGD(model.theta, 0.1, 0.9, "embed")
        assert sgd.velocity.dtype == sgd._scaled.dtype == dtype

    @pytest.mark.parametrize("count", [5, 300])
    def test_float32_encoder_matches_the_float64_one(self, count):
        model = init_embedding_model(64, 256, 128, RngState(21))  # reference shapes
        g = np.random.default_rng(count)
        a, p, n = (g.normal(size=(count, 64)) for _ in range(3))
        np.testing.assert_allclose(embed_batch(model, a), embed_batch(float64(model), a),
                                   atol=1e-6)
        loss, grad = triplet_grad(model, a, p, n, 0.2)
        ref_loss, ref = triplet_grad(float64(model), a, p, n, 0.2)
        assert loss == pytest.approx(ref_loss, rel=1e-6)
        ref_blocks = model.blocks(ref)
        for name, block in model.blocks(grad).items():  # measured <= 1.8e-6
            scale = np.max(np.abs(ref_blocks[name]))
            assert np.max(np.abs(block - ref_blocks[name])) <= 1e-5 * scale, name


class TestTripletLoss:
    def test_satisfied_margin_is_zero(self):
        pa = np.array([1.0, 0.0])
        pn = np.array([-1.0, 0.0])
        assert triplet_loss(pa, pa, pn, 0.2) == 0.0

    def test_equal_distances_cost_margin(self, rng):
        pa = rng.gen.normal(size=4)
        pp = rng.gen.normal(size=4)
        assert triplet_loss(pa, pp, pp, 0.3) == pytest.approx(0.3)

    def test_hand_computed_case(self):
        val = triplet_loss([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], 0.2)
        assert val == pytest.approx(max(0.0, 2.0 - 4.0 + 0.2))

    def test_hinge_zero_exactly_when_margin_met(self, rng):
        g = rng.gen
        for _ in range(50):
            pa, pp, pn = g.normal(size=(3, 3))
            delta = float(g.uniform(0.05, 1.0))
            gap = float(np.sum((pa - pn) ** 2) - np.sum((pa - pp) ** 2))
            assert (triplet_loss(pa, pp, pn, delta) == 0.0) == (gap >= delta)


class TestTripletGrad:
    def test_inactive_hinge_gives_zero_gradient(self, tiny_model):
        a = np.array([[1.0, 0, 0, 0, 0]])
        loss, grads = triplet_grad(tiny_model, a, a, a + 5.0, 1e-9)
        if loss == 0.0:
            np.testing.assert_array_equal(grads, 0.0)

    def test_matches_finite_differences(self):
        from gradcheck import max_block_relative_error, numeric_gradients

        worst = 0.0
        for k in range(10):
            r = RngState(100 + k)
            model = init_embedding_model(5, 7, 4, r)
            g = r.gen
            a, p, n = (g.normal(size=(3, 5)) for _ in range(3))
            _, grads = triplet_grad(model, a, p, n, 0.3)

            def loss_fn(theta):
                return triplet_grad(replace(model, theta=theta), a, p, n, 0.3)[0]

            numeric = numeric_gradients(loss_fn, model.theta)
            worst = max(worst, max_block_relative_error(model, grads, numeric))
        assert worst < 1e-4

    def test_loss_matches_triplet_loss_oracle(self, tiny_model, rng):
        model = float64(tiny_model)  # the float64 oracle holds float64 to 1e-12
        g = rng.gen
        a, p, n = (g.normal(size=(6, 5)) for _ in range(3))
        loss, _ = triplet_grad(model, a, p, n, 0.3)
        ya, yp, yn = (embed_batch(model, x) for x in (a, p, n))
        oracle = np.mean([triplet_loss(ya[i], yp[i], yn[i], 0.3) for i in range(6)])
        assert loss == pytest.approx(oracle, rel=1e-12, abs=1e-15)

    def test_batch_mean_equals_mean_of_singles(self, tiny_model, rng):
        model = float64(tiny_model)
        g = rng.gen
        a, p, n = (g.normal(size=(4, 5)) for _ in range(3))
        loss_b, grads_b = triplet_grad(model, a, p, n, 0.3)
        singles = [triplet_grad(model, a[i:i+1], p[i:i+1], n[i:i+1], 0.3)
                   for i in range(4)]
        assert loss_b == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
        np.testing.assert_allclose(grads_b, np.mean([s[1] for s in singles], axis=0),
                                   atol=1e-12)


def allocating_triplet_grad(model, a, p, n, delta):
    """The encoder's loss and gradient as plain allocating numpy expressions,
    in the order the buffered passes run them."""
    x = np.concatenate([a, p, n])
    z1 = x @ model.W1 + model.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ model.W2 + model.b2
    norms = np.linalg.norm(z2, axis=1)[:, None]
    y = z2 / norms
    ya, yp, yn = np.split(y, 3)
    dpos, dneg = ya - yp, ya - yn
    pre = np.sum(dpos * dpos, axis=1) - np.sum(dneg * dneg, axis=1) + delta
    scale = (2.0 / len(a)) * (pre > 0)[:, None]
    d_y = np.concatenate([scale * (yn - yp), -scale * dpos, scale * dneg])
    d_z2 = (d_y - y * np.sum(y * d_y, axis=1, keepdims=True)) / norms
    d_z1 = (d_z2 @ model.W2.T) * (z1 > 0)
    grad = np.concatenate([(x.T @ d_z1).ravel(), d_z1.sum(axis=0),
                           (a1.T @ d_z2).ravel(), d_z2.sum(axis=0)])
    return float(np.sum(np.maximum(pre, 0.0)) / len(a)), grad


class TestReusedBuffers:
    """The trainer's kernel in its one buffer set, on stacked rows with identity
    roles, against :func:`triplet_grad`'s fresh per-call arrays, bit for bit."""

    DELTA = 0.05  # about half the hinges of a random batch are active

    @pytest.fixture(scope="class")
    def model(self):
        return init_embedding_model(64, 256, 128, RngState(21))  # reference shapes

    @staticmethod
    def batch(seed, count):
        g = np.random.default_rng(seed)
        return tuple(g.normal(size=(count, 64)) for _ in range(3))

    @staticmethod
    def buffered(model, anchors, positives, negatives, delta, buf):
        """``embed._triplet_grad`` of the stacked rows, each its own role, in ``buf``."""
        x = np.concatenate([anchors, positives, negatives], out=buf["x"][:3 * len(anchors)])
        return embed._triplet_grad(model, x, np.arange(len(x)), delta, buf)

    @staticmethod
    def nan_buffers(model, rows):
        buf = embed._buffers(model, rows)
        for arr in buf.values():
            arr[...] = False if arr.dtype == bool else np.nan
        return buf

    @pytest.mark.parametrize("count", [300, 137], ids=["full", "short"])
    def test_stale_buffers_equal_a_fresh_call(self, model, count):
        batch = self.batch(count, count)
        loss, grad = self.buffered(model, *batch, self.DELTA, self.nan_buffers(model, 900))
        fresh_loss, fresh_grad = triplet_grad(model, *batch, self.DELTA)
        assert loss == fresh_loss
        np.testing.assert_array_equal(grad, fresh_grad)

    def test_successive_batches_of_different_sizes(self, model):
        buf = self.nan_buffers(model, 900)
        for count in (300, 137, 300, 5):
            batch = self.batch(count + 1, count)
            loss, grad = self.buffered(model, *batch, self.DELTA, buf)
            assert grad is buf["grad"]
            fresh = triplet_grad(model, *batch, self.DELTA)
            assert loss == fresh[0]
            np.testing.assert_array_equal(grad, fresh[1])

    @pytest.mark.parametrize("count", [300, 137])
    def test_equals_the_allocating_expressions(self, model, count):
        model = float64(model)  # the expressions below compute in float64
        batch = self.batch(count + 2, count)
        loss, grad = self.buffered(model, *batch, self.DELTA, self.nan_buffers(model, 900))
        ref_loss, ref_grad = allocating_triplet_grad(model, *batch, self.DELTA)
        assert 0.0 < loss == ref_loss
        assert grad.any()
        np.testing.assert_array_equal(grad, ref_grad)

    def test_collapse_check_fires_on_the_buffered_path(self):
        model = EmbeddingModel(np.zeros(2 * 3 + 3 + 3 * 2 + 2), 2, 3, 2)
        x = np.ones((4, 2))
        with pytest.raises(DegenerateInputError, match="collapsed"):
            self.buffered(model, x, x, x, self.DELTA, self.nan_buffers(model, 12))

    def test_warm_training_step_allocates_under_half_a_megabyte(self, model):
        # the allocating passes peaked at 14.3 MB a step, fresh pages every
        # batch; one (900, 128) temporary alone would be 0.92 MB
        trained = replace(model, theta=model.theta)  # a copy that the steps move
        sgd = MomentumSGD(trained.theta, 0.01, 0.9, "embed")
        buf = embed._buffers(trained, 900)
        batch = self.batch(9, 300)
        sgd.step(*self.buffered(trained, *batch, self.DELTA, buf))
        tracemalloc.start()
        try:
            sgd.step(*self.buffered(trained, *batch, self.DELTA, buf))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000


class TestDistinctRows:
    """The trainer's kernel, which encodes each distinct row once, against the
    stacked 3·B rows of :func:`triplet_grad`."""

    @pytest.fixture(scope="class")
    def model(self):
        return init_embedding_model(64, 256, 128, RngState(21))  # reference shapes

    @pytest.mark.parametrize("pool", [None, 40], ids=["no-repeats", "repeats"])
    def test_equals_the_stacked_rows(self, model, pool):
        model = float64(model)
        g = np.random.default_rng(3)
        frames = g.normal(size=(900, 64))
        idx = g.permutation(900) if pool is None else g.integers(pool, size=900)
        rows, roles = np.unique(idx, return_inverse=True)
        assert len(rows) == (900 if pool is None else pool)
        buf = TestReusedBuffers.nan_buffers(model, 900)
        loss, grad = embed._triplet_grad(model, frames[rows], roles, 0.05, buf)
        ref_loss, ref = triplet_grad(model, *(frames[i] for i in np.split(idx, 3)), 0.05)
        assert loss == pytest.approx(ref_loss, rel=1e-12) and loss > 0
        np.testing.assert_allclose(grad, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))

    def test_an_all_inactive_batch_has_an_exactly_zero_gradient(self, model):
        x = np.random.default_rng(4).normal(size=(20, 64))
        # each anchor is its own positive, so every hinge reads delta - |ya - yn|^2
        same = np.arange(10)
        roles = np.r_[same, same, same + 10]
        y = embed_batch(model, x)
        assert np.min(np.sum((y[:10] - y[10:]) ** 2, axis=1)) > 1e-6
        buf = TestReusedBuffers.nan_buffers(model, 30)
        loss, grad = embed._triplet_grad(model, x.astype(np.float32), roles, 1e-6, buf)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)


def drawn_negatives(pi, feats, p, window, seed=0):
    """Negatives the sampler drew for each matched positive column.

    64 draws per anchor and chunk frame make missing any eligible
    negative a ~e^-64 event, so the drawn set is the eligible set.
    """
    pi = np.asarray(pi)
    draws = 64 * len(feats) * int(np.count_nonzero(pi))
    _, pos, neg = _sample_triplet_indices(pi, feats, 0, p, draws, window, RngState(seed))
    drawn = {int(c): set() for c in pi[pi > 0] - 1}
    for c, n in zip(pos, neg):
        drawn[int(c)].add(int(n))
    return drawn


def oracle_negatives(feats, pos, p, window):
    """Nearest rank over the column without the positive, then the window rule."""
    column = pairwise_sqdist(feats, feats)[:, pos]
    others = [i for i in range(len(feats)) if i != pos]
    ranked = sorted(float(column[i]) for i in others)
    thresh = ranked[max(1, math.ceil(p / 100.0 * len(ranked))) - 1]
    return {i for i in others if column[i] <= thresh and abs(i - pos) > window}


class TestNegativeMining:
    """Eligible negatives: the nearest-rank percentile of each positive's column."""

    # one coordinate on a line: squared distances to frame 0 are 0, 1, 4, 9, 16
    line = np.arange(5.0)[:, None]

    def test_worked_example(self):
        # positive at index 0; candidates at squared distances 1, 4, 9, 16
        assert drawn_negatives([1], self.line, 50, 0) == {0: {1, 2}}

    def test_p100_admits_all_non_excluded(self):
        feats = np.sqrt([0.0, 0.5, 0.2, 0.9, 0.3])[:, None]
        assert drawn_negatives([1], feats, 100, 1) == {0: {2, 3, 4}}

    def test_monotone_in_percentile(self, rng):
        feats = rng.gen.normal(size=(30, 3))
        prev = None
        for p in (100, 80, 60, 40, 20, 5):
            cur = drawn_negatives([4], feats, p, 2)[3]
            if prev is not None:
                assert cur <= prev
            prev = cur

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(2, 12), dim=st.integers(1, 3),
           integer=st.booleans(), p=st.floats(0, 100), window=st.integers(0, 4))
    def test_every_column_matches_oracle(self, data, m, dim, integer, p, window):
        shape = (m, dim)
        if integer:  # small integer coordinates make distances tie exactly
            feats = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=m * dim,
                                                max_size=m * dim)), dtype=float).reshape(shape)
        else:
            feats = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=m * dim,
                                                max_size=m * dim))).reshape(shape)
        pi = np.array(data.draw(st.lists(st.integers(0, m), min_size=1, max_size=8)))
        if not pi.any():
            pi[0] = 1
        drawn = drawn_negatives(pi, feats, p, window)
        assert drawn == {c: oracle_negatives(feats, c, p, window) for c in drawn}


class TestSampleTriplets:
    """Triplet index draws from one chunk matching, as ``train`` mines them."""

    @pytest.fixture()
    def chunk_feats(self, rng):
        return rng.gen.normal(size=(8, 4))

    def test_all_outlier_matching_yields_empty(self, chunk_feats, rng):
        pi = np.zeros(6, dtype=np.int64)
        for rows in _sample_triplet_indices(pi, chunk_feats, 0, 100, 10, 1, rng):
            assert rows.shape == (0,)

    def test_anchor_validity_and_offsets(self, chunk_feats, rng):
        pi = np.array([1, 0, 3, 2, 0, 4])
        aj, pj, nj = _sample_triplet_indices(pi, chunk_feats, 40, 100, 50, 1, rng)
        assert aj.size == pj.size == nj.size > 0
        for j, pos, neg in zip(aj, pj - 40, nj - 40):
            assert pi[j] == pos + 1
            assert 0 <= neg < len(chunk_feats)
            assert abs(neg - pos) > 1

    def test_deterministic_under_seed(self, chunk_feats):
        pi = np.array([1, 0, 3, 2, 0, 4])
        a = _sample_triplet_indices(pi, chunk_feats, 0, 60, 20, 1, RngState(5))
        b = _sample_triplet_indices(pi, chunk_feats, 0, 60, 20, 1, RngState(5))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_single_frame_chunk_yields_no_triplets(self, rng):
        pi = np.array([1, 1, 1])
        feats = rng.gen.normal(size=(1, 4))
        for rows in _sample_triplet_indices(pi, feats, 0, 100, 10, 1, rng):
            assert rows.shape == (0,)

    def test_empty_pool_skips_the_draw(self, rng):
        # every other frame lies inside the window: no negative, one draw per triplet
        g = RngState(3)
        out = _sample_triplet_indices(np.array([2, 2]), rng.gen.normal(size=(3, 2)), 0,
                                      100, 5, 2, g)
        assert all(rows.size == 0 for rows in out)
        expect = RngState(3).gen
        for _ in range(5):
            expect.integers(2)
        assert g.gen.integers(1 << 30) == expect.integers(1 << 30)

    def test_draws_all_anchors_then_all_negatives(self, rng):
        # p = 100 admits every frame outside the window, so no pool is empty;
        # 40 frames, because numpy sorts columns of up to 16 stably either way
        pi = np.array([1, 0, 30, 2, 0, 40, 17])
        g = RngState(9)
        aj, pj, nj = _sample_triplet_indices(pi, rng.gen.normal(size=(40, 3)), 40, 100, 50,
                                             1, g)
        assert aj.size == pj.size == nj.size == 50
        replay = RngState(9).gen
        anchors = np.flatnonzero(pi > 0)
        np.testing.assert_array_equal(aj, anchors[replay.integers(anchors.size, size=50)])
        np.testing.assert_array_equal(pj - 40, pi[aj] - 1)
        pools = [np.flatnonzero(np.abs(np.arange(40) - pos) > 1) for pos in pj - 40]
        picks = replay.integers([pool.size for pool in pools])
        np.testing.assert_array_equal(nj - 40, [pool[i] for pool, i in zip(pools, picks)])
        assert g.gen.integers(1 << 30) == replay.integers(1 << 30)

    def test_anchors_with_empty_pools_are_dropped(self, rng):
        # four frames, window 2: positive 0 has the one negative 3, positive 1 none
        g = RngState(4)
        aj, pj, nj = _sample_triplet_indices(np.array([1, 2]), rng.gen.normal(size=(4, 2)), 0,
                                             100, 20, 2, g)
        replay = RngState(4).gen
        kept = np.flatnonzero(replay.integers(2, size=20) == 0)
        assert 0 < kept.size < 20
        np.testing.assert_array_equal(aj, np.zeros(kept.size))
        np.testing.assert_array_equal(pj, np.zeros(kept.size))
        np.testing.assert_array_equal(nj, np.full(kept.size, 3))
        replay.integers(np.ones(kept.size, dtype=np.int64))
        assert g.gen.integers(1 << 30) == replay.integers(1 << 30)


class TestSequenceNeighbors:
    def test_identical_sequences_are_mutual_top_neighbors(self, tiny_model, rng):
        g = rng.gen
        frames = g.normal(size=(10, 5))
        ds = Dataset(dimension=5, sequences=(
            Sequence(id="a", frames=frames),
            Sequence(id="b", frames=frames),
            Sequence(id="c", frames=g.normal(size=(10, 5)) + 4.0),
        ))
        nn = sequence_neighbors(ds, tiny_model, 1)
        assert nn["a"] == ["b"] and nn["b"] == ["a"]

    def test_structure_and_no_self(self, small_dataset, tiny_model):
        model = init_embedding_model(small_dataset.dimension, 8, 4, RngState(0))
        nn = sequence_neighbors(small_dataset, model, 2)
        assert set(nn) == {s.id for s in small_dataset}
        for sid, lst in nn.items():
            assert len(lst) == 2 and sid not in lst

    def test_matches_bruteforce_ranking(self, small_dataset):
        model = init_embedding_model(small_dataset.dimension, 8, 4, RngState(0))
        nn = sequence_neighbors(small_dataset, model, 3)
        desc = {s.id: embed_batch(model, s.frames).mean(axis=0) for s in small_dataset}
        for sid, lst in nn.items():
            expect = sorted(
                ((float(np.sum((desc[sid] - d) ** 2)), o) for o, d in desc.items() if o != sid)
            )[:3]
            assert lst == [o for _, o in expect]

    def test_distance_ties_go_to_the_smaller_id(self):
        # one frame per sequence, so each descriptor is that frame; the
        # positions follow the listing, which is not in id order
        ids = ["c", "a", "b", "d"]
        feats = [np.array([[0.0]]), np.array([[1.0]]), np.array([[-1.0]]), np.array([[2.0]])]
        table = embed._descriptor_neighbors(feats, ids, 2)
        assert table.shape == (4, 2)
        assert {sid: [ids[j] for j in row] for sid, row in zip(ids, table)} == {
            "a": ["c", "d"], "b": ["c", "a"], "c": ["a", "b"], "d": ["a", "c"]}

    def test_listing_order_does_not_change_the_lists(self, tiny_model, rng):
        # "a", "b" and "e" share their frames, so their distances tie
        g = rng.gen
        shared = g.normal(size=(6, 5))
        frames = {"a": shared, "b": shared, "e": shared,
                  "c": g.normal(size=(6, 5)) + 1.0, "d": g.normal(size=(6, 5)) - 1.0}
        by_id = Dataset(dimension=5, sequences=tuple(
            Sequence(id=sid, frames=frames[sid]) for sid in sorted(frames)))
        shuffled = Dataset(dimension=5, sequences=tuple(
            Sequence(id=sid, frames=frames[sid]) for sid in ("e", "c", "a", "d", "b")))
        nn = sequence_neighbors(by_id, tiny_model, 3)
        assert sequence_neighbors(shuffled, tiny_model, 3) == nn
        assert nn["a"][:2] == ["b", "e"] and nn["e"][:2] == ["a", "b"]

    def test_k_too_large_rejected(self, small_dataset, tiny_model):
        model = init_embedding_model(small_dataset.dimension, 8, 4, RngState(0))
        with pytest.raises(ConfigError):
            sequence_neighbors(small_dataset, model, len(small_dataset))

    @pytest.mark.parametrize("k", [0, -1, -5])
    def test_k_below_one_rejected(self, small_dataset, k):
        # k = -1 sliced off only the self column and listed every other sequence;
        # k = 0 gave empty lists
        model = init_embedding_model(small_dataset.dimension, 8, 4, RngState(0))
        with pytest.raises(ConfigError, match=f"neighborhood size {k} must be >= 1"):
            sequence_neighbors(small_dataset, model, k)


class TestWhitener:
    def test_whitened_covariance_is_identityish(self, rng):
        g = rng.gen
        x = g.normal(size=(4000, 5)) @ g.normal(size=(5, 5)) + g.normal(size=5)
        w = fit_whitener(x)
        y = w(x)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-9)
        # each eigenvalue lam of the covariance whitens to lam / (lam + eps), where
        # the floor eps is 0.02 times their mean
        lam, vecs = np.linalg.eigh(np.cov(x, rowvar=False, bias=True))
        shrunk = lam / (lam + 0.02 * lam.mean() + 1e-12)
        np.testing.assert_allclose(np.cov(y, rowvar=False, bias=True),
                                   vecs @ np.diag(shrunk) @ vecs.T, atol=1e-9)


class TestTrain:
    def test_deterministic_under_seed(self, small_dataset):
        cfg = TrainConfig(max_epochs=2, triplets_per_batch=40, hidden_dim=16,
                          embed_dim=8, bootstrap_epochs=1)
        m1, _ = train(small_dataset, cfg, chunk_len=20, rng=RngState(42))
        m2, _ = train(small_dataset, cfg, chunk_len=20, rng=RngState(42))
        np.testing.assert_array_equal(m1.theta, m2.theta)

    def test_null_pairs_per_epoch_is_one_pair_per_sequence(self, small_dataset):
        cfg = TrainConfig(max_epochs=1, triplets_per_batch=40, hidden_dim=16, embed_dim=8)
        m1, _ = train(small_dataset, cfg, chunk_len=20, rng=RngState(5))
        m2, _ = train(small_dataset, replace(cfg, pairs_per_epoch=len(small_dataset)),
                      chunk_len=20, rng=RngState(5))
        np.testing.assert_array_equal(m1.theta, m2.theta)

    def test_every_solve_rescores_to_its_cost(self, small_dataset, monkeypatch):
        # the solver does not audit itself: re-score each chunk's π that the
        # trainer's matcher hands it against that chunk of the target
        chunks, computed = [], []
        match, sqdist = align._match_pairs, embed.pairwise_sqdist

        def recorded(a, b):
            computed.append((a, b, sqdist(a, b)))
            return computed[-1][2]

        def audited(pairs, chunk_len):
            out = match(pairs, chunk_len)
            for (d2, config), matchings in zip(pairs, out):
                q, t = next((a, b) for a, b, c in computed if c is d2)
                penalties = config.resolve(q, t)  # the trainer hands the matcher its config
                bounds = _chunk_bounds(t.shape[0], chunk_len)
                assert [m.target_offset for m in matchings] == [s for s, _ in bounds]
                chunks.extend((q, t[s:e], penalties, m) for (s, e), m in zip(bounds, matchings))
            return out

        monkeypatch.setattr(embed, "pairwise_sqdist", recorded)
        monkeypatch.setattr(align, "_match_pairs", audited)
        cfg = TrainConfig(max_epochs=2, triplets_per_batch=40, hidden_dim=16,
                          embed_dim=8, bootstrap_epochs=1)
        train(small_dataset, cfg, chunk_len=20, rng=RngState(42))
        assert len(chunks) >= 2 * len(small_dataset)
        for q, t, pen, sol in chunks:
            assert alignment_cost(q, t, sol.pi, pen).total == pytest.approx(
                sol.total_cost, rel=1e-9)

    def test_each_chunk_mines_its_own_frames(self, small_dataset, monkeypatch):
        # chunk_len 7 leaves a 1-frame remainder on the 50-frame sequences,
        # which merges into the last chunk
        expected, seen = [], []
        match, sample = align._match_pairs, embed._sample_triplet_indices

        def matched(pairs, chunk_len):
            for d2, _ in pairs:
                expected.extend(_chunk_bounds(d2.shape[1], chunk_len))
            return match(pairs, chunk_len)

        def sampled(pi, chunk_feats, offset, *args):
            seen.append((offset, offset + chunk_feats.shape[0]))
            return sample(pi, chunk_feats, offset, *args)

        monkeypatch.setattr(align, "_match_pairs", matched)
        monkeypatch.setattr(embed, "_sample_triplet_indices", sampled)
        cfg = TrainConfig(max_epochs=1, triplets_per_batch=20, hidden_dim=16, embed_dim=8)
        train(small_dataset, cfg, chunk_len=7, rng=RngState(3))
        assert seen == expected and any(e - s == 8 for s, e in seen)

    def test_each_epoch_solves_its_pairs_in_one_batch(self, small_dataset, monkeypatch):
        batches = []
        solve = align._solve_batch

        def recorded(unary, penalties):
            batches.append(unary.shape[0])
            return solve(unary, penalties)

        monkeypatch.setattr(align, "_solve_batch", recorded)
        cfg = TrainConfig(max_epochs=3, triplets_per_batch=20, hidden_dim=16, embed_dim=8,
                          bootstrap_epochs=1, pairs_per_epoch=4)
        train(small_dataset, cfg, chunk_len=20, rng=RngState(7))
        # one batch an epoch, of every chunk of its 4 pairs: 50-60 frames make 3 chunks of <= 20
        assert batches == [4 * 3] * 3

    def test_each_pair_computes_its_distances_once(self, small_dataset, monkeypatch):
        shapes, solved = [], []
        sqdist, match = align.pairwise_sqdist, align._match_pairs

        def recorded(a, b):
            shapes.append((len(a), len(b)))
            return sqdist(a, b)

        def matched(pairs, chunk_len):
            solved.extend(d2.shape for d2, _ in pairs)
            return match(pairs, chunk_len)

        monkeypatch.setattr(align, "pairwise_sqdist", recorded)
        monkeypatch.setattr(align, "_match_pairs", matched)
        cfg = TrainConfig(max_epochs=3, triplets_per_batch=20, hidden_dim=16, embed_dim=8,
                          bootstrap_epochs=1, pairs_per_epoch=4)
        train(small_dataset, cfg, chunk_len=20, rng=RngState(7))
        # the trainer hands the matcher each pair's (n, m) matrix, and the matcher
        # computes none, also not to resolve the default penalties
        assert len(solved) == 3 * 4 and shapes == []

    def test_every_batch_runs_in_one_buffer_set(self, small_dataset, monkeypatch):
        seen = []
        grad_fn = embed._triplet_grad

        def recorded(model, x, roles, delta, buffers):
            seen.append((buffers, len(roles) // 3))
            return grad_fn(model, x, roles, delta, buffers)

        monkeypatch.setattr(embed, "_triplet_grad", recorded)
        # a wide exclusion window empties some pools, so short batches run too
        cfg = TrainConfig(max_epochs=2, triplets_per_batch=40, hidden_dim=16,
                          embed_dim=8, bootstrap_epochs=1, exclusion_window=8)
        _, log = train(small_dataset, cfg, chunk_len=20, rng=RngState(42))
        assert len(seen) == len(log.batch_loss) > 1
        buf = seen[0][0]
        assert all(b is buf for b, _ in seen)
        assert buf["x"].shape == (3 * 40, small_dataset.dimension)
        assert any(count < 40 for _, count in seen)

    def test_the_encoder_runs_over_each_distinct_frame_once(self, small_dataset, monkeypatch):
        drawn, passes = [], []
        sample, forward, backprop = embed._sample_triplet_indices, embed._forward, embed._backprop

        def sampled(*args):
            out = sample(*args)
            if out[0].size:
                drawn.append(out)
            return out

        def forwarded(model, x, buf):
            if "x" in buf:  # a training batch, not embed_batch
                passes.append(("forward", len(x)))
            return forward(model, x, buf)

        def backpropagated(model, x, buf):
            passes.append(("backward", len(x)))
            return backprop(model, x, buf)

        monkeypatch.setattr(embed, "_sample_triplet_indices", sampled)
        monkeypatch.setattr(embed, "_forward", forwarded)
        monkeypatch.setattr(embed, "_backprop", backpropagated)
        cfg = TrainConfig(max_epochs=2, triplets_per_batch=40, hidden_dim=16,
                          embed_dim=8, bootstrap_epochs=1)
        train(small_dataset, cfg, chunk_len=20, rng=RngState(42))
        # each batch's forward and backward run over its distinct query frames
        # and its distinct target frames, not over its 3·B stacked rows
        distinct = [np.unique(a).size + np.unique(np.r_[p, n]).size for a, p, n in drawn]
        assert passes == [(kind, r) for r in distinct for kind in ("forward", "backward")]
        assert len(distinct) > 1
        assert sum(distinct) < 0.8 * sum(3 * len(a) for a, _, _ in drawn)

    @staticmethod
    def epoch_ends(monkeypatch):
        """Record the starting vector and each epoch-end vector of ``train``'s optimizer."""
        seen = []

        class Recording(MomentumSGD):
            def __init__(self, theta, *args):
                super().__init__(theta, *args)
                seen.append(theta.copy())

            def end_epoch(self):
                super().end_epoch()
                seen.append(self.theta.copy())

        monkeypatch.setattr(embed, "MomentumSGD", Recording)
        return seen

    @pytest.mark.parametrize("epochs, averaged", [(1, 1), (2, 1), (5, 3)])
    def test_returns_the_mean_of_the_late_epoch_ends(self, small_dataset, monkeypatch,
                                                     epochs, averaged):
        seen = self.epoch_ends(monkeypatch)
        cfg = TrainConfig(max_epochs=epochs, triplets_per_batch=40, hidden_dim=16,
                          embed_dim=8, bootstrap_epochs=2)
        model, log = train(small_dataset, cfg, chunk_len=20, rng=RngState(42))
        start, ends = seen[0], seen[1:]
        assert len(ends) == epochs and model.theta.dtype == np.float32
        expect = np.sum(np.array(ends[-averaged:], np.float64), axis=0) / averaged
        np.testing.assert_array_equal(model.theta, expect.astype(np.float32))
        if averaged == 1:
            np.testing.assert_array_equal(model.theta, ends[-1])  # the last iterate
        else:
            assert not np.array_equal(model.theta, ends[-1])
        # the record keeps the optimizer's own moves, not the move to the mean
        moves = [float(np.linalg.norm(b - a)) for a, b in zip([start] + ends, ends)]
        assert log.epoch_param_delta == moves

    def test_percentile_schedule(self):
        cfg = TrainConfig()
        assert [cfg.percentile_at(e) for e in (0, 1, 2, 7, 9)] == [100, 90, 80, 30, 30]

    def test_log_shape_and_batch_size_default(self, small_dataset):
        cfg = TrainConfig(max_epochs=2, hidden_dim=16, embed_dim=8)
        assert cfg.triplets_per_batch == 300
        _, log = train(small_dataset, cfg, chunk_len=20, rng=RngState(1))
        assert type(log) is TrainLog
        assert log.epochs_run == len(log.epoch_param_delta) == 2
        epochs = np.asarray(log.batch_epoch)
        assert len(log.batch_loss) == len(epochs) and set(epochs) == {0, 1}
        assert np.all(np.diff(epochs) >= 0)  # in step order
        assert log.epoch_loss == [float(np.mean(np.asarray(log.batch_loss)[epochs == e]))
                                  for e in (0, 1)]

    def test_set_penalties_reach_the_matcher(self, small_dataset):
        # all-outlier matchings leave no anchors, so no batch may run
        cfg = TrainConfig(max_epochs=1, hidden_dim=16, embed_dim=8)
        _, log = train(small_dataset, cfg, penalties=PenaltyConfig(outlier_cost=1e-9),
                       chunk_len=20, rng=RngState(1))
        assert log.epochs_run == 1
        assert log.batch_loss == []
        assert len(log.epoch_loss) == 1 and math.isnan(log.epoch_loss[0])

    def test_divergence_names_stage_epoch_and_batch(self, small_dataset):
        cfg = TrainConfig(max_epochs=1, triplets_per_batch=40, hidden_dim=16,
                          embed_dim=8, learning_rate=1e300)
        with pytest.raises(DivergenceError) as info, np.errstate(all="ignore"):
            train(small_dataset, cfg, chunk_len=20, rng=RngState(1))
        err = info.value
        assert (err.stage, err.epoch) == ("embed", 0) and err.batch >= 1
        assert "embed training diverged at epoch 0" in str(err)

    def test_collapsed_encoder_is_divergence(self, small_dataset, monkeypatch):
        # one step at this rate saturates the encoder: every frame embeds to
        # the same row, so each later batch costs the margin with a zero
        # gradient. 1e150 overflows float32, so the float32 encoder (as
        # built) takes 1e12 and the float64 one (a widened θ) keeps 1e150.
        init = embed.init_embedding_model
        for dtype, rate in ((np.float32, 1e12), (np.float64, 1e150)):
            if dtype == np.float64:
                monkeypatch.setattr(embed, "init_embedding_model", lambda *a: float64(init(*a)))
            cfg = TrainConfig(max_epochs=3, triplets_per_batch=40, hidden_dim=16,
                              embed_dim=8, bootstrap_epochs=1, learning_rate=rate)
            with pytest.raises(DivergenceError, match="collapsed") as info, \
                    np.errstate(all="ignore"):
                train(small_dataset, cfg, chunk_len=40, rng=RngState(0))
            assert (info.value.stage, info.value.epoch, info.value.batch) == ("embed", 0, 1)
            assert info.value.loss == float(dtype(cfg.margin))

    def test_training_reduces_loss_on_reference(self, ref_training):
        _, log = ref_training
        assert log.epoch_loss[5] < log.epoch_loss[0]
