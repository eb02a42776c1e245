from dataclasses import replace

import numpy as np
import pytest

from seqrep.core import (
    ConfigError,
    DegenerateInputError,
    Dataset,
    DimensionError,
    DivergenceError,
    RngState,
    Sequence,
)
from seqrep.align import PenaltyConfig
from seqrep.embed import (
    EmbeddingModel,
    TrainConfig,
    _eligible_negatives,
    _sample_triplet_indices,
    augment,
    embed_batch,
    fit_whitener,
    init_embedding_model,
    nearest_rank_percentile,
    sequence_neighbors,
    train,
    triplet_grad,
    triplet_loss,
)


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
        g = rng.gen
        a, p, n = (g.normal(size=(6, 5)) for _ in range(3))
        loss, _ = triplet_grad(tiny_model, a, p, n, 0.3)
        ya, yp, yn = (embed_batch(tiny_model, x) for x in (a, p, n))
        oracle = np.mean([triplet_loss(ya[i], yp[i], yn[i], 0.3) for i in range(6)])
        assert loss == pytest.approx(oracle, rel=1e-12, abs=1e-15)

    def test_batch_mean_equals_mean_of_singles(self, tiny_model, rng):
        g = rng.gen
        a, p, n = (g.normal(size=(4, 5)) for _ in range(3))
        loss_b, grads_b = triplet_grad(tiny_model, a, p, n, 0.3)
        singles = [triplet_grad(tiny_model, a[i:i+1], p[i:i+1], n[i:i+1], 0.3)
                   for i in range(4)]
        assert loss_b == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
        np.testing.assert_allclose(grads_b, np.mean([s[1] for s in singles], axis=0),
                                   atol=1e-12)


class TestNegativeMining:
    def test_nearest_rank_percentile(self):
        dists = np.array([0.1, 0.4, 0.9, 1.6])
        assert nearest_rank_percentile(dists, 50) == pytest.approx(0.4)
        assert nearest_rank_percentile(dists, 100) == pytest.approx(1.6)
        assert nearest_rank_percentile(dists, 0) == pytest.approx(0.1)
        assert nearest_rank_percentile(dists, 25) == pytest.approx(0.1)

    def test_worked_example(self):
        # positive at index 0; candidates at squared distances .1, .4, .9, 1.6
        dists = np.array([0.0, 0.1, 0.4, 0.9, 1.6])
        eligible = _eligible_negatives(dists, pos=0, p=50, window=0, mining="distance")
        assert set(eligible) == {1, 2}

    def test_p100_admits_all_non_excluded(self):
        dists = np.array([0.0, 0.5, 0.2, 0.9, 0.3])
        eligible = _eligible_negatives(dists, pos=0, p=100, window=1, mining="distance")
        assert set(eligible) == {2, 3, 4}

    def test_monotone_in_percentile(self, rng):
        g = rng.gen
        dists = np.abs(g.normal(size=30))
        prev = None
        for p in (100, 80, 60, 40, 20, 5):
            cur = set(_eligible_negatives(dists, pos=3, p=p, window=2,
                                          mining="distance"))
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_similarity_reading_flips_direction(self, rng):
        dists = np.abs(rng.gen.normal(size=20))
        near = set(_eligible_negatives(dists, pos=0, p=30, window=0, mining="distance"))
        far = set(_eligible_negatives(dists, pos=0, p=30, window=0, mining="similarity"))
        assert not (near & far)


class TestSampleTriplets:
    """Triplet index draws from one chunk matching, as ``train`` mines them."""

    @pytest.fixture()
    def chunk_feats(self, rng):
        return rng.gen.normal(size=(8, 4))

    def test_all_outlier_matching_yields_empty(self, chunk_feats, rng):
        pi = np.zeros(6, dtype=np.int64)
        assert _sample_triplet_indices(pi, chunk_feats, 100, 10, 1, rng) == []

    def test_anchor_validity_and_offsets(self, chunk_feats, rng):
        pi = np.array([1, 0, 3, 2, 0, 4])
        out = _sample_triplet_indices(pi, chunk_feats, 100, 50, 1, rng)
        assert out
        for j, pos, neg in out:
            assert pi[j] == pos + 1
            assert 0 <= neg < len(chunk_feats)
            assert abs(neg - pos) > 1

    def test_deterministic_under_seed(self, chunk_feats):
        pi = np.array([1, 0, 3, 2, 0, 4])
        a = _sample_triplet_indices(pi, chunk_feats, 60, 20, 1, RngState(5))
        b = _sample_triplet_indices(pi, chunk_feats, 60, 20, 1, RngState(5))
        assert a == b

    def test_single_frame_chunk_yields_no_triplets(self, rng):
        pi = np.array([1, 1, 1])
        feats = rng.gen.normal(size=(1, 4))
        assert _sample_triplet_indices(pi, feats, 100, 10, 1, rng) == []


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

    def test_k_too_large_rejected(self, small_dataset, tiny_model):
        model = init_embedding_model(small_dataset.dimension, 8, 4, RngState(0))
        with pytest.raises(ConfigError):
            sequence_neighbors(small_dataset, model, len(small_dataset))


class TestAugment:
    def test_sigma_zero_is_identity(self, rng):
        x = rng.gen.normal(size=6)
        np.testing.assert_array_equal(augment(x, 0.0, np.ones(6), rng), x)

    def test_preserves_shape(self, rng):
        x = rng.gen.normal(size=(7, 3))
        assert augment(x, 0.1, np.ones(3), rng).shape == (7, 3)

    def test_noise_scale_tracks_feature_std(self):
        rng = RngState(321)
        x = np.zeros(4)
        std = np.array([1.0, 2.0, 0.5, 4.0])
        sigma = 0.3
        draws = np.stack([augment(x, sigma, std, rng) for _ in range(10_000)])
        emp = draws.std(axis=0)
        np.testing.assert_allclose(emp, sigma * std, rtol=0.05)


class TestWhitener:
    def test_whitened_covariance_is_identityish(self, rng):
        g = rng.gen
        x = g.normal(size=(4000, 5)) @ g.normal(size=(5, 5)) + g.normal(size=5)
        w = fit_whitener(x, eps_scale=1e-9)
        y = w(x)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(np.cov(y, rowvar=False, bias=True), np.eye(5),
                                   atol=1e-2)


class TestTrain:
    def test_deterministic_under_seed(self, small_dataset):
        cfg = TrainConfig(max_epochs=2, triplets_per_batch=40, hidden_dim=16,
                          embed_dim=8, bootstrap_epochs=1)
        m1, _ = train(small_dataset, cfg, chunk_len=20, rng=RngState(42))
        m2, _ = train(small_dataset, cfg, chunk_len=20, rng=RngState(42))
        np.testing.assert_array_equal(m1.theta, m2.theta)

    def test_percentile_schedule(self):
        cfg = TrainConfig()
        assert [cfg.percentile_at(e) for e in (0, 1, 2, 7, 9)] == [100, 90, 80, 30, 30]

    def test_log_shape_and_batch_size_default(self, small_dataset):
        cfg = TrainConfig(max_epochs=1, hidden_dim=16, embed_dim=8)
        assert cfg.triplets_per_batch == 300
        _, log = train(small_dataset, cfg, chunk_len=20, rng=RngState(1))
        assert log.epochs_run == 1
        assert log.epoch_percentile == [100.0]
        assert len(log.batch_loss) == len(log.batch_epoch)

    def test_set_penalties_reach_the_matcher(self, small_dataset):
        # all-outlier matchings leave no anchors, so no batch may run
        cfg = TrainConfig(max_epochs=1, hidden_dim=16, embed_dim=8)
        _, log = train(small_dataset, cfg, penalties=PenaltyConfig(outlier_cost=1e-9),
                       chunk_len=20, rng=RngState(1))
        assert log.epochs_run == 1
        assert log.batch_loss == []

    def test_divergence_names_stage_epoch_and_batch(self, small_dataset):
        cfg = TrainConfig(max_epochs=1, triplets_per_batch=40, hidden_dim=16,
                          embed_dim=8, learning_rate=1e300)
        with pytest.raises(DivergenceError) as info, np.errstate(all="ignore"):
            train(small_dataset, cfg, chunk_len=20, rng=RngState(1))
        err = info.value
        assert (err.stage, err.epoch) == ("embed", 0) and err.batch >= 1
        assert "embed training diverged at epoch 0" in str(err)

    def test_training_reduces_loss_on_reference(self, ref_training):
        _, log = ref_training
        assert log.mean_loss(5) < log.mean_loss(0)
