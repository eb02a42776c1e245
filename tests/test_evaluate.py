import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.spatial.distance import cdist, pdist
from scipy.stats import rankdata

from seqrep import align, evaluate
from seqrep.core import (ConfigError, Dataset, DegenerateInputError, DimensionError,
                         RngState, Sequence, pairwise_sqdist)
from seqrep.align import Matching, PenaltyConfig, solve_exact_dp
from seqrep.dynamics import init_predictor
from seqrep.embed import embed_batch, fit_whitener, init_embedding_model
from seqrep.synthdata import GeneratorConfig, alignment_pair_config, resample_pair
from seqrep.evaluate import (
    EvalReport,
    alignment_accuracy,
    default_pose_epsilon,
    knn_prediction_curve,
    nearest_neighbor_assignment,
    pca_project_2d,
    retrieval_auc,
    write_curve,
    zero_shot_pose_error,
)

from conftest import integer_rows


def roc_auc(scores_pos, scores_neg) -> float:
    """Rank-based (Mann-Whitney) AUC with tie correction, one query's worth;
    a NaN score is rejected by the protocol's own ranking."""
    pos = np.asarray(scores_pos, dtype=np.float64)
    neg = np.asarray(scores_neg, dtype=np.float64)
    ranks = evaluate._average_ranks(np.concatenate([pos, neg]))
    u = ranks[:pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([3.0, 4.0], [1.0, 2.0]) == 1.0
        assert roc_auc([1.0, 2.0], [3.0, 4.0]) == 0.0

    def test_all_tied_is_half(self):
        assert roc_auc([1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_matches_bruteforce_pair_count(self, rng):
        g = rng.gen
        pos = g.normal(size=20)
        neg = g.normal(size=30)
        wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
                   for p in pos for n in neg)
        assert roc_auc(pos, neg) == pytest.approx(wins / (20 * 30), rel=1e-12)

    def test_nan_score_is_rejected_and_infinities_keep_their_order(self):
        for pos, neg in (([np.nan], [1.0]), ([1.0], [2.0, np.nan])):
            with pytest.raises(DegenerateInputError, match="NaN"):
                roc_auc(pos, neg)
        assert roc_auc([np.inf], [1.0, np.inf]) == 0.75
        assert roc_auc([-np.inf], [-np.inf, 0.0]) == 0.25


rank_shapes = array_shapes(min_dims=1, max_dims=2, max_side=12)


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(
    arrays(np.float64, rank_shapes, elements=st.integers(-3, 3).map(float)),  # many ties
    arrays(np.float64, rank_shapes, elements=st.floats(allow_nan=False)),  # +-inf, +-0
    rank_shapes.map(lambda shape: np.full(shape, 2.5)),  # all-equal rows
))
def test_average_ranks_equal_scipy_rankdata(a):
    expect = rankdata(a, axis=-1)
    got = evaluate._average_ranks(a)
    assert got.dtype == expect.dtype and np.array_equal(got, expect)


def latent_only_dataset(z, split):
    """Two sequences whose frames are their latents: z[:split] and z[split:]."""
    return Dataset(dimension=z.shape[1], sequences=(
        Sequence(id="a", frames=z[:split], latent=z[:split]),
        Sequence(id="b", frames=z[split:], latent=z[split:])))


@settings(max_examples=150, deadline=None)
@given(z=arrays(np.float64, st.tuples(st.integers(2, 70), st.integers(1, 4)),
                elements=st.floats(-1e3, 1e3)),
       split=st.floats(0.0, 1.0),
       percentile=st.sampled_from([0.0, 5.0, 37.5, 50.0, 100.0]))
# numpy interpolates up from the lower order statistic at gamma 0.25 and down
# from the upper one at gamma 0.5; here the other way differs in the last bit
@example(z=np.array([[0.2], [9.0], [-7.1], [9.0]]), split=0.5, percentile=5.0)
@example(z=np.array([[5.6], [2.1], [4.2], [-8.2]]), split=0.5, percentile=50.0)
# the 5 % smallest all lie in the first block of offsets; later blocks add none
@example(z=np.arange(200.0)[:, None], split=0.5, percentile=5.0)
def test_pose_epsilon_equals_pdist_percentile_bit_for_bit(z, split, percentile):
    ds = latent_only_dataset(z, 1 + int(split * (len(z) - 2)))
    assert default_pose_epsilon(ds, percentile) == np.percentile(pdist(z), percentile)


@pytest.mark.parametrize("percentile", [1.0, 5.0, 50.0, 95.0])
def test_pose_epsilon_on_the_reference_dataset_equals_pdist(ref_dataset, percentile):
    z = np.concatenate([s.latent for s in ref_dataset])
    expect = np.percentile(pdist(z), percentile)
    assert default_pose_epsilon(ref_dataset, percentile) == expect


@pytest.mark.parametrize("percentile", [-1.0, 101.0, float("nan")])
def test_pose_epsilon_rejects_a_percentile_outside_0_100(small_dataset, monkeypatch, percentile):
    # numpy raised an untyped ValueError, after every distance had been computed
    monkeypatch.setattr(evaluate, "_latent_distances", None)
    with pytest.raises(ConfigError, match="percentile must be in"):
        default_pose_epsilon(small_dataset, percentile)


def test_pose_epsilon_never_holds_every_distance(ref_dataset):
    # the n(n-1)/2 distances at the reference 1,757 frames are 12.3 MB: holding
    # them took the protocol to 12.8 MB (1.04x); the streaming selection keeps
    # about twice the 5 % smallest plus one block of offsets
    n = sum(len(s) for s in ref_dataset)
    tracemalloc.start()
    try:
        default_pose_epsilon(ref_dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * 8 * n * (n - 1) // 2


class TestRetrieval:
    def test_oracle_latents_dominate_any_embedding(self, small_dataset):
        rng = RngState(5)
        oracle = float(np.mean(evaluate._query_aucs(
            small_dataset, [s.latent for s in small_dataset], None, 150, rng.split(0))))
        model = init_embedding_model(small_dataset.dimension, 16, 8, RngState(3))
        emb = retrieval_auc(small_dataset, model, num_queries=150, rng=rng.split(0))
        raw = retrieval_auc(small_dataset, lambda x: np.asarray(x),
                            num_queries=150, rng=rng.split(0))
        assert oracle >= emb and oracle >= raw
        assert oracle > 0.99

    def test_requires_latents(self, rng):
        ds = Dataset(dimension=2, sequences=(
            Sequence(id="a", frames=rng.gen.normal(size=(5, 2))),
            Sequence(id="b", frames=rng.gen.normal(size=(5, 2))),
        ))
        with pytest.raises(ConfigError):
            retrieval_auc(ds, lambda x: np.asarray(x), num_queries=500, rng=RngState(0))

    def test_pose_epsilon_default_is_low_percentile(self, small_dataset):
        eps = default_pose_epsilon(small_dataset)
        z = np.concatenate([s.latent for s in small_dataset])
        d = np.sqrt(np.maximum(
            (z ** 2).sum(1)[:, None] + (z ** 2).sum(1)[None, :] - 2 * z @ z.T, 0))
        frac = (d[np.triu_indices(len(z), 1)] <= eps).mean()
        assert 0.03 <= frac <= 0.07

    @pytest.mark.parametrize("percentile", [5.0, 50.0])
    def test_pose_epsilon_matches_expanded_form(self, small_dataset, percentile):
        # the difference form (pdist) against the formula it replaced
        z = np.concatenate([s.latent for s in small_dataset])
        old = np.percentile(np.sqrt(pairwise_sqdist(z, z)[np.triu_indices(len(z), k=1)]),
                            percentile)
        eps = default_pose_epsilon(small_dataset, percentile)
        assert eps == pytest.approx(old, rel=1e-12, abs=0)

    def test_overflowing_feature_distances_are_rejected(self):
        # |a|^2 + |b|^2 - 2 a.b is inf - inf: a NaN distance has no rank
        z = np.array([[0.0], [1.0]])
        ds = latent_only_dataset(np.concatenate([z, z]), 2)
        big = [np.array([[1e200], [-1e200]])] * 2
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DegenerateInputError, match="NaN"):
            evaluate._query_aucs(ds, big, 0.5, 500, RngState(0))

    @pytest.mark.parametrize("num_queries", [0, -3])
    def test_fewer_than_one_query_rejected(self, small_dataset, num_queries):
        # -3 reached numpy's untyped "negative dimensions are not allowed"
        feats = [s.frames for s in small_dataset]
        with pytest.raises(ConfigError, match=f"num_queries must be >= 1, got {num_queries}"):
            evaluate._query_aucs(small_dataset, feats, None, num_queries, RngState(0))
        with pytest.raises(ConfigError, match="num_queries must be >= 1"):
            retrieval_auc(small_dataset, lambda x: np.asarray(x), num_queries=num_queries,
                          rng=RngState(0))

    def test_deterministic_given_rng(self, small_dataset):
        model = init_embedding_model(small_dataset.dimension, 16, 8, RngState(3))
        a = retrieval_auc(small_dataset, model, num_queries=50, rng=RngState(8))
        b = retrieval_auc(small_dataset, model, num_queries=50, rng=RngState(8))
        assert a == b


def per_query_reference(dataset, features, pose_epsilon, num_queries, rng):
    """One query at a time: explicit differences and one :func:`roc_auc` each."""
    seq_of = np.concatenate([np.full(len(s), i) for i, s in enumerate(dataset)])
    feats = np.concatenate(features, axis=0)
    lats = np.concatenate([s.latent for s in dataset], axis=0)
    total = feats.shape[0]
    if num_queries >= total:
        queries = np.arange(total)
    else:
        queries = np.sort(rng.gen.choice(total, size=num_queries, replace=False))
    aucs = []
    for qi in queries:
        mask = seq_of != seq_of[qi]
        d_feat = np.sum((feats[mask] - feats[qi]) ** 2, axis=1)
        labels = np.linalg.norm(lats[mask] - lats[qi], axis=1) <= pose_epsilon
        if labels.all() or not labels.any():
            continue
        aucs.append(roc_auc(-d_feat[labels], -d_feat[~labels]))
    return aucs


@st.composite
def integer_retrieval_instances(draw):
    """Small integer-valued features and latents: distances tie, also at epsilon."""
    lengths = draw(st.lists(st.integers(1, 7), min_size=2, max_size=4))
    f_dim, z_dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    seqs, features = [], []
    for i, n in enumerate(lengths):
        ints = st.lists(st.integers(-2, 2), min_size=n * (f_dim + z_dim),
                        max_size=n * (f_dim + z_dim))
        block = np.array(draw(ints), dtype=np.float64).reshape(n, f_dim + z_dim)
        seqs.append(Sequence(id=f"s{i}", frames=block[:, :f_dim], latent=block[:, f_dim:]))
        features.append(block[:, :f_dim])
    dataset = Dataset(dimension=f_dim, sequences=tuple(seqs))
    # squared latent distances are integers, so sqrt(k) puts candidates exactly at epsilon
    pose_epsilon = float(np.sqrt(draw(st.integers(0, 8))))
    num_queries = draw(st.integers(1, sum(lengths) + 2))
    return dataset, features, pose_epsilon, num_queries, draw(st.integers(0, 2 ** 16))


def test_latent_distances_keep_the_bits_of_the_difference_array(ref_dataset):
    # the reference is the norm over the (q, N, 2) difference array; adding
    # squared differences in coordinate order keeps each distance's bits at
    # latent_dim 2, the width of every config's latents
    lats = np.concatenate([s.latent for s in ref_dataset], axis=0)
    assert lats.shape[1] == 2
    qs = np.sort(RngState(5).gen.choice(len(lats), size=500, replace=False))
    others = np.r_[0:len(lats)]
    old = np.linalg.norm(lats[others] - lats[qs, None], axis=2)
    new = evaluate._latent_distances(lats[qs].T[:, :, None], lats[others].T[:, None, :],
                                     np.empty((500, len(lats))))
    assert new.shape == old.shape == (500, len(lats))
    assert new.tobytes() == old.tobytes()


@settings(max_examples=100, deadline=None)
@given(width=st.integers(1, 8), data=st.data())
def test_latent_distances_equal_cdist_bit_for_bit(width, data):
    a, b = (data.draw(arrays(np.float64, st.tuples(st.integers(1, 12), st.just(width)),
                             elements=st.floats(-1e6, 1e6)))
            for _ in range(2))
    out = np.empty((len(a), len(b)))
    assert evaluate._latent_distances(a.T[:, :, None], b.T[:, None, :], out) is out
    assert out.tobytes() == cdist(a, b).tobytes()


class TestRetrievalOracle:
    @settings(max_examples=150, deadline=None)
    @given(instance=integer_retrieval_instances())
    def test_block_scoring_equals_per_query_loop(self, instance):
        dataset, features, eps, num_queries, seed = instance
        expect = per_query_reference(dataset, features, eps, num_queries, RngState(seed))
        if not expect:
            with pytest.raises(ConfigError):
                evaluate._query_aucs(dataset, features, eps, num_queries, RngState(seed))
            return
        aucs = evaluate._query_aucs(dataset, features, eps, num_queries, RngState(seed))
        # the instance's features are its frames, so the identity embeds them
        mean = retrieval_auc(dataset, np.asarray, pose_epsilon=eps, num_queries=num_queries,
                             rng=RngState(seed))
        assert aucs == expect
        assert mean == float(np.mean(expect))

    def test_skipped_queries_keep_query_order(self):
        # a1 lies within epsilon of all of b (all-positive), a2 of none of b
        # (all-negative); both are skipped and the other four keep their order
        z0 = np.array([[0.0], [1.0], [5.0]])
        z1 = np.array([[0.0], [1.0], [2.0]])
        ds = Dataset(dimension=1, sequences=(Sequence(id="a", frames=z0, latent=z0),
                                             Sequence(id="b", frames=z1, latent=z1)))
        feats = [np.array([[0.0], [2.0], [5.0]]), np.array([[4.0], [0.0], [1.0]])]
        aucs = evaluate._query_aucs(ds, feats, 1.0, 6, RngState(0))
        expect = per_query_reference(ds, feats, 1.0, 6, RngState(0))
        assert aucs == expect and len(aucs) == 4
        assert aucs[0] == roc_auc([-16.0, -0.0], [-1.0])  # a0: b0, b1 match, b2 does not


class TestZeroShot:
    def test_self_transfer_is_exact(self, small_dataset):
        model = init_embedding_model(small_dataset.dimension, 16, 8, RngState(3))
        rep = zero_shot_pose_error(small_dataset, small_dataset, model)
        assert rep.mean_error == pytest.approx(0.0, abs=1e-12)

    def test_oracle_bound_holds(self, small_dataset):
        split = len(small_dataset) // 2
        train = Dataset(dimension=small_dataset.dimension,
                        sequences=small_dataset.sequences[:split])
        test = Dataset(dimension=small_dataset.dimension,
                       sequences=small_dataset.sequences[split:])
        model = init_embedding_model(small_dataset.dimension, 16, 8, RngState(3))
        rep = zero_shot_pose_error(train, test, model)
        assert rep.mean_error >= rep.oracle_mean_error
        assert len(rep.accuracy) == len(rep.thresholds)
        assert all(0 <= a <= 1 for a in rep.accuracy)

    def test_never_holds_the_distance_matrix(self, ref_dataset):
        # the (895 test x 862 gallery) float64 matrix is 6.2 MB: the two whole
        # matrices took the protocol to 1.39x of it, row blocks to 0.67x
        model = init_embedding_model(ref_dataset.dimension, 256, 128, RngState(1))
        train, test = _halves(ref_dataset)
        matrix = 8 * sum(len(s) for s in train) * sum(len(s) for s in test)
        tracemalloc.start()
        try:
            zero_shot_pose_error(train, test, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix

    @pytest.mark.parametrize("what", ["features", "latents"])
    def test_train_and_test_widths_must_agree(self, small_dataset, monkeypatch, what):
        # the latent case reached numpy's untyped broadcast error; a callable's
        # features, its matmul error; either after a whole nearest-row pass
        train, test = _halves(small_dataset)
        embedder = np.asarray
        if what == "features":
            embedder = lambda x: x[:, :2] if any(x is s.frames for s in test) else x
        else:
            test = Dataset(dimension=test.dimension, sequences=tuple(
                Sequence(id=s.id, frames=s.frames, latent=np.c_[s.latent, s.latent[:, :1]])
                for s in test))
        monkeypatch.setattr(evaluate, "nearest_rows", None)  # no distance is computed
        with pytest.raises(DimensionError, match=f"test {what} have width"):
            zero_shot_pose_error(train, test, embedder)

    def test_trained_beats_raw_on_reference(self, ref_dataset, ref_model):
        half = len(ref_dataset) // 2
        train = Dataset(dimension=ref_dataset.dimension,
                        sequences=ref_dataset.sequences[:half])
        test = Dataset(dimension=ref_dataset.dimension,
                       sequences=ref_dataset.sequences[half:])
        trained = zero_shot_pose_error(train, test, ref_model)
        raw = zero_shot_pose_error(train, test, lambda x: np.asarray(x))
        assert trained.mean_error < raw.mean_error


def whole_matrix_zero_shot(train, test, embedder):
    """The zero-shot report from one (test x gallery) distance matrix per argmin."""
    f_train, f_test = (np.concatenate([embedder(s.frames) for s in ds]) for ds in (train, test))
    z_train, z_test = (np.concatenate([s.latent for s in ds]) for ds in (train, test))
    err = np.linalg.norm(z_test - z_train[np.argmin(pairwise_sqdist(f_test, f_train), axis=1)],
                         axis=1)
    oracle_err = np.linalg.norm(
        z_test - z_train[np.argmin(pairwise_sqdist(z_test, z_train), axis=1)], axis=1)
    thresholds = np.linspace(0.0, max(err.max(), oracle_err.max(), 1e-12), 21)[1:]
    return evaluate.ZeroShotReport(
        mean_error=float(err.mean()),
        thresholds=tuple(float(t) for t in thresholds),
        accuracy=tuple(float(np.mean(err <= t)) for t in thresholds),
        oracle_mean_error=float(oracle_err.mean()),
        oracle_accuracy=tuple(float(np.mean(oracle_err <= t)) for t in thresholds))


@settings(max_examples=40, deadline=None)
@given(f_dim=st.integers(1, 3), z_dim=st.integers(1, 2), data=st.data())
def test_nearest_row_protocols_equal_the_whole_matrix_argmin(f_dim, z_dim, data):
    # more test rows than one 256-row block, so a block boundary is crossed
    def dataset(rows):
        frames = data.draw(integer_rows(rows, f_dim))
        latent = data.draw(integer_rows(st.just(len(frames)), z_dim))
        cut = data.draw(st.integers(1, len(frames) - 1))
        return Dataset(dimension=f_dim, sequences=(
            Sequence(id="a", frames=frames[:cut], latent=latent[:cut]),
            Sequence(id="b", frames=frames[cut:], latent=latent[cut:])))

    train, test = dataset(st.integers(2, 40)), dataset(st.integers(257, 320))
    embedder = lambda x: np.asarray(x)
    assert zero_shot_pose_error(train, test, embedder) == \
        whole_matrix_zero_shot(train, test, embedder)
    q, t = test.all_frames(), train.all_frames()
    assert np.array_equal(nearest_neighbor_assignment(q, t),
                          np.argmin(pairwise_sqdist(q, t), axis=1) + 1)


class TestKnnCurve:
    def test_monotone_and_positive(self, ref_dataset, ref_model, ref_predictor):
        curve = knn_prediction_curve(ref_dataset, ref_model, ref_predictor, k_max=6,
                                     exclusion_window=2)
        assert all(a <= b for a, b in zip(curve.knn_mean, curve.knn_mean[1:]))
        assert curve.knn_mean[0] > 0
        assert curve.prediction_error_mean > 0

    def test_k_max_limit(self, ref_dataset, ref_model, ref_predictor):
        with pytest.raises(ConfigError):
            knn_prediction_curve(ref_dataset, ref_model, ref_predictor, k_max=10 ** 6,
                                 exclusion_window=2)

    @pytest.mark.parametrize("k_max, window", [(0, 2), (-2, 2), (3, -1)])
    def test_bad_arguments_rejected(self, k_max, window):
        ds, model, pred = uneven_setup()
        with pytest.raises(ConfigError):
            knn_prediction_curve(ds, model, pred, k_max=k_max, exclusion_window=window)

    def test_never_holds_the_distance_matrix(self, ref_dataset):
        # reference shapes (1,709 x 1,757 distances, 24 MB): copies of the
        # matrix took the protocol to 53 MB, and the matrix with a copy of every
        # context to 28.1 MB (1.17x); blocks of one sequence's targets against
        # a view of the contexts peak at 9.8 MB (0.41x)
        model = init_embedding_model(ref_dataset.dimension, 256, 128, RngState(1))
        pred = init_predictor(128, 512, 4, RngState(2))
        frames = sum(len(s) for s in ref_dataset)
        matrix = 8 * frames * (frames - 4 * len(ref_dataset))
        tracemalloc.start()
        try:
            knn_prediction_curve(ref_dataset, model, pred, k_max=10, exclusion_window=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * matrix

    @pytest.mark.parametrize("window", [0, 1, 2, 3])
    def test_exclusion_matches_per_row_reference(self, window):
        # the reference roots the full distance matrix before selecting;
        # the protocol roots only the k_max kept squared distances
        ds, model, pred = uneven_setup()
        k_max = 4
        curve = knn_prediction_curve(ds, model, pred, k_max=k_max, exclusion_window=window)

        l = pred.context_len
        emb = [embed_batch(model, s.frames) for s in ds]
        all_emb = np.concatenate(emb)
        offsets = np.cumsum([0] + [len(e) for e in emb])
        rows = [offsets[si] + t for si, e in enumerate(emb) for t in range(l, len(e))]
        d = np.sqrt(pairwise_sqdist(all_emb[rows], all_emb))
        for row, gidx in enumerate(rows):
            si = int(np.searchsorted(offsets, gidx, side="right") - 1)
            for col in range(offsets[si], offsets[si + 1]):
                if abs(col - gidx) <= window:
                    d[row, col] = np.inf
        part = np.sort(d, axis=1)[:, :k_max]
        assert curve.knn_mean == tuple(float(v) for v in part.mean(axis=0))
        assert curve.knn_std == tuple(float(v) for v in part.std(axis=0))


def uneven_setup():
    """Sequences of unequal lengths, one too short for a transition, random models."""
    g = np.random.default_rng(5)
    seqs = tuple(Sequence(id=f"s{i}", frames=g.normal(size=(n, 6)))
                 for i, n in enumerate([9, 3, 14, 6]))
    ds = Dataset(dimension=6, sequences=seqs)
    model = init_embedding_model(6, 10, 5, RngState(1))
    return ds, model, init_predictor(5, 8, 4, RngState(2))


class TestOverflowingDistances:
    """Finite rows whose squared norms overflow: inf - inf is a NaN distance,
    which an argmin or a partition took as a valid, wrong answer."""

    def test_nearest_neighbor_assignment(self):
        # target 2 is nearest; the NaN distance to target 1 made the answer [1]
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DegenerateInputError, match="overflow"):
            nearest_neighbor_assignment([[2e200]], [[1e200], [2.1e200]])

    @pytest.mark.parametrize("scale", [1.0, 1e200], ids=["latents", "features"])
    def test_zero_shot_pose_error(self, scale):
        # large latents overflow the oracle's distances; the scaled embedder the features'
        train = latent_only_dataset(np.array([[1e200], [2.1e200], [0.0], [1.0]]), 2)
        test = latent_only_dataset(np.array([[2e200], [3.0], [4.0], [5.0]]), 2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DegenerateInputError, match="overflow"):
            zero_shot_pose_error(train, test, lambda x: np.asarray(x) * (scale / 1e200))

    def test_knn_prediction_curve(self, monkeypatch):
        # a normalized embedding cannot overflow; a scaled stand-in reaches the
        # protocol's distances, which NaN left with too few candidates
        ds, model, pred = uneven_setup()
        real = evaluate.embed_batch
        monkeypatch.setattr(evaluate, "embed_batch", lambda m, x: real(m, x) * 1e200)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DegenerateInputError, match="overflow"):
            knn_prediction_curve(ds, model, pred, k_max=2, exclusion_window=2)


class TestAlignmentAccuracy:
    def test_exact_prediction_scores_one(self):
        truth = np.array([1, 2, 3, 4])
        assert alignment_accuracy(truth.copy(), truth) == 1.0

    def test_all_outlier_scores_zero(self):
        truth = np.array([1, 2, 3])
        assert alignment_accuracy(np.zeros(3, dtype=int), truth) == 0.0

    def test_off_by_one_tolerated(self):
        truth = np.array([2, 3, 4])
        pred = np.array([1, 4, 6])
        assert alignment_accuracy(pred, truth) == pytest.approx(2 / 3)

    def test_whole_matching_scores_as_its_assignment(self, rng):
        g = rng.gen
        n, m = 30, 40
        pi = np.sort(g.integers(1, m + 1, size=n))
        pi[g.random(n) < 0.2] = 0
        truth = np.sort(g.integers(1, m + 1, size=n)).astype(np.int64)
        whole = Matching(pi=pi, total_cost=0.0)
        assert alignment_accuracy(whole, truth) == alignment_accuracy(whole.pi, truth)

    def test_chunk_matching_rejected(self):
        chunk = Matching(pi=np.array([2, 0, 1]), total_cost=0.0, target_offset=10)
        with pytest.raises(DimensionError, match="offset 10"):
            alignment_accuracy(chunk, np.array([12, 0, 11]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            alignment_accuracy(np.array([1, 2]), np.array([1, 2, 3]))

    def test_nn_assignment_is_argmin(self, rng):
        g = rng.gen
        q = g.normal(size=(6, 3))
        t = g.normal(size=(9, 3))
        nn = nearest_neighbor_assignment(q, t)
        for j in range(6):
            d = np.sum((t - q[j]) ** 2, axis=1)
            assert nn[j] == np.argmin(d) + 1

    def test_nn_assignment_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            nearest_neighbor_assignment(np.ones((2, 2)), np.ones((2, 3)))


class TestAlignmentBenchmark:
    GENERATOR = GeneratorConfig(feature_dim=16, frames_range=(30, 45), seed=3)

    @pytest.fixture(scope="class")
    def model(self):
        return init_embedding_model(16, 12, 6, RngState(9))

    @pytest.mark.parametrize("penalties, pairs", [(PenaltyConfig(), 4),
                                                  (PenaltyConfig(lambda1=0.5), 23)],
                             ids=["resolved", "partly-set-two-batches"])
    def test_keeps_the_scores_of_one_solve_per_pair(self, model, penalties, pairs):
        pair_cfg = alignment_pair_config(self.GENERATOR)
        dp, nn = [], []
        for i in range(pairs):
            query, target, truth = resample_pair(pair_cfg, seed=7 + i)
            q, t = embed_batch(model, query.frames), embed_batch(model, target.frames)
            dp.append(alignment_accuracy(solve_exact_dp(q, t, penalties.resolve(q, t)), truth))
            nn.append(alignment_accuracy(nearest_neighbor_assignment(q, t), truth))
        assert evaluate.alignment_benchmark(model, self.GENERATOR, pairs, 7, penalties) == (dp, nn)

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_no_pairs_rejected(self, model, pairs):
        with pytest.raises(ConfigError, match="pairs must be >= 1"):
            evaluate.alignment_benchmark(model, self.GENERATOR, pairs, 7)

    def test_each_pair_computes_its_distances_once(self, model, monkeypatch):
        shapes = []
        sqdist = evaluate.pairwise_sqdist

        def recorded(a, b):
            shapes.append((len(a), len(b)))
            return sqdist(a, b)

        monkeypatch.setattr(align, "pairwise_sqdist", recorded)
        monkeypatch.setattr(evaluate, "pairwise_sqdist", recorded)
        evaluate.alignment_benchmark(model, self.GENERATOR, 4, 7)
        pair_cfg = alignment_pair_config(self.GENERATOR)
        sizes = [tuple(len(s) for s in resample_pair(pair_cfg, seed=7 + i)[:2])
                 for i in range(4)]
        # one matrix per pair serves the penalties, the matching and the nearest neighbours
        assert sorted(shapes) == sorted(sizes)


class TestProjection:
    def test_two_dim_features_reproduced_up_to_isometry(self, small_dataset):
        proj = pca_project_2d(small_dataset, lambda x: np.asarray(x)[:, :2])
        raw = np.concatenate([s.frames[:, :2] for s in small_dataset])
        d_raw = np.linalg.norm(raw[:50, None] - raw[None, :50], axis=-1)
        d_proj = np.linalg.norm(proj.coords[:50, None] - proj.coords[None, :50],
                                axis=-1)
        np.testing.assert_allclose(d_proj, d_raw, atol=1e-9)
        assert not proj.degenerate

    def test_explained_variance_ordering(self, small_dataset, ref_config):
        model = init_embedding_model(small_dataset.dimension, 16, 8, RngState(3))
        proj = pca_project_2d(small_dataset, model)
        r1, r2 = proj.explained_variance_ratio
        assert 0 <= r2 <= r1 <= 1

    def test_degenerate_constant_input(self, small_dataset):
        proj = pca_project_2d(small_dataset, lambda x: np.ones((len(x), 3)))
        assert proj.degenerate
        np.testing.assert_array_equal(proj.coords, 0.0)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_padded_svd_keeps_the_bits_of_the_padded_axes(self, small_dataset, width):
        # the formula before the zero column: one SVD of the centred features,
        # then a zero second axis and singular value when there was one feature
        feats = np.concatenate([s.frames[:, :width] for s in small_dataset])
        centered = feats - feats.mean(axis=0)
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        axes = vt[:2]
        if axes.shape[0] < 2:
            axes = np.concatenate([axes, np.zeros((2 - axes.shape[0], feats.shape[1]))])
            s = np.concatenate([s, [0.0]])
        for i in range(2):
            j = int(np.argmax(np.abs(axes[i])))
            if axes[i, j] < 0:
                axes[i] = -axes[i]
        ratios = (s[:2] ** 2) / float(np.sum(s ** 2))
        proj = pca_project_2d(small_dataset, lambda x: np.asarray(x)[:, :width])
        assert proj.coords.tobytes() == (centered @ axes.T).tobytes()
        assert np.array(proj.explained_variance_ratio).tobytes() == ratios.tobytes()

    def test_frame_refs_order(self, small_dataset):
        proj = pca_project_2d(small_dataset, lambda x: np.asarray(x)[:, :2])
        expect = [(s.id, i) for s in small_dataset for i in range(len(s))]
        assert list(proj.frame_refs) == expect


def blob_dataset(rng, separation=50.0):
    g = rng.gen
    a = g.normal(size=(20, 3))
    b = g.normal(size=(20, 3)) + separation
    return Dataset(dimension=3, sequences=(
        Sequence(id="a", frames=a),
        Sequence(id="b", frames=b),
    ))


class TestReports:
    def test_save_load_lossless(self, tmp_path):
        rep = EvalReport(metric="demo",
                         values={"a": 0.1234567890123456, "b": -1e-17},
                         series={"xs": [1.0, 2.5, 3.25]},
                         config={"k": 5}, seed=42)
        json_path, _ = rep.save(tmp_path / "r")
        back = EvalReport(**json.loads(json_path.read_text()))
        assert back == rep

    def test_integers_are_numbers(self, tmp_path):
        rep = EvalReport(metric="demo", values={"n": 3}, series={"k": [1, 2.5]}, seed=2)
        json_path, _ = rep.save(tmp_path / "r")
        back = json.loads(json_path.read_text())
        assert EvalReport(**back) == rep
        assert [type(v) for v in (back["values"]["n"], *back["series"]["k"], back["seed"])] \
            == [int, int, float, int]

    def test_txt_is_line_oriented(self, tmp_path):
        rep = EvalReport(metric="demo", values={"x": 1.5}, seed=1)
        _, txt = rep.save(tmp_path / "r")
        lines = txt.read_text().splitlines()
        assert "metric demo" in lines
        assert any(line.startswith("x ") for line in lines)

    def test_write_curve_two_columns(self, tmp_path):
        p = write_curve(tmp_path / "c.dat", [1, 2, 3], [0.5, 0.25, 0.125],
                        header="k value")
        lines = p.read_text().splitlines()
        assert lines[0].startswith("#")
        assert all(len(line.split()) == 2 for line in lines[1:])


def test_whitened_features_usable_as_embedder(small_dataset):
    wh = fit_whitener(small_dataset.all_frames())
    auc = retrieval_auc(small_dataset, wh, num_queries=60, rng=RngState(1))
    assert 0.0 <= auc <= 1.0


def _halves(ds):
    half = len(ds) // 2
    return (Dataset(dimension=ds.dimension, sequences=ds.sequences[:half]),
            Dataset(dimension=ds.dimension, sequences=ds.sequences[half:]))


FEATURE_PROTOCOLS = {
    "retrieval": lambda ds, f: retrieval_auc(ds, f, num_queries=40, rng=RngState(0)),
    "zeroshot": lambda ds, f: zero_shot_pose_error(*_halves(ds), f),
    "projection": lambda ds, f: pca_project_2d(ds, f),
}
BAD_EMBEDDERS = {
    "drops_last_row": (lambda x: np.asarray(x)[:-1], DimensionError),
    "one_dimensional": (lambda x: np.asarray(x)[:, 0], DimensionError),
    "nan": (lambda x: np.full(np.shape(x), np.nan), DegenerateInputError),
}


@pytest.mark.parametrize("bad", sorted(BAD_EMBEDDERS))
@pytest.mark.parametrize("protocol", sorted(FEATURE_PROTOCOLS))
def test_protocols_reject_malformed_embedder_output(small_dataset, protocol, bad):
    embedder, error = BAD_EMBEDDERS[bad]
    with pytest.raises(error, match="features of sequence"):
        FEATURE_PROTOCOLS[protocol](small_dataset, embedder)


def test_retrieval_from_features_checks_every_array(small_dataset):
    first, last = small_dataset.sequences[0].frames, small_dataset.sequences[-1].frames
    narrow = lambda x: x[:, :2] if x is first else x
    with pytest.raises(DimensionError, match=r"expected \(\d+, 2\)"):
        retrieval_auc(small_dataset, narrow, num_queries=20, rng=RngState(0))
    holed = lambda x: np.where(x > 0, np.inf, x) if x is last else x
    with pytest.raises(DegenerateInputError):
        retrieval_auc(small_dataset, holed, num_queries=20, rng=RngState(0))
