import numpy as np
import pytest

from seqrep.core import (ConfigError, Dataset, DimensionError, FormatError, RngState, Sequence,
                         pairwise_sqdist)
from seqrep.align import CostBreakdown, Matching
from seqrep.dynamics import init_predictor
from seqrep.embed import embed_batch, fit_whitener, init_embedding_model
from seqrep.evaluate import (
    EvalReport,
    agglomerative_representatives,
    alignment_accuracy,
    default_pose_epsilon,
    knn_prediction_curve,
    merge_chunk_assignments,
    nearest_neighbor_assignment,
    pca_project_2d,
    retrieval_auc,
    retrieval_auc_from_features,
    roc_auc,
    write_curve,
    zero_shot_pose_error,
)



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


class TestRetrieval:
    def test_oracle_latents_dominate_any_embedding(self, small_dataset):
        rng = RngState(5)
        oracle, _ = retrieval_auc_from_features(
            small_dataset, [s.latent for s in small_dataset], num_queries=150,
            rng=rng.split(0))
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
            retrieval_auc(ds, lambda x: np.asarray(x))

    def test_pose_epsilon_default_is_low_percentile(self, small_dataset):
        eps = default_pose_epsilon(small_dataset)
        z = np.concatenate([s.latent for s in small_dataset])
        d = np.sqrt(np.maximum(
            (z ** 2).sum(1)[:, None] + (z ** 2).sum(1)[None, :] - 2 * z @ z.T, 0))
        frac = (d[np.triu_indices(len(z), 1)] <= eps).mean()
        assert 0.03 <= frac <= 0.07

    def test_deterministic_given_rng(self, small_dataset):
        model = init_embedding_model(small_dataset.dimension, 16, 8, RngState(3))
        a = retrieval_auc(small_dataset, model, num_queries=50, rng=RngState(8))
        b = retrieval_auc(small_dataset, model, num_queries=50, rng=RngState(8))
        assert a == b


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

    def test_trained_beats_raw_on_reference(self, ref_dataset, ref_model):
        half = len(ref_dataset) // 2
        train = Dataset(dimension=ref_dataset.dimension,
                        sequences=ref_dataset.sequences[:half])
        test = Dataset(dimension=ref_dataset.dimension,
                       sequences=ref_dataset.sequences[half:])
        trained = zero_shot_pose_error(train, test, ref_model)
        raw = zero_shot_pose_error(train, test, lambda x: np.asarray(x))
        assert trained.mean_error < raw.mean_error


class TestKnnCurve:
    def test_monotone_and_positive(self, ref_dataset, ref_model, ref_predictor):
        curve = knn_prediction_curve(ref_dataset, ref_model, ref_predictor, k_max=6)
        assert all(a <= b for a, b in zip(curve.knn_mean, curve.knn_mean[1:]))
        assert curve.knn_mean[0] > 0
        assert curve.prediction_error_mean > 0

    def test_k_max_limit(self, ref_dataset, ref_model, ref_predictor):
        with pytest.raises(ConfigError):
            knn_prediction_curve(ref_dataset, ref_model, ref_predictor, k_max=10 ** 6)

    @pytest.mark.parametrize("k_max, window", [(0, 2), (-2, 2), (3, -1)])
    def test_bad_arguments_rejected(self, k_max, window):
        ds, model, pred = uneven_setup()
        with pytest.raises(ConfigError):
            knn_prediction_curve(ds, model, pred, k_max=k_max, exclusion_window=window)

    @pytest.mark.parametrize("window", [0, 1, 2, 3])
    def test_exclusion_matches_per_row_reference(self, window):
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


def chunked(global_pi, bounds):
    out = []
    for s, e in bounds:
        local = np.zeros(len(global_pi), dtype=np.int64)
        inside = (global_pi > s) & (global_pi <= e)
        local[inside] = global_pi[inside] - s
        out.append(Matching(pi=local, total_cost=0.0,
                            breakdown=CostBreakdown(0, 0, 0, 0, 0),
                            target_offset=s))
    return out


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

    def test_invariant_to_chunk_decomposition(self, rng):
        g = rng.gen
        n, m = 30, 40
        global_pi = np.sort(g.integers(1, m + 1, size=n))
        global_pi[g.random(n) < 0.2] = 0
        truth = np.sort(g.integers(1, m + 1, size=n)).astype(np.int64)
        full = Matching(pi=global_pi, total_cost=0.0,
                        breakdown=CostBreakdown(0, 0, 0, 0, 0))
        parts = chunked(global_pi, [(0, 15), (15, 30), (30, 40)])
        merged = merge_chunk_assignments(parts, n)
        np.testing.assert_array_equal(merged, global_pi)
        assert alignment_accuracy(parts, truth) == alignment_accuracy(full, truth)

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


class TestAgglomerative:
    def test_every_frame_its_own_cluster(self, rng):
        ds = blob_dataset(rng)
        reps = agglomerative_representatives(ds, lambda x: np.asarray(x), 40)
        assert reps == [(s.id, i) for s in ds for i in range(len(s))]

    def test_two_blobs_two_medoids(self, rng):
        ds = blob_dataset(rng)
        reps = agglomerative_representatives(ds, lambda x: np.asarray(x), 2)
        assert len(reps) == 2
        assert {r[0] for r in reps} == {"a", "b"}

    def test_representatives_are_mutually_distant(self, rng):
        ds = blob_dataset(rng)
        feats = np.concatenate([s.frames for s in ds])
        refs = [(s.id, i) for s in ds for i in range(len(s))]
        reps = agglomerative_representatives(ds, lambda x: np.asarray(x), 2)
        rep_rows = np.stack([feats[refs.index(r)] for r in reps])
        rep_dist = np.linalg.norm(rep_rows[0] - rep_rows[1])
        alld = np.linalg.norm(feats[:, None] - feats[None], axis=-1)
        median = np.median(alld[np.triu_indices(len(feats), 1)])
        assert rep_dist >= median

    def test_validation(self, rng):
        ds = blob_dataset(rng)
        with pytest.raises(ConfigError):
            agglomerative_representatives(ds, lambda x: np.asarray(x), 0)
        with pytest.raises(ConfigError):
            agglomerative_representatives(ds, lambda x: np.asarray(x), 1000)


class TestReports:
    def test_save_load_lossless(self, tmp_path):
        rep = EvalReport(metric="demo",
                         values={"a": 0.1234567890123456, "b": -1e-17},
                         series={"xs": [1.0, 2.5, 3.25]},
                         config={"k": 5}, seed=42)
        rep.save(tmp_path / "r")
        back = EvalReport.load(tmp_path / "r")
        assert back == rep

    @pytest.mark.parametrize("body, cause", [
        ('{"metric": "demo", ', "JSONDecodeError"),
        ('["demo"]', "TypeError"),
        ('{"metric": "demo", "extra": 1}', "TypeError"),
    ], ids=["invalid-json", "not-an-object", "unknown-key"])
    def test_malformed_report_is_format_error(self, tmp_path, body, cause):
        (tmp_path / "r.json").write_text(body)
        with pytest.raises(FormatError, match="r.json: not an evaluation report") as info:
            EvalReport.load(tmp_path / "r")
        assert type(info.value.__cause__).__name__ == cause

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
