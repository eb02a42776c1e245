"""Acceptance gate: one test per criterion, each printing a verdict line.

The heavyweight artifacts (reference benchmark, trained embedding, trained
predictor) come from session fixtures, so the whole pipeline runs once.
"""

import json
import time
from dataclasses import replace

import numpy as np

import seqrep as sr
from seqrep.core import RngState
from seqrep.align import MatchPenalties, alignment_cost, solve_bruteforce, solve_exact_dp
from seqrep.cli import main as cli_main
from seqrep.dynamics import batch_loss_and_grad, init_predictor
from seqrep.embed import fit_whitener, init_embedding_model, triplet_grad
from seqrep.synthdata import alignment_pair_config

from conftest import record_criterion
from gradcheck import max_block_relative_error, numeric_gradients

EVAL_SEED = 5


def random_instance(g, n_max=6, m_max=4, d=3):
    n = int(g.integers(1, n_max + 1))
    m = int(g.integers(1, m_max + 1))
    return g.normal(size=(n, d)), g.normal(size=(m, d))


def random_penalties(g, regime):
    if regime == 0:  # zero temporal terms
        return MatchPenalties(0.0, 0.0, 0.0, float(g.uniform(0, 3)))
    if regime == 1:
        return MatchPenalties(*(float(v) for v in g.uniform(0, 5, size=4)))
    if regime == 2:  # dominant ordering penalty
        return MatchPenalties(500.0, *(float(v) for v in g.uniform(0, 2, size=3)))
    return MatchPenalties(*(float(v) for v in g.uniform(0, 0.3, size=3)),
                          outlier_cost=1000.0)


def test_criterion_01_solver_exactness():
    g = RngState(1001).gen
    t0 = time.perf_counter()
    checked = 0
    for trial in range(220):
        query, target = random_instance(g)
        pen = random_penalties(g, trial % 4)
        dp = solve_exact_dp(query, target, pen)
        bf = solve_bruteforce(query, target, pen)
        assert abs(dp.total_cost - bf.total_cost) <= 1e-9
        assert abs(alignment_cost(query, target, dp.pi, pen).total
                   - dp.total_cost) <= 1e-9
        assert abs(alignment_cost(query, target, bf.pi, pen).total
                   - bf.total_cost) <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 200 and elapsed < 10.0
    record_criterion(1, "solver exactness", ok,
                     f"{checked} instances, {elapsed:.1f}s")
    assert ok


def test_criterion_02_temporal_constraint_semantics():
    lam1, lam2, lam3 = 7.0, 11.0, 13.0
    pen = MatchPenalties(lam1, lam2, lam3, outlier_cost=1.0)
    q2 = np.zeros((2, 1))
    t5 = np.zeros((5, 1))
    stride1 = alignment_cost(q2, t5, [1, 2], pen).total
    repeat = alignment_cost(q2, t5, [2, 2], pen).total
    gaps = {gap: alignment_cost(q2, t5, [1, 1 + gap], pen).total
            for gap in (2, 3, 4)}
    target = np.array([[1.0, 0.0], [0.0, 1.0]])
    crossing = alignment_cost(target[[1, 0]], target, [2, 1], pen)
    ok = (stride1 == 0.0
          and repeat == lam2
          and all(gaps[gp] == lam3 * gp for gp in gaps)
          and crossing.order == lam1 and crossing.total == lam1)
    record_criterion(2, "temporal-constraint semantics", ok,
                     f"stride1={stride1} repeat={repeat} gap3={gaps[3]} "
                     f"crossing={crossing.total}")
    assert ok


def test_criterion_03_monotone_regime():
    g = RngState(1003).gen
    violations = 0
    for _ in range(100):
        n = int(g.integers(2, 9))
        m = int(g.integers(1, 7))
        query = g.normal(size=(n, 3))
        target = g.normal(size=(m, 3))
        unary_max = float(np.max(np.sum((query[:, None] - target[None]) ** 2, -1)))
        lam2, lam3, oc = (float(v) for v in g.uniform(0, 2, size=3))
        bound = n * unary_max + lam2 * n + lam3 * n * m + oc * n
        sol = solve_exact_dp(query, target, MatchPenalties(bound + 1.0, lam2, lam3, oc))
        a, b = sol.pi[:-1], sol.pi[1:]
        both = (a > 0) & (b > 0)
        violations += int(np.sum(a[both] > b[both]))
    ok = violations == 0
    record_criterion(3, "monotone regime", ok, f"{violations} violations over 100")
    assert ok


def test_criterion_04_gradient_fidelity():
    t0 = time.perf_counter()
    worst_embed = 0.0
    for k in range(50):
        r = RngState(2000 + k)
        model = init_embedding_model(5, 7, 4, r)
        g = r.gen
        a, p, n = (g.normal(size=(3, 5)) for _ in range(3))
        _, grads = triplet_grad(model, a, p, n, 0.3)

        def loss_fn(theta, a=a, p=p, n=n, model=model):
            return triplet_grad(replace(model, theta=theta), a, p, n, 0.3)[0]

        worst_embed = max(worst_embed, max_block_relative_error(
            model, grads, numeric_gradients(loss_fn, model.theta)))

    worst_rnn = 0.0
    for k in range(20):
        r = RngState(3000 + k)
        pred = init_predictor(3, 6, 3, r)
        g = r.gen
        contexts = g.normal(size=(4, 3, 3))
        targets = g.normal(size=(4, 3))
        _, grads = batch_loss_and_grad(pred, contexts, targets)

        def loss_fn(theta, contexts=contexts, targets=targets, pred=pred):
            return batch_loss_and_grad(replace(pred, theta=theta), contexts, targets)[0]

        worst_rnn = max(worst_rnn, max_block_relative_error(
            pred, grads, numeric_gradients(loss_fn, pred.theta)))

    elapsed = time.perf_counter() - t0
    ok = worst_embed < 1e-4 and worst_rnn < 1e-4 and elapsed < 60.0
    record_criterion(4, "gradient fidelity", ok,
                     f"embed={worst_embed:.2e} rnn={worst_rnn:.2e} {elapsed:.1f}s")
    assert ok


def test_criterion_05_representation_quality(ref_config, ref_dataset, ref_model,
                                             pipeline_timings):
    """Trained retrieval AUC at least 0.05 above the whitened baseline's.

    The gap depends on the training seed. Retraining the reference config
    with seeds 99 and 1-24 (same data and eval stream, 1 BLAS thread) gave
    trained AUCs 0.823, 0.862, 0.876, 0.887, 0.849, 0.808, 0.830, 0.898,
    0.848, 0.776, 0.843, 0.776, 0.792, 0.832, 0.848, 0.872, 0.851, 0.908,
    0.798, 0.865, 0.842, 0.783, 0.889, 0.909 and 0.834 (mean 0.844, sd
    0.040) against whitened 0.734, so the gate held for 22 of the 25 seeds:
    seeds 9 (0.776), 11 (0.776) and 21 (0.783) miss it, and the lowest
    passing gap is seed 12's +0.058. The returned model is the mean of the
    late epoch-end parameters, each epoch's pairs are drawn up front, and a
    batch trains on its frames as they are, without jitter. The test pins
    one training run, ``TRAIN_SEED = 99``, and checks that run rather than
    the learner over seeds.
    """
    eval_rng = RngState(EVAL_SEED)
    t0 = time.perf_counter()
    auc_trained = sr.retrieval_auc(ref_dataset, ref_model, num_queries=500,
                                   rng=eval_rng.split(1))
    whitener = fit_whitener(ref_dataset.all_frames())
    auc_white = sr.retrieval_auc(ref_dataset, whitener, num_queries=500,
                                 rng=eval_rng.split(1))
    random_model = init_embedding_model(ref_dataset.dimension,
                                        ref_config.train.hidden_dim,
                                        ref_config.train.embed_dim,
                                        RngState(606))
    auc_random = sr.retrieval_auc(ref_dataset, random_model, num_queries=500,
                                  rng=eval_rng.split(1))
    eval_seconds = time.perf_counter() - t0
    total = (pipeline_timings.get("generate", 0.0)
             + pipeline_timings.get("train_embed", 0.0) + eval_seconds)
    ok = (auc_trained - auc_white >= 0.05
          and abs(auc_random - 0.5) <= 0.05
          and total < 900.0)
    record_criterion(5, "representation quality", ok,
                     f"trained={auc_trained:.3f} whitened={auc_white:.3f} "
                     f"random={auc_random:.3f} pipeline={total:.0f}s")
    assert ok


def test_criterion_06_alignment_quality(ref_config, ref_model):
    pair_cfg = alignment_pair_config(ref_config.generator)
    dp_scores, nn_scores = [], []
    for i in range(20):
        query, target, truth = sr.resample_pair(pair_cfg, seed=ref_config.seed + i)
        qe = sr.embed_batch(ref_model, query.frames)
        te = sr.embed_batch(ref_model, target.frames)
        sol = solve_exact_dp(qe, te, sr.default_penalties(qe, te))
        dp_scores.append(sr.alignment_accuracy(sol, truth))
        nn_scores.append(sr.alignment_accuracy(
            sr.nearest_neighbor_assignment(qe, te), truth))
    dp_mean, nn_mean = float(np.mean(dp_scores)), float(np.mean(nn_scores))
    ok = dp_mean - nn_mean >= 0.10
    record_criterion(6, "alignment quality", ok,
                     f"dp={dp_mean:.3f} nn={nn_mean:.3f} gap={dp_mean - nn_mean:+.3f}")
    assert ok


def test_criterion_07_prediction_quality(ref_dataset, ref_model, ref_predictor):
    curve = sr.knn_prediction_curve(ref_dataset, ref_model, ref_predictor,
                                    k_max=10, exclusion_window=2)
    monotone = all(a <= b for a, b in zip(curve.knn_mean, curve.knn_mean[1:]))
    ok = curve.prediction_error_mean < curve.knn_mean[1] and monotone
    record_criterion(7, "prediction quality", ok,
                     f"pred={curve.prediction_error_mean:.4f} "
                     f"2nd-NN={curve.knn_mean[1]:.4f} monotone={monotone}")
    assert ok


def test_criterion_08_interpolation(ref_dataset, ref_model):
    wins = total = 0
    for s in ref_dataset:
        emb = sr.embed_batch(ref_model, s.frames)
        for t in range(0, len(s) - 2, 3):
            mid = sr.interpolate_features(emb[t], emb[t + 2], 1)[0]
            d_mid = float(np.linalg.norm(mid - emb[t + 1]))
            d_a = float(np.linalg.norm(emb[t] - emb[t + 1]))
            d_b = float(np.linalg.norm(emb[t + 2] - emb[t + 1]))
            wins += d_mid < d_a and d_mid < d_b
            total += 1
    frac = wins / total
    ok = frac >= 0.70
    record_criterion(8, "temporal super-resolution", ok,
                     f"midpoint wins {wins}/{total} = {frac:.3f}")
    assert ok


def test_criterion_09_manifold_loop_closure(ref_dataset, ref_model):
    proj = sr.pca_project_2d(ref_dataset, ref_model)
    offsets = np.cumsum([0] + [len(s) for s in ref_dataset])
    ratios = []
    for si, s in enumerate(ref_dataset):
        z = s.latent
        phase = np.unwrap(np.arctan2(z[:, 1], z[:, 0]))
        end = int(np.searchsorted(phase, phase[0] + 2 * np.pi))
        if end >= len(s):
            continue
        trail = proj.coords[offsets[si]:offsets[si] + end + 1]
        diam = float(np.max(np.linalg.norm(trail[:, None] - trail[None], axis=-1)))
        ratios.append(float(np.linalg.norm(trail[0] - trail[-1])) / diam)
    ok = bool(ratios) and all(r < 0.25 for r in ratios)
    record_criterion(9, "manifold loop closure", ok,
                     f"{len(ratios)} cycles, worst ratio {max(ratios):.3f}")
    assert ok


def test_criterion_10_chunk_solve_performance():
    g = RngState(4242).gen
    query = g.normal(size=(500, 128))
    query /= np.linalg.norm(query, axis=1, keepdims=True)
    target = g.normal(size=(40, 128))
    target /= np.linalg.norm(target, axis=1, keepdims=True)
    pen = sr.default_penalties(query, target)
    solve_exact_dp(query, target, pen)  # warm-up
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        solve_exact_dp(query, target, pen)
        times.append(time.perf_counter() - t0)
    ms = 1000.0 * float(np.median(times))
    ok = ms < 100.0
    record_criterion(10, "chunk solve < 100 ms", ok, f"{ms:.1f} ms (n=500, m=40, d=128)")
    assert ok


PIPELINE_CONFIG = {
    "seed": 77,
    "chunk_len": 20,
    "generator": {"num_sequences": 6, "frames_range": [36, 44],
                  "feature_dim": 16, "seed": 77},
    "train": {"max_epochs": 3, "triplets_per_batch": 60, "hidden_dim": 16,
              "embed_dim": 8, "bootstrap_epochs": 1},
    "predictor": {"hidden_dim": 12, "max_epochs": 3, "batch_size": 32},
    "eval": {"num_queries": 60, "k_max": 3, "alignment_pairs": 2},
}


def run_cli_pipeline(root, cfg_path):
    data = root / "data"
    model = root / "model.bin"
    pred = root / "pred.bin"
    steps = [
        ["gen", "--config", cfg_path, "--out", str(data)],
        ["train-embed", "--config", cfg_path, "--data", str(data),
         "--out", str(model)],
        ["train-dyn", "--config", cfg_path, "--data", str(data),
         "--model", str(model), "--out", str(pred)],
        ["eval", "retrieval", "--config", cfg_path, "--data", str(data),
         "--model", str(model), "--out", str(root / "retrieval")],
        ["eval", "zeroshot", "--config", cfg_path, "--data", str(data),
         "--test", str(data), "--model", str(model),
         "--out", str(root / "zeroshot")],
        ["eval", "predict", "--config", cfg_path, "--data", str(data),
         "--model", str(model), "--pred", str(pred),
         "--out", str(root / "predict")],
        ["eval", "alignment", "--config", cfg_path, "--model", str(model),
         "--out", str(root / "alignment")],
        ["project", "--config", cfg_path, "--data", str(data),
         "--model", str(model), "--out", str(root / "proj.txt")],
        ["synth", "--config", cfg_path, "--data", str(data),
         "--model", str(model), "--pred", str(pred), "--seed-seq", "seq000",
         "--steps", "9", "--out", str(root / "synth.txt")],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, f"pipeline step failed: {argv}"


def test_criterion_11_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(PIPELINE_CONFIG))
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    run_cli_pipeline(a, str(cfg_path))
    run_cli_pipeline(b, str(cfg_path))

    compared = []
    mismatched = []
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        compared.append(str(rel))
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            mismatched.append(str(rel))
    ok = bool(compared) and not mismatched
    record_criterion(11, "pipeline determinism", ok,
                     f"{len(compared)} files byte-identical"
                     + (f"; mismatches: {mismatched}" if mismatched else ""))
    assert ok
