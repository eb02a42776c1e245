"""Per-layer metrics: span aggregates of a traced run and kernel micro-benchmarks.

FLOP counts are computed from shapes, never measured: the dense trellis as
written (one add and one compare per state pair and step, plus the distance
GEMM), the encoder's three GEMMs forward and backward, and the LSTM's gate
GEMMs over every step plus its head. A later algorithm that does less work
keeps these nominal counts, so its rate in GFLOP/s rises.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import seqrep as sr
import seqrep.dynamics

from spans import Recorder, Span
from workloads import NUM_QUERIES

KERNEL_BUDGET_S = 1.0
DP_SHAPES = ((150, 80), (500, 40), (500, 500))
TRIPLET_BATCH = 300
LSTM_BATCH = 128


def dp_flop(n: int, m: int, d: int) -> int:
    return 2 * n * m * d + 2 * (n - 1) * (m + 1) ** 2


def encoder_flop(rows: int, f: int, h: int, d: int) -> int:
    return rows * (4 * f * h + 6 * h * d)


def lstm_flop(batch: int, steps: int, d: int, m: int) -> int:
    return 8 * batch * m * steps * (2 * d + 3 * m) + 6 * batch * m * d


def _median_ms(fn) -> float:
    fn()  # warm-up
    times = []
    stop = time.perf_counter() + KERNEL_BUDGET_S
    while len(times) < 3 or (len(times) < 25 and time.perf_counter() < stop):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def _unit_rows(g: np.random.Generator, *shape: int) -> np.ndarray:
    x = g.normal(size=shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def kernel_metrics(run, seed: int) -> dict[str, float]:
    """Median time of one call of each hot kernel at fixed shapes."""
    g = sr.RngState(seed).split(50).gen
    f, h, d = run.generator.feature_dim, run.train.hidden_dim, run.train.embed_dim
    m, steps = run.predictor.hidden_dim, run.context_len
    out: dict[str, float] = {}
    for n, k in DP_SHAPES:
        q, t = _unit_rows(g, n, d), _unit_rows(g, k, d)
        pen = sr.default_penalties(q, t)
        out[f"align.dp_ms.n{n}_m{k}"] = _median_ms(lambda: sr.solve_exact_dp(q, t, pen))
        out[f"align.dp_mflop_computed.n{n}_m{k}"] = dp_flop(n, k, d) / 1e6

    model = sr.init_embedding_model(f, h, d, sr.RngState(seed).split(51))
    a, p, neg = (g.normal(size=(TRIPLET_BATCH, f)) for _ in range(3))
    out[f"embed.triplet_grad_ms.b{TRIPLET_BATCH}"] = _median_ms(
        lambda: sr.triplet_grad(model, a, p, neg, run.train.margin))
    out[f"embed.triplet_grad_mflop_computed.b{TRIPLET_BATCH}"] = (
        encoder_flop(3 * TRIPLET_BATCH, f, h, d) / 1e6)

    pred = sr.init_predictor(d, m, steps, sr.RngState(seed).split(52))
    ctx, tgt = _unit_rows(g, LSTM_BATCH, steps, d), _unit_rows(g, LSTM_BATCH, d)
    grad = getattr(seqrep.dynamics, "batch_loss_and_grad", None)
    out[f"dynamics.grad_ms.b{LSTM_BATCH}"] = (
        _median_ms(lambda: grad(pred, ctx, tgt)) if grad is not None else 0.0)
    out[f"dynamics.grad_mflop_computed.b{LSTM_BATCH}"] = (
        lstm_flop(LSTM_BATCH, steps, d, m) / 1e6)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ancestors(rec: Recorder, span: Span):
    p = span.parent
    while p >= 0:
        yield rec.spans[p]
        p = rec.spans[p].parent


def coverage(rec: Recorder, root: Span) -> float:
    """Share of the root's time spent inside outermost wrapped seqrep calls."""
    covered = sum(s.duration for s in rec.within(root)
                  if s.lib and not any(a.lib for a in _ancestors(rec, s)))
    return _ratio(covered, root.duration)


def span_metrics(rec: Recorder, run) -> dict[str, float]:
    """Aggregate the traced set-up and pass into per-layer metrics."""
    out: dict[str, float] = {}

    def total(name: str) -> float:
        return sum(s.duration for s in rec.named(name))

    for name in ("align.match_features", "align.solve_exact_dp", "embed.triplet_grad",
                 "embed.embed_batch", "dynamics.batch_loss_and_grad"):
        out[f"{name}.calls"] = len(rec.named(name))
        out[f"{name}.s"] = total(name)
    for name in ("align.solve_exact_dp", "embed.triplet_grad",
                 "dynamics.batch_loss_and_grad"):
        ms = [1000.0 * s.duration for s in rec.named(name)]
        out[f"{name}.p50_ms"] = float(np.percentile(ms, 50)) if ms else 0.0
        out[f"{name}.p95_ms"] = float(np.percentile(ms, 95)) if ms else 0.0
    for name in ("embed.train", "dynamics.train_predictor"):
        spans = rec.named(name)
        children = sum(c.duration for c in rec.spans
                       if c.parent >= 0 and rec.spans[c.parent] in spans)
        out[f"{name}.s"] = total(name)
        out[f"{name}.self_s"] = total(name) - children
    for name in ("synthdata.generate_dataset", "synthdata.resample_pair"):
        out[name.replace("_dataset", "") + "_s"] = total(name)
    for name in ("embed.augment", "dynamics.rnn_forward_batch", "dynamics.synthesize",
                 "evaluate.retrieval_auc", "evaluate.zero_shot_pose_error",
                 "evaluate.knn_prediction_curve", "evaluate.alignment_protocol",
                 "seqpack.write_seqpack", "seqpack.read_seqpack", "seqpack.save_model",
                 "seqpack.load_model", "seqpack.save_predictor", "seqpack.load_predictor"):
        out[f"{name}.s"] = total(name)

    solves = rec.named("align.solve_exact_dp")
    states = sum(s.attrs.get("n", 0) * (s.attrs.get("m", 0) + 1) for s in solves)
    out["align.dp_states"] = states
    out["align.ns_per_state"] = 1e9 * _ratio(out["align.solve_exact_dp.s"], states)
    out["align.matched_frac"] = _ratio(sum(s.attrs.get("matched", 0) for s in solves),
                                       sum(s.attrs.get("n", 0) for s in solves))

    f, h, d = run.generator.feature_dim, run.train.hidden_dim, run.train.embed_dim
    rows = sum(s.attrs.get("rows", 0) for s in rec.named("embed.triplet_grad"))
    train_solves = sum(1 for s in solves
                       if any(a.name == "embed.train" for a in _ancestors(rec, s)))
    out["embed.triplets"] = rows // 3
    out["embed.triplet_yield"] = _ratio(rows // 3,
                                        train_solves * run.train.triplets_per_batch)
    out["embed.encoder_gflops"] = 1e-9 * _ratio(encoder_flop(rows, f, h, d),
                                                out["embed.triplet_grad.s"])

    batches = [s.attrs.get("batch", 0) for s in rec.named("dynamics.batch_loss_and_grad")]
    flop = sum(lstm_flop(b, run.context_len, d, run.predictor.hidden_dim) for b in batches)
    out["dynamics.windows"] = sum(batches)
    out["dynamics.lstm_gflops"] = 1e-9 * _ratio(flop, out["dynamics.batch_loss_and_grad.s"])

    out["evaluate.retrieval_ms_per_query"] = 1000.0 * _ratio(
        out["evaluate.retrieval_auc.s"], NUM_QUERIES * len(rec.named("evaluate.retrieval_auc")))
    out["seqpack.bytes_written"] = sum(s.attrs.get("written", 0) for s in rec.spans)
    out["seqpack.bytes_read"] = sum(s.attrs.get("read", 0) for s in rec.spans)
    return out
