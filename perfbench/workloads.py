"""The three benchmark workloads: set-up, one timed pass, and output checks.

Every workload builds the reference configuration from the workload seed
and derives each training and evaluation random stream from it the way the
CLI does (``split(10)`` embedding, ``split(20)`` predictor, ``split(30)``
retrieval). Only public seqrep functions are called, with the arguments the
pipeline itself passes, and always through the module so a traced run sees
the call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import seqrep as sr

EMBED_EPOCHS = 8            # past bootstrap_epochs (5) and the percentile floor (epoch 7)
# A third of the reference pairs per epoch keeps an 8-epoch pass near 2 s, so
# a run holds enough passes for its median to ride out the multi-second
# swings in CPU speed of a shared host; per-batch work is unchanged.
EMBED_PAIRS_PER_EPOCH = 4
SETUP_EMBED_EPOCHS = 2      # embedding that dyn-train and match-eval start from
PREDICTOR_EPOCHS = 1
SETUP_PREDICTOR_EPOCHS = 1  # predictor that match-eval starts from
NUM_QUERIES = 500
K_MAX = 10
EXCLUSION_WINDOW = 2
PROTOCOL_PAIRS = 20         # the criterion-6 alignment protocol
SYNTH_STEPS = 50
LONG_FRAMES = (300, 300)    # query length of the long resampled pairs
LONG_SCALES = (1.0, 2.0)    # target frame rate relative to the query
ZERO_SHOT_GALLERY = 8       # first sequences are the gallery, the rest the test set
AUDIT_INSTANCES = 36


class Gate:
    """Counts checked operations and names the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


class Digest:
    """SHA-256 over length-prefixed bytes, arrays and reprs."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values) -> "Digest":
        for v in values:
            if isinstance(v, bytes):
                b = v
            elif isinstance(v, np.ndarray):
                b = np.ascontiguousarray(v).tobytes()
            else:
                b = repr(v).encode()
            self._h.update(len(b).to_bytes(8, "little"))
            self._h.update(b)
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def tree_digest(path: Path) -> str:
    d = Digest()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        d.add(f.relative_to(path).as_posix(), f.read_bytes())
    return d.hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-8 * max(1.0, abs(a), abs(b))


def _rescore(gate: Gate, q, t, penalties, matching, what: str) -> None:
    """Re-score a solution with the independent cost auditor."""
    try:
        total = sr.alignment_cost(q, t, matching.pi, penalties).total
    except (IndexError, ValueError) as exc:
        gate.check(False, f"{what}: {exc}")
        return
    gate.check(_close(total, matching.total_cost), f"{what}: cost does not re-score")


def audit_solver(seed: int, gate: Gate) -> None:
    """solve_exact_dp against solve_bruteforce on small seeded instances.

    Odd instances use small integer features and exactly representable
    penalties, so equal-cost ties are real and costs compare exactly.
    """
    g = sr.RngState(seed).split(40).gen
    for i in range(AUDIT_INSTANCES):
        n, m = int(g.integers(2, 6)), int(g.integers(1, 5))
        if i % 2:
            q = g.integers(0, 3, size=(n, 3)).astype(np.float64)
            t = g.integers(0, 3, size=(m, 3)).astype(np.float64)
            pen = sr.MatchPenalties(lambda1=1.0, lambda2=0.5, lambda3=0.5,
                                    outlier_cost=2.0)
        else:
            q, t = g.normal(size=(n, 3)), g.normal(size=(m, 3))
            pen = sr.default_penalties(q, t)
        dp = sr.solve_exact_dp(q, t, pen)
        bf = sr.solve_bruteforce(q, t, pen)
        gate.check(_close(dp.total_cost, bf.total_cost),
                   f"audit {i}: dp cost {dp.total_cost} != brute force {bf.total_cost}")
        _rescore(gate, q, t, pen, dp, f"audit {i}")


@dataclass
class Fixture:
    dataset: sr.Dataset
    model: sr.EmbeddingModel | None = None
    predictor: sr.RecurrentPredictor | None = None


@dataclass
class Verified:
    digest: str
    items: int                      # work units of the pass, named by the workload's unit
    phases: dict[str, float] = field(default_factory=dict)


def setup(name: str, run, out: Path) -> Fixture:
    """Generate the dataset and train what the workload starts from.

    Fixtures pass through their files the way the CLI hands them between
    commands: the dataset is read back from its SeqPack before training.
    """
    sr.write_seqpack(sr.generate_dataset(run.generator), out / "data")
    fx = Fixture(sr.read_seqpack(out / "data"))
    if name in ("dyn-train", "match-eval"):
        cfg = dataclasses.replace(run.train, max_epochs=SETUP_EMBED_EPOCHS)
        fx.model, _ = sr.train(fx.dataset, cfg, chunk_len=run.chunk_len,
                               rng=sr.RngState(run.seed).split(10))
        sr.save_model(fx.model, out / "model.bin")
    if name == "match-eval":
        cfg = dataclasses.replace(run.predictor, max_epochs=SETUP_PREDICTOR_EPOCHS)
        fx.predictor, _ = sr.train_predictor(fx.dataset, fx.model,
                                             context_len=run.context_len, config=cfg,
                                             rng=sr.RngState(run.seed).split(20))
        sr.save_predictor(fx.predictor, out / "pred.bin")
    return fx


def _model_bytes(model, out: Path) -> bytes:
    sr.save_model(model, out / "digest_model.bin")
    return (out / "digest_model.bin").read_bytes()


def _predictor_bytes(pred, out: Path) -> bytes:
    sr.save_predictor(pred, out / "digest_pred.bin")
    return (out / "digest_pred.bin").read_bytes()


class EmbedTrain:
    """Triplet training of the embedding, long enough to self-propose."""

    unit = "triplets"

    def run(self, run, fx: Fixture, out: Path, rec):
        cfg = dataclasses.replace(run.train, max_epochs=EMBED_EPOCHS,
                                  pairs_per_epoch=EMBED_PAIRS_PER_EPOCH)
        return sr.train(fx.dataset, cfg, chunk_len=run.chunk_len,
                        rng=sr.RngState(run.seed).split(10))

    def verify(self, run, fx: Fixture, result, out: Path, gate: Gate) -> Verified:
        model, log = result
        gate.check(log.epochs_run == EMBED_EPOCHS,
                   f"embedding stopped after {log.epochs_run} epochs")
        for i, loss in enumerate(log.batch_loss):
            gate.check(math.isfinite(loss), f"batch {i} loss {loss}")
        digest = Digest().add(_model_bytes(model, out), np.asarray(log.batch_loss),
                              np.asarray(log.epoch_param_delta))
        return Verified(digest.hexdigest(),
                        len(log.batch_loss) * run.train.triplets_per_batch)

    def quality(self, run, fx: Fixture, result) -> dict[str, float]:
        auc = sr.retrieval_auc(fx.dataset, result[0], num_queries=NUM_QUERIES,
                               rng=sr.RngState(run.seed).split(30))
        return {"retrieval_auc": auc}


class DynTrain:
    """Recurrent predictor training on a set-up embedding."""

    unit = "windows x epochs"

    def run(self, run, fx: Fixture, out: Path, rec):
        cfg = dataclasses.replace(run.predictor, max_epochs=PREDICTOR_EPOCHS)
        return sr.train_predictor(fx.dataset, fx.model, context_len=run.context_len,
                                  config=cfg, rng=sr.RngState(run.seed).split(20))

    def verify(self, run, fx: Fixture, result, out: Path, gate: Gate) -> Verified:
        pred, log = result
        windows = sum(max(0, len(s) - run.context_len) for s in fx.dataset)
        batches = math.ceil(windows / run.predictor.batch_size)
        gate.check(len(log.epoch_loss) == PREDICTOR_EPOCHS,
                   f"predictor stopped after {len(log.epoch_loss)} epochs")
        # only epoch means are logged; a non-finite batch makes its epoch's mean
        # non-finite, so each epoch's batches pass or fail together
        for e, loss in enumerate(log.epoch_loss):
            for b in range(batches):
                gate.check(math.isfinite(loss), f"epoch {e} batch {b} loss {loss}")
        digest = Digest().add(_predictor_bytes(pred, out), np.asarray(log.epoch_loss),
                              np.asarray(log.epoch_param_delta))
        return Verified(digest.hexdigest(), windows * len(log.epoch_loss))

    def quality(self, run, fx: Fixture, result) -> dict[str, float]:
        curve = sr.knn_prediction_curve(fx.dataset, fx.model, result[0], k_max=K_MAX,
                                        exclusion_window=EXCLUSION_WINDOW)
        return {"prediction_error": curve.prediction_error_mean}


@dataclass
class _Solve:
    q: np.ndarray
    t: np.ndarray
    penalties: sr.MatchPenalties
    matchings: list          # one Matching per chunk; one in all for a whole solve
    truth: np.ndarray | None = None


def _chunk_spans(matchings, m: int) -> list[tuple[int, int]]:
    """[start, end) of each chunk, from the offsets of consecutive matchings."""
    starts = [mt.target_offset for mt in matchings]
    return list(zip(starts, starts[1:] + [m]))


class MatchEval:
    """Inference on a set-up model: file round trip, matching, evaluation."""

    unit = "trellis states"

    def run(self, run, fx: Fixture, out: Path, rec):
        t0 = time.perf_counter()
        with rec.span("phase.io"):
            sr.write_seqpack(fx.dataset, out / "data")
            sr.save_model(fx.model, out / "model.bin")
            sr.save_predictor(fx.predictor, out / "pred.bin")
            ds = sr.read_seqpack(out / "data")
            model = sr.load_model(out / "model.bin")
            pred = sr.load_predictor(out / "pred.bin")
        t1 = time.perf_counter()
        with rec.span("phase.align"):
            solves = []
            long_cfg = dataclasses.replace(sr.alignment_pair_config(run.generator),
                                           frames_range=LONG_FRAMES)
            for k, scale in enumerate(LONG_SCALES):
                query, target, truth = sr.resample_pair(
                    long_cfg, seed=run.seed + PROTOCOL_PAIRS + k, target_scale=scale)
                q = sr.embed_batch(model, query.frames)
                t = sr.embed_batch(model, target.frames)
                pen = sr.default_penalties(q, t)
                solves.append(_Solve(q, t, pen, [sr.solve_exact_dp(q, t, pen)], truth))
            feats = {s.id: sr.embed_batch(model, s.frames) for s in ds}
            neighbors = sr.sequence_neighbors(ds, model, 1)
            for s in ds:
                q, t = feats[s.id], feats[neighbors[s.id][0]]
                pen = sr.default_penalties(q, t)
                solves.append(_Solve(q, t, pen, sr.match_features(
                    q, t, penalties=pen, chunk_len=run.chunk_len)))
        t2 = time.perf_counter()
        with rec.span("phase.eval"):
            ev = {
                "auc": sr.retrieval_auc(ds, model, num_queries=NUM_QUERIES,
                                        rng=sr.RngState(run.seed).split(30)),
                "auc_whitened": sr.retrieval_auc(
                    ds, sr.fit_whitener(ds.all_frames()), num_queries=NUM_QUERIES,
                    rng=sr.RngState(run.seed).split(30)),
                "zero_shot": sr.zero_shot_pose_error(
                    sr.Dataset(ds.dimension, ds.sequences[:ZERO_SHOT_GALLERY]),
                    sr.Dataset(ds.dimension, ds.sequences[ZERO_SHOT_GALLERY:]), model),
                "curve": sr.knn_prediction_curve(ds, model, pred, k_max=K_MAX,
                                                 exclusion_window=EXCLUSION_WINDOW),
            }
            protocol = []
            with rec.span("evaluate.alignment_protocol"):
                pair_cfg = sr.alignment_pair_config(run.generator)
                for i in range(PROTOCOL_PAIRS):
                    query, target, truth = sr.resample_pair(pair_cfg, seed=run.seed + i)
                    q = sr.embed_batch(model, query.frames)
                    t = sr.embed_batch(model, target.frames)
                    pen = sr.default_penalties(q, t)
                    sol = sr.solve_exact_dp(q, t, pen)
                    protocol.append((_Solve(q, t, pen, [sol], truth),
                                     sr.alignment_accuracy(sol, truth),
                                     sr.alignment_accuracy(
                                         sr.nearest_neighbor_assignment(q, t), truth)))
            ev["trail"] = sr.synthesize(pred, model, ds.sequences[0].frames[:pred.context_len],
                                        SYNTH_STEPS, ds)
        t3 = time.perf_counter()
        phases = {"io_s": t1 - t0, "align_s": t2 - t1, "eval_s": t3 - t2}
        return ds, model, pred, solves, ev, protocol, phases

    def verify(self, run, fx: Fixture, result, out: Path, gate: Gate) -> Verified:
        ds, model, pred, solves, ev, protocol, phases = result
        same = [a.id == b.id and np.array_equal(a.frames, b.frames)
                and np.array_equal(a.latent, b.latent)
                for a, b in zip(ds.sequences, fx.dataset.sequences)]
        gate.check(len(ds) == len(fx.dataset) and all(same), "SeqPack round trip")
        model_bytes = _model_bytes(model, out)
        pred_bytes = _predictor_bytes(pred, out)
        gate.check(model_bytes == (out / "model.bin").read_bytes(), "model round trip")
        gate.check(pred_bytes == (out / "pred.bin").read_bytes(), "predictor round trip")

        digest = Digest().add(model_bytes, pred_bytes)
        states = 0
        for i, s in enumerate(solves):
            for mt, (a, b) in zip(s.matchings, _chunk_spans(s.matchings, len(s.t))):
                _rescore(gate, s.q, s.t[a:b], s.penalties, mt, f"solve {i} chunk {a}")
                states += len(s.q) * (b - a + 1)
                digest.add(mt.pi, mt.total_cost)
        long_acc = [sr.alignment_accuracy(s.matchings[0], s.truth)
                    for s in solves[:len(LONG_SCALES)]]
        for i, (s, dp_acc, nn_acc) in enumerate(protocol):
            _rescore(gate, s.q, s.t, s.penalties, s.matchings[0], f"protocol pair {i}")
            digest.add(s.matchings[0].pi, dp_acc, nn_acc)

        zs, curve, trail = ev["zero_shot"], ev["curve"], ev["trail"]
        accs = long_acc + [p[1] for p in protocol] + [p[2] for p in protocol]
        gate.check(0.0 < ev["auc"] <= 1.0 and 0.0 < ev["auc_whitened"] <= 1.0,
                   "retrieval AUC out of range")
        gate.check(math.isfinite(zs.mean_error) and zs.mean_error >= 0.0,
                   "zero-shot error")
        gate.check(math.isfinite(curve.prediction_error_mean)
                   and all(a <= b for a, b in zip(curve.knn_mean, curve.knn_mean[1:])),
                   "prediction curve")
        gate.check(all(0.0 <= a <= 1.0 for a in accs), "alignment accuracy out of range")
        lengths = {s.id: len(s) for s in ds}
        gate.check(len(trail) == SYNTH_STEPS
                   and all(0 <= idx < lengths.get(sid, 0) for sid, idx in trail),
                   "synthesized trail")
        digest.add(ev["auc"], ev["auc_whitened"], zs.mean_error, zs.accuracy,
                   curve.prediction_error_mean, curve.knn_mean, long_acc, trail)
        return Verified(digest.hexdigest(), states, phases)

    def quality(self, run, fx: Fixture, result) -> dict[str, float]:
        protocol = result[5]
        return {"alignment_accuracy": float(np.mean([p[1] for p in protocol]))}


WORKLOADS = {"embed-train": EmbedTrain(), "dyn-train": DynTrain(),
             "match-eval": MatchEval()}
