"""Quantitative evaluation against synthetic ground truth.

Metrics mirror the standard protocols at desk scale: frame retrieval scored
by ROC AUC against latent-pose ground truth, zero-shot pose transfer by
nearest-neighbor latent adoption, next-frame prediction against a k-nearest
-neighbor bar, correspondence accuracy against known resampling alignments, and
a 2D principal-component projection of the embedding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .core import (ConfigError, Dataset, DegenerateInputError, DimensionError, RngState,
                   as_frames, nearest_rows, pairwise_sqdist, write_file)
from . import align
from .embed import EmbeddingModel, embed_batch
from .dynamics import RecurrentPredictor, rnn_forward_batch, transition_pairs
from .synthdata import GeneratorConfig, alignment_pair_config, resample_pair


def _sequence_features(dataset: Dataset, embedder) -> list[np.ndarray]:
    """Each sequence's features from an :class:`EmbeddingModel` or any frames ->
    features callable: finite float64 arrays, (len(s), d) for sequence s, one d for all."""
    embed = embedder if callable(embedder) else lambda f: embed_batch(embedder, f)
    out = [as_frames(embed(s.frames), f"features of sequence {s.id!r}") for s in dataset]
    for s, f in zip(dataset, out):
        if f.shape != (len(s), out[0].shape[1]):
            raise DimensionError(f"features of sequence {s.id!r} have shape {f.shape}, "
                                 f"expected ({len(s)}, {out[0].shape[1]})")
    return out


def _latents(dataset: Dataset) -> np.ndarray:
    """Every sequence's latent track, stacked; a sequence without one is a ConfigError."""
    if any(s.latent is None for s in dataset):
        raise ConfigError("this metric needs latent ground truth on every sequence")
    return np.concatenate([s.latent for s in dataset], axis=0)


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n along the last axis of ``a``, tied values sharing their mean rank.

    Equal to ``scipy.stats.rankdata(a, axis=-1)``: every rank is a whole or
    half integer, exact in float64. A run of tied values gets its mean rank
    whatever the order of its members, so the sort need not be stable. NaN
    has no rank: it is a :class:`DegenerateInputError`.
    """
    order = np.argsort(a, axis=-1)
    s = np.take_along_axis(a, order, axis=-1)
    if np.isnan(s[..., -1]).any():  # argsort puts NaN last
        raise DegenerateInputError("cannot rank NaN scores")
    first = np.ones(s.shape, dtype=bool)  # s[..., p] starts a run of equal values
    np.not_equal(s[..., 1:], s[..., :-1], out=first[..., 1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=first.size)
    # each run's mean 1-based flat position, less its row's flat offset
    sorted_ranks = np.repeat(starts + (counts + 1) / 2.0, counts).reshape(a.shape)
    sorted_ranks -= np.arange(0, a.size, a.shape[-1]).reshape(a.shape[:-1] + (1,))
    ranks = np.empty(a.shape)
    np.put_along_axis(ranks, order, sorted_ranks, axis=-1)
    return ranks


_OFFSET_BLOCK = 16  # pair offsets per block in default_pose_epsilon; (16, N) stays in cache


def default_pose_epsilon(dataset: Dataset, percentile: float = 5.0) -> float:
    """Instance-relative match threshold: a low percentile of latent distances.

    Equal, bit for bit, to ``np.percentile(scipy.spatial.distance.pdist(z),
    percentile)`` over the stacked latents z: each distance adds its squared
    coordinate differences in coordinate order, as ``pdist`` does, and a
    percentile depends only on the multiset of distances, not their order.
    Distances stream through a buffer cut back to the floor((count - 1) q) + 2
    smallest when it passes twice that: 2.3 MB of numpy allocations at 1,757
    frames and the 5th percentile, where all 12.3 MB of distances took 12.8 MB.
    A ``percentile`` outside [0, 100], or NaN, is a :class:`ConfigError`.
    """
    if not 0.0 <= percentile <= 100.0:
        raise ConfigError(f"percentile must be in [0, 100], got {percentile}")
    z = _latents(dataset)
    n = z.shape[0]
    count = n * (n - 1) // 2
    vi = (count - 1) * (percentile / 100)  # numpy's virtual index, with its bits
    lo, hi = int(vi), min(int(vi) + 1, count - 1)  # int is floor here: vi >= 0
    # Frame i meets frame (i + t) mod n. Each offset t < n/2 gives n distinct
    # pairs; t = n/2 (n even) meets each of its pairs twice, so it keeps its
    # first n/2. A block of offsets is one window view of the latents repeated.
    zz = np.tile(z.T, 2)
    win = np.lib.stride_tricks.sliding_window_view(zz, n, axis=1)  # win[k, t, i] = zz[k, t + i]
    full = (n - 1) // 2
    spans = [(t, min(t + _OFFSET_BLOCK, full + 1), n) for t in range(1, full + 1, _OFFSET_BLOCK)]
    if n % 2 == 0:
        spans.append((n // 2, n // 2 + 1, n // 2))
    # buf[:fill] holds every distance <= top seen so far, and so the hi + 1 smallest
    buf, fill, top = np.empty(min(count, 2 * hi + 2 + _OFFSET_BLOCK * n)), 0, np.inf
    for t0, t1, cols in spans:
        if fill + (t1 - t0) * cols > buf.size:
            buf[:fill].partition(hi)
            fill, top = hi + 1, buf[hi]
        d = _latent_distances(win[:, t0:t1, :cols], zz[:, :cols], np.empty((t1 - t0, cols)))
        d = d[d <= top]
        buf[fill:fill + d.size] = d
        fill += d.size
    buf[:fill].partition([lo, hi])
    a, b, gamma = float(buf[lo]), float(buf[hi]), vi - lo  # then as numpy's _lerp
    return b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma


def _latent_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Distances into ``out`` between coordinate-major ``a`` and ``b``, whose ``a[k]`` and
    ``b[k]`` (coordinate k) broadcast to ``out``'s shape. Squared coordinate differences
    are added in coordinate order, as ``scipy.spatial.distance.cdist`` adds them."""
    np.square(np.subtract(a[0], b[0], out=out), out=out)
    tmp = np.empty_like(out)
    for ak, bk in zip(a[1:], b[1:]):
        out += np.square(np.subtract(ak, bk, out=tmp), out=tmp)
    return np.sqrt(out, out=out)


def retrieval_auc(dataset: Dataset, embedder, pose_epsilon: float | None = None, *,
                  num_queries: int, rng: RngState) -> float:
    """Mean per-query ROC AUC of other-sequence retrieval by feature distance, the
    features from an :class:`EmbeddingModel` or any frames -> features callable.

    ``rng`` draws ``num_queries >= 1`` query frames (all, if there are no more).
    A candidate counts as a true match when its latent pose lies within
    ``pose_epsilon`` (by default :func:`default_pose_epsilon`) of the query's.
    Queries whose candidate set is all-positive or all-negative are skipped.
    """
    return float(np.mean(_query_aucs(dataset, _sequence_features(dataset, embedder),
                                     pose_epsilon, num_queries, rng)))


def _query_aucs(dataset: Dataset, features: list[np.ndarray], pose_epsilon: float | None,
                num_queries: int, rng: RngState) -> list[float]:
    """:func:`retrieval_auc`'s per-query AUCs, in query order. A sequence's queries
    share one candidate set, the other sequences' frames, and are scored together."""
    if num_queries < 1:
        raise ConfigError(f"num_queries must be >= 1, got {num_queries}")
    lats = _latents(dataset)
    if pose_epsilon is None:
        pose_epsilon = default_pose_epsilon(dataset)

    feats = np.concatenate(features, axis=0)
    total = feats.shape[0]

    if num_queries >= total:
        queries = np.arange(total)
    else:
        queries = np.sort(rng.gen.choice(total, size=num_queries, replace=False))

    starts = np.cumsum([0] + [len(s) for s in dataset])
    aucs = []
    for lo, hi in zip(starts, starts[1:]):
        qs, others = queries[(lo <= queries) & (queries < hi)], np.r_[0:lo, hi:total]
        labels = _latent_distances(lats[qs].T[:, :, None], lats[others].T[:, None, :],
                                   np.empty((len(qs), len(others)))) <= pose_epsilon
        ranks = _average_ranks(-pairwise_sqdist(feats[qs], feats[others]))
        # Mann-Whitney U per row; average ranks are half-integers, so the sums are exact
        n_pos, n_neg = labels.sum(axis=1), (~labels).sum(axis=1)
        u = np.where(labels, ranks, 0.0).sum(axis=1) - n_pos * (n_pos + 1) / 2.0
        keep = (n_pos > 0) & (n_neg > 0)
        aucs.extend((u[keep] / (n_pos[keep] * n_neg[keep])).tolist())
    if not aucs:
        raise ConfigError("no query produced both matches and non-matches")
    return aucs


@dataclass(frozen=True)
class ZeroShotReport:
    mean_error: float
    thresholds: tuple[float, ...]
    accuracy: tuple[float, ...]
    oracle_mean_error: float
    oracle_accuracy: tuple[float, ...]


def zero_shot_pose_error(train: Dataset, test: Dataset, embedder) -> ZeroShotReport:
    """Latent-pose transfer by nearest neighbor in feature space.

    Each test frame adopts the latent pose of its nearest training frame;
    reported against the ground-truth-similarity upper bound in which the
    neighbor is chosen by latent distance itself. Accuracies are read at 20
    evenly spaced error thresholds up to the largest error of either. Features
    or latents of different widths in ``train`` and ``test`` are a
    :class:`DimensionError`. :func:`~seqrep.core.nearest_rows` keeps the
    reference halves (895 x 862 frames) at 4.1 MB of numpy allocations, where
    two whole matrices took 8.6 MB.
    """
    z_train, z_test = _latents(train), _latents(test)
    f_train = np.concatenate(_sequence_features(train, embedder), axis=0)
    f_test = np.concatenate(_sequence_features(test, embedder), axis=0)
    for what, a, b in (("features", f_test, f_train), ("latents", z_test, z_train)):
        if a.shape[1] != b.shape[1]:
            raise DimensionError(f"test {what} have width {a.shape[1]}, "
                                 f"training {what} {b.shape[1]}")

    err = np.linalg.norm(z_test - z_train[nearest_rows(f_test, f_train)], axis=1)
    oracle_err = np.linalg.norm(z_test - z_train[nearest_rows(z_test, z_train)], axis=1)

    hi = float(max(err.max(), oracle_err.max(), 1e-12))
    thresholds = np.linspace(0.0, hi, 21)[1:]
    acc = tuple(float(np.mean(err <= t)) for t in thresholds)
    oracle_acc = tuple(float(np.mean(oracle_err <= t)) for t in thresholds)
    return ZeroShotReport(
        mean_error=float(err.mean()),
        thresholds=tuple(float(t) for t in thresholds),
        accuracy=acc,
        oracle_mean_error=float(oracle_err.mean()),
        oracle_accuracy=oracle_acc,
    )


@dataclass(frozen=True)
class PredictionCurve:
    prediction_error_mean: float
    prediction_error_std: float
    k: tuple[int, ...]
    knn_mean: tuple[float, ...]
    knn_std: tuple[float, ...]


_TARGET_BLOCK = 256  # k-NN target rows per distance block, all from one sequence


def knn_prediction_curve(dataset: Dataset, model: EmbeddingModel,
                         predictor: RecurrentPredictor, k_max: int,
                         exclusion_window: int) -> PredictionCurve:
    """Next-frame prediction error versus the k-th nearest-neighbor bar.

    For every transition the predictor regresses the next frame's embedding
    from its context; the bar is the mean distance of the true next
    embedding to its k-th nearest neighbor over all frames, excluding the
    frame itself and its +-window temporal neighbors.

    The predictor runs on a view of every window and keeps the outputs of the
    transitions (the few windows that cross a sequence boundary are dropped).
    Targets are scored against all N frames in blocks of at most
    ``_TARGET_BLOCK`` from one sequence, and each keeps only its ``k_max``
    smallest squared distances. So the working set is one block of targets x
    N frames plus one forward block: at the reference shapes (1,709 targets,
    1,757 frames, l = 4, d = 128, m = 512) the protocol peaks at 9.8 MB of
    numpy allocations, where one (targets x frames) matrix and a copy of
    every context took it to 28.1 MB.
    """
    if exclusion_window < 0 or k_max < 1:
        raise ConfigError(f"need exclusion_window >= 0 and k_max >= 1, got "
                          f"{exclusion_window} and {k_max}")
    l, w = predictor.context_len, exclusion_window
    frames = np.concatenate(_sequence_features(dataset, model))
    starts = np.cumsum([0] + [len(s) for s in dataset])
    emb = np.split(frames, starts[1:-1])  # views
    windows, first = transition_pairs(emb, l)
    # A target's band is the frames of its own sequence within w of it. Every
    # distance is finite, so the band alone makes a target's candidates fewer.
    targets = [(lo, e, np.arange(l, len(e))) for lo, e in zip(starts, emb) if len(e) > l]
    widest = max(int(np.max(np.minimum(t + w, len(e) - 1) - np.maximum(t - w, 0))) + 1
                 for _, e, t in targets)
    n_valid = len(frames) - widest
    if k_max > n_valid:
        raise ConfigError(f"k_max {k_max} exceeds available candidates {n_valid}")

    pred_err = np.linalg.norm(rnn_forward_batch(predictor, windows[:, :l])[first]
                              - windows[first, l], axis=1)
    del windows  # a view of a copy of the frames

    # Squared distances, rooted after selection (sqrt is monotone).
    kept = []
    for lo, e, t in targets:
        for tb in np.split(t, range(_TARGET_BLOCK, t.size, _TARGET_BLOCK)):
            d = pairwise_sqdist(e[tb[0]:tb[-1] + 1], frames)
            d[:, lo:lo + len(e)][np.abs(tb[:, None] - np.arange(len(e))) <= w] = np.inf
            d.partition(k_max - 1, axis=1)  # in place: the block is this loop's own
            kept.append(np.sort(d[:, :k_max], axis=1))  # a copy, so d is let go
    part = np.sqrt(np.concatenate(kept))

    return PredictionCurve(
        prediction_error_mean=float(pred_err.mean()),
        prediction_error_std=float(pred_err.std()),
        k=tuple(range(1, k_max + 1)),
        knn_mean=tuple(float(v) for v in part.mean(axis=0)),
        knn_std=tuple(float(v) for v in part.std(axis=0)),
    )


def nearest_neighbor_assignment(query_feats: np.ndarray,
                                target_feats: np.ndarray) -> np.ndarray:
    """Per-frame nearest-neighbor baseline: no temporal terms, no outliers (1-based)."""
    q, t = align._check_instance(query_feats, target_feats)
    return nearest_rows(q, t).astype(np.int64) + 1


def alignment_accuracy(predicted: align.Matching | np.ndarray, truth: np.ndarray) -> float:
    """Fraction of truth-matched query frames predicted within one target index.

    ``predicted`` is a whole-target :class:`Matching` or a 1-based assignment
    array; the matching of one chunk (``target_offset != 0``) is rejected.
    """
    truth = np.asarray(truth, dtype=np.int64)
    if isinstance(predicted, align.Matching):
        if predicted.target_offset:
            raise DimensionError(f"matching of the chunk at offset {predicted.target_offset} "
                                 "does not cover the whole target")
        predicted = predicted.pi
    predicted = np.asarray(predicted, dtype=np.int64)
    if predicted.shape != truth.shape:
        raise DimensionError(
            f"prediction shape {predicted.shape} != truth shape {truth.shape}"
        )
    valid = truth > 0
    if not valid.any():
        raise ConfigError("truth assignment is all-outlier")
    hit = valid & (predicted > 0) & (np.abs(predicted - truth) <= 1)
    return float(hit.sum() / valid.sum())


def alignment_benchmark(model: EmbeddingModel, generator: GeneratorConfig,
                        pairs: int, seed: int,
                        penalties: align.PenaltyConfig = align.PenaltyConfig(),
                        ) -> tuple[list[float], list[float]]:
    """Correspondence accuracy of exact matching versus per-frame nearest neighbors.

    Pair ``i`` is :func:`resample_pair` of ``alignment_pair_config(generator)``
    at seed ``seed + i``; both sides are embedded, matched whole (no
    chunking) under ``penalties`` resolved for that pair, and scored by
    :func:`alignment_accuracy`. Returns the per-pair (dp, nn) accuracies.
    """
    if pairs < 1:
        raise ConfigError(f"pairs must be >= 1, got {pairs}")
    pair_cfg, seeds = alignment_pair_config(generator), range(seed, seed + pairs)
    dp_scores, nn_scores = [], []
    for i in range(0, pairs, 20):  # 20 reference pairs solve in 8 MB; memory grows with each pair
        block = [resample_pair(pair_cfg, seed=s) for s in seeds[i:i + 20]]
        d2s = [pairwise_sqdist(embed_batch(model, q.frames), embed_batch(model, t.frames))
               for q, t, _ in block]
        solved = align._match_pairs([(d2, penalties) for d2 in d2s], None)
        dp_scores += [alignment_accuracy(m, truth) for (m,), (_, _, truth) in zip(solved, block)]
        # nearest_neighbor_assignment, on the matrix the solve used
        nn_scores += [alignment_accuracy(np.argmin(d2, axis=1) + 1, truth)
                      for d2, (_, _, truth) in zip(d2s, block)]
    return dp_scores, nn_scores


@dataclass(frozen=True)
class Projection2D:
    coords: np.ndarray                       # (N, 2), input order
    explained_variance_ratio: tuple[float, float]
    degenerate: bool
    frame_refs: tuple[tuple[str, int], ...]


def pca_project_2d(dataset: Dataset, embedder) -> Projection2D:
    """Project all embedded frames onto their top-2 principal directions."""
    feats = np.concatenate(_sequence_features(dataset, embedder), axis=0)
    refs = tuple((s.id, i) for s in dataset for i in range(len(s)))
    if feats.shape[0] < 3:
        raise ConfigError("projection needs at least 3 frames")
    centered = feats - feats.mean(axis=0)
    total_var = float(np.sum(centered * centered))
    if total_var < 1e-18:
        return Projection2D(
            coords=np.zeros((feats.shape[0], 2)),
            explained_variance_ratio=(0.0, 0.0),
            degenerate=True,
            frame_refs=refs,
        )
    # a zero column gives a single feature a zero second axis and singular value
    centered = np.pad(centered, ((0, 0), (0, max(0, 2 - centered.shape[1]))))
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    axes = vt[:2]
    # deterministic sign: largest-magnitude loading of each axis is positive
    for i in range(2):
        j = int(np.argmax(np.abs(axes[i])))
        if axes[i, j] < 0:
            axes[i] = -axes[i]
    coords = centered @ axes.T
    ratios = (s[:2] ** 2) / float(np.sum(s ** 2))
    return Projection2D(
        coords=coords,
        explained_variance_ratio=(float(ratios[0]), float(ratios[1])),
        degenerate=False,
        frame_refs=refs,
    )


@dataclass
class EvalReport:
    """Serializable record of one metric run."""

    metric: str
    values: dict[str, float] = field(default_factory=dict)
    series: dict[str, list[float]] = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    seed: int = 0

    def save(self, base_path) -> tuple[Path, Path]:
        """Write ``<base>.json`` (machine-readable) and ``<base>.txt`` (key/value lines)."""
        json_path = write_file(str(base_path) + ".json",
                               json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
        lines = [f"metric {self.metric}", f"seed {self.seed}"]
        for k in sorted(self.values):
            lines.append(f"{k} {self.values[k]!r}")
        for k in sorted(self.series):
            lines.append(f"{k} " + " ".join(repr(v) for v in self.series[k]))
        for k in sorted(self.config):
            lines.append(f"config.{k} {self.config[k]}")
        txt_path = write_file(str(base_path) + ".txt", "\n".join(lines) + "\n")
        return json_path, txt_path


def write_curve(path, xs, ys, header: str) -> Path:
    """Two-column plot-ready text file under one ``# header`` comment line."""
    lines = [f"# {header}"] + [f"{x} {y!r}" for x, y in zip(xs, ys)]
    return write_file(path, "\n".join(lines) + "\n")
