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

from .core import (ConfigError, Dataset, DegenerateInputError, DimensionError, FormatError,
                   RngState, as_frames, pairwise_sqdist, write_file)
from . import align
from .embed import EmbeddingModel, embed_batch
from .dynamics import RecurrentPredictor, rnn_forward_batch, transition_pairs
from .synthdata import GeneratorConfig, alignment_pair_config, resample_pair


def _sequence_features(dataset: Dataset, embedder) -> list[np.ndarray]:
    """Per-sequence feature arrays from a model or any frames->features callable."""
    if isinstance(embedder, EmbeddingModel):
        return [embed_batch(embedder, s.frames) for s in dataset]
    if callable(embedder):
        return _checked_features(dataset, [embedder(s.frames) for s in dataset])
    raise ConfigError(f"cannot embed with object of type {type(embedder).__name__}")


def _checked_features(dataset: Dataset, features) -> list[np.ndarray]:
    """``features`` as finite float64 arrays, (len(s), d) for each sequence s, one d for all."""
    if len(features) != len(dataset):
        raise DimensionError("one feature array per sequence required")
    out = [as_frames(f, f"features of sequence {s.id!r}") for s, f in zip(dataset, features)]
    for s, f in zip(dataset, out):
        if f.shape != (len(s), out[0].shape[1]):
            raise DimensionError(f"features of sequence {s.id!r} have shape {f.shape}, "
                                 f"expected ({len(s)}, {out[0].shape[1]})")
    return out


def _require_latents(dataset: Dataset):
    if any(s.latent is None for s in dataset):
        raise ConfigError("this metric needs latent ground truth on every sequence")


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
    """
    _require_latents(dataset)
    z = np.concatenate([s.latent for s in dataset], axis=0)
    n = z.shape[0]
    # Frame i meets frame (i + t) mod n. Each offset t < n/2 gives n distinct
    # pairs; t = n/2 (n even) meets each of its pairs twice, so it keeps its
    # first n/2. A block of offsets is one window view of the latents repeated.
    zz = np.tile(z.T, 2)
    win = np.lib.stride_tricks.sliding_window_view(zz, n, axis=1)  # win[k, t, i] = zz[k, t + i]
    full = (n - 1) // 2
    spans = [(t, min(t + _OFFSET_BLOCK, full + 1), n) for t in range(1, full + 1, _OFFSET_BLOCK)]
    if n % 2 == 0:
        spans.append((n // 2, n // 2 + 1, n // 2))
    dist = np.empty(n * (n - 1) // 2)
    scratch = np.empty(_OFFSET_BLOCK * n)
    pos = 0
    for lo, hi, cols in spans:
        out = dist[pos:pos + (hi - lo) * cols].reshape(hi - lo, cols)
        tmp = scratch[:out.size].reshape(out.shape)
        pos += out.size
        np.subtract(win[0, lo:hi, :cols], zz[0, :cols], out=out)
        np.multiply(out, out, out=out)
        for k in range(1, z.shape[1]):
            np.subtract(win[k, lo:hi, :cols], zz[k, :cols], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            out += tmp
        np.sqrt(out, out=out)
    return float(np.percentile(dist, percentile, overwrite_input=True))


def _latent_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) row distances, squared coordinate differences added in coordinate order."""
    sq, diff = np.zeros((2, len(a), len(b)))
    for za, zb in zip(a.T, b.T):
        sq += np.square(np.subtract(zb, za[:, None], out=diff), out=diff)
    return np.sqrt(sq, out=sq)


def retrieval_auc_from_features(dataset: Dataset, features: list[np.ndarray],
                                pose_epsilon: float | None = None, *,
                                num_queries: int, rng: RngState) -> tuple[float, list[float]]:
    """Mean per-query ROC AUC of other-sequence retrieval by feature distance.

    ``rng`` draws ``num_queries >= 1`` query frames (all, if there are no more).
    A candidate counts as a true match when its latent pose lies within
    ``pose_epsilon`` of the query's. A sequence's queries share one candidate
    set, the other sequences' frames, and are scored together. Queries whose
    candidate set is all-positive or all-negative are skipped.
    """
    if num_queries < 1:
        raise ConfigError(f"num_queries must be >= 1, got {num_queries}")
    _require_latents(dataset)
    features = _checked_features(dataset, features)
    if pose_epsilon is None:
        pose_epsilon = default_pose_epsilon(dataset)

    feats = np.concatenate(features, axis=0)
    lats = np.concatenate([s.latent for s in dataset], axis=0)
    total = feats.shape[0]

    if num_queries >= total:
        queries = np.arange(total)
    else:
        queries = np.sort(rng.gen.choice(total, size=num_queries, replace=False))

    starts = np.cumsum([0] + [len(s) for s in dataset])
    aucs = []
    for lo, hi in zip(starts, starts[1:]):
        qs, others = queries[(lo <= queries) & (queries < hi)], np.r_[0:lo, hi:total]
        labels = _latent_distances(lats[qs], lats[others]) <= pose_epsilon
        ranks = _average_ranks(-pairwise_sqdist(feats[qs], feats[others]))
        # Mann-Whitney U per row; average ranks are half-integers, so the sums are exact
        n_pos, n_neg = labels.sum(axis=1), (~labels).sum(axis=1)
        u = np.where(labels, ranks, 0.0).sum(axis=1) - n_pos * (n_pos + 1) / 2.0
        keep = (n_pos > 0) & (n_neg > 0)
        aucs.extend((u[keep] / (n_pos[keep] * n_neg[keep])).tolist())
    if not aucs:
        raise ConfigError("no query produced both matches and non-matches")
    return float(np.mean(aucs)), aucs


def retrieval_auc(dataset: Dataset, embedder, pose_epsilon: float | None = None, *,
                  num_queries: int, rng: RngState) -> float:
    mean, _ = retrieval_auc_from_features(
        dataset, _sequence_features(dataset, embedder),
        pose_epsilon=pose_epsilon, num_queries=num_queries, rng=rng)
    return mean


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
    evenly spaced error thresholds up to the largest error of either.
    """
    _require_latents(train)
    _require_latents(test)
    f_train = np.concatenate(_sequence_features(train, embedder), axis=0)
    f_test = np.concatenate(_sequence_features(test, embedder), axis=0)
    z_train = np.concatenate([s.latent for s in train], axis=0)
    z_test = np.concatenate([s.latent for s in test], axis=0)

    nn_feat = np.argmin(pairwise_sqdist(f_test, f_train), axis=1)
    err = np.linalg.norm(z_test - z_train[nn_feat], axis=1)

    nn_lat = np.argmin(pairwise_sqdist(z_test, z_train), axis=1)
    oracle_err = np.linalg.norm(z_test - z_train[nn_lat], axis=1)

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


def knn_prediction_curve(dataset: Dataset, model: EmbeddingModel,
                         predictor: RecurrentPredictor, k_max: int,
                         exclusion_window: int) -> PredictionCurve:
    """Next-frame prediction error versus the k-th nearest-neighbor bar.

    For every transition the predictor regresses the next frame's embedding
    from its context; the bar is the mean distance of the true next
    embedding to its k-th nearest neighbor over all frames, excluding the
    frame itself and its +-window temporal neighbors.
    """
    if exclusion_window < 0 or k_max < 1:
        raise ConfigError(f"need exclusion_window >= 0 and k_max >= 1, got "
                          f"{exclusion_window} and {k_max}")
    l = predictor.context_len
    frames = np.concatenate([embed_batch(model, s.frames) for s in dataset])
    emb = np.split(frames, np.cumsum([len(s) for s in dataset])[:-1])  # views
    windows, first = transition_pairs(emb, l)
    truth = windows[first, l]
    pred_err = np.linalg.norm(rnn_forward_batch(predictor, windows[first, :l]) - truth, axis=1)
    del windows  # a view of a copy of the frames

    # Squared distances, rooted after selection (sqrt is monotone). A sequence's
    # targets (rows) and frames (columns) are contiguous: its band is one slice.
    # Every distance is finite, so the band alone makes a row's candidates fewer.
    d = pairwise_sqdist(truth, frames)
    row = col = widest = 0
    for e in emb:
        t = np.arange(l, len(e))
        band = np.abs(t[:, None] - np.arange(len(e))) <= exclusion_window
        d[row:row + t.size, col:col + len(e)][band] = np.inf
        widest = max(widest, int(band.sum(axis=1).max(initial=0)))
        row, col = row + t.size, col + len(e)
    n_valid = len(frames) - widest
    if k_max > n_valid:
        raise ConfigError(f"k_max {k_max} exceeds available candidates {n_valid}")
    d.partition(k_max - 1, axis=1)  # in place: the matrix is this function's own
    part = np.sqrt(np.sort(d[:, :k_max], axis=1))

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
    q, t = as_frames(query_feats, "query_feats"), as_frames(target_feats, "target_feats")
    if q.shape[1] != t.shape[1]:
        raise DimensionError(f"query dimension {q.shape[1]} != target dimension {t.shape[1]}")
    return np.argmin(pairwise_sqdist(q, t), axis=1).astype(np.int64) + 1


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
    pair_cfg, seeds = alignment_pair_config(generator), range(seed, seed + pairs)
    dp_scores, nn_scores = [], []
    for i in range(0, pairs, 20):  # one batched solve of 20 reference pairs holds about 21 MB
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
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    axes = vt[:2]
    if axes.shape[0] < 2:
        axes = np.concatenate([axes, np.zeros((2 - axes.shape[0], feats.shape[1]))])
        s = np.concatenate([s, [0.0]])
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

    @classmethod
    def load(cls, base_path) -> "EvalReport":
        """Read ``<base>.json``; a malformed report raises :class:`FormatError` naming it.

        Besides its keys, every value must have its field's type: ``metric``
        a string, ``values`` numbers, ``series`` lists of numbers, ``config``
        an object and ``seed`` an integer (JSON object keys are strings).
        """
        path = Path(str(base_path) + ".json")
        try:
            rep = cls(**json.loads(path.read_text(encoding="utf-8")))
        except (ValueError, TypeError, RecursionError) as exc:  # bad UTF-8, JSON, keys, nesting
            raise FormatError(f"{path}: not an evaluation report ({exc})") from exc
        if not (isinstance(rep.metric, str) and _is_number(rep.seed, int)
                and isinstance(rep.config, dict)
                and isinstance(rep.values, dict) and all(map(_is_number, rep.values.values()))
                and isinstance(rep.series, dict)
                and all(isinstance(v, list) and all(map(_is_number, v))
                        for v in rep.series.values())):
            raise FormatError(f"{path}: not an evaluation report (a value has the wrong type)")
        return rep


def _is_number(v, kinds=(int, float)) -> bool:
    """A JSON number of one of ``kinds``; booleans are not numbers."""
    return isinstance(v, kinds) and not isinstance(v, bool)


def write_curve(path, xs, ys, header: str) -> Path:
    """Two-column plot-ready text file under one ``# header`` comment line."""
    lines = [f"# {header}"] + [f"{x} {y!r}" for x, y in zip(xs, ys)]
    return write_file(path, "\n".join(lines) + "\n")
