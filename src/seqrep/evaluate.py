"""Quantitative evaluation against synthetic ground truth.

Metrics mirror the standard protocols at desk scale: frame retrieval scored
by ROC AUC against latent-pose ground truth, zero-shot pose transfer by
nearest-neighbor latent adoption, next-frame prediction against a k-nearest
-neighbor bar, correspondence accuracy against known resampling alignments,
a 2D principal-component projection of the embedding, and agglomerative
condensation into representative postures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.stats import rankdata

from .core import (ConfigError, Dataset, DimensionError, FormatError, RngState, as_frames,
                   pairwise_sqdist, write_file)
from .align import Matching, PenaltyConfig, solve_exact_dp
from .embed import EmbeddingModel, embed_batch
from .dynamics import RecurrentPredictor, _windows, rnn_forward_batch
from .synthdata import GeneratorConfig, alignment_pair_config, resample_pair


def _sequence_features(dataset: Dataset, embedder) -> list[np.ndarray]:
    """Per-sequence feature arrays from a model or any frames->features callable."""
    if isinstance(embedder, EmbeddingModel):
        return [embed_batch(embedder, s.frames) for s in dataset]
    if callable(embedder):
        return [np.asarray(embedder(s.frames), dtype=np.float64) for s in dataset]
    raise ConfigError(f"cannot embed with object of type {type(embedder).__name__}")


def _require_latents(dataset: Dataset):
    if any(s.latent is None for s in dataset):
        raise ConfigError("this metric needs latent ground truth on every sequence")


def roc_auc(scores_pos: np.ndarray, scores_neg: np.ndarray) -> float:
    """Rank-based (Mann-Whitney) AUC with tie correction."""
    pos = np.asarray(scores_pos, dtype=np.float64)
    neg = np.asarray(scores_neg, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ConfigError("AUC needs at least one positive and one negative")
    ranks = rankdata(np.concatenate([pos, neg]))
    u = ranks[: pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def default_pose_epsilon(dataset: Dataset, percentile: float = 5.0) -> float:
    """Instance-relative match threshold: a low percentile of latent distances."""
    _require_latents(dataset)
    z = np.concatenate([s.latent for s in dataset], axis=0)
    d = np.sqrt(pairwise_sqdist(z, z)[np.triu_indices(len(z), k=1)])
    return float(np.percentile(d, percentile))


def retrieval_auc_from_features(dataset: Dataset, features: list[np.ndarray],
                                pose_epsilon: float | None = None,
                                num_queries: int = 500,
                                rng: RngState | None = None) -> tuple[float, list[float]]:
    """Mean per-query ROC AUC of other-sequence retrieval by feature distance.

    A candidate counts as a true match when its latent pose lies within
    ``pose_epsilon`` of the query's. A sequence's queries share one candidate
    set, the other sequences' frames, and are scored together. Queries whose
    candidate set is all-positive or all-negative are skipped.
    """
    _require_latents(dataset)
    if len(features) != len(dataset):
        raise DimensionError("one feature array per sequence required")
    if pose_epsilon is None:
        pose_epsilon = default_pose_epsilon(dataset)
    if rng is None:
        rng = RngState(0)

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
        labels = np.linalg.norm(lats[others] - lats[qs, None], axis=2) <= pose_epsilon
        ranks = rankdata(-pairwise_sqdist(feats[qs], feats[others]), axis=1)
        # Mann-Whitney U per row; average ranks are half-integers, so the sums are exact
        n_pos, n_neg = labels.sum(axis=1), (~labels).sum(axis=1)
        u = np.where(labels, ranks, 0.0).sum(axis=1) - n_pos * (n_pos + 1) / 2.0
        keep = (n_pos > 0) & (n_neg > 0)
        aucs.extend((u[keep] / (n_pos[keep] * n_neg[keep])).tolist())
    if not aucs:
        raise ConfigError("no query produced both matches and non-matches")
    return float(np.mean(aucs)), aucs


def retrieval_auc(dataset: Dataset, embedder, pose_epsilon: float | None = None,
                  num_queries: int = 500, rng: RngState | None = None) -> float:
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


def zero_shot_pose_error(train: Dataset, test: Dataset, embedder,
                         thresholds: tuple[float, ...] | None = None) -> ZeroShotReport:
    """Latent-pose transfer by nearest neighbor in feature space.

    Each test frame adopts the latent pose of its nearest training frame;
    reported against the ground-truth-similarity upper bound in which the
    neighbor is chosen by latent distance itself.
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

    if thresholds is None:
        hi = float(max(err.max(), oracle_err.max(), 1e-12))
        thresholds = tuple(np.linspace(0.0, hi, 21)[1:])
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
                         exclusion_window: int = 2) -> PredictionCurve:
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
    emb = [embed_batch(model, s.frames) for s in dataset]
    windows = [_windows(e, l) for e in emb if len(e) > l]
    if not windows:
        raise ConfigError("no sequence is long enough for one transition")
    truth = np.concatenate([t for _, t in windows])
    preds = rnn_forward_batch(predictor, np.concatenate([c for c, _ in windows]))
    pred_err = np.linalg.norm(preds - truth, axis=1)

    # Squared distances, rooted after selection (sqrt is monotone). A sequence's
    # targets (rows) and frames (columns) are contiguous: its band is one slice.
    d = pairwise_sqdist(truth, np.concatenate(emb, axis=0))
    row = col = 0
    for e in emb:
        t = np.arange(l, len(e))
        band = np.abs(t[:, None] - np.arange(len(e))) <= exclusion_window
        d[row:row + t.size, col:col + len(e)][band] = np.inf
        row, col = row + t.size, col + len(e)
    n_valid = int(np.min(np.sum(np.isfinite(d), axis=1)))
    if k_max > n_valid:
        raise ConfigError(f"k_max {k_max} exceeds available candidates {n_valid}")
    part = np.sqrt(np.sort(np.partition(d, k_max - 1, axis=1)[:, :k_max], axis=1))

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


def merge_chunk_assignments(matchings: list[Matching] | Matching,
                            n_query: int) -> np.ndarray:
    """Compose per-chunk matchings into one global assignment.

    Chunks are visited in offset order; the first non-outlier assignment of
    each query frame wins. Decomposing a single global assignment into its
    chunks and merging back is the identity.
    """
    if isinstance(matchings, Matching):
        matchings = [matchings]
    merged = np.zeros(n_query, dtype=np.int64)
    for m in sorted(matchings, key=lambda m: m.target_offset):
        if len(m.pi) != n_query:
            raise DimensionError("matching does not cover the query")
        g = m.global_pi()
        take = (merged == 0) & (g > 0)
        merged[take] = g[take]
    return merged


def alignment_accuracy(predicted: list[Matching] | Matching | np.ndarray,
                       truth: np.ndarray) -> float:
    """Fraction of truth-matched query frames predicted within one target index."""
    truth = np.asarray(truth, dtype=np.int64)
    if isinstance(predicted, (list, Matching)):
        predicted = merge_chunk_assignments(predicted, truth.shape[0])
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
                        penalties: PenaltyConfig = PenaltyConfig(),
                        ) -> tuple[list[float], list[float]]:
    """Correspondence accuracy of exact matching versus per-frame nearest neighbors.

    Pair ``i`` is :func:`resample_pair` of ``alignment_pair_config(generator)``
    at seed ``seed + i``; both sides are embedded, matched whole (no
    chunking) under ``penalties`` resolved for that pair, and scored by
    :func:`alignment_accuracy`. Returns the per-pair (dp, nn) accuracies.
    """
    pair_cfg = alignment_pair_config(generator)
    dp_scores, nn_scores = [], []
    for i in range(pairs):
        query, target, truth = resample_pair(pair_cfg, seed=seed + i)
        q = embed_batch(model, query.frames)
        t = embed_batch(model, target.frames)
        sol = solve_exact_dp(q, t, penalties.resolve(q, t))
        dp_scores.append(alignment_accuracy(sol, truth))
        nn_scores.append(alignment_accuracy(nearest_neighbor_assignment(q, t), truth))
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


def agglomerative_representatives(dataset: Dataset, embedder,
                                  num_clusters: int) -> list[tuple[str, int]]:
    """Average-linkage condensation into mutually dissimilar representative frames.

    Clusters the embedded frames down to ``num_clusters`` and returns each
    cluster's medoid reference, ordered by first frame appearance; medoid
    ties break toward the earlier frame.
    """
    feats = np.concatenate(_sequence_features(dataset, embedder), axis=0)
    refs = [(s.id, i) for s in dataset for i in range(len(s))]
    n = feats.shape[0]
    if num_clusters < 1:
        raise ConfigError("num_clusters must be >= 1")
    if num_clusters > n:
        raise ConfigError(f"num_clusters {num_clusters} exceeds frame count {n}")
    if num_clusters == n:
        return list(refs)

    labels = fcluster(linkage(feats, method="average"), t=num_clusters,
                      criterion="maxclust")
    reps = []
    for lab in sorted(set(labels), key=lambda l: int(np.argmax(labels == l))):
        members = np.flatnonzero(labels == lab)
        d = pairwise_sqdist(feats[members], feats[members])
        medoid = members[int(np.argmin(d.sum(axis=1)))]
        reps.append(refs[medoid])
    return reps


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
            rep = cls(**json.loads(path.read_text()))
        except (ValueError, TypeError) as exc:  # bad UTF-8 or JSON; wrong shape or keys
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


def write_curve(path, xs, ys, header: str = "") -> Path:
    """Two-column plot-ready text file."""
    lines = []
    if header:
        lines.append(f"# {header}")
    for x, y in zip(xs, ys):
        lines.append(f"{x} {y!r}")
    return write_file(path, "\n".join(lines) + "\n")
