"""Normalized posture embedding trained from matching-derived triplets.

A two-layer rectified encoder with a unit-norm output head is fit by a
margin ranking loss over (anchor, positive, negative) frame triples. The
positives come from exact per-chunk sequence matchings, the negatives from
percentile-thresholded mining in the current feature space, so the network
gradually reconciles many local correspondence sets into one consistent
representation. The first epoch bootstraps all similarities from
ZCA-whitened raw features; later epochs use the embedding itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    Dataset,
    MomentumSGD,
    RngState,
    as_frames,
    as_vector,
    block_views,
    pairwise_sqdist,
)
from .align import PenaltyConfig, _chunk_bounds, match_features


@dataclass(frozen=True)
class EmbeddingModel:
    """Encoder parameters: relu hidden layer, affine head, l2-normalized output.

    ``theta`` is the one parameter vector, ``W1 b1 W2 b2`` concatenated
    row-major; the named blocks are views of it, so the trainer's in-place
    updates show through them.
    """

    theta: np.ndarray
    input_dim: int   # f
    hidden_dim: int  # h
    embed_dim: int   # d
    W1: np.ndarray = field(init=False, repr=False)  # (f, h)
    b1: np.ndarray = field(init=False, repr=False)  # (h,)
    W2: np.ndarray = field(init=False, repr=False)  # (h, d)
    b2: np.ndarray = field(init=False, repr=False)  # (d,)

    def __post_init__(self):
        object.__setattr__(self, "theta", as_vector(self.theta, "parameter vector").copy())
        for name, view in self.blocks(self.theta).items():
            object.__setattr__(self, name, view)

    def blocks(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of ``vec``, which has the layout of ``theta`` (e.g. a gradient)."""
        f, h, d = self.input_dim, self.hidden_dim, self.embed_dim
        return block_views(vec, W1=(f, h), b1=(h,), W2=(h, d), b2=(d,))


def init_embedding_model(input_dim: int, hidden_dim: int, embed_dim: int,
                         rng: RngState) -> EmbeddingModel:
    """Scaled-uniform random weights and biases."""
    g = rng.gen
    s1 = 1.0 / math.sqrt(input_dim)
    s2 = 1.0 / math.sqrt(hidden_dim)
    # nonzero output bias keeps the head away from the normalization singularity
    theta = np.concatenate([
        g.uniform(-s1, s1, size=input_dim * hidden_dim),
        g.uniform(-s1, s1, size=hidden_dim),
        g.uniform(-s2, s2, size=hidden_dim * embed_dim),
        g.uniform(-s2, s2, size=embed_dim),
    ])
    return EmbeddingModel(theta, input_dim, hidden_dim, embed_dim)


def _forward(model: EmbeddingModel, x: np.ndarray):
    """Batched forward pass keeping intermediates for backprop."""
    z1 = x @ model.W1 + model.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ model.W2 + model.b2
    norms = np.linalg.norm(z2, axis=1)
    if np.any(norms < 1e-12):
        raise DegenerateInputError("pre-normalization output collapsed to zero")
    y = z2 / norms[:, None]
    return y, (x, z1, a1, z2, norms)


def embed_batch(model: EmbeddingModel, frames) -> np.ndarray:
    """Embed an (n, f) array of frames to (n, d) unit-norm vectors."""
    x = as_frames(frames)
    if x.shape[1] != model.input_dim:
        raise DimensionError(
            f"frames have dimension {x.shape[1]}, model expects {model.input_dim}"
        )
    y, _ = _forward(model, x)
    return y


def triplet_loss(pa, pp, pn, delta: float) -> float:
    """Margin ranking hinge on squared distances: max(0, d(a,p) - d(a,n) + delta).

    The single-triplet reference that tests hold :func:`triplet_grad`'s
    batch loss against.
    """
    if delta <= 0:
        raise ConfigError(f"margin must be positive, got {delta}")
    pa, pp, pn = as_vector(pa), as_vector(pp), as_vector(pn)
    if not (pa.shape == pp.shape == pn.shape):
        raise DimensionError("triplet members must share one dimension")
    dp = pa - pp
    dn = pa - pn
    return float(max(0.0, float(dp @ dp) - float(dn @ dn) + delta))


def _backprop(model: EmbeddingModel, cache, d_y: np.ndarray) -> np.ndarray:
    x, z1, a1, z2, norms = cache
    y = z2 / norms[:, None]
    grad = np.empty_like(model.theta)
    grads = model.blocks(grad)
    # through the normalization layer: dz = (dy - y (y . dy)) / |z|
    d_z2 = (d_y - y * np.sum(y * d_y, axis=1, keepdims=True)) / norms[:, None]
    grads["W2"][...] = a1.T @ d_z2
    grads["b2"][...] = d_z2.sum(axis=0)
    d_a1 = d_z2 @ model.W2.T
    d_z1 = d_a1 * (z1 > 0)
    grads["W1"][...] = x.T @ d_z1
    grads["b1"][...] = d_z1.sum(axis=0)
    return grad


def triplet_grad(model: EmbeddingModel, anchors, positives, negatives,
                 delta: float) -> tuple[float, np.ndarray]:
    """Mean batch hinge loss and its exact parameter gradient.

    Inactive hinges contribute zero loss and zero gradient. Returns
    ``(loss, grads)``; ``grads`` has the layout of ``model.theta``.
    """
    if delta <= 0:
        raise ConfigError(f"margin must be positive, got {delta}")
    a = as_frames(anchors)
    p = as_frames(positives)
    n = as_frames(negatives)
    if not (a.shape == p.shape == n.shape):
        raise DimensionError("anchor/positive/negative batches must share one shape")
    count = a.shape[0]

    stacked = np.concatenate([a, p, n], axis=0)
    y, cache = _forward(model, stacked)
    ya, yp, yn = y[:count], y[count:2 * count], y[2 * count:]

    dpos = ya - yp
    dneg = ya - yn
    pre = np.sum(dpos * dpos, axis=1) - np.sum(dneg * dneg, axis=1) + delta
    active = pre > 0
    loss = float(np.sum(np.maximum(pre, 0.0)) / count)

    scale = (2.0 / count) * active[:, None]
    d_ya = scale * (yn - yp)
    d_yp = -scale * dpos
    d_yn = scale * dneg
    d_y = np.concatenate([d_ya, d_yp, d_yn], axis=0)
    return loss, _backprop(model, cache, d_y)


def _sample_triplet_indices(pi: np.ndarray, chunk_feats: np.ndarray, offset: int,
                            p: float, count: int, window: int,
                            rng: RngState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw up to ``count`` triplets from one chunk matching.

    Returns the anchor rows (query frames) and the positive and negative
    rows (target frames, ``offset`` added). A negative of positive ``pos``
    lies within the nearest-rank p-th percentile of the distances from
    ``pos`` to the other chunk frames, and more than ``window`` frames away
    from it. Each column's threshold and eligible set are mined once per
    chunk; a draw whose pool is empty is skipped.
    """
    anchors = np.flatnonzero(pi > 0)
    m = chunk_feats.shape[0]
    a_rows, p_rows, n_rows = [], [], []
    # a single-frame chunk has no candidate negatives at all
    if anchors.size and count > 0 and m > 1:
        positives, column = np.unique(pi[anchors] - 1, return_inverse=True)
        d2 = pairwise_sqdist(chunk_feats, chunk_feats)[:, positives]
        d2[positives, np.arange(positives.size)] = np.inf  # a positive is not its own candidate
        k = max(1, math.ceil(p / 100.0 * (m - 1)))
        thresh = np.partition(d2, k - 1, axis=0)[k - 1]
        eligible = (d2 <= thresh) & (np.abs(np.arange(m)[:, None] - positives) > window)
        pools = [np.flatnonzero(col) for col in eligible.T]
        g = rng.gen
        for _ in range(count):
            a = int(g.integers(anchors.size))
            pool = pools[column[a]]
            if pool.size:
                a_rows.append(anchors[a])
                p_rows.append(positives[column[a]])
                n_rows.append(pool[g.integers(pool.size)])
    return (np.array(a_rows, dtype=np.int64),
            np.array(p_rows, dtype=np.int64) + offset,
            np.array(n_rows, dtype=np.int64) + offset)


def _descriptor_neighbors(descriptors: dict[str, np.ndarray], k: int) -> dict[str, list[str]]:
    ids = sorted(descriptors)
    mat = np.stack([descriptors[i] for i in ids])
    d2 = pairwise_sqdist(mat, mat)
    out = {}
    for i, sid in enumerate(ids):
        order = sorted((float(d2[i, j]), ids[j]) for j in range(len(ids)) if j != i)
        out[sid] = [other for _, other in order[:k]]
    return out


def sequence_neighbors(dataset: Dataset, model: EmbeddingModel, k: int) -> dict[str, list[str]]:
    """K nearest sequences per sequence, by mean-pooled embedded descriptor.

    Distances are squared euclidean between temporal-mean embeddings; the
    sequence itself is excluded and ties break by id order.
    """
    if k >= len(dataset):
        raise ConfigError(f"neighborhood size {k} must be < number of sequences {len(dataset)}")
    descriptors = {s.id: embed_batch(model, s.frames).mean(axis=0) for s in dataset}
    return _descriptor_neighbors(descriptors, k)


def augment(x, sigma: float, feature_std, rng: RngState) -> np.ndarray:
    """Add zero-mean gaussian jitter scaled per coordinate by the dataset spread."""
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    x = np.asarray(x, dtype=np.float64)
    if sigma == 0:
        return x.copy()
    std = np.asarray(feature_std, dtype=np.float64)
    return x + rng.gen.normal(0.0, 1.0, size=x.shape) * (sigma * std)


@dataclass(frozen=True)
class Whitener:
    """ZCA whitening map fit on a frame collection."""

    mean: np.ndarray
    transform: np.ndarray

    def __call__(self, frames) -> np.ndarray:
        x = np.asarray(frames, dtype=np.float64)
        return (x - self.mean) @ self.transform


def fit_whitener(frames, eps_scale: float = 0.02) -> Whitener:
    """Regularized ZCA: eigenvalues are floored at ``eps_scale`` times their
    mean so near-null noise directions are not blown up to unit variance."""
    x = as_frames(frames)
    mean = x.mean(axis=0)
    cov = np.cov(x - mean, rowvar=False, bias=True)
    cov = np.atleast_2d(cov)
    evals, evecs = np.linalg.eigh(cov)
    eps = eps_scale * float(evals.mean()) + 1e-12
    transform = evecs @ np.diag(1.0 / np.sqrt(evals + eps)) @ evecs.T
    return Whitener(mean=mean, transform=transform)


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of the embedding trainer."""

    triplets_per_batch: int = 300
    margin: float = 0.2
    percentile_start: float = 100.0
    percentile_step: float = 10.0
    percentile_floor: float = 30.0
    learning_rate: float = 0.01
    momentum: float = 0.9
    max_epochs: int = 30
    neighborhood_size: int = 10
    exclusion_window: int = 2
    noise_sigma: float = 0.05
    hidden_dim: int = 256
    embed_dim: int = 128
    pairs_per_epoch: int | None = None
    bootstrap_epochs: int = 5

    def __post_init__(self):
        for name in ("triplets_per_batch", "max_epochs", "hidden_dim", "embed_dim",
                     "bootstrap_epochs", "neighborhood_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.pairs_per_epoch is not None and self.pairs_per_epoch < 1:
            raise ConfigError("pairs_per_epoch must be >= 1 (or null: one per sequence)")
        if not 0 <= self.percentile_start <= 100 or not 0 <= self.percentile_floor <= 100:
            raise ConfigError("percentiles must lie in [0, 100]")
        if self.percentile_step < 0:
            raise ConfigError("percentile_step must be >= 0")
        if self.exclusion_window < 0:
            raise ConfigError("exclusion_window must be >= 0")
        if self.margin <= 0:
            raise ConfigError("margin must be > 0")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must lie in [0, 1)")

    def percentile_at(self, epoch: int) -> float:
        return max(self.percentile_floor,
                   self.percentile_start - self.percentile_step * epoch)


@dataclass
class TrainLog:
    """Per-batch losses plus per-epoch percentile and parameter movement."""

    batch_loss: list[float] = field(default_factory=list)
    batch_epoch: list[int] = field(default_factory=list)
    epoch_percentile: list[float] = field(default_factory=list)
    epoch_param_delta: list[float] = field(default_factory=list)

    def mean_loss(self, epoch: int) -> float:
        losses = [l for l, e in zip(self.batch_loss, self.batch_epoch) if e == epoch]
        if not losses:
            raise ValueError(f"no batches recorded for epoch {epoch}")
        return float(np.mean(losses))

    @property
    def epochs_run(self) -> int:
        return len(self.epoch_percentile)


def train(dataset: Dataset, config: TrainConfig,
          penalties: PenaltyConfig = PenaltyConfig(), chunk_len: int = 40,
          rng: RngState | None = None) -> tuple[EmbeddingModel, TrainLog]:
    """Fit the embedding by alternating exact chunk matching and triplet descent.

    Each epoch samples sequence pairs from the neighborhood graph, solves the
    matching of the query against every target chunk, converts each chunk
    matching into a triplet batch (negatives mined at the epoch's percentile),
    and applies one momentum step per batch. Penalties resolve once per
    pair, on that pair's current features. The first ``bootstrap_epochs``
    epochs compute neighborhoods, matching costs, and mining distances on
    unit-normalized ZCA-whitened raw features; afterwards the current
    embedding takes over (it must first outgrow the bootstrap features, so
    switching too early stalls training). Runs ``max_epochs`` epochs; a
    diverging batch or parameter vector raises :class:`DivergenceError`.
    """
    if rng is None:
        rng = RngState(0)
    all_frames = dataset.all_frames()
    feature_std = all_frames.std(axis=0)
    whitener = fit_whitener(all_frames)

    def bootstrap_features(frames):
        w = whitener(frames)
        norms = np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-12)
        return w / norms

    model = init_embedding_model(dataset.dimension, config.hidden_dim,
                                 config.embed_dim, rng.split(0))
    sgd = MomentumSGD(model.theta, config.learning_rate, config.momentum, "embed")
    log = TrainLog()
    k = min(config.neighborhood_size, len(dataset) - 1)
    pairs_per_epoch = len(dataset) if config.pairs_per_epoch is None else config.pairs_per_epoch
    sequences = dataset.sequences
    g = rng.gen

    for epoch in range(config.max_epochs):
        p = config.percentile_at(epoch)
        if epoch < config.bootstrap_epochs:
            feats = {s.id: bootstrap_features(s.frames) for s in sequences}
        else:
            feats = {s.id: embed_batch(model, s.frames) for s in sequences}
        descriptors = {sid: f.mean(axis=0) for sid, f in feats.items()}
        neighbors = _descriptor_neighbors(descriptors, k)

        for _ in range(pairs_per_epoch):
            query = sequences[int(g.integers(len(sequences)))]
            nbr_ids = neighbors[query.id]
            target = dataset.by_id(nbr_ids[int(g.integers(len(nbr_ids)))])
            q_feats, t_feats = feats[query.id], feats[target.id]
            matchings = match_features(q_feats, t_feats,
                                       penalties.resolve(q_feats, t_feats),
                                       chunk_len=chunk_len)
            bounds = _chunk_bounds(t_feats.shape[0], chunk_len)
            for (start, end), matching in zip(bounds, matchings):
                aj, pj, nj = _sample_triplet_indices(
                    matching.pi, t_feats[start:end], start, p,
                    config.triplets_per_batch, config.exclusion_window, rng)
                if not aj.size:
                    continue
                a = augment(query.frames[aj], config.noise_sigma, feature_std, rng)
                pos = augment(target.frames[pj], config.noise_sigma, feature_std, rng)
                neg = augment(target.frames[nj], config.noise_sigma, feature_std, rng)
                loss, grads = triplet_grad(model, a, pos, neg, config.margin)
                sgd.step(loss, grads)
                log.batch_loss.append(loss)
                log.batch_epoch.append(epoch)

        log.epoch_percentile.append(p)
        log.epoch_param_delta.append(sgd.end_epoch())

    return model, log
