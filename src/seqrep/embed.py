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
    TrainLog,
    as_frames,
    block_views,
    pairwise_sqdist,
)
from . import align
from .align import PenaltyConfig


@dataclass(frozen=True)
class EmbeddingModel:
    """Encoder parameters: relu hidden layer, affine head, l2-normalized output.

    ``theta`` is the one parameter vector, ``W1 b1 W2 b2`` concatenated
    row-major; the named blocks are views of it, so the trainer's in-place
    updates show through them. The encoder computes in ``theta``'s dtype: a
    float32 ``theta`` stays float32, any other becomes float64.
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
        for name in ("input_dim", "hidden_dim", "embed_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        theta = np.asarray(self.theta)
        theta = theta.astype(np.float32 if theta.dtype == np.float32 else np.float64)  # a copy
        object.__setattr__(self, "theta", theta)
        for name, view in self.blocks(theta).items():
            object.__setattr__(self, name, view)
        if not np.isfinite(theta).all():
            raise DegenerateInputError("parameter vector contains non-finite entries")

    def blocks(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of ``vec``, which has the layout of ``theta`` (e.g. a gradient)."""
        f, h, d = self.input_dim, self.hidden_dim, self.embed_dim
        return block_views(vec, W1=(f, h), b1=(h,), W2=(h, d), b2=(d,))


def init_embedding_model(input_dim: int, hidden_dim: int, embed_dim: int,
                         rng: RngState) -> EmbeddingModel:
    """Scaled-uniform random weights and biases, in float32."""
    g = rng.gen
    s1 = 1.0 / math.sqrt(input_dim)
    s2 = 1.0 / math.sqrt(hidden_dim)
    # nonzero output bias keeps the head away from the normalization singularity
    theta = np.concatenate([
        g.uniform(-s1, s1, size=input_dim * hidden_dim),
        g.uniform(-s1, s1, size=hidden_dim),
        g.uniform(-s2, s2, size=hidden_dim * embed_dim),
        g.uniform(-s2, s2, size=embed_dim),
    ], dtype=np.float32)
    return EmbeddingModel(theta, input_dim, hidden_dim, embed_dim)


def _buffers(model: EmbeddingModel, rows: int, backward: bool = True) -> dict[str, np.ndarray]:
    """Work arrays of encoder passes over up to ``rows`` rows; a pass writes the leading ones.

    The backward adds the input rows ``x``, its scratch, the ReLU mask
    ``live`` and the gradient ``grad``, which has the layout of ``model.theta``.
    """
    f, h, d = model.input_dim, model.hidden_dim, model.embed_dim
    widths = dict(z1=h, a1=h, z2=d, norms=1, y=d)
    if backward:
        widths.update(x=f, d_y=d, d_z2=d, d_a1=h, live=h)
    buf = {k: np.empty((rows, w), bool if k == "live" else model.theta.dtype)
           for k, w in widths.items()}
    if backward:
        buf["grad"] = np.empty_like(model.theta)
    return buf


def _forward(model: EmbeddingModel, x: np.ndarray, buf: dict[str, np.ndarray]):
    """Batched forward pass into ``buf``'s leading rows; returns ``(y, norms)``."""
    z1, a1, z2, norms, y = (buf[k][:len(x)] for k in ("z1", "a1", "z2", "norms", "y"))
    np.matmul(x, model.W1, out=z1)
    z1 += model.b1
    np.maximum(z1, 0.0, out=a1)
    np.matmul(a1, model.W2, out=z2)
    z2 += model.b2
    # np.linalg.norm's ops, with y as the scratch of the squares
    np.sum(np.multiply(z2, z2, out=y), axis=1, keepdims=True, out=norms)
    np.sqrt(norms, out=norms)
    if np.any(norms < 1e-12):
        raise DegenerateInputError("pre-normalization output collapsed to zero")
    return np.divide(z2, norms, out=y), norms


def embed_batch(model: EmbeddingModel, frames) -> np.ndarray:
    """Embed an (n, f) array of frames to (n, d) unit-norm float64 vectors.

    A pre-normalization norm that overflows raises DegenerateInputError,
    whatever numpy's error state, and without a warning first. The check
    sits here, not in :func:`_forward`: inside a training batch the same
    overflow is divergence, which :class:`MomentumSGD` reports.
    """
    x = as_frames(frames).astype(model.theta.dtype, copy=False)
    if x.shape[1] != model.input_dim:
        raise DimensionError(
            f"frames have dimension {x.shape[1]}, model expects {model.input_dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        y, norms = _forward(model, x, _buffers(model, len(x), backward=False))
    if not np.all(np.isfinite(norms)):
        raise DegenerateInputError("pre-normalization output overflowed")
    return np.asarray(y, dtype=np.float64)


def _backprop(model: EmbeddingModel, x: np.ndarray, buf: dict[str, np.ndarray]) -> np.ndarray:
    """Gradient of ``buf``'s leading ``d_y`` rows through the forward cached there."""
    z1, a1, norms, y, d_y, d_z2, d_a1, live = (
        buf[k][:len(x)] for k in ("z1", "a1", "norms", "y", "d_y", "d_z2", "d_a1", "live"))
    grads = model.blocks(buf["grad"])
    # through the normalization layer: dz = (dy - y (y . dy)) / |z|
    y_dy = np.sum(np.multiply(y, d_y, out=d_z2), axis=1, keepdims=True)
    np.subtract(d_y, np.multiply(y, y_dy, out=d_z2), out=d_z2)
    d_z2 /= norms
    np.matmul(a1.T, d_z2, out=grads["W2"])
    d_z2.sum(axis=0, out=grads["b2"])
    np.matmul(d_z2, model.W2.T, out=d_a1)
    d_a1 *= np.greater(z1, 0, out=live)  # now d_z1
    np.matmul(x.T, d_a1, out=grads["W1"])
    d_a1.sum(axis=0, out=grads["b1"])
    return buf["grad"]


@np.errstate(over="ignore", invalid="ignore")
def _triplet_grad(model: EmbeddingModel, x: np.ndarray, roles: np.ndarray, delta: float,
                  buf: dict[str, np.ndarray]) -> tuple[float, np.ndarray]:
    """Mean hinge loss and gradient of B triplets: ``roles`` (3·B,) holds the rows of
    ``x`` of every anchor, then every positive, then every negative, and names each
    row at least once. The encoder runs forward and backward once over ``x``, so each
    row's ``d_y`` sums its roles' gradients. ``buf``: :func:`_buffers` of >= 3·B rows."""
    count = len(roles) // 3
    y = _forward(model, x, buf)[0]
    g = buf["z2"][:3 * count]  # spent once y is normalized; scratch like d_z2 until the backward
    np.take(y, roles, axis=0, out=g, mode="clip")  # roles are in range: "clip" is unbuffered
    ya, yp, yn = np.split(g, 3)
    d_g = buf["d_z2"][:3 * count]
    d_ya, d_yp, d_yn = np.split(d_g, 3)

    dpos = np.subtract(ya, yp, out=d_yp)
    dneg = np.subtract(ya, yn, out=d_yn)
    pre = np.sum(np.multiply(dpos, dpos, out=d_ya), axis=1)
    pre -= np.sum(np.multiply(dneg, dneg, out=d_ya), axis=1)
    pre += delta
    loss = float(np.sum(np.maximum(pre, 0.0)) / count)

    scale = ((pre > 0) * pre.dtype.type(2.0 / count))[:, None]  # 0 for an inactive hinge
    np.multiply(scale, np.subtract(yn, yp, out=d_ya), out=d_ya)
    np.multiply(-scale, dpos, out=d_yp)
    np.multiply(scale, dneg, out=d_yn)
    # sorted by row, each row's roles are one segment of a segmented sum
    np.take(d_g, np.argsort(roles, kind="stable"), axis=0, out=g, mode="clip")
    uses = np.bincount(roles, minlength=len(x))
    np.add.reduceat(g, np.cumsum(uses) - uses, axis=0, out=buf["d_y"][:len(x)])
    return loss, _backprop(model, x, buf)


def triplet_grad(model: EmbeddingModel, anchors, positives, negatives,
                 delta: float) -> tuple[float, np.ndarray]:
    """Mean batch hinge loss and its exact parameter gradient.

    Inactive hinges contribute zero loss and zero gradient. Returns
    ``(loss, grads)``; ``grads`` has the layout of ``model.theta``.
    """
    if delta <= 0:
        raise ConfigError(f"margin must be positive, got {delta}")
    a, p, n = (as_frames(x) for x in (anchors, positives, negatives))
    if not (a.shape == p.shape == n.shape):
        raise DimensionError("anchor/positive/negative batches must share one shape")
    count = a.shape[0]
    buf = _buffers(model, 3 * count)
    x = np.concatenate([a, p, n], axis=0, out=buf["x"][:3 * count])
    return _triplet_grad(model, x, np.arange(3 * count), delta, buf)


def _sample_triplet_indices(pi: np.ndarray, chunk_feats: np.ndarray, offset: int,
                            p: float, count: int, window: int,
                            rng: RngState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw up to ``count`` triplets from one chunk matching.

    Returns the anchor rows (query frames) and the positive and negative
    rows (target frames, ``offset`` added). A negative of positive ``pos``
    lies within the nearest-rank p-th percentile of the distances from
    ``pos`` to the other chunk frames, and more than ``window`` frames away
    from it. Each column's threshold and eligible set are mined once per
    chunk. All ``count`` anchors are drawn first, in one call; those whose
    pool is empty are dropped, and the rest draw one negative each in a second.
    """
    anchors = np.flatnonzero(pi > 0)
    m = chunk_feats.shape[0]
    if not anchors.size or count < 1 or m < 2:  # one frame has no candidate negatives
        return tuple(np.empty(0, dtype=np.int64) for _ in range(3))
    positives, column = np.unique(pi[anchors] - 1, return_inverse=True)
    d2 = pairwise_sqdist(chunk_feats, chunk_feats)[:, positives]
    d2[positives, np.arange(positives.size)] = np.inf  # a positive is not its own candidate
    k = max(1, math.ceil(p / 100.0 * (m - 1)))
    thresh = np.partition(d2, k - 1, axis=0)[k - 1]
    eligible = (d2 <= thresh) & (np.abs(np.arange(m)[:, None] - positives) > window)
    sizes = eligible.sum(axis=0)
    a = rng.gen.integers(anchors.size, size=count)
    a = a[sizes[column[a]] > 0]
    c = column[a]
    # a stable sort of ~eligible puts each column's eligible rows first, ascending
    neg = np.argsort(~eligible, axis=0, kind="stable")[rng.gen.integers(sizes[c]), c]
    return anchors[a], positives[c] + offset, neg + offset


def _descriptor_neighbors(feats: list[np.ndarray], ids: list[str], k: int) -> np.ndarray:
    """(N, k) positions of each sequence's k nearest mean descriptors; ties go to the smaller id."""
    mat = np.stack([f.mean(axis=0) for f in feats])
    d2 = pairwise_sqdist(mat, mat)
    np.fill_diagonal(d2, np.inf)  # a sequence is not its own neighbour
    rank = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))  # each id's sorted rank
    return np.lexsort((np.broadcast_to(rank, d2.shape), d2), axis=1)[:, :k]


def sequence_neighbors(dataset: Dataset, model: EmbeddingModel, k: int) -> dict[str, list[str]]:
    """K nearest sequences per sequence, by mean-pooled embedded descriptor.

    Distances are squared euclidean between temporal-mean embeddings; the
    sequence itself is excluded and ties break by id order.
    """
    if not 1 <= k < len(dataset):
        raise ConfigError(f"neighborhood size {k} must be >= 1 and < {len(dataset)} sequences")
    ids = [s.id for s in dataset]
    table = _descriptor_neighbors([embed_batch(model, s.frames) for s in dataset], ids, k)
    return {sid: [ids[j] for j in row] for sid, row in zip(ids, table)}


def fit_whitener(frames):
    """Regularized ZCA as a frames -> features map: eigenvalues are floored at
    0.02 times their mean so near-null noise directions are not blown up to unit variance."""
    x = as_frames(frames)
    mean = x.mean(axis=0)
    cov = np.cov(x - mean, rowvar=False, bias=True)
    cov = np.atleast_2d(cov)
    evals, evecs = np.linalg.eigh(cov)
    eps = 0.02 * float(evals.mean()) + 1e-12
    transform = evecs @ np.diag(1.0 / np.sqrt(evals + eps)) @ evecs.T
    return lambda frames: (np.asarray(frames, dtype=np.float64) - mean) @ transform


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of the embedding trainer."""

    triplets_per_batch: int = 300
    margin: float = 0.2
    percentile_start: float = 100.0
    percentile_step: float = 10.0
    percentile_floor: float = 30.0
    learning_rate: float = 0.02  # hotter: 0.01 with 40-frame chunks gave retrieval AUC 0.76-0.78
    momentum: float = 0.9
    max_epochs: int = 30
    neighborhood_size: int = 10
    exclusion_window: int = 2
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
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must lie in [0, 1)")

    def percentile_at(self, epoch: int) -> float:
        return max(self.percentile_floor,
                   self.percentile_start - self.percentile_step * epoch)


def train(dataset: Dataset, config: TrainConfig, penalties: PenaltyConfig = PenaltyConfig(),
          *, chunk_len: int, rng: RngState) -> tuple[EmbeddingModel, TrainLog]:
    """Fit the embedding by alternating exact chunk matching and triplet descent.

    Each epoch draws its pairs up front from the neighborhood graph (all
    query positions in one call, then each query's neighbor rank in
    another), solves every query against every chunk of its target in one
    batched pass, then, pair by pair and chunk by chunk, converts each
    chunk matching into a triplet batch (negatives mined at the epoch's
    percentile) and applies one momentum step per batch. A batch encodes
    each of its distinct query and target frames once. Penalties resolve
    once per pair, on that pair's current features. An initial encoder that
    overflows on the training frames raises DegenerateInputError. The first ``bootstrap_epochs``
    epochs compute neighborhoods, matching costs, and mining distances on
    unit-normalized ZCA-whitened raw features; afterwards the current
    embedding takes over (it must first outgrow the bootstrap features, so
    switching too early stalls training). Runs ``max_epochs`` epochs; a
    diverging batch or parameter vector raises :class:`DivergenceError`. The
    model returned holds the float64 mean of the epoch-end vectors of the
    last ⌈max_epochs / 2⌉ epochs (Polyak-Ruppert averaging): epochs 15-29 of
    30, a 1- or 2-epoch run's last iterate. The log keeps the optimizer's moves.
    """
    all_frames = dataset.all_frames()
    sequences = dataset.sequences
    ids = [s.id for s in sequences]
    whitener = fit_whitener(all_frames)
    bootstrap = [w / np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-12)
                 for w in (whitener(s.frames) for s in sequences)]

    model = init_embedding_model(dataset.dimension, config.hidden_dim,
                                 config.embed_dim, rng.split(0))
    embed_batch(model, all_frames)  # an encoder that overflows on the data is bad input
    sgd = MomentumSGD(model.theta, config.learning_rate, config.momentum, "embed")
    k = min(config.neighborhood_size, len(dataset) - 1)
    pairs_per_epoch = len(dataset) if config.pairs_per_epoch is None else config.pairs_per_epoch
    g = rng.gen
    buffers = _buffers(model, 3 * config.triplets_per_batch)  # every batch reuses them
    averaged, theta_sum = math.ceil(config.max_epochs / 2), np.zeros(model.theta.size)

    for epoch in range(config.max_epochs):
        p = config.percentile_at(epoch)
        if epoch < config.bootstrap_epochs:
            feats = bootstrap
        else:
            feats = [embed_batch(model, s.frames) for s in sequences]
        neighbors = _descriptor_neighbors(feats, ids, k)

        qis = g.integers(len(sequences), size=pairs_per_epoch)
        tis = neighbors[qis, g.integers(k, size=pairs_per_epoch)]
        pairs = [(pairwise_sqdist(feats[qi], feats[ti]), penalties) for qi, ti in zip(qis, tis)]
        for qi, ti, matchings in zip(qis, tis, align._match_pairs(pairs, chunk_len)):
            t_feats, offset = feats[ti], len(feats[qi])
            # the query's frames, then the target's, in the encoder's dtype
            frames = np.concatenate([sequences[qi].frames, sequences[ti].frames],
                                    dtype=model.theta.dtype)
            # the chunks tile the target in offset order
            starts = [m.target_offset for m in matchings]
            for start, end, matching in zip(starts, starts[1:] + [len(t_feats)], matchings):
                aj, pj, nj = _sample_triplet_indices(
                    matching.pi, t_feats[start:end], start, p,
                    config.triplets_per_batch, config.exclusion_window, rng)
                if not aj.size:
                    continue
                # each distinct frame of the batch is one row of x ("clip" gathers unbuffered)
                rows, roles = np.unique(np.r_[aj, pj + offset, nj + offset], return_inverse=True)
                x = np.take(frames, rows, axis=0, out=buffers["x"][:rows.size], mode="clip")
                sgd.step(*_triplet_grad(model, x, roles, config.margin, buffers))
        sgd.end_epoch()
        if epoch >= config.max_epochs - averaged:
            theta_sum += model.theta

    model.theta[...] = theta_sum / averaged
    return model, sgd.log
