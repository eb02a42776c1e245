"""Recurrent transition model over embedded frames.

A single gated recurrent (LSTM) layer consumes a short context of embedded
frames; an affine head maps the final hidden state back to embedding
dimension. Trained as plain euclidean regression onto the next frame's
embedding, it supports next-frame prediction, recursive activity synthesis
with nearest-neighbor decoding, and on-sphere feature interpolation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigError,
    DimensionError,
    Dataset,
    MomentumSGD,
    RngState,
    Sequence,
    as_frames,
    as_vector,
    block_views,
    l2_normalize,
)
from .embed import EmbeddingModel, embed_batch

logger = logging.getLogger(__name__)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class RecurrentPredictor:
    """Gated recurrent cell plus affine head; hidden dim must exceed embed dim.

    ``theta`` is the one parameter vector, ``Wx Wh b Wy by`` concatenated
    row-major; the named blocks are views of it. Gate blocks are stored side
    by side in the (.., 4m) matrices in the order input, forget, candidate,
    output.
    """

    theta: np.ndarray
    embed_dim: int   # d
    hidden_dim: int  # m
    context_len: int = 4
    Wx: np.ndarray = field(init=False, repr=False)  # (d, 4m)
    Wh: np.ndarray = field(init=False, repr=False)  # (m, 4m)
    b: np.ndarray = field(init=False, repr=False)   # (4m,)
    Wy: np.ndarray = field(init=False, repr=False)  # (m, d)
    by: np.ndarray = field(init=False, repr=False)  # (d,)

    def __post_init__(self):
        d, m = self.embed_dim, self.hidden_dim
        if m <= d:
            raise ConfigError(f"hidden dim {m} must exceed embed dim {d}")
        if self.context_len < 1:
            raise ConfigError("context_len must be >= 1")
        object.__setattr__(self, "theta", as_vector(self.theta, "parameter vector").copy())
        for name, view in self.blocks(self.theta).items():
            object.__setattr__(self, name, view)

    def blocks(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of ``vec``, which has the layout of ``theta`` (e.g. a gradient)."""
        d, m = self.embed_dim, self.hidden_dim
        return block_views(vec, Wx=(d, 4 * m), Wh=(m, 4 * m), b=(4 * m,), Wy=(m, d), by=(d,))


def init_predictor(embed_dim: int, hidden_dim: int = 512, context_len: int = 4,
                   rng: RngState | None = None) -> RecurrentPredictor:
    """Scaled-uniform weights, zero biases except a unit forget-gate bias.

    Gains assume unit-NORM input vectors (per-coordinate scale 1/sqrt(d), as
    produced by the normalized embedding): the input block is boosted so gate
    pre-activations reach O(1), the output head is shrunk to match unit-norm
    targets. With plain 1/sqrt(fan-in) scales the cell starts so quiet that
    gradient descent cannot even reach the copy-last-frame baseline.
    """
    if rng is None:
        rng = RngState(0)
    g = rng.gen
    d, m = embed_dim, hidden_dim
    sx = 6.0 / math.sqrt(d)
    sh = 2.0 / math.sqrt(m)
    sy = 0.3 / math.sqrt(m)
    b = np.zeros(4 * m)
    b[m:2 * m] = 1.0
    theta = np.concatenate([
        g.uniform(-sx, sx, size=d * 4 * m),
        g.uniform(-sh, sh, size=m * 4 * m),
        b,
        g.uniform(-sy, sy, size=m * d),
        np.zeros(d),
    ])
    return RecurrentPredictor(theta, d, m, context_len)


def _cell_forward(pred: RecurrentPredictor, x: np.ndarray):
    """Run the cell over (B, l, d) inputs; returns outputs and BPTT cache."""
    m = pred.hidden_dim
    h = c = np.zeros((x.shape[0], m))  # both are rebound, never written in place
    cache = []
    for t in range(x.shape[1]):
        z = x[:, t] @ pred.Wx
        if t:  # h0 = 0, and (a + 0) + b == a + b bit for bit
            z += h @ pred.Wh
        z += pred.b
        i = _sigmoid(z[:, :m])
        f = _sigmoid(z[:, m:2 * m])
        g = np.tanh(z[:, 2 * m:3 * m])
        o = _sigmoid(z[:, 3 * m:])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        cache.append((x[:, t], h, c, i, f, g, o, tc))
        h = o * tc
        c = c_new
    y = h @ pred.Wy + pred.by
    return y, h, cache


def _cell_backward(pred: RecurrentPredictor, cache, h_last: np.ndarray,
                   d_y: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(pred.theta)
    grads = pred.blocks(grad)
    grads["Wy"][...] = h_last.T @ d_y
    grads["by"][...] = d_y.sum(axis=0)
    dh = d_y @ pred.Wy.T
    dc = np.zeros_like(dh)
    for x_t, h_prev, c_prev, i, f, g, o, tc in reversed(cache):
        dc = dc + dh * o * (1.0 - tc * tc)
        do = dh * tc
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = np.concatenate(
            [di * i * (1 - i), df * f * (1 - f), dg * (1 - g * g), do * o * (1 - o)],
            axis=1,
        )
        grads["Wx"] += x_t.T @ dz
        grads["Wh"] += h_prev.T @ dz
        grads["b"] += dz.sum(axis=0)
        dh = dz @ pred.Wh.T
        dc = dc * f
    return grad


def rnn_forward_batch(pred: RecurrentPredictor, contexts: np.ndarray) -> np.ndarray:
    """Predict the next embedding for each of a (B, l, d) stack of contexts.

    Each context runs through the gated cell from a zero initial state; the
    head outputs, (B, d), are returned as-is (not re-normalized).
    """
    contexts = np.asarray(contexts, dtype=np.float64)
    if contexts.ndim != 3 or contexts.shape[2] != pred.embed_dim:
        raise DimensionError(f"contexts must be (B, l, {pred.embed_dim})")
    y, _, _ = _cell_forward(pred, contexts)
    return y


def batch_loss_and_grad(pred: RecurrentPredictor, contexts: np.ndarray,
                        targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared-error over a (B, l, d) context batch, with exact BPTT gradient.

    Returns ``(loss, grads)``; ``grads`` has the layout of ``pred.theta``.
    """
    if contexts.ndim != 3 or targets.ndim != 2:
        raise DimensionError("contexts must be (B, l, d) and targets (B, d)")
    batch = contexts.shape[0]
    y, h_last, cache = _cell_forward(pred, contexts)
    resid = y - targets
    loss = float(np.sum(resid * resid) / batch)
    d_y = 2.0 * resid / batch
    return loss, _cell_backward(pred, cache, h_last, d_y)


@dataclass(frozen=True)
class PredictorConfig:
    hidden_dim: int = 512
    learning_rate: float = 0.02
    momentum: float = 0.9
    max_epochs: int = 20
    batch_size: int = 128

    def __post_init__(self):
        for name in ("hidden_dim", "max_epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"predictor {name} must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("predictor learning_rate must be > 0")
        if not 0 <= self.momentum < 1:
            raise ConfigError("predictor momentum must lie in [0, 1)")


@dataclass
class PredictorLog:
    epoch_loss: list[float] = field(default_factory=list)
    epoch_param_delta: list[float] = field(default_factory=list)
    skipped_sequences: list[str] = field(default_factory=list)


def _windows(emb: np.ndarray, context_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (context, next frame) pair of one embedded sequence, in time order.

    Needs ``len(emb) > context_len``. Returns ``(contexts, targets)`` of
    shapes (w, l, d) and (w, d) with w = len(emb) - l: context t holds
    frames t .. t+l-1 and its target is frame t+l. ``contexts`` is a
    read-only strided view of ``emb``.
    """
    contexts = np.lib.stride_tricks.sliding_window_view(emb[:-1], context_len, axis=0)
    return contexts.transpose(0, 2, 1), emb[context_len:]


def train_predictor(dataset: Dataset, model: EmbeddingModel, context_len: int = 4,
                    config: PredictorConfig | None = None,
                    rng: RngState | None = None) -> tuple[RecurrentPredictor, PredictorLog]:
    """Fit the recurrent predictor on all (context, next frame) pairs.

    Every sequence longer than ``context_len`` contributes one training pair
    per valid window; the frozen embedding supplies the features. Batches
    interleave pairs round-robin across source sequences so no sequence
    dominates an update. Sequences too short for a single window are skipped
    with a warning; if everything is skipped the dataset is unusable. Runs
    ``max_epochs`` epochs; divergence raises :class:`DivergenceError`.
    """
    if config is None:
        config = PredictorConfig()
    if rng is None:
        rng = RngState(0)
    if context_len < 1:
        raise ConfigError("context_len must be >= 1")

    log = PredictorLog()
    embedded = {}
    for s in dataset:
        if len(s) <= context_len:
            logger.warning("sequence %r has %d frames, needs > %d; skipped",
                           s.id, len(s), context_len)
            log.skipped_sequences.append(s.id)
            continue
        embedded[s.id] = embed_batch(model, s.frames)
    if not embedded:
        raise ConfigError("no sequence is longer than the context length")

    # Each sequence's pairs form one block, blocks in sorted-id order. An
    # epoch permutes within every block, then takes rank 0 of each block,
    # rank 1 of each, and so on: the stable sort of the ranks.
    windows = [_windows(embedded[sid], context_len) for sid in sorted(embedded)]
    contexts = np.concatenate([c for c, _ in windows])
    targets = np.concatenate([t for _, t in windows])
    sizes = [len(t) for _, t in windows]
    starts = np.cumsum(sizes) - sizes
    round_robin = np.argsort(np.concatenate([np.arange(n) for n in sizes]), kind="stable")

    pred = init_predictor(model.embed_dim, config.hidden_dim, context_len,
                          rng.split(0))
    sgd = MomentumSGD(pred.theta, config.learning_rate, config.momentum, "predictor")
    g = rng.gen

    for _ in range(config.max_epochs):
        order = np.concatenate([first + g.permutation(n)
                                for first, n in zip(starts, sizes)])[round_robin]
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            loss, grads = batch_loss_and_grad(pred, contexts[batch], targets[batch])
            sgd.step(loss, grads)
            losses.append(loss)
        log.epoch_loss.append(float(np.mean(losses)))
        log.epoch_param_delta.append(sgd.end_epoch())

    return pred, log


def _embed_context(pred: RecurrentPredictor, model: EmbeddingModel, frames,
                   name: str) -> np.ndarray:
    """Embed exactly ``pred.context_len`` raw frames; ``name`` labels them in errors."""
    x = as_frames(frames, name)
    if x.shape[0] != pred.context_len:
        raise ConfigError(f"expected exactly {pred.context_len} "
                          f"{name.replace('_', ' ')}, got {x.shape[0]}")
    return embed_batch(model, x)


def predict_next(pred: RecurrentPredictor, model: EmbeddingModel, frames) -> np.ndarray:
    """Embed the last ``context_len`` raw frames and predict the next embedding."""
    return rnn_forward_batch(pred, _embed_context(pred, model, frames, "frames")[None])[0]


def synthesize(pred: RecurrentPredictor, model: EmbeddingModel, seed_frames,
               steps: int, codebook: Dataset | list[Sequence]) -> list[tuple[str, int]]:
    """Recursively predict embeddings and decode each by nearest codebook frame.

    The decoded frame's own embedding (not the raw prediction) is fed back
    into the context, which keeps the rollout on the embedding manifold.
    Returns the decoded (sequence id, frame index) trail, one per step.
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    seqs = list(codebook.sequences) if isinstance(codebook, Dataset) else list(codebook)
    if not seqs:
        raise ConfigError("codebook is empty")
    refs = [(s.id, i) for s in seqs for i in range(len(s))]
    cb_emb = np.concatenate([embed_batch(model, s.frames) for s in seqs], axis=0)

    ctx = _embed_context(pred, model, seed_frames, "seed_frames")
    trail = []
    for _ in range(steps):
        guess = rnn_forward_batch(pred, ctx[None])[0]
        diff = cb_emb - guess
        j = int(np.argmin(np.sum(diff * diff, axis=1)))
        trail.append(refs[j])
        ctx = np.concatenate([ctx[1:], cb_emb[j][None, :]], axis=0)
    return trail


def interpolate_features(a, b, num_steps: int) -> list[np.ndarray]:
    """Evenly spaced chord interpolants between two embeddings, re-normalized.

    Returns unit-norm vectors at fractions i / (num_steps + 1) for
    i = 1..num_steps. Antipodal endpoints make the interpolant vanish.
    """
    if num_steps < 1:
        raise ConfigError("num_steps must be >= 1")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError("endpoints must share one dimension")
    out = []
    for i in range(1, num_steps + 1):
        alpha = i / (num_steps + 1)
        out.append(l2_normalize((1.0 - alpha) * a + alpha * b))
    return out
