"""Recurrent transition model over embedded frames.

A single gated recurrent (LSTM) layer consumes a short context of embedded
frames; an affine head maps the final hidden state back to embedding
dimension. Trained as plain euclidean regression onto the next frame's
embedding, it supports next-frame prediction, recursive activity synthesis
with nearest-neighbor decoding, and on-sphere feature interpolation.

The predictor computes in its parameter vector's dtype: float32 as
:func:`init_predictor` builds it, float64 for any other vector given (the
finite-difference checks run that kernel). Predictions come back float64.
"""

from __future__ import annotations

import logging
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
    nearest_rows,
)
from .embed import EmbeddingModel, embed_batch

logger = logging.getLogger(__name__)


def _sigmoid_(z: np.ndarray) -> None:
    """Logistic in place, by the ops of ``1 / (1 + exp(-z))`` and so with their bits."""
    np.multiply(z, -1.0, out=z)  # exact; numpy 2.4's in-place negative is wrong on strided float32
    np.exp(z, out=z)
    np.add(z, 1.0, out=z)
    np.divide(1.0, z, out=z)


@dataclass(frozen=True)
class RecurrentPredictor:
    """Gated recurrent cell plus affine head; hidden dim must exceed embed dim.

    ``theta`` is the one parameter vector, ``Wx Wh b Wy by`` concatenated
    row-major; the named blocks are views of it. Gate blocks are stored side
    by side in the (.., 4m) matrices in the order input, forget, candidate,
    output. A float32 ``theta`` stays float32; any other becomes float64.
    """

    theta: np.ndarray
    embed_dim: int   # d
    hidden_dim: int  # m
    context_len: int  # l
    Wx: np.ndarray = field(init=False, repr=False)  # (d, 4m)
    Wh: np.ndarray = field(init=False, repr=False)  # (m, 4m)
    b: np.ndarray = field(init=False, repr=False)   # (4m,)
    Wy: np.ndarray = field(init=False, repr=False)  # (m, d)
    by: np.ndarray = field(init=False, repr=False)  # (d,)

    def __post_init__(self):
        d, m = self.embed_dim, self.hidden_dim
        if d < 1:
            raise ConfigError(f"embed dim must be >= 1, got {d}")
        if m <= d:
            raise ConfigError(f"hidden dim {m} must exceed embed dim {d}")
        if self.context_len < 1:
            raise ConfigError("context_len must be >= 1")
        theta = np.asarray(self.theta)
        theta = theta.astype(np.float32 if theta.dtype == np.float32 else np.float64)  # a copy
        object.__setattr__(self, "theta", theta)
        for name, view in self.blocks(theta).items():
            object.__setattr__(self, name, view)
        if not np.isfinite(theta).all():
            raise DegenerateInputError("parameter vector contains non-finite entries")

    def blocks(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of ``vec``, which has the layout of ``theta`` (e.g. a gradient)."""
        d, m = self.embed_dim, self.hidden_dim
        return block_views(vec, Wx=(d, 4 * m), Wh=(m, 4 * m), b=(4 * m,), Wy=(m, d), by=(d,))


def init_predictor(embed_dim: int, hidden_dim: int, context_len: int,
                   rng: RngState) -> RecurrentPredictor:
    """Scaled-uniform float32 weights, zero biases except a unit forget-gate bias.

    Gains assume unit-NORM input vectors (per-coordinate scale 1/sqrt(d), as
    produced by the normalized embedding): the input block is boosted so gate
    pre-activations reach O(1), the output head is shrunk to match unit-norm
    targets. With plain 1/sqrt(fan-in) scales the cell starts so quiet that
    gradient descent cannot even reach the copy-last-frame baseline.
    """
    g = rng.gen
    d, m = embed_dim, hidden_dim
    sx = 6.0 / math.sqrt(d)
    sh = 2.0 / math.sqrt(m)
    sy = 0.3 / math.sqrt(m)
    pred = RecurrentPredictor(np.zeros(4 * m * (d + m + 1) + (m + 1) * d, np.float32),
                              d, m, context_len)
    pred.Wx[...] = g.uniform(-sx, sx, size=(d, 4 * m))
    pred.Wh[...] = g.uniform(-sh, sh, size=(m, 4 * m))
    pred.b[m:2 * m] = 1.0
    pred.Wy[...] = g.uniform(-sy, sy, size=(m, d))
    return pred


def _cell_forward(pred: RecurrentPredictor, x: np.ndarray):
    """Run the cell over (B, l, d) inputs, cast to ``theta``'s dtype, from a zero
    state; returns ``(y, cache)``, both in that dtype.

    ``y`` is the head output, (B, d). The cell is gate-major: step t's
    pre-activation (Wxᵀ·x_tᵀ + Whᵀ·h_{t-1}) + b is a (4m, B) block, so each
    gate i, f, g, o is a contiguous (m, B) block. The BPTT cache is
    ``(X, Z, CT, H)``: X the inputs as (l, B, d); Z the gate activations as
    (l, 4m, B), written over their pre-activations; C and tanh(C) as one
    (2, l, m, B) block CT; H as (m, l, B), so the hidden states of any run of
    steps are one GEMM operand. There is no Whᵀ·h at t = 0 (h0 = 0, and
    (a + 0) + b == a + b bit for bit).
    """
    m = pred.hidden_dim
    X = np.ascontiguousarray(x.transpose(1, 0, 2), dtype=pred.theta.dtype)
    steps, batch, _ = X.shape
    Z = np.matmul(pred.Wx.T, X.transpose(0, 2, 1))  # every step's Wxᵀ·x_tᵀ
    C, TC = CT = np.empty((2, steps, m, batch), Z.dtype)  # one block: the backward's scratch
    H = np.empty((m, steps, batch), Z.dtype)
    for t in range(steps):
        z = Z[t]
        if t:
            z += pred.Wh.T @ H[:, t - 1]
        z += pred.b[:, None]
        _sigmoid_(z[:2 * m])
        np.tanh(z[2 * m:3 * m], out=z[2 * m:3 * m])
        _sigmoid_(z[3 * m:])
        i, f, g, o = np.split(z, 4)
        np.add(f * (C[t - 1] if t else 0.0), i * g, out=C[t])
        np.tanh(C[t], out=TC[t])
        np.multiply(o, TC[t], out=H[:, t])
    return H[:, -1].T @ pred.Wy + pred.by, (X, Z, CT, H)


def _cell_backward(pred: RecurrentPredictor, cache, d_y: np.ndarray,
                   grad: np.ndarray) -> np.ndarray:
    """Backpropagate ``d_y`` = dL/dy through the cached cell into ``grad``.

    ``cache`` is :func:`_cell_forward`'s gate-major ``(X, Z, CT, H)`` and is
    consumed: the (l, 4m, B) gate gradients dZ go over Z step by step, each
    gate's after the last read of its activation, the forget gate's with 0
    at t = 0 (c0 = 0) and no Wh·dz past it. Then, two gates at a time, dZ is
    copied into the dead CT as (2m, l·B), and dWx = Xᵀ·dZᵀ over l·B rows,
    dWh = H[:, :-1]·dZ[1:]ᵀ over (l-1)·B rows (h0 = 0) and db = ΣdZ overwrite
    those gates' columns of ``grad``, which has the layout of ``theta``.
    """
    X, dZ, (C, TC), H = cache
    m = pred.hidden_dim
    steps, _, batch = dZ.shape
    grads = pred.blocks(grad)
    np.matmul(H[:, -1], d_y, out=grads["Wy"])
    d_y.sum(axis=0, out=grads["by"])
    dh = pred.Wy @ d_y.T
    dc = np.zeros_like(dh)
    for t in reversed(range(steps)):
        i, f, g, o = np.split(dZ[t], 4)  # the activations, until overwritten
        dc += dh * o * (1.0 - TC[t] * TC[t])
        np.multiply(dh * TC[t] * o, 1.0 - o, out=o)
        di = dc * g * i
        np.multiply(dc * i, 1.0 - g * g, out=g)
        np.multiply(di, 1.0 - i, out=i)
        dc_next = dc * f  # f's last read: df goes over it
        np.multiply(dc * (C[t - 1] if t else 0.0) * f, 1.0 - f, out=f)
        dc = dc_next
        if t:
            np.matmul(pred.Wh, dZ[t], out=dh)
    gates = cache[2].reshape(2 * m, -1)  # (2m, l·B), time-major columns; CT is spent
    for k in (0, 2 * m):
        np.copyto(gates.reshape(2 * m, steps, batch), dZ[:, k:k + 2 * m].transpose(1, 0, 2))
        np.matmul(X.reshape(steps * batch, -1).T, gates.T, out=grads["Wx"][:, k:k + 2 * m])
        np.matmul(H[:, :-1].reshape(m, -1), gates[:, batch:].T, out=grads["Wh"][:, k:k + 2 * m])
        gates.sum(axis=1, out=grads["b"][k:k + 2 * m])
    return grad


def _checked_contexts(pred: RecurrentPredictor, contexts) -> np.ndarray:
    """``contexts`` as a (B, l >= 1, d) array, still in its own dtype (the cell
    casts each block it runs); any other shape is an error."""
    contexts = np.asarray(contexts)
    if contexts.ndim != 3 or contexts.shape[1] < 1 or contexts.shape[2] != pred.embed_dim:
        raise DimensionError(f"contexts must be (B, l >= 1, {pred.embed_dim}), "
                             f"got shape {contexts.shape}")
    return contexts


_FORWARD_BLOCK = 64  # contexts per cell run in a forward-only call


def rnn_forward_batch(pred: RecurrentPredictor, contexts: np.ndarray) -> np.ndarray:
    """Predict the next embedding for each of a (B, l, d) stack of contexts.

    Each context runs through the gated cell from a zero initial state; the
    head outputs, (B, d), are returned as-is (not re-normalized). B may be 0;
    l must be at least 1. The cell runs over blocks of at most
    ``_FORWARD_BLOCK`` contexts and keeps only their outputs, so its working
    memory is bounded by the block, not by B.
    """
    contexts = _checked_contexts(pred, contexts)
    y = np.empty((len(contexts), pred.embed_dim))
    for start in range(0, len(contexts), _FORWARD_BLOCK):
        y[start:start + _FORWARD_BLOCK] = _cell_forward(
            pred, contexts[start:start + _FORWARD_BLOCK])[0]
    return y


@np.errstate(over="ignore", invalid="ignore")
def batch_loss_and_grad(pred: RecurrentPredictor, contexts: np.ndarray,
                        targets: np.ndarray,
                        out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean squared-error over a (B, l, d) context batch, with exact BPTT gradient.

    Needs B >= 1, l >= 1 and (B, d) targets. Returns ``(loss, grad)``;
    ``grad`` has the layout and dtype of ``pred.theta`` and is ``out`` when
    given (every entry overwritten), else a new array.
    """
    contexts = _checked_contexts(pred, contexts)
    targets = np.asarray(targets, dtype=pred.theta.dtype)
    batch = contexts.shape[0]
    if batch < 1 or targets.shape != (batch, pred.embed_dim):
        raise DimensionError(f"need B >= 1 contexts and ({batch}, {pred.embed_dim}) "
                             f"targets, got shapes {contexts.shape} and {targets.shape}")
    y, cache = _cell_forward(pred, contexts)
    resid = y - targets
    loss = float(np.sum(resid * resid) / batch)
    d_y = 2.0 * resid / batch
    return loss, _cell_backward(pred, cache, d_y,
                                np.empty_like(pred.theta) if out is None else out)


@dataclass(frozen=True)
class PredictorConfig:
    hidden_dim: int = 512
    learning_rate: float = 0.03
    momentum: float = 0.9
    max_epochs: int = 40
    batch_size: int = 128

    def __post_init__(self):
        for name in ("hidden_dim", "max_epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"predictor {name} must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("predictor learning_rate must be > 0")
        if not 0 <= self.momentum < 1:
            raise ConfigError("predictor momentum must lie in [0, 1)")


def transition_pairs(embedded, context_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (context, next frame) pair of each embedded sequence, in input order.

    Context t of a sequence holds its frames t .. t+l-1 and its target is
    frame t+l, so a sequence of n > l frames gives n - l pairs in time order
    and a shorter one none. Returns ``(windows, first)``: ``windows`` is an
    (N - l, l + 1, d) read-only view of every run of l + 1 consecutive rows
    of the N frames of those sequences concatenated, and pair k is
    ``windows[first[k]]``, its context ``[:l]`` and its target ``[l]``. No
    pair at all is a ConfigError.
    """
    long = [e for e in embedded if len(e) > context_len]
    if not long:
        raise ConfigError("no sequence is longer than the context length")
    first = np.flatnonzero(np.concatenate(  # the rows with l more of their sequence after them
        [np.arange(len(e)) < len(e) - context_len for e in long]))
    return (np.lib.stride_tricks.sliding_window_view(np.concatenate(long), context_len + 1,
                                                     axis=0).transpose(0, 2, 1), first)


def train_predictor(dataset: Dataset, model: EmbeddingModel, context_len: int,
                    config: PredictorConfig,
                    rng: RngState) -> tuple[RecurrentPredictor, TrainLog]:
    """Fit the recurrent predictor on all (context, next frame) pairs.

    Every sequence longer than ``context_len`` contributes one training pair
    per valid window; the frozen embedding supplies the features, cast once to
    the predictor's float32. Batches interleave pairs round-robin across
    source sequences so no sequence dominates an update. Sequences too short
    for a single window are skipped with a warning; if everything is skipped
    the dataset is unusable. Runs ``max_epochs`` epochs; divergence raises
    :class:`DivergenceError`.
    """
    pred = init_predictor(model.embed_dim, config.hidden_dim, context_len, rng.split(0))
    for s in dataset:
        if len(s) <= context_len:
            logger.warning("sequence %r has %d frames, needs > %d; skipped",
                           s.id, len(s), context_len)

    # Each sequence's pairs form one block, blocks in sorted-id order. An
    # epoch permutes within every block, then takes rank 0 of each block,
    # rank 1 of each, and so on: the stable sort of the ranks.
    long = sorted((s for s in dataset if len(s) > context_len), key=lambda s: s.id)
    sizes = [len(s) - context_len for s in long]
    windows, first = transition_pairs(
        [embed_batch(model, s.frames).astype(pred.theta.dtype) for s in long], context_len)
    starts = first[np.cumsum(sizes) - sizes]  # each block's first window
    round_robin = np.argsort(np.concatenate([np.arange(n) for n in sizes]), kind="stable")

    sgd = MomentumSGD(pred.theta, config.learning_rate, config.momentum, "predictor")
    grad = np.empty_like(pred.theta)  # every batch overwrites all of it
    g = rng.gen

    for _ in range(config.max_epochs):
        order = np.concatenate([s + g.permutation(n)
                                for s, n in zip(starts, sizes)])[round_robin]
        for start in range(0, len(order), config.batch_size):
            pairs = windows[order[start:start + config.batch_size]]
            loss, _ = batch_loss_and_grad(pred, pairs[:, :-1], pairs[:, -1], grad)
            sgd.step(loss, grad)
        sgd.end_epoch()

    return pred, sgd.log


def synthesize(pred: RecurrentPredictor, model: EmbeddingModel, seed_frames,
               steps: int, codebook: Dataset) -> list[tuple[str, int]]:
    """Recursively predict embeddings and decode each by nearest codebook frame.

    A prediction decodes to its :func:`~seqrep.core.nearest_rows` row of the
    embedded codebook, whose squared row norms are taken once per rollout, not
    at every step. The decoded frame's own embedding (not the raw
    prediction) is fed back into the context, which keeps the rollout on the
    embedding manifold. Returns the decoded (sequence id, frame index) trail,
    one per step.
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    refs = [(s.id, i) for s in codebook for i in range(len(s))]
    cb_emb = np.concatenate([embed_batch(model, s.frames) for s in codebook], axis=0)
    cb_sq = np.sum(cb_emb * cb_emb, axis=1)  # unit rows: no overflow

    seed = as_frames(seed_frames, "seed_frames")
    if seed.shape[0] != pred.context_len:
        raise ConfigError(f"expected exactly {pred.context_len} seed frames, got {seed.shape[0]}")
    ctx = embed_batch(model, seed)
    trail = []
    for _ in range(steps):
        j = int(nearest_rows(rnn_forward_batch(pred, ctx[None]), cb_emb, cb_sq)[0])
        trail.append(refs[j])
        ctx = np.concatenate([ctx[1:], cb_emb[j][None, :]], axis=0)
    return trail


def interpolate_features(a, b, num_steps: int) -> list[np.ndarray]:
    """Evenly spaced chord interpolants between two embeddings, re-normalized.

    Returns unit-norm vectors at fractions i / (num_steps + 1) for
    i = 1..num_steps, each divided by its norm as ``np.linalg.norm`` takes it.
    A vanishing (antipodal endpoints) or non-finite one is degenerate input.
    """
    if num_steps < 1:
        raise ConfigError("num_steps must be >= 1")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError(f"endpoints must be 1-D of one dimension, got {a.shape}, {b.shape}")
    out = []
    for alpha in np.arange(1, num_steps + 1) / (num_steps + 1):
        v = (1.0 - alpha) * a + alpha * b
        norm = math.sqrt(v @ v)
        if not 1e-12 <= norm < math.inf:
            raise DegenerateInputError(f"an interpolant has norm {norm}")
        out.append(v / norm)
    return out
