"""On-disk formats: the SeqPack dataset layout and binary model containers.

A SeqPack is a directory holding ``manifest.json`` plus one raw payload file
per sequence (32-bit little-endian floats, row-major frames x dim), with an
optional latent payload per sequence. Models and predictors live in a
single-file container: magic, version, kind, dims, then the parameter
blocks as 64-bit little-endian floats, closed by a SHA-256 checksum over
everything before it.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .core import Dataset, FormatError, Sequence, write_file
from .embed import EmbeddingModel
from .dynamics import RecurrentPredictor

MANIFEST_NAME = "manifest.json"
SEQPACK_VERSION = 1

_MAGIC = b"SQRP"
_CONTAINER_VERSION = 1
_KIND_EMBEDDING = 1
_KIND_PREDICTOR = 2


def _check_payload(values: np.ndarray, path: Path):
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FormatError(
            f"{path}: non-finite value at byte offset {int(bad[0]) * 4}"
        )


def _read_payload(path: Path, rows: int, dim: int) -> np.ndarray:
    if not path.is_file():
        raise FileNotFoundError(f"missing payload file {path}")
    expected = 4 * rows * dim
    actual = path.stat().st_size
    if actual != expected:
        raise FormatError(
            f"{path}: payload is {actual} bytes, manifest implies {expected} "
            f"({rows} frames x {dim})"
        )
    flat = np.frombuffer(path.read_bytes(), dtype="<f4")
    _check_payload(flat, path)
    return flat.astype(np.float64).reshape(rows, dim)


def _write_payload(path: Path, values: np.ndarray):
    arr = np.ascontiguousarray(values, dtype="<f4")
    _check_payload(arr.ravel(), path)
    write_file(path, arr.tobytes())


def write_seqpack(dataset: Dataset, path) -> Path:
    """Write a dataset as a SeqPack directory; returns the manifest path."""
    root = Path(path)
    q = dataset.latent_dimension
    records = []
    for s in dataset:
        data_name = f"{s.id}.f32"
        _write_payload(root / data_name, s.frames)
        latent_name = None
        if q and s.latent is not None:
            latent_name = f"{s.id}.lat.f32"
            _write_payload(root / latent_name, s.latent)
        records.append({
            "id": s.id,
            "frames": len(s),
            "data": data_name,
            "latent": latent_name,
        })
    manifest = {
        "format": "seqpack",
        "version": SEQPACK_VERSION,
        "feature_dim": dataset.dimension,
        "latent_dim": q,
        "sequences": records,
    }
    return write_file(root / MANIFEST_NAME,
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_seqpack(path) -> Dataset:
    """Load a SeqPack directory, validating sizes and rejecting non-finite payloads."""
    root = Path(path)
    mpath = root / MANIFEST_NAME
    if not mpath.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} under {root}")
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{mpath}: invalid JSON ({exc})") from exc
    if manifest.get("format") != "seqpack":
        raise FormatError(f"{mpath}: not a seqpack manifest")
    if manifest.get("version") != SEQPACK_VERSION:
        raise FormatError(f"{mpath}: unsupported version {manifest.get('version')}")
    f = int(manifest["feature_dim"])
    q = int(manifest.get("latent_dim", 0))

    sequences = []
    for rec in manifest["sequences"]:
        frames = _read_payload(root / rec["data"], int(rec["frames"]), f)
        latent = None
        if rec.get("latent"):
            if q <= 0:
                raise FormatError(f"{mpath}: latent file given but latent_dim is 0")
            latent = _read_payload(root / rec["latent"], int(rec["frames"]), q)
        sequences.append(Sequence(id=rec["id"], frames=frames, latent=latent))
    return Dataset(dimension=f, sequences=tuple(sequences))


def _write_container(path: Path, kind: int, dims: tuple[int, ...], extra: int,
                     arrays: list[np.ndarray]):
    head = bytearray()
    head += _MAGIC
    head += struct.pack("<III", _CONTAINER_VERSION, kind, len(dims))
    head += struct.pack(f"<{len(dims)}I", *dims)
    head += struct.pack("<I", extra)
    for arr in arrays:
        head += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    digest = hashlib.sha256(bytes(head)).digest()
    write_file(path, bytes(head) + digest)


def _read_container(path: Path, expect_kind: int):
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing model file {path}")
    blob = path.read_bytes()
    if len(blob) < 4 + 12 + 32 or blob[:4] != _MAGIC:
        raise FormatError(f"{path}: not a model container")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise FormatError(f"{path}: checksum mismatch, file corrupted")
    version, kind, ndims = struct.unpack_from("<III", body, 4)
    if version != _CONTAINER_VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    if kind != expect_kind:
        raise FormatError(f"{path}: container holds kind {kind}, expected {expect_kind}")
    off = 16
    dims = struct.unpack_from(f"<{ndims}I", body, off)
    off += 4 * ndims
    (extra,) = struct.unpack_from("<I", body, off)
    off += 4
    payload = np.frombuffer(body, dtype="<f8", offset=off).astype(np.float64)
    return dims, extra, payload


def _take(payload: np.ndarray, cursor: int, shape: tuple[int, ...]):
    size = int(np.prod(shape))
    block = payload[cursor:cursor + size]
    if block.size != size:
        raise FormatError("container payload shorter than its declared dims")
    return block.reshape(shape), cursor + size


def save_model(model: EmbeddingModel, path) -> None:
    _write_container(
        Path(path), _KIND_EMBEDDING,
        (model.input_dim, model.hidden_dim, model.embed_dim), 0,
        [model.W1, model.b1, model.W2, model.b2],
    )


def load_model(path) -> EmbeddingModel:
    dims, _, payload = _read_container(Path(path), _KIND_EMBEDDING)
    f, h, d = (int(v) for v in dims)
    cur = 0
    w1, cur = _take(payload, cur, (f, h))
    b1, cur = _take(payload, cur, (h,))
    w2, cur = _take(payload, cur, (h, d))
    b2, cur = _take(payload, cur, (d,))
    if cur != payload.size:
        raise FormatError("container payload longer than its declared dims")
    return EmbeddingModel(W1=w1, b1=b1, W2=w2, b2=b2)


def save_predictor(pred: RecurrentPredictor, path) -> None:
    _write_container(
        Path(path), _KIND_PREDICTOR,
        (pred.embed_dim, pred.hidden_dim), pred.context_len,
        [pred.Wx, pred.Wh, pred.b, pred.Wy, pred.by],
    )


def load_predictor(path) -> RecurrentPredictor:
    dims, extra, payload = _read_container(Path(path), _KIND_PREDICTOR)
    d, m = (int(v) for v in dims)
    cur = 0
    wx, cur = _take(payload, cur, (d, 4 * m))
    wh, cur = _take(payload, cur, (m, 4 * m))
    b, cur = _take(payload, cur, (4 * m,))
    wy, cur = _take(payload, cur, (m, d))
    by, cur = _take(payload, cur, (d,))
    if cur != payload.size:
        raise FormatError("container payload longer than its declared dims")
    return RecurrentPredictor(Wx=wx, Wh=wh, b=b, Wy=wy, by=by,
                              context_len=int(extra))
