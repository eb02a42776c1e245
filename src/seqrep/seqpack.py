"""On-disk formats: the SeqPack dataset layout and binary model containers.

A SeqPack is a directory holding ``manifest.json`` plus one raw payload file
per sequence (32-bit little-endian floats, row-major frames x dim), with an
optional latent payload per sequence. Models and predictors live in a
single-file container: magic, version, kind, dims, the parameters' byte
width, then the parameter blocks as little-endian floats of that width
(the model's own dtype), closed by a SHA-256 checksum over everything
before it.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    Dataset,
    DegenerateInputError,
    DimensionError,
    FormatError,
    MAX_ID_LEN,
    Sequence,
    is_safe_name,
    write_file,
)
from .embed import EmbeddingModel
from .dynamics import RecurrentPredictor

MANIFEST_NAME = "manifest.json"
SEQPACK_VERSION = 1
# payloads are named after their sequence id plus one of these suffixes
_DATA_SUFFIX = ".f32"
_LATENT_SUFFIX = ".lat.f32"
_MAX_PAYLOAD_NAME = MAX_ID_LEN + len(_LATENT_SUFFIX)

_MAGIC = b"SQRP"
_CONTAINER_VERSION = 2
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
    # the one width of the latents present (a Dataset enforces it), 0 when none is
    q = next((s.latent.shape[1] for s in dataset if s.latent is not None), 0)
    records = []
    for s in dataset:
        data_name = s.id + _DATA_SUFFIX
        _write_payload(root / data_name, s.frames)
        latent_name = None
        if s.latent is not None:
            latent_name = s.id + _LATENT_SUFFIX
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


def _count(value, key: str, low: int) -> int:
    """A manifest count: a JSON integer >= ``low``; booleans and floats are not."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def read_seqpack(path) -> Dataset:
    """Load a SeqPack directory, validating sizes and rejecting non-finite payloads."""
    root = Path(path)
    mpath = root / MANIFEST_NAME
    if not mpath.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} under {root}")
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise FormatError(f"{mpath}: not UTF-8 JSON ({exc})") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != "seqpack":
        raise FormatError(f"{mpath}: not a seqpack manifest")
    if manifest.get("version") != SEQPACK_VERSION:
        raise FormatError(f"{mpath}: unsupported version {manifest.get('version')}")
    try:
        f = _count(manifest["feature_dim"], "feature_dim", 1)
        q = _count(manifest.get("latent_dim", 0), "latent_dim", 0)
        records = [(rec["id"], rec["data"], _count(rec["frames"], "frames", 1), rec.get("latent"))
                   for rec in manifest["sequences"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{mpath}: malformed manifest ({type(exc).__name__}: {exc})") from exc

    sequences = []
    for seq_id, data, rows, latent_name in records:
        for name in (data, latent_name) if latent_name else (data,):
            if not is_safe_name(name, _MAX_PAYLOAD_NAME):
                raise FormatError(f"{mpath}: {name!r} is not a plain payload file name "
                                  f"(1-{_MAX_PAYLOAD_NAME} of [A-Za-z0-9._-], no leading dot)")
        frames = _read_payload(root / data, rows, f)
        latent = None
        if latent_name:
            if q <= 0:
                raise FormatError(f"{mpath}: latent file given but latent_dim is 0")
            latent = _read_payload(root / latent_name, rows, q)
        sequences.append(_build(mpath, Sequence, seq_id, frames, latent))
    return _build(mpath, Dataset, f, tuple(sequences))


def _write_container(path: Path, kind: int, dims: tuple[int, ...], extra: int,
                     theta: np.ndarray):
    """Header, little-endian parameters and their SHA-256, hashed piece by piece and
    joined once; a theta already in its container layout is not copied."""
    head = _MAGIC + struct.pack(f"<III{len(dims)}III", _CONTAINER_VERSION, kind, len(dims),
                                *dims, extra, theta.itemsize)
    params = memoryview(np.ascontiguousarray(theta, dtype=f"<f{theta.itemsize}")).cast("B")
    sha = hashlib.sha256(head)
    sha.update(params)
    write_file(path, b"".join((head, params, sha.digest())))


def _read_container(path: Path, expect_kind: int, expect_ndims: int):
    """Checked ``(dims, extra, parameter vector)`` of a container file; the vector is a
    read-only view of the file's bytes."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing model file {path}")
    blob = path.read_bytes()
    if len(blob) < 4 + 12 + 32 or blob[:4] != _MAGIC:
        raise FormatError(f"{path}: not a model container")
    body = memoryview(blob)[:-32]
    if hashlib.sha256(body).digest() != blob[-32:]:
        raise FormatError(f"{path}: checksum mismatch, file corrupted")
    version, kind, ndims = struct.unpack_from("<III", body, 4)
    if version != _CONTAINER_VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    if kind != expect_kind:
        raise FormatError(f"{path}: container holds kind {kind}, expected {expect_kind}")
    if ndims != expect_ndims:
        raise FormatError(f"{path}: container declares {ndims} dims, expected {expect_ndims}")
    off = 16 + 4 * ndims + 8  # the header ends with extra and the parameters' itemsize
    size = struct.unpack_from("<I", body, off - 4)[0] if len(body) >= off else 0
    if size not in (4, 8) or (len(body) - off) % size:
        raise FormatError(f"{path}: parameter payload is not a whole number of binary32 "
                          f"or binary64 values (itemsize {size})")
    *dims, extra = struct.unpack_from(f"<{ndims + 1}I", body, 16)
    return dims, extra, np.frombuffer(body, dtype=f"<f{size}", offset=off)


def _build(path, cls, *args):
    """``cls(*args)``; what the model or dataset rejects (size, dims, ids) is a FormatError."""
    try:
        return cls(*args)
    except (ConfigError, DegenerateInputError, DimensionError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_model(model: EmbeddingModel, path) -> None:
    _write_container(Path(path), _KIND_EMBEDDING,
                     (model.input_dim, model.hidden_dim, model.embed_dim), 0, model.theta)


def load_model(path) -> EmbeddingModel:
    dims, _, theta = _read_container(path, _KIND_EMBEDDING, 3)
    return _build(path, EmbeddingModel, theta, *dims)


def save_predictor(pred: RecurrentPredictor, path) -> None:
    _write_container(Path(path), _KIND_PREDICTOR,
                     (pred.embed_dim, pred.hidden_dim), pred.context_len, pred.theta)


def load_predictor(path) -> RecurrentPredictor:
    dims, extra, theta = _read_container(path, _KIND_PREDICTOR, 2)
    return _build(path, RecurrentPredictor, theta, *dims, extra)
