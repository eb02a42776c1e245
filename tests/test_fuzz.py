"""Bounded fuzzing of the file and config boundaries.

Each example mutates one valid input: a JSON value replaced by a hostile
one (NaN, Infinity, negatives, floats, bools, null, strings, objects, lists,
numbers beyond float range, over-long names) or a few bytes flipped,
including bytes that are not UTF-8. The readers may only raise the
documented validation errors, the ones the CLI maps to exit 1, and the CLI
must exit 0 or 1, never 2. Containers are also re-signed after a flip, so
the checks behind the checksum see the damage too.
"""

import copy
import dataclasses
import hashlib
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqrep.cli import _VALIDATION_ERRORS, main
from seqrep.config import RunConfig, load_config
from seqrep.core import Dataset, RngState, Sequence
from seqrep.dynamics import init_predictor
from seqrep.embed import init_embedding_model
from seqrep.seqpack import (MANIFEST_NAME, load_model, load_predictor, read_seqpack,
                            save_model, save_predictor, write_seqpack)

FUZZ = settings(max_examples=80, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

HOSTILE = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), None, True, False,
                     0, -1, -2.5, 0.5, 2.7, 2**64, 10**400, "", "7", "a" * 300,
                     [], [1, 2], {}, {"a": 1}]),
    st.integers(-10, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
FLIPS = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1,
                 max_size=4)


def key_paths(doc, prefix=()):
    """Every key path of a JSON document, containers included."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


_DELETE = object()


def replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced, or deleted for ``_DELETE``."""
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


def mutate_json(data, doc) -> bytes:
    paths = list(key_paths(doc))
    path = data.draw(st.sampled_from(paths))
    value = data.draw(st.one_of(HOSTILE, st.just(_DELETE)) if isinstance(path[-1], str)
                      else HOSTILE)
    return json.dumps(replaced(doc, path, value)).encode()


def flip(blob: bytes, flips) -> bytes:
    out = bytearray(blob)
    for pos, byte in flips:
        out[pos % len(out)] = byte
    return bytes(out)


def typed_errors_only(fn, *args):
    try:
        fn(*args)
    except _VALIDATION_ERRORS:
        pass


@dataclasses.dataclass
class Files:
    """A valid pack, model and predictor, kept as bytes so each example starts clean."""

    root: object
    pack: dict
    model: bytes
    pred: bytes

    def write(self, pack=None, model=None, pred=None):
        for name, blob in {**self.pack, **(pack or {})}.items():
            (self.root / "pack" / name).write_bytes(blob)
        (self.root / "model.bin").write_bytes(model or self.model)
        (self.root / "pred.bin").write_bytes(pred or self.pred)

    def cli(self, *argv) -> int:
        return main([*argv, "--data", str(self.root / "pack"),
                     "--model", str(self.root / "model.bin"),
                     "--out", str(self.root / "out.txt")])


def make_files(tmp_path) -> Files:
    g = RngState(3).gen
    ds = Dataset(dimension=3, sequences=(
        Sequence(id="a", frames=g.normal(size=(6, 3)), latent=g.normal(size=(6, 2))),
        Sequence(id="b", frames=g.normal(size=(5, 3)), latent=g.normal(size=(5, 2))),
    ))
    write_seqpack(ds, tmp_path / "pack")
    save_model(init_embedding_model(3, 6, 4, RngState(1)), tmp_path / "model.bin")
    save_predictor(init_predictor(4, 5, 2, RngState(2)), tmp_path / "pred.bin")
    pack = {p.name: p.read_bytes() for p in (tmp_path / "pack").iterdir()}
    return Files(tmp_path, pack, (tmp_path / "model.bin").read_bytes(),
                 (tmp_path / "pred.bin").read_bytes())


CONFIG = json.loads(json.dumps(dataclasses.asdict(RunConfig())))
CONFIG_BYTES = json.dumps(CONFIG).encode()


def check_config(tmp_path, blob: bytes):
    path = tmp_path / "cfg.json"
    path.write_bytes(blob)
    typed_errors_only(load_config, path)
    # a valid config reaches the missing model file: exit 1 either way
    assert main(["eval", "alignment", "--config", str(path),
                 "--model", str(tmp_path / "none.bin"), "--out", str(tmp_path / "r")]) == 1


@FUZZ
@given(data=st.data())
def test_config_json_values(tmp_path, data):
    check_config(tmp_path, mutate_json(data, CONFIG))


@FUZZ
@given(flips=FLIPS)
def test_config_bytes(tmp_path, flips):
    check_config(tmp_path, flip(CONFIG_BYTES, flips))


@FUZZ
@given(data=st.data())
def test_manifest_json_values(tmp_path, data):
    files = make_files(tmp_path)
    manifest = json.loads(files.pack[MANIFEST_NAME])
    files.write(pack={MANIFEST_NAME: mutate_json(data, manifest)})
    typed_errors_only(read_seqpack, tmp_path / "pack")
    assert files.cli("project") in (0, 1)


@FUZZ
@given(name=st.sampled_from(["manifest.json", "a.f32", "b.lat.f32"]), flips=FLIPS)
def test_pack_bytes(tmp_path, name, flips):
    files = make_files(tmp_path)
    files.write(pack={name: flip(files.pack[name], flips)})
    typed_errors_only(read_seqpack, tmp_path / "pack")
    assert files.cli("project") in (0, 1)


@FUZZ
@given(kind=st.sampled_from(["model", "pred"]), flips=FLIPS, resign=st.booleans(),
       cut=st.integers(-40, 16))
def test_container_bytes(tmp_path, kind, flips, resign, cut):
    files = make_files(tmp_path)
    body = getattr(files, kind)[:-32]
    body = flip(body, flips)
    body = body[:cut] if cut < 0 else body + bytes(cut)
    blob = body + (hashlib.sha256(body).digest() if resign else getattr(files, kind)[-32:])
    files.write(**{kind: blob})
    if kind == "model":
        typed_errors_only(load_model, tmp_path / "model.bin")
        assert files.cli("project") in (0, 1)
    else:
        typed_errors_only(load_predictor, tmp_path / "pred.bin")
        assert files.cli("synth", "--pred", str(tmp_path / "pred.bin"),
                         "--seed-seq", "a", "--steps", "2") in (0, 1)
