import hashlib
import json
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from seqrep.core import ConfigError, Dataset, FormatError, RngState, Sequence
from seqrep.embed import TrainConfig, embed_batch, init_embedding_model, train
from seqrep.dynamics import init_predictor, rnn_forward_batch
from seqrep.seqpack import (
    MANIFEST_NAME,
    load_model,
    load_predictor,
    read_seqpack,
    save_model,
    save_predictor,
    write_seqpack,
)

from conftest import float64


@pytest.fixture()
def dataset(rng):
    g = rng.gen
    return Dataset(dimension=3, sequences=(
        Sequence(id="a", frames=g.normal(size=(4, 3)), latent=g.normal(size=(4, 2))),
        Sequence(id="b", frames=g.normal(size=(6, 3)), latent=g.normal(size=(6, 2))),
    ))


class TestSeqPack:
    def test_round_trip_preserves_payload_bytes(self, dataset, tmp_path):
        write_seqpack(dataset, tmp_path / "one")
        back = read_seqpack(tmp_path / "one")
        write_seqpack(back, tmp_path / "two")
        for name in ("a.f32", "b.f32", "a.lat.f32", "manifest.json"):
            assert (tmp_path / "one" / name).read_bytes() == \
                   (tmp_path / "two" / name).read_bytes()

    def test_values_widen_to_float64_at_f32_precision(self, dataset, tmp_path):
        write_seqpack(dataset, tmp_path / "p")
        back = read_seqpack(tmp_path / "p")
        for orig, loaded in zip(dataset, back):
            np.testing.assert_array_equal(
                loaded.frames, orig.frames.astype(np.float32).astype(np.float64))

    def test_known_ieee_encoding(self, tmp_path):
        ds = Dataset(dimension=1, sequences=(
            Sequence(id="x", frames=[[1.0]]),
            Sequence(id="y", frames=[[1.0]]),
        ))
        write_seqpack(ds, tmp_path / "p")
        assert (tmp_path / "p" / "x.f32").read_bytes() == bytes.fromhex("0000803f")

    def test_size_mismatch_names_file(self, dataset, tmp_path):
        write_seqpack(dataset, tmp_path / "p")
        manifest = json.loads((tmp_path / "p" / MANIFEST_NAME).read_text())
        manifest["sequences"][0]["frames"] = 10
        (tmp_path / "p" / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="a.f32"):
            read_seqpack(tmp_path / "p")

    def test_non_finite_payload_rejected_with_offset(self, dataset, tmp_path):
        write_seqpack(dataset, tmp_path / "p")
        payload = bytearray((tmp_path / "p" / "a.f32").read_bytes())
        payload[4:8] = np.array([np.nan], dtype="<f4").tobytes()
        (tmp_path / "p" / "a.f32").write_bytes(bytes(payload))
        with pytest.raises(FormatError, match="offset 4"):
            read_seqpack(tmp_path / "p")

    def test_missing_payload_file(self, dataset, tmp_path):
        write_seqpack(dataset, tmp_path / "p")
        (tmp_path / "p" / "b.f32").unlink()
        with pytest.raises(FileNotFoundError):
            read_seqpack(tmp_path / "p")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_seqpack(tmp_path / "nowhere")

    @pytest.mark.parametrize("damage", [
        lambda m: m.pop("feature_dim"),
        lambda m: m["sequences"][1].pop("id"),
        lambda m: m["sequences"][0].pop("data"),
        lambda m: m["sequences"][0].pop("frames"),
    ], ids=["feature_dim", "id", "data", "frames"])
    def test_malformed_manifest_names_file(self, dataset, tmp_path, damage):
        write_seqpack(dataset, tmp_path / "p")
        manifest = json.loads((tmp_path / "p" / MANIFEST_NAME).read_text())
        damage(manifest)
        (tmp_path / "p" / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=MANIFEST_NAME):
            read_seqpack(tmp_path / "p")

    @pytest.mark.parametrize("key, value", [
        ("feature_dim", 0),
        ("feature_dim", True),
        ("feature_dim", 3.0),
        ("latent_dim", -1),
        ("latent_dim", 2.5),
        ("frames", 2.7),
        ("frames", True),
        ("frames", 0),
    ])
    def test_manifest_counts_are_integers(self, dataset, tmp_path, key, value):
        # "frames": 2.7 used to read as 2 and true as 1; feature_dim 0 divided by zero
        write_seqpack(dataset, tmp_path / "p")
        manifest = json.loads((tmp_path / "p" / MANIFEST_NAME).read_text())
        (manifest["sequences"][0] if key == "frames" else manifest)[key] = value
        (tmp_path / "p" / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=f"{MANIFEST_NAME}.*{key} must be an integer"):
            read_seqpack(tmp_path / "p")

    @pytest.mark.parametrize("new", [b'"seqp\xe4ck"', b'"seqpack", "x": ' + b"[" * 100_000],
                             ids=["latin-1", "nested-too-deep"])
    def test_undecodable_manifest_names_file(self, dataset, tmp_path, new):
        # both used to escape as UnicodeDecodeError or RecursionError (exit 2)
        write_seqpack(dataset, tmp_path / "p")
        path = tmp_path / "p" / MANIFEST_NAME
        path.write_bytes(path.read_bytes().replace(b'"seqpack"', new))
        with pytest.raises(FormatError, match=f"{MANIFEST_NAME}.*not UTF-8 JSON"):
            read_seqpack(tmp_path / "p")

    def test_escaping_id_cannot_be_written(self, rng, tmp_path):
        with pytest.raises(ConfigError, match="sequence id"):
            Sequence(id="../escape", frames=rng.gen.normal(size=(3, 2)))
        assert not (tmp_path / "escape.f32").exists()

    @pytest.mark.parametrize("key, value", [
        ("id", "../escape"),
        ("id", ".hidden"),
        ("id", 5),
        ("data", "../a.f32"),
        ("data", "/a.f32"),
        ("latent", "sub/a.lat.f32"),
    ])
    def test_unsafe_manifest_names_rejected(self, dataset, tmp_path, key, value):
        write_seqpack(dataset, tmp_path / "p")
        manifest = json.loads((tmp_path / "p" / MANIFEST_NAME).read_text())
        manifest["sequences"][0][key] = value
        (tmp_path / "p" / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=MANIFEST_NAME):
            read_seqpack(tmp_path / "p")

    @pytest.mark.parametrize("key", ["id", "data", "latent"])
    def test_over_long_manifest_name_rejected(self, dataset, tmp_path, key):
        # found by fuzzing: a 300-character payload name made the reader's
        # stat fail with OSError (file name too long), exit 2 at the CLI
        write_seqpack(dataset, tmp_path / "p")
        manifest = json.loads((tmp_path / "p" / MANIFEST_NAME).read_text())
        manifest["sequences"][0][key] = "a" * 300
        (tmp_path / "p" / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=MANIFEST_NAME):
            read_seqpack(tmp_path / "p")

    def test_id_length_limit(self, rng):
        frames = rng.gen.normal(size=(3, 2))
        assert Sequence(id="a" * 128, frames=frames).id == "a" * 128
        with pytest.raises(ConfigError, match="1-128"):
            Sequence(id="a" * 129, frames=frames)

    def test_longest_id_with_latents_round_trips(self, rng, tmp_path):
        # the payload names add ".f32" / ".lat.f32" to the id, so they may be
        # longer than any id; the reader must accept what the writer names
        g = rng.gen
        ds = Dataset(dimension=2, sequences=(
            Sequence(id="a" * 128, frames=g.normal(size=(3, 2)), latent=g.normal(size=(3, 1))),
            Sequence(id="b" * 127, frames=g.normal(size=(4, 2)), latent=g.normal(size=(4, 1))),
        ))
        write_seqpack(ds, tmp_path / "p")
        back = read_seqpack(tmp_path / "p")
        assert [s.id for s in back] == [s.id for s in ds]
        for s, t in zip(ds, back):
            np.testing.assert_array_equal(t.frames, s.frames.astype(np.float32))
            np.testing.assert_array_equal(t.latent, s.latent.astype(np.float32))

    def test_payload_name_limit_is_id_limit_plus_latent_suffix(self, dataset, tmp_path):
        write_seqpack(dataset, tmp_path / "p")
        mpath = tmp_path / "p" / MANIFEST_NAME
        manifest = json.loads(mpath.read_text())
        rec = manifest["sequences"][0]
        longest = "x" * 136
        (tmp_path / "p" / rec["data"]).rename(tmp_path / "p" / longest)
        rec["data"] = longest
        mpath.write_text(json.dumps(manifest))
        assert read_seqpack(tmp_path / "p").sequences[0].id == "a"
        (tmp_path / "p" / longest).rename(tmp_path / "p" / (longest + "x"))
        rec["data"] = longest + "x"
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="1-136"):
            read_seqpack(tmp_path / "p")

    def test_latent_free_dataset(self, rng, tmp_path):
        g = rng.gen
        ds = Dataset(dimension=2, sequences=(
            Sequence(id="a", frames=g.normal(size=(3, 2))),
            Sequence(id="b", frames=g.normal(size=(3, 2))),
        ))
        write_seqpack(ds, tmp_path / "p")
        back = read_seqpack(tmp_path / "p")
        assert all(s.latent is None for s in back)

    def test_partly_labelled_dataset_keeps_its_latents(self, rng, tmp_path):
        g = rng.gen
        lat = g.normal(size=(3, 2)).astype(np.float32).astype(np.float64)
        ds = Dataset(dimension=2, sequences=(
            Sequence(id="a", frames=g.normal(size=(3, 2)), latent=lat),
            Sequence(id="b", frames=g.normal(size=(4, 2))),
        ))
        write_seqpack(ds, tmp_path / "p")
        manifest = json.loads((tmp_path / "p" / MANIFEST_NAME).read_text())
        assert manifest["latent_dim"] == 2
        assert [r["latent"] for r in manifest["sequences"]] == ["a.lat.f32", None]
        a, b = read_seqpack(tmp_path / "p")
        np.testing.assert_array_equal(a.latent, lat)
        assert b.latent is None

    @pytest.mark.parametrize("records, message", [
        (lambda recs: recs[:1], "at least 2 sequences"),
        (lambda recs: [recs[0], recs[0]], "ids must be unique"),
    ], ids=["one-sequence", "duplicate-id"])
    def test_records_that_form_no_dataset_name_the_manifest(self, dataset, tmp_path,
                                                            records, message):
        mpath = write_seqpack(dataset, tmp_path / "p")
        manifest = json.loads(mpath.read_text())
        manifest["sequences"] = records(manifest["sequences"])
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=rf"manifest\.json: .*{message}"):
            read_seqpack(tmp_path / "p")


class TestModelContainer:
    def test_embedding_round_trip_exact(self, tmp_path):
        model = init_embedding_model(6, 9, 4, RngState(5))
        save_model(model, tmp_path / "m.bin")
        back = load_model(tmp_path / "m.bin")
        np.testing.assert_array_equal(back.theta, model.theta)
        for name in ("W1", "b1", "W2", "b2"):
            np.testing.assert_array_equal(getattr(back, name), getattr(model, name))

    def test_predictor_round_trip_exact(self, tmp_path):
        pred = init_predictor(4, 7, context_len=3, rng=RngState(6))
        save_predictor(pred, tmp_path / "p.bin")
        back = load_predictor(tmp_path / "p.bin")
        assert back.context_len == 3
        for name in ("Wx", "Wh", "b", "Wy", "by"):
            np.testing.assert_array_equal(getattr(back, name), getattr(pred, name))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_predictor_keeps_its_dtype_and_predicts_the_same_bits(self, tmp_path, dtype, rng):
        built = init_predictor(4, 7, context_len=3, rng=RngState(6))
        pred = replace(built, theta=built.theta.astype(dtype))
        save_predictor(pred, tmp_path / "p.bin")
        blob = (tmp_path / "p.bin").read_bytes()
        itemsize = np.dtype(dtype).itemsize
        # magic, version 2, kind, ndims, d, m, extra, then the itemsize word
        assert struct.unpack_from("<7I", blob, 4) == (2, 2, 2, 4, 7, 3, itemsize)
        assert len(blob) == 32 + itemsize * pred.theta.size + 32
        back = load_predictor(tmp_path / "p.bin")
        assert back.theta.dtype == dtype
        np.testing.assert_array_equal(back.theta, pred.theta)
        contexts = rng.gen.normal(size=(5, 3, 4))
        np.testing.assert_array_equal(rnn_forward_batch(back, contexts),
                                      rnn_forward_batch(pred, contexts))

    def test_embedding_is_stored_as_binary64(self, tmp_path, rng):
        # a float64 θ is still written as binary64, the layout of every
        # embedding saved before the float32 encoder, and reads back to float64
        model = float64(init_embedding_model(6, 9, 4, RngState(5)))
        save_model(model, tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        assert struct.unpack_from("<I", blob, 32)[0] == 8
        assert len(blob) == 36 + 8 * model.theta.size + 32
        back = load_model(tmp_path / "m.bin")
        assert back.theta.dtype == np.float64
        np.testing.assert_array_equal(back.theta, model.theta)
        frames = rng.gen.normal(size=(5, 6))
        np.testing.assert_array_equal(embed_batch(back, frames), embed_batch(model, frames))

    def test_trained_embedding_is_stored_as_binary32(self, tmp_path, small_dataset, rng):
        cfg = TrainConfig(max_epochs=1, triplets_per_batch=20, hidden_dim=8, embed_dim=4)
        model, _ = train(small_dataset, cfg, chunk_len=20, rng=RngState(1))
        save_model(model, tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        assert struct.unpack_from("<I", blob, 32)[0] == 4
        assert len(blob) == 36 + 4 * model.theta.size + 32
        back = load_model(tmp_path / "m.bin")
        assert back.theta.dtype == np.float32
        np.testing.assert_array_equal(back.theta, model.theta)
        frames = rng.gen.normal(size=(5, small_dataset.dimension))
        np.testing.assert_array_equal(embed_batch(back, frames), embed_batch(model, frames))

    def test_container_io_holds_no_copy_of_the_payload(self, tmp_path):
        # the 5.5 MB reference predictor: a header bytearray and two bytes copies
        # of it took a save to 3.0x the parameters, hashed in pieces and joined
        # once it holds 1.0x; a load holds the file and the model's own copy
        pred = init_predictor(128, 512, 4, RngState(2))
        path = tmp_path / "p.bin"
        peaks = []
        for run in (lambda: save_predictor(pred, path), lambda: load_predictor(path)):
            tracemalloc.start()
            try:
                back = run()
                peaks.append(tracemalloc.get_traced_memory()[1] / pred.theta.nbytes)
            finally:
                tracemalloc.stop()
        np.testing.assert_array_equal(back.theta, pred.theta)
        assert peaks[0] < 1.5 and peaks[1] < 2.5, peaks

    def test_save_is_byte_deterministic(self, tmp_path):
        model = init_embedding_model(6, 9, 4, RngState(5))
        save_model(model, tmp_path / "m1.bin")
        save_model(model, tmp_path / "m2.bin")
        assert (tmp_path / "m1.bin").read_bytes() == (tmp_path / "m2.bin").read_bytes()

    def test_checksum_detects_corruption(self, tmp_path):
        model = init_embedding_model(6, 9, 4, RngState(5))
        save_model(model, tmp_path / "m.bin")
        blob = bytearray((tmp_path / "m.bin").read_bytes())
        blob[44] ^= 0xFF
        (tmp_path / "m.bin").write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="checksum"):
            load_model(tmp_path / "m.bin")

    def test_kind_mismatch_rejected(self, tmp_path):
        model = init_embedding_model(6, 9, 4, RngState(5))
        save_model(model, tmp_path / "m.bin")
        with pytest.raises(FormatError, match="kind"):
            load_predictor(tmp_path / "m.bin")

    @pytest.mark.parametrize("damage", [
        lambda body: body[:12] + struct.pack("<I", 10**6) + body[16:],  # ndims
        lambda body: body + b"\0\0\0",  # payload not a multiple of 8 bytes
        lambda body: body[:-8],  # payload shorter than the dims imply
        lambda body: body[:44] + np.array([np.nan], "<f8").tobytes() + body[52:],
        # the version-1 layout: no itemsize word
        lambda body: body[:4] + struct.pack("<I", 1) + body[8:32] + body[36:],
        lambda body: body[:32] + struct.pack("<I", 2) + body[36:],  # itemsize
        lambda body: body[:32] + struct.pack("<I", 4) + body[36:],  # twice the binary32 values
        lambda body: body[:32],  # no itemsize word
    ], ids=["ndims", "ragged", "short", "non-finite", "version-1", "itemsize", "binary32",
            "no-itemsize"])
    def test_checksummed_damage_names_file(self, tmp_path, damage):
        # damage to a binary64 container
        save_model(float64(init_embedding_model(6, 9, 4, RngState(5))), tmp_path / "m.bin")
        body = damage((tmp_path / "m.bin").read_bytes()[:-32])
        (tmp_path / "m.bin").write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(FormatError, match="m.bin"):
            load_model(tmp_path / "m.bin")

    @pytest.mark.parametrize("damage", [
        lambda body: body + b"\0\0",  # payload not a multiple of 4 bytes
        lambda body: body[:-4],  # payload shorter than the dims imply
        lambda body: body[:-4] + np.array([np.inf], "<f4").tobytes(),
        # 103 binary32 values are not a whole number of binary64 ones
        lambda body: body[:32] + struct.pack("<I", 8) + body[36:],
    ], ids=["ragged", "short", "non-finite", "binary64"])
    def test_checksummed_binary32_damage_names_file(self, tmp_path, damage):
        save_model(init_embedding_model(6, 9, 4, RngState(5)), tmp_path / "m.bin")
        body = damage((tmp_path / "m.bin").read_bytes()[:-32])
        (tmp_path / "m.bin").write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(FormatError, match="m.bin"):
            load_model(tmp_path / "m.bin")

    def test_non_finite_predictor_parameter_names_file(self, tmp_path):
        save_predictor(init_predictor(4, 7, 4, RngState(6)), tmp_path / "p.bin")
        body = bytearray((tmp_path / "p.bin").read_bytes()[:-32])
        body[-4:] = np.array([np.inf], "<f4").tobytes()
        (tmp_path / "p.bin").write_bytes(bytes(body) + hashlib.sha256(body).digest())
        with pytest.raises(FormatError, match="p.bin"):
            load_predictor(tmp_path / "p.bin")

    @pytest.mark.parametrize("kind", ["embedding", "predictor"])
    def test_zero_dimension_names_file(self, tmp_path, kind):
        # a re-signed container whose parameter count fits a zero dimension
        path = tmp_path / "z.bin"
        if kind == "embedding":
            save_model(init_embedding_model(6, 9, 4, RngState(5)), path)
            dims, extra, size, itemsize = (8, 0, 8), 0, 8, 8  # only b2 is left
            load = load_model
        else:
            save_predictor(init_predictor(4, 7, 4, RngState(6)), path)
            dims, extra, size, itemsize = (0, 5), 4, 5 * 20 + 20, 4  # only Wh and b are left
            load = load_predictor
        head = path.read_bytes()[:16]  # magic, version, kind, ndims
        body = (head + struct.pack(f"<{len(dims) + 2}I", *dims, extra, itemsize)
                + np.full(size, 0.5, f"<f{itemsize}").tobytes())
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(FormatError, match=r"z\.bin.*dim must be >= 1"):
            load(path)

    def test_not_a_container(self, tmp_path):
        (tmp_path / "junk.bin").write_bytes(b"definitely not a model")
        with pytest.raises(FormatError):
            load_model(tmp_path / "junk.bin")
