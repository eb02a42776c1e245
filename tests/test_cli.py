import argparse
import dataclasses
import hashlib
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from seqrep import embed
from seqrep.align import MatchPenalties, _chunk_bounds, alignment_cost
from seqrep.cli import build_parser, main
from seqrep.embed import EmbeddingModel, embed_batch
from seqrep.config import load_config
from seqrep.evaluate import knn_prediction_curve, pca_project_2d, zero_shot_pose_error
from seqrep.core import Dataset
from seqrep.seqpack import load_model, load_predictor, read_seqpack, save_model, write_seqpack
from seqrep.synthdata import GeneratorConfig, generate_dataset

from conftest import float64

TINY = {
    "seed": 11,
    "chunk_len": 20,
    "generator": {
        "num_sequences": 6,
        "frames_range": [36, 44],
        "feature_dim": 16,
        "seed": 11,
    },
    "train": {
        "max_epochs": 2,
        "triplets_per_batch": 40,
        "hidden_dim": 16,
        "embed_dim": 8,
        "bootstrap_epochs": 1,
    },
    "predictor": {
        "hidden_dim": 12,
        "max_epochs": 2,
        "batch_size": 32,
    },
    "eval": {
        "num_queries": 40,
        "k_max": 3,
        "alignment_pairs": 2,
    },
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    return root, str(cfg_path)


@pytest.fixture(scope="module")
def pipeline(workspace):
    """gen -> train-embed -> train-dyn, shared by the CLI tests."""
    root, cfg = workspace
    data = root / "data"
    model = root / "model.bin"
    pred = root / "pred.bin"
    assert main(["gen", "--config", cfg, "--out", str(data)]) == 0
    assert main(["train-embed", "--config", cfg, "--data", str(data),
                 "--out", str(model)]) == 0
    assert main(["train-dyn", "--config", cfg, "--data", str(data),
                 "--model", str(model), "--out", str(pred)]) == 0
    return root, cfg, data, model, pred


class TestPipeline:
    def test_gen_writes_readable_pack(self, pipeline):
        _, _, data, _, _ = pipeline
        ds = read_seqpack(data)
        assert len(ds) == 6 and ds.dimension == 16

    def test_eval_retrieval(self, pipeline):
        root, cfg, data, model, _ = pipeline
        out = root / "retrieval"
        assert main(["eval", "retrieval", "--config", cfg, "--data", str(data),
                     "--model", str(model), "--out", str(out)]) == 0
        rep = json.loads(Path(str(out) + ".json").read_text())
        assert rep["metric"] == "retrieval_auc"
        assert 0.0 <= rep["values"]["auc"] <= 1.0
        assert (root / "retrieval.txt").exists()

    def test_eval_zeroshot(self, pipeline):
        root, cfg, data, model, _ = pipeline
        out = root / "zeroshot"
        assert main(["eval", "zeroshot", "--config", cfg, "--data", str(data),
                     "--test", str(data), "--model", str(model),
                     "--out", str(out)]) == 0
        rep = json.loads(Path(str(out) + ".json").read_text())
        assert rep["values"]["mean_error"] == pytest.approx(0.0, abs=1e-9)

    def test_eval_predict_writes_curve(self, pipeline):
        root, cfg, data, model, pred = pipeline
        out = root / "predict"
        assert main(["eval", "predict", "--config", cfg, "--data", str(data),
                     "--model", str(model), "--pred", str(pred),
                     "--out", str(out)]) == 0
        curve = Path(str(out) + ".curve.dat").read_text().splitlines()
        assert curve[0].startswith("#")
        assert len(curve) == 1 + TINY["eval"]["k_max"]

    def test_reports_carry_exactly_their_protocols_result(self, pipeline):
        root, cfg, data, model, pred = pipeline
        ds, emb, ev = read_seqpack(data), load_model(model), load_config(cfg).eval
        assert main(["eval", "zeroshot", "--config", cfg, "--data", str(data), "--test",
                     str(data), "--model", str(model), "--out", str(root / "zs")]) == 0
        assert main(["eval", "predict", "--config", cfg, "--data", str(data), "--model",
                     str(model), "--pred", str(pred), "--out", str(root / "kp")]) == 0
        zs_rep, kp_rep = (json.loads((root / name).read_text()) for name in ("zs.json", "kp.json"))
        zs = zero_shot_pose_error(ds, ds, emb)
        assert zs_rep["values"] == {"mean_error": zs.mean_error,
                                    "oracle_mean_error": zs.oracle_mean_error}
        assert zs_rep["series"] == {"thresholds": list(zs.thresholds),
                                    "accuracy": list(zs.accuracy),
                                    "oracle_accuracy": list(zs.oracle_accuracy)}
        curve = knn_prediction_curve(ds, emb, load_predictor(pred), k_max=ev.k_max,
                                     exclusion_window=ev.exclusion_window)
        assert kp_rep["values"] == {"prediction_error_mean": curve.prediction_error_mean,
                                    "prediction_error_std": curve.prediction_error_std}
        assert kp_rep["series"] == {"k": [float(k) for k in range(1, ev.k_max + 1)],
                                    "knn_mean": list(curve.knn_mean),
                                    "knn_std": list(curve.knn_std)}
        assert all(type(k) is float for k in kp_rep["series"]["k"])  # "1.0", not "1"
        assert kp_rep["config"] == {"k_max": ev.k_max, "exclusion_window": ev.exclusion_window}

    def test_eval_alignment(self, pipeline):
        root, cfg, _, model, _ = pipeline
        out = root / "alignment"
        assert main(["eval", "alignment", "--config", cfg, "--model", str(model),
                     "--out", str(out)]) == 0
        rep = json.loads(Path(str(out) + ".json").read_text())
        assert set(rep["values"]) == {"dp_mean", "nn_mean"}

    def test_align_command(self, pipeline):
        root, cfg, data, model, _ = pipeline
        out = root / "match.json"
        assert main(["align", "--config", cfg, "--data", str(data),
                     "--model", str(model), "--query", "seq000",
                     "--target", "seq001", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["chunk_len"] == 20
        assert payload["matchings"]
        assert payload["matchings"][0]["pi"]

    def test_align_breakdown_is_each_chunks_audit(self, pipeline):
        root, cfg, data, model, _ = pipeline
        out = root / "match_audit.json"
        assert main(["align", "--config", cfg, "--data", str(data),
                     "--model", str(model), "--query", "seq000",
                     "--target", "seq001", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        ds, m = read_seqpack(data), load_model(model)
        q = embed_batch(m, ds.by_id("seq000").frames)
        t = embed_batch(m, ds.by_id("seq001").frames)
        pen = MatchPenalties(**payload["penalties"])
        bounds = _chunk_bounds(len(t), TINY["chunk_len"])
        assert len(bounds) >= 2 and len(payload["matchings"]) == len(bounds)
        for (s, e), chunk in zip(bounds, payload["matchings"]):
            assert chunk["target_offset"] == s
            audit = alignment_cost(q, t[s:e], chunk["pi"], pen)
            assert chunk["breakdown"] == dataclasses.asdict(audit)
            assert sum(chunk["breakdown"].values()) == pytest.approx(
                chunk["total_cost"], rel=1e-9)

    def test_align_default_chunk_len_is_80(self, pipeline):
        root, _, data, model, _ = pipeline
        out = root / "match80.json"
        assert main(["align", "--data", str(data), "--model", str(model),
                     "--query", "seq000", "--target", "seq001",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["chunk_len"] == 80

    def test_project(self, pipeline):
        root, cfg, data, model, _ = pipeline
        out = root / "proj.txt"
        assert main(["project", "--config", cfg, "--data", str(data),
                     "--model", str(model), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        ds = read_seqpack(data)
        assert len(lines) == 1 + sum(len(s) for s in ds)

    def test_project_lines_are_id_index_and_exact_numbers(self, pipeline):
        root, cfg, data, model, _ = pipeline
        out = root / "proj_numbers.txt"
        assert main(["project", "--config", cfg, "--data", str(data),
                     "--model", str(model), "--out", str(out)]) == 0
        proj = pca_project_2d(read_seqpack(data), load_model(model))
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == len(proj.frame_refs)
        for row, ref, xy in zip(rows, proj.frame_refs, proj.coords):
            sid, idx, x, y = row.split(" ")
            assert (sid, int(idx)) == ref and idx == str(int(idx))
            np.testing.assert_array_equal([float(x), float(y)], xy)

    def test_synth(self, pipeline):
        root, cfg, data, model, pred = pipeline
        out = root / "synth.txt"
        assert main(["synth", "--config", cfg, "--data", str(data),
                     "--model", str(model), "--pred", str(pred),
                     "--seed-seq", "seq000", "--steps", "7",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        assert all(len(line.split()) == 2 for line in lines)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr().err.startswith("usage: seqrep [-h] {gen,")

    def test_usage_error_prints_the_failing_commands_usage(self, capsys):
        assert main(["align", "--data", "d"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: seqrep align [-h]") and err.count("usage:") == 1
        assert "required: --model, --query, --target, --out" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["gen", "--wat", "1", "--out", "x"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_chunk_len_one_is_validation_error(self, pipeline, capsys):
        root, cfg, data, model, _ = pipeline
        code = main(["align", "--config", cfg, "--data", str(data),
                     "--model", str(model), "--query", "seq000",
                     "--target", "seq001", "--chunk-len", "1",
                     "--out", str(root / "x.json")])
        assert code == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_zeroshot_test_set_of_another_latent_width_is_validation_error(self, pipeline,
                                                                             capsys):
        # numpy's untyped broadcast error, raised after the nearest rows, exited 2
        root, cfg, data, model, _ = pipeline
        wide_cfg = root / "wide_latent_cfg.json"
        wide_cfg.write_text(json.dumps(
            {**TINY, "generator": {**TINY["generator"], "latent_dim": 3}}))
        wide = root / "wide_latent_data"
        assert main(["gen", "--config", str(wide_cfg), "--out", str(wide)]) == 0
        code = main(["eval", "zeroshot", "--config", cfg, "--data", str(data),
                     "--test", str(wide), "--model", str(model),
                     "--out", str(root / "wide_zs")])
        assert code == 1
        assert "DimensionError: test latents have width 3, training latents 2" \
            in capsys.readouterr().err

    def test_missing_data_is_validation_error(self, workspace, capsys):
        root, cfg = workspace
        code = main(["train-embed", "--config", cfg,
                     "--data", str(root / "nothing"),
                     "--out", str(root / "m.bin")])
        assert code == 1

    @pytest.mark.parametrize("override", [
        {"train": {**TINY["train"], "neighborhood_size": 0}},
        {"chunk_len": 20.5},
        {"train": {**TINY["train"], "max_epochs": 0}},
        {"train": {**TINY["train"], "pairs_per_epoch": 0}},
        {"train": {**TINY["train"], "hidden_dim": 0}},
        {"train": {**TINY["train"], "momentum": 1.5}},
        {"predictor": {**TINY["predictor"], "hidden_dim": 0}},
        {"predictor": {**TINY["predictor"], "momentum": -1}},
        {"train": {**TINY["train"], "epsilon": 1e-4}},
    ])
    def test_bad_config_value_is_validation_error(self, pipeline, override, capsys):
        root, _, data, _, _ = pipeline
        cfg = root / "bad_cfg.json"
        cfg.write_text(json.dumps({**TINY, **override}))
        code = main(["train-embed", "--config", str(cfg), "--data", str(data),
                     "--out", str(root / "bad.bin")])
        assert code == 1
        assert "ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("train", "exclusion_window", -1),
        ("train", "percentile_step", -10.0),
        ("eval", "exclusion_window", -1),
    ])
    def test_negative_window_or_step_is_validation_error(self, pipeline, section, key,
                                                         value, capsys):
        root, _, data, _, _ = pipeline
        cfg = root / "negative_cfg.json"
        cfg.write_text(json.dumps({**TINY, section: {**TINY[section], key: value}}))
        code = main(["train-embed", "--config", str(cfg), "--data", str(data),
                     "--out", str(root / "negative.bin")])
        assert code == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and key in err

    def test_removed_noise_sigma_fails_before_reading_data(self, workspace, capsys):
        root, _ = workspace
        cfg = root / "noise_cfg.json"
        cfg.write_text(json.dumps({**TINY, "train": {**TINY["train"], "noise_sigma": 0.05}}))
        code = main(["train-embed", "--config", str(cfg), "--data", str(root / "nothing"),
                     "--out", str(root / "noise.bin")])
        assert code == 1
        assert "ConfigError: unknown config key train.noise_sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key, value", [
        ("train-embed", "train", "learning_rate", float("nan")),
        ("train-embed", "train", "margin", float("inf")),
        ("train-dyn", "predictor", "learning_rate", float("inf")),
        ("gen", "generator", "observation_noise", float("nan")),
        ("train-embed", "penalties", "lambda1", -1),
        ("eval", "eval", "pose_epsilon", 0),
    ])
    def test_bad_value_fails_at_config_load(self, workspace, command, section, key, value,
                                            capsys):
        # each used to exit 2 (divergence), train with the bad value, write
        # noise-free data, or fail only after the data was read
        root, _ = workspace
        cfg = root / "load_check_cfg.json"
        cfg.write_text(json.dumps({**TINY, section: {**TINY.get(section, {}), key: value}}))
        out = root / "load_check.out"
        argv = {"gen": ["gen"],
                "train-embed": ["train-embed", "--data", str(root / "nothing")],
                "train-dyn": ["train-dyn", "--data", str(root / "nothing"),
                              "--model", str(root / "none.bin")],
                "eval": ["eval", "retrieval", "--data", str(root / "nothing"),
                         "--model", str(root / "none.bin")]}[command]
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"ConfigError: {section}.{key}" in err
        assert not out.exists()

    def test_undecodable_config_is_validation_error(self, workspace, capsys):
        root, _ = workspace
        cfg = root / "latin1_cfg.json"
        cfg.write_bytes(b'{"seed": 3, "note": "caf\xe9"}')
        assert main(["gen", "--config", str(cfg), "--out", str(root / "latin1")]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "latin1_cfg.json" in err

    @pytest.mark.parametrize("damage, message", [
        (lambda m: m.update(feature_dim=0), "feature_dim must be an integer >= 1"),
        (lambda m: m.update(feature_dim=16.0), "feature_dim must be an integer >= 1"),
        (lambda m: m["sequences"][0].update(frames=2.7), "frames must be an integer >= 1"),
        (lambda m: m["sequences"][0].update(frames=True), "frames must be an integer >= 1"),
        (lambda m: m.update(latent_dim=-1), "latent_dim must be an integer >= 0"),
        (lambda m: m["sequences"][0].update(id="caf\u00e9"), "not UTF-8 JSON"),
    ], ids=["feature_dim-0", "feature_dim-float", "frames-float", "frames-bool",
            "latent_dim-negative", "latin-1"])
    def test_bad_manifest_count_or_encoding_is_validation_error(self, pipeline, tmp_path,
                                                                damage, message, capsys):
        _, cfg, data, _, _ = pipeline
        bad = tmp_path / "bad"
        shutil.copytree(data, bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        damage(manifest)
        (bad / "manifest.json").write_bytes(json.dumps(manifest, ensure_ascii=False)
                                            .encode("latin-1"))
        code = main(["train-embed", "--config", cfg, "--data", str(bad),
                     "--out", str(tmp_path / "m.bin")])
        assert code == 1
        err = capsys.readouterr().err
        assert "FormatError" in err and "manifest.json" in err and message in err

    def test_malformed_manifest_is_validation_error(self, pipeline, tmp_path, capsys):
        _, cfg, data, _, _ = pipeline
        bad = tmp_path / "bad"
        shutil.copytree(data, bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        del manifest["feature_dim"]
        (bad / "manifest.json").write_text(json.dumps(manifest))
        code = main(["train-embed", "--config", cfg, "--data", str(bad),
                     "--out", str(tmp_path / "m.bin")])
        assert code == 1
        err = capsys.readouterr().err
        assert "FormatError" in err and "manifest.json" in err

    def test_unsafe_manifest_id_is_validation_error(self, pipeline, tmp_path, capsys):
        _, cfg, data, _, _ = pipeline
        bad = tmp_path / "bad"
        shutil.copytree(data, bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        manifest["sequences"][0]["id"] = "../escape"
        (bad / "manifest.json").write_text(json.dumps(manifest))
        code = main(["train-embed", "--config", cfg, "--data", str(bad),
                     "--out", str(tmp_path / "m.bin")])
        assert code == 1
        err = capsys.readouterr().err
        assert "FormatError" in err and "manifest.json" in err

    def test_divergence_is_runtime_error(self, pipeline, capsys):
        root, _, data, _, _ = pipeline
        cfg = root / "diverge_cfg.json"
        cfg.write_text(json.dumps({**TINY, "train": {**TINY["train"], "learning_rate": 1e300}}))
        code = main(["train-embed", "--config", str(cfg), "--data", str(data),
                     "--out", str(root / "diverged.bin")])
        assert code == 2
        assert "DivergenceError" in capsys.readouterr().err
        assert not (root / "diverged.bin").exists()

    def test_divergence_is_runtime_error_whatever_the_error_state(self, pipeline, capsys,
                                                                  strict_numpy):
        root, _, data, _, _ = pipeline
        cfg = root / "diverge_cfg.json"
        cfg.write_text(json.dumps({**TINY, "train": {**TINY["train"], "learning_rate": 1e300}}))
        assert main(["train-embed", "--config", str(cfg), "--data", str(data),
                     "--out", str(root / "diverged.bin")]) == 2
        assert "DivergenceError: embed training diverged at epoch 0, batch 1: non-finite" \
            in capsys.readouterr().err
        assert not (root / "diverged.bin").exists()

    # 1e150 overflows the float32 encoder as built, so it collapses at 1e12;
    # the float64 encoder (a widened θ) still collapses at 1e150
    @pytest.mark.parametrize("command, section, learning_rate, what, widen", [
        pytest.param("train-embed", "train", 1e150, "collapsed", True,
                     id="train-embed-train-1e+150-collapsed"),
        pytest.param("train-embed", "train", 1e12, "collapsed", False,
                     id="train-embed-train-1e+12-collapsed-float32"),
        pytest.param("train-dyn", "predictor", 100.0, "blew up", False,
                     id="train-dyn-predictor-100.0-blew up"),
    ])
    def test_collapse_and_blow_up_are_runtime_errors(self, pipeline, command, section,
                                                     learning_rate, what, widen, capsys,
                                                     monkeypatch):
        root, _, data, model, _ = pipeline
        if widen:
            init = embed.init_embedding_model
            monkeypatch.setattr(embed, "init_embedding_model", lambda *a: float64(init(*a)))
        cfg = root / "unstable_cfg.json"
        cfg.write_text(json.dumps({**TINY, section: {**TINY[section],
                                                     "learning_rate": learning_rate}}))
        out = root / "unstable.bin"
        argv = [command, "--config", str(cfg), "--data", str(data), "--out", str(out)]
        if command == "train-dyn":
            argv += ["--model", str(model)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "DivergenceError" in err and "at epoch 0" in err and what in err
        assert not out.exists()

    def test_overflowed_encoder_is_validation_error(self, pipeline, capsys):
        root, cfg, data, model, _ = pipeline
        m = load_model(model)
        # a binary64 container overflows at 1e300, a binary32 one (as trained) at 1e30
        for dtype, weight in ((np.float64, 1e300), (np.float32, 1e30)):
            theta = m.theta.astype(dtype)
            theta[-1] = weight
            bad = root / "overflow.bin"
            save_model(EmbeddingModel(theta, m.input_dim, m.hidden_dim, m.embed_dim), bad)
            assert load_model(bad).theta.dtype == dtype
            out = root / "overflow_proj.txt"
            with np.errstate(all="ignore"):
                code = main(["project", "--config", cfg, "--data", str(data),
                             "--model", str(bad), "--out", str(out)])
            assert code == 1
            assert "DegenerateInputError" in capsys.readouterr().err
            assert not out.exists()

    def test_frames_that_overflow_the_encoder_are_validation_error(self, pipeline, tmp_path,
                                                                   capsys):
        # frames x1e20 are valid binary32 values, yet the encoder as built
        # overflows on them: bad input (exit 1), not a diverging run (exit 2)
        root, cfg, data, _, _ = pipeline
        ds = read_seqpack(data)
        big = tmp_path / "big"
        write_seqpack(Dataset(ds.dimension, [dataclasses.replace(s, frames=s.frames * 1e20)
                                             for s in ds]), big)
        out = tmp_path / "big.bin"
        with np.errstate(all="ignore"):
            code = main(["train-embed", "--config", cfg, "--data", str(big),
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "DegenerateInputError" in err and "overflowed" in err
        assert not out.exists()

    def test_zero_dimension_model_is_validation_error(self, pipeline, capsys):
        root, cfg, data, model, _ = pipeline
        # a re-signed embedding container with hidden_dim 0: only b2 is left
        body = (model.read_bytes()[:16] + struct.pack("<5I", 16, 0, 8, 0, 8)
                + np.full(8, 0.5, "<f8").tobytes())
        bad = root / "zero_dim.bin"
        bad.write_bytes(body + hashlib.sha256(body).digest())
        out = root / "zero_dim_proj.txt"
        assert main(["project", "--config", cfg, "--data", str(data),
                     "--model", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "FormatError" in err and "zero_dim.bin" in err
        assert "hidden_dim must be >= 1" in err
        assert not out.exists()

    def test_unwritable_output_is_runtime_error(self, pipeline):
        root, cfg, data, model, _ = pipeline
        blocker = root / "blocker"
        blocker.write_text("file, not a directory")
        code = main(["gen", "--config", cfg,
                     "--out", str(blocker / "sub")])
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["align", "--query", "nope", "--target", "seq001"],
        ["synth", "--seed-seq", "nope", "--steps", "3"],
    ], ids=["align", "synth"])
    def test_unknown_sequence_id_is_validation_error(self, pipeline, command, capsys):
        root, cfg, data, model, pred = pipeline
        paths = ["--data", str(data), "--model", str(model), "--out", str(root / "y.out")]
        if command[0] == "synth":
            paths += ["--pred", str(pred)]
        assert main([command[0], "--config", cfg, *paths, *command[1:]]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "'nope'" in err
        assert not (root / "y.out").exists()


def test_partly_set_penalties_reach_training(pipeline, capsys):
    # an outlier price below every data cost leaves no anchors to train on
    root, _, data, model, _ = pipeline
    cfg = root / "outlier_cfg.json"
    cfg.write_text(json.dumps({**TINY, "penalties": {"outlier_cost": 1e-9}}))
    out = root / "outlier_model.bin"
    assert main(["train-embed", "--config", str(cfg), "--data", str(data),
                 "--out", str(out)]) == 0
    assert "final mean loss n/a" in capsys.readouterr().out
    assert out.read_bytes() != model.read_bytes()


class TestDeterminism:
    def test_gen_twice_is_byte_identical(self, workspace):
        root, cfg = workspace
        a, b = root / "det_a", root / "det_b"
        assert main(["gen", "--config", cfg, "--out", str(a)]) == 0
        assert main(["gen", "--config", cfg, "--out", str(b)]) == 0
        for f in sorted(p.name for p in a.iterdir()):
            assert (a / f).read_bytes() == (b / f).read_bytes()

    def test_seed_flag_overrides(self, workspace):
        root, cfg = workspace
        a, b = root / "seed_a", root / "seed_b"
        assert main(["gen", "--config", cfg, "--seed", "123", "--out", str(a)]) == 0
        assert main(["gen", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "seq000.f32").read_bytes() != (b / "seq000.f32").read_bytes()

    def test_gen_without_config_writes_the_reference_data(self, tmp_path):
        """No ``--config`` runs ``RunConfig()``, whose generator is the reference
        benchmark: the 12 sequences at seed 20240511, bit for bit."""
        reference = GeneratorConfig(seed=20240511)
        cli, lib = tmp_path / "cli", tmp_path / "lib"
        assert main(["gen", "--out", str(cli)]) == 0
        write_seqpack(generate_dataset(reference), lib)
        names = sorted(p.name for p in lib.iterdir())
        assert sorted(p.name for p in cli.iterdir()) == names
        assert len(names) == 1 + 2 * 12  # the manifest, then frames and latents
        for f in names:
            assert (cli / f).read_bytes() == (lib / f).read_bytes()


# every command path's flags: (required, type); -h/--help aside
COMMON_FLAGS = {"--seed": (False, int), "--config": (False, None), "--out": (True, None)}
REQUIRED = (True, None)
ARGV_SURFACE = {
    "gen": {},
    "align": {"--data": REQUIRED, "--model": REQUIRED, "--query": REQUIRED,
              "--target": REQUIRED, "--chunk-len": (False, int)},
    "train-embed": {"--data": REQUIRED},
    "train-dyn": {"--data": REQUIRED, "--model": REQUIRED},
    "eval retrieval": {"--data": REQUIRED, "--model": REQUIRED},
    "eval zeroshot": {"--data": REQUIRED, "--test": REQUIRED, "--model": REQUIRED},
    "eval predict": {"--data": REQUIRED, "--model": REQUIRED, "--pred": REQUIRED},
    "eval alignment": {"--model": REQUIRED},
    "project": {"--data": REQUIRED, "--model": REQUIRED},
    "synth": {"--data": REQUIRED, "--model": REQUIRED, "--pred": REQUIRED,
              "--seed-seq": REQUIRED, "--steps": (True, int)},
}


def command_flags(parser, words=()) -> dict[str, dict]:
    """``{"<command words>": {flag: (required, type)}}`` for every leaf command."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(words): {s: (a.required, a.type) for a in parser._actions
                                  for s in a.option_strings if s not in ("-h", "--help")}}
    return {path: flags for word, sub in subs[0].choices.items()
            for path, flags in command_flags(sub, (*words, word)).items()}


def test_argv_surface_is_pinned():
    assert command_flags(build_parser()) == {
        path: {**COMMON_FLAGS, **flags} for path, flags in ARGV_SURFACE.items()}


def test_inputs_load_in_order_data_test_model(pipeline, capsys):
    root, cfg, data, _, _ = pipeline
    test, model = root / "no_test", root / "no_model.bin"
    assert main(["eval", "zeroshot", "--config", cfg, "--data", str(data),
                 "--test", str(test), "--model", str(model),
                 "--out", str(root / "order")]) == 1
    err = capsys.readouterr().err
    assert "FileNotFoundError" in err and str(test) in err and str(model) not in err
