import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from seqrep.cli import main
from seqrep.evaluate import EvalReport
from seqrep.seqpack import read_seqpack

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
        rep = EvalReport.load(out)
        assert rep.metric == "retrieval_auc"
        assert 0.0 <= rep.values["auc"] <= 1.0
        assert (root / "retrieval.txt").exists()

    def test_eval_zeroshot(self, pipeline):
        root, cfg, data, model, _ = pipeline
        out = root / "zeroshot"
        assert main(["eval", "zeroshot", "--config", cfg, "--data", str(data),
                     "--test", str(data), "--model", str(model),
                     "--out", str(out)]) == 0
        rep = EvalReport.load(out)
        assert rep.values["mean_error"] == pytest.approx(0.0, abs=1e-9)

    def test_eval_predict_writes_curve(self, pipeline):
        root, cfg, data, model, pred = pipeline
        out = root / "predict"
        assert main(["eval", "predict", "--config", cfg, "--data", str(data),
                     "--model", str(model), "--pred", str(pred),
                     "--out", str(out)]) == 0
        curve = Path(str(out) + ".curve.dat").read_text().splitlines()
        assert curve[0].startswith("#")
        assert len(curve) == 1 + TINY["eval"]["k_max"]

    def test_eval_alignment(self, pipeline):
        root, cfg, _, model, _ = pipeline
        out = root / "alignment"
        assert main(["eval", "alignment", "--config", cfg, "--model", str(model),
                     "--out", str(out)]) == 0
        rep = EvalReport.load(out)
        assert set(rep.values) == {"dp_mean", "nn_mean"}

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

    def test_align_default_chunk_len_is_40(self, pipeline):
        root, _, data, model, _ = pipeline
        out = root / "match40.json"
        assert main(["align", "--data", str(data), "--model", str(model),
                     "--query", "seq000", "--target", "seq001",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["chunk_len"] == 40

    def test_project(self, pipeline):
        root, cfg, data, model, _ = pipeline
        out = root / "proj.txt"
        assert main(["project", "--config", cfg, "--data", str(data),
                     "--model", str(model), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        ds = read_seqpack(data)
        assert len(lines) == 1 + sum(len(s) for s in ds)

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
        assert "usage" in capsys.readouterr().err.lower()

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

    def test_negative_noise_sigma_fails_before_reading_data(self, workspace, capsys):
        root, _ = workspace
        cfg = root / "noise_cfg.json"
        cfg.write_text(json.dumps({**TINY, "train": {**TINY["train"], "noise_sigma": -1.0}}))
        code = main(["train-embed", "--config", str(cfg), "--data", str(root / "nothing"),
                     "--out", str(root / "noise.bin")])
        assert code == 1
        assert "ConfigError: noise_sigma must be >= 0" in capsys.readouterr().err

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
        with np.errstate(all="ignore"):
            code = main(["train-embed", "--config", str(cfg), "--data", str(data),
                         "--out", str(root / "diverged.bin")])
        assert code == 2
        assert "DivergenceError" in capsys.readouterr().err
        assert not (root / "diverged.bin").exists()

    @pytest.mark.parametrize("command, section, learning_rate, what", [
        ("train-embed", "train", 1e150, "collapsed"),
        ("train-dyn", "predictor", 100.0, "blew up"),
    ])
    def test_collapse_and_blow_up_are_runtime_errors(self, pipeline, command, section,
                                                     learning_rate, what, capsys):
        root, _, data, model, _ = pipeline
        cfg = root / "unstable_cfg.json"
        cfg.write_text(json.dumps({**TINY, section: {**TINY[section],
                                                     "learning_rate": learning_rate}}))
        out = root / "unstable.bin"
        argv = [command, "--config", str(cfg), "--data", str(data), "--out", str(out)]
        if command == "train-dyn":
            argv += ["--model", str(model)]
        with np.errstate(all="ignore"):
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert "DivergenceError" in err and "at epoch 0" in err and what in err
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
