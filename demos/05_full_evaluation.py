# Demo 5: the full evaluation harness, via the library and via the CLI.
#
# Runs every metric on a reduced benchmark so the whole script finishes in
# well under a minute, then drives the same pipeline through the command
# line into report files.

import json
import tempfile
from pathlib import Path

import numpy as np

import seqrep as sr
from seqrep.cli import main as seqrep_cli

# A scaled-down benchmark keeps this demo quick; the context length and the
# exclusion window are the run defaults, as the CLI run below takes them.
run = sr.RunConfig()
cfg = sr.GeneratorConfig(num_sequences=8, frames_range=(80, 90), seed=5)
train_cfg = sr.TrainConfig(max_epochs=12, bootstrap_epochs=4)
ds = sr.generate_dataset(cfg)
model, _ = sr.train(ds, train_cfg, chunk_len=45, rng=sr.RngState(2))
pred, _ = sr.train_predictor(ds, model, context_len=run.context_len,
                             config=sr.PredictorConfig(max_epochs=15),
                             rng=sr.RngState(3))

rng = sr.RngState(1)
print("== library metrics ==")
auc = sr.retrieval_auc(ds, model, num_queries=200, rng=rng.split(0))
print(f"retrieval AUC          {auc:.3f}")

half = sr.Dataset(dimension=ds.dimension, sequences=ds.sequences[:4])
rest = sr.Dataset(dimension=ds.dimension, sequences=ds.sequences[4:])
zs = sr.zero_shot_pose_error(half, rest, model)
print(f"zero-shot latent error {zs.mean_error:.3f} (oracle {zs.oracle_mean_error:.3f})")

curve = sr.knn_prediction_curve(ds, model, pred, k_max=5,
                                exclusion_window=run.eval.exclusion_window)
print(f"prediction error       {curve.prediction_error_mean:.3f} "
      f"(2nd-NN bar {curve.knn_mean[1]:.3f})")

dp_accs, nn_accs = sr.alignment_benchmark(model, cfg, pairs=5, seed=0)
print(f"alignment accuracy     {np.mean(dp_accs):.3f} over 5 pairs "
      f"(per-frame nearest neighbor {np.mean(nn_accs):.3f})")

proj = sr.pca_project_2d(ds, model)
print(f"2D projection explains {sum(proj.explained_variance_ratio):.0%} of variance")

# == the same flow through the CLI ==
print("\n== CLI pipeline ==")
run_cfg = {
    "seed": 5,
    "chunk_len": 45,
    "generator": {"num_sequences": 8, "frames_range": [80, 90], "seed": 5},
    "train": {"max_epochs": 12, "bootstrap_epochs": 4},
    "predictor": {"max_epochs": 15},
    "eval": {"num_queries": 200, "k_max": 5, "alignment_pairs": 5},
}
with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    (root / "cfg.json").write_text(json.dumps(run_cfg))
    for argv in (
        ["gen", "--config", str(root / "cfg.json"), "--out", str(root / "data")],
        ["train-embed", "--config", str(root / "cfg.json"),
         "--data", str(root / "data"), "--out", str(root / "model.bin")],
        ["eval", "retrieval", "--config", str(root / "cfg.json"),
         "--data", str(root / "data"), "--model", str(root / "model.bin"),
         "--out", str(root / "retrieval")],
    ):
        code = seqrep_cli(argv)
        assert code == 0, argv
    print((root / "retrieval.txt").read_text().strip())
