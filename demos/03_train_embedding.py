# Demo 3: learning the posture embedding from matchings alone.
#
# No labels anywhere: exact chunk matchings between sequence pairs propose
# (anchor, positive) correspondences, negatives are mined near the positive
# at a falling percentile, and a small rectified encoder with a unit-norm
# head reconciles all of it with a triplet ranking loss. Early epochs
# bootstrap every similarity from whitened raw features; once the encoder
# outgrows them it takes over proposing its own matchings.
#
# Takes about 6 s on a 2-core Xeon.

import time

import seqrep as sr
from seqrep.config import reference_run_config

run = reference_run_config()
ds = sr.generate_dataset(run.generator)
rng = sr.RngState(1)

whitener = sr.fit_whitener(ds.all_frames())
auc_white = sr.retrieval_auc(ds, whitener, num_queries=200, rng=rng.split(0))
print(f"whitened-raw baseline AUC: {auc_white:.3f}")

t0 = time.time()
model, log = sr.train(ds, run.train, chunk_len=run.chunk_len, rng=sr.RngState(99))
print(f"trained {log.epochs_run} epochs in {time.time() - t0:.0f}s")
print(f"  mean batch loss: epoch 0 {log.epoch_loss[0]:.4f} -> "
      f"epoch {log.epochs_run - 1} {log.epoch_loss[-1]:.4f}")
schedule = [run.train.percentile_at(e) for e in range(8)]
print(f"  negative-mining percentile schedule: {schedule} ...")

auc = sr.retrieval_auc(ds, model, num_queries=200, rng=rng.split(0))
print(f"\ntrained retrieval AUC: {auc:.3f}  (baseline {auc_white:.3f})")

# Zero-shot pose transfer: adopt the latent pose of the nearest embedded
# training frame, against the ground-truth-similarity upper bound.
half = len(ds) // 2
train_half = sr.Dataset(dimension=ds.dimension, sequences=ds.sequences[:half])
test_half = sr.Dataset(dimension=ds.dimension, sequences=ds.sequences[half:])
zs = sr.zero_shot_pose_error(train_half, test_half, model)
print(f"\nzero-shot latent error: {zs.mean_error:.3f} "
      f"(oracle bound {zs.oracle_mean_error:.3f})")

# The embedding also powers sequence neighborhoods.
nn = sr.sequence_neighbors(ds, model, 3)
print(f"\nneighbors of seq000: {nn['seq000']}")

# Manifold structure: one latent cycle of a sequence should trace a closed
# loop in the 2D projection of the trained embedding, the way repetitive
# gait cycles fold onto themselves.
import numpy as np

proj = sr.pca_project_2d(ds, model)
offsets = np.cumsum([0] + [len(s) for s in ds])
print("\nsingle-cycle loop closure (trail start-end distance / trail diameter):")
for si, s in enumerate(list(ds)[:4]):
    phase = np.unwrap(np.arctan2(s.latent[:, 1], s.latent[:, 0]))
    end = int(np.searchsorted(phase, phase[0] + 2 * np.pi))
    trail = proj.coords[offsets[si]:offsets[si] + end + 1]
    diam = np.max(np.linalg.norm(trail[:, None] - trail[None], axis=-1))
    closure = np.linalg.norm(trail[0] - trail[-1]) / diam
    print(f"  {s.id}: {closure:.3f}")
