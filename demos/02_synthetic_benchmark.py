# Demo 2: the synthetic activity benchmark.
#
# Every sequence walks a shared cyclic latent trajectory at its own jittered
# speed; observations pass through a fixed nonlinear feature map, then a
# per-sequence affine nuisance (mixing + large offset) and noise. Raw
# feature distance is therefore nearly useless across sequences, while the
# latent track remains available as ground truth.

import numpy as np

import seqrep as sr

# 1. Generate the reference benchmark (12 sequences, 64-dim features,
#    2-dim latent). Same config + seed => bit-identical data.
cfg = sr.RunConfig().generator
ds = sr.generate_dataset(cfg)
again = sr.generate_dataset(cfg)
print(f"{len(ds)} sequences, feature dim {ds.dimension}, "
      f"latent dim {ds.sequences[0].latent.shape[1]}")
print("deterministic:", np.array_equal(ds.sequences[0].frames,
                                       again.sequences[0].frames))

for s in list(ds)[:3]:
    z = s.latent
    cycles = (np.unwrap(np.arctan2(z[:, 1], z[:, 0]))[-1]
              - np.unwrap(np.arctan2(z[:, 1], z[:, 0]))[0]) / (2 * np.pi)
    print(f"  {s.id}: {len(s)} frames, {cycles:.2f} latent cycles")

# 2. How hard is it? Rank other-sequence frames by distance and score the
#    ranking against latent-pose ground truth (AUC, 0.5 = chance).
rng = sr.RngState(1)
auc_raw = sr.retrieval_auc(ds, lambda x: np.asarray(x), num_queries=200,
                           rng=rng.split(0))
whitener = sr.fit_whitener(ds.all_frames())
auc_white = sr.retrieval_auc(ds, whitener, num_queries=200, rng=rng.split(0))
print(f"\nretrieval AUC  raw features: {auc_raw:.3f}   "
      f"whitened: {auc_white:.3f}")

# 3. Resampled pairs: one latent trajectory rendered twice with independent
#    timing and nuisance, plus the true frame correspondence.
pair_cfg = sr.alignment_pair_config(cfg)
query, target, truth = sr.resample_pair(pair_cfg, seed=3)
print(f"\nresampled pair: {len(query)} query frames -> {len(target)} target frames")
print("truth is monotone:", bool(np.all(np.diff(truth) >= 0)))

# 4. Datasets round-trip through the SeqPack directory format
#    (32-bit little-endian payloads + JSON manifest).
import tempfile
from pathlib import Path

with tempfile.TemporaryDirectory() as tmp:
    sr.write_seqpack(ds, Path(tmp) / "pack")
    back = sr.read_seqpack(Path(tmp) / "pack")
    print(f"\nseqpack round-trip: {len(back)} sequences, "
          f"f32-exact: {np.array_equal(back.sequences[0].frames, ds.sequences[0].frames.astype(np.float32).astype(np.float64))}")
