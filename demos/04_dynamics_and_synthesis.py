# Demo 4: temporal transitions — prediction, synthesis, super-resolution.
#
# A gated recurrent cell reads a short window of embedded frames and
# regresses the next frame's embedding. On top of that: recursive activity
# synthesis (predict, decode by nearest training frame, feed back) and
# on-sphere interpolation between consecutive postures.
#
# Trains the embedding and the predictor from scratch; takes a couple of
# minutes on a laptop CPU.

import time

import numpy as np

import seqrep as sr

run = sr.RunConfig()
ds = sr.generate_dataset(run.generator)

t0 = time.time()
model, _ = sr.train(ds, run.train, chunk_len=run.chunk_len, rng=sr.RngState(99))
pred, plog = sr.train_predictor(ds, model, context_len=run.context_len,
                                config=run.predictor, rng=sr.RngState(4))
print(f"embedding + predictor trained in {time.time() - t0:.0f}s "
      f"(predictor loss {plog.epoch_loss[0]:.3f} -> {plog.epoch_loss[-1]:.4f})")

# 1. Next-frame prediction vs the k-nearest-neighbor bar: predicting beats
#    looking up the true next frame's 2nd nearest neighbor.
curve = sr.knn_prediction_curve(ds, model, pred, k_max=10,
                               exclusion_window=run.eval.exclusion_window)
print(f"\nprediction error {curve.prediction_error_mean:.4f}")
for k in (1, 2, 5, 10):
    print(f"  {k}-NN bar: {curve.knn_mean[k - 1]:.4f}")

# 2. Recursive synthesis: start from 4 seed frames and roll the activity
#    forward, decoding each predicted embedding to a real training frame.
seq = ds.sequences[0]
trail = sr.synthesize(pred, model, seq.frames[:run.context_len], 30, ds)
phases = [np.arctan2(*ds.by_id(sid).latent[idx][[1, 0]]) for sid, idx in trail]
forward = np.diff(np.unwrap(phases)) > 0
print(f"\nsynthesized 30 steps, {forward.mean():.0%} advance the activity cycle")
print("first decoded frames:", trail[:6])

# 3. Temporal super-resolution: the embedding between frames t and t+2,
#    interpolated on the sphere, lands closer to frame t+1 than either
#    endpoint does.
emb = sr.embed_batch(model, seq.frames)
wins = total = 0
for t in range(0, len(seq) - 2, 3):
    mid = sr.interpolate_features(emb[t], emb[t + 2], 1)[0]
    d_mid = np.linalg.norm(mid - emb[t + 1])
    wins += d_mid < min(np.linalg.norm(emb[t] - emb[t + 1]),
                        np.linalg.norm(emb[t + 2] - emb[t + 1]))
    total += 1
print(f"\nmidpoint interpolant wins {wins}/{total} triples")
