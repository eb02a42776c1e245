"""Command-line entry point wiring generation, training, and evaluation.

Exit codes: 0 success, 1 validation/usage error, 2 runtime error. Every
command takes ``--seed`` to override the configured seed; identical inputs
plus identical seed reproduce byte-identical outputs at a fixed BLAS thread
count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

import numpy as np

from .core import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    RngState,
    write_file,
)
from . import align as align_mod
from . import dynamics, embed, evaluate, seqpack, synthdata
from .config import RunConfig, load_config

logger = logging.getLogger("seqrep")

_VALIDATION_ERRORS = (
    ConfigError,
    DimensionError,
    DegenerateInputError,
    FormatError,
    FileNotFoundError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting the process."""

    def error(self, message):
        raise _UsageError(message)


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_seed(args.seed)
    if getattr(args, "chunk_len", None) is not None:
        cfg = dataclasses.replace(cfg, chunk_len=args.chunk_len)
    return cfg


def _matching_payload(q, t, matchings, penalties) -> list[dict]:
    # π indexes only its chunk's frames, so the target from the chunk's offset on scores alike
    return [
        {
            "target_offset": int(m.target_offset),
            "pi": [int(v) for v in m.pi],
            "total_cost": float(m.total_cost),
            "breakdown": dataclasses.asdict(
                align_mod.alignment_cost(q, t[m.target_offset:], m.pi, penalties)),
        }
        for m in matchings
    ]


def _cmd_gen(args) -> int:
    cfg = _load_run_config(args)
    dataset = synthdata.generate_dataset(cfg.generator)
    seqpack.write_seqpack(dataset, args.out)
    print(f"wrote {len(dataset)} sequences to {args.out}")
    return 0


def _cmd_align(args) -> int:
    cfg = _load_run_config(args)
    dataset = seqpack.read_seqpack(args.data)
    model = seqpack.load_model(args.model)
    query = dataset.by_id(args.query)
    target = dataset.by_id(args.target)
    q = embed.embed_batch(model, query.frames)
    t = embed.embed_batch(model, target.frames)
    penalties = cfg.penalties.resolve(q, t)
    matchings = align_mod.match_features(q, t, penalties=penalties,
                                         chunk_len=cfg.chunk_len)
    write_file(args.out, json.dumps({
        "query": args.query,
        "target": args.target,
        "chunk_len": cfg.chunk_len,
        "penalties": dataclasses.asdict(penalties),
        "matchings": _matching_payload(q, t, matchings, penalties),
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(matchings)} chunk matchings to {args.out}")
    return 0


def _cmd_train_embed(args) -> int:
    cfg = _load_run_config(args)
    dataset = seqpack.read_seqpack(args.data)
    model, log = embed.train(dataset, cfg.train,
                             penalties=cfg.penalties,
                             chunk_len=cfg.chunk_len,
                             rng=RngState(cfg.seed).split(10))
    seqpack.save_model(model, args.out)
    final = f"{np.mean(log.batch_loss[-50:]):.4f}" if log.batch_loss else "n/a"
    print(f"trained {log.epochs_run} epochs (final mean loss {final}); "
          f"model saved to {args.out}")
    return 0


def _cmd_train_dyn(args) -> int:
    cfg = _load_run_config(args)
    dataset = seqpack.read_seqpack(args.data)
    model = seqpack.load_model(args.model)
    pred, log = dynamics.train_predictor(dataset, model,
                                         context_len=cfg.context_len,
                                         config=cfg.predictor,
                                         rng=RngState(cfg.seed).split(20))
    seqpack.save_predictor(pred, args.out)
    print(f"trained {len(log.epoch_loss)} epochs "
          f"(final loss {log.epoch_loss[-1]:.6f}); predictor saved to {args.out}")
    return 0


def _cmd_eval_retrieval(args) -> int:
    cfg = _load_run_config(args)
    dataset = seqpack.read_seqpack(args.data)
    model = seqpack.load_model(args.model)
    ev = cfg.eval
    auc = evaluate.retrieval_auc(dataset, model, pose_epsilon=ev.pose_epsilon,
                                 num_queries=ev.num_queries,
                                 rng=RngState(cfg.seed).split(30))
    whitener = embed.fit_whitener(dataset.all_frames())
    auc_white = evaluate.retrieval_auc(dataset, whitener,
                                       pose_epsilon=ev.pose_epsilon,
                                       num_queries=ev.num_queries,
                                       rng=RngState(cfg.seed).split(30))
    report = evaluate.EvalReport(
        metric="retrieval_auc",
        values={"auc": auc, "auc_whitened_raw": auc_white},
        config={"num_queries": ev.num_queries},
        seed=cfg.seed,
    )
    report.save(args.out)
    print(f"retrieval auc {auc:.4f} (whitened-raw baseline {auc_white:.4f})")
    return 0


def _cmd_eval_zeroshot(args) -> int:
    cfg = _load_run_config(args)
    train_ds = seqpack.read_seqpack(args.data)
    test_ds = seqpack.read_seqpack(args.test)
    model = seqpack.load_model(args.model)
    zs = evaluate.zero_shot_pose_error(train_ds, test_ds, model)
    report = evaluate.EvalReport(
        metric="zero_shot_pose_error",
        values={"mean_error": zs.mean_error,
                "oracle_mean_error": zs.oracle_mean_error},
        series={"thresholds": list(zs.thresholds),
                "accuracy": list(zs.accuracy),
                "oracle_accuracy": list(zs.oracle_accuracy)},
        seed=cfg.seed,
    )
    report.save(args.out)
    print(f"zero-shot mean latent error {zs.mean_error:.4f} "
          f"(oracle bound {zs.oracle_mean_error:.4f})")
    return 0


def _cmd_eval_predict(args) -> int:
    cfg = _load_run_config(args)
    dataset = seqpack.read_seqpack(args.data)
    model = seqpack.load_model(args.model)
    pred = seqpack.load_predictor(args.pred)
    ev = cfg.eval
    curve = evaluate.knn_prediction_curve(dataset, model, pred, k_max=ev.k_max,
                                          exclusion_window=ev.exclusion_window)
    report = evaluate.EvalReport(
        metric="knn_prediction_curve",
        values={"prediction_error_mean": curve.prediction_error_mean,
                "prediction_error_std": curve.prediction_error_std},
        series={"k": list(map(float, curve.k)),
                "knn_mean": list(curve.knn_mean),
                "knn_std": list(curve.knn_std)},
        config={"k_max": ev.k_max, "exclusion_window": ev.exclusion_window},
        seed=cfg.seed,
    )
    report.save(args.out)
    evaluate.write_curve(str(args.out) + ".curve.dat", curve.k, curve.knn_mean,
                         header="k mean_knn_distance")
    print(f"prediction error {curve.prediction_error_mean:.4f}, "
          f"2nd-NN bar {curve.knn_mean[min(1, len(curve.knn_mean) - 1)]:.4f}")
    return 0


def _cmd_eval_alignment(args) -> int:
    cfg = _load_run_config(args)
    model = seqpack.load_model(args.model)
    ev = cfg.eval
    dp_scores, nn_scores = evaluate.alignment_benchmark(
        model, cfg.generator, ev.alignment_pairs, cfg.seed, cfg.penalties)
    report = evaluate.EvalReport(
        metric="alignment_accuracy",
        values={"dp_mean": float(np.mean(dp_scores)),
                "nn_mean": float(np.mean(nn_scores))},
        series={"dp": [float(v) for v in dp_scores],
                "nn": [float(v) for v in nn_scores]},
        config={"pairs": ev.alignment_pairs},
        seed=cfg.seed,
    )
    report.save(args.out)
    print(f"alignment accuracy dp {np.mean(dp_scores):.4f} "
          f"vs nearest-neighbor {np.mean(nn_scores):.4f}")
    return 0


def _cmd_project(args) -> int:
    cfg = _load_run_config(args)
    dataset = seqpack.read_seqpack(args.data)
    model = seqpack.load_model(args.model)
    proj = evaluate.pca_project_2d(dataset, model)
    lines = ["# sequence frame x y  "
             f"(explained variance {proj.explained_variance_ratio[0]:.4f} "
             f"{proj.explained_variance_ratio[1]:.4f})"]
    for (sid, idx), (x, y) in zip(proj.frame_refs, proj.coords):
        lines.append(f"{sid} {idx} {float(x)!r} {float(y)!r}")
    write_file(args.out, "\n".join(lines) + "\n")
    print(f"projected {len(proj.frame_refs)} frames to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    dataset = seqpack.read_seqpack(args.data)
    model = seqpack.load_model(args.model)
    pred = seqpack.load_predictor(args.pred)
    seed_frames = dataset.by_id(args.seed_seq).frames[:pred.context_len]
    trail = dynamics.synthesize(pred, model, seed_frames, args.steps, dataset)
    write_file(args.out, "\n".join(f"{sid} {idx}" for sid, idx in trail) + "\n")
    print(f"synthesized {len(trail)} steps to {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="seqrep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")
        p.add_argument("--config", default=None, help="run config JSON")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--out", required=True, help="output SeqPack directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("align", help="match one sequence against another")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--chunk-len", dest="chunk_len", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("train-embed", help="train the posture embedding")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_embed)

    p = sub.add_parser("train-dyn", help="train the recurrent predictor")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_dyn)

    p = sub.add_parser("eval", help="run an evaluation protocol")
    pe = p.add_subparsers(dest="protocol", required=True)
    for name, func in (("retrieval", _cmd_eval_retrieval), ("zeroshot", _cmd_eval_zeroshot),
                       ("predict", _cmd_eval_predict), ("alignment", _cmd_eval_alignment)):
        pp = pe.add_parser(name)
        common(pp)
        pp.add_argument("--out", required=True)
        if name != "alignment":
            pp.add_argument("--data", required=True)
        pp.add_argument("--model", required=True)
        if name == "zeroshot":
            pp.add_argument("--test", required=True)
        if name == "predict":
            pp.add_argument("--pred", required=True)
        pp.set_defaults(func=func)

    p = sub.add_parser("project", help="2D projection of the embedded dataset")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("synth", help="recursively synthesize an activity")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--seed-seq", dest="seed_seq", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"seqrep: error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"seqrep: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        logger.exception("command failed")
        print(f"seqrep: runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    logging.basicConfig(level=logging.WARNING)
    sys.exit(main())


if __name__ == "__main__":
    entry()
