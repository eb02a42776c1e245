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
    pairwise_sqdist,
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
    """argparse that prints the usage of the (sub)command whose arguments were
    wrong and raises, instead of exiting the process."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _cmd_gen(args, cfg) -> str:
    dataset = synthdata.generate_dataset(cfg.generator)
    seqpack.write_seqpack(dataset, args.out)
    return f"wrote {len(dataset)} sequences to {args.out}"


def _cmd_align(args, cfg, data, model) -> str:
    q = embed.embed_batch(model, data.by_id(args.query).frames)
    t = embed.embed_batch(model, data.by_id(args.target).frames)
    d2 = pairwise_sqdist(q, t)
    penalties = cfg.penalties._of(d2)
    matchings = align_mod._match_pairs([(d2, penalties)], cfg.chunk_len)[0]
    # π indexes only its chunk's frames, so the target from the chunk's offset on scores alike
    payload = [{"target_offset": int(m.target_offset),
                "pi": [int(v) for v in m.pi],
                "total_cost": float(m.total_cost),
                "breakdown": dataclasses.asdict(align_mod.alignment_cost(
                    q, t[m.target_offset:], m.pi, penalties))}
               for m in matchings]
    write_file(args.out, json.dumps({
        "query": args.query,
        "target": args.target,
        "chunk_len": cfg.chunk_len,
        "penalties": dataclasses.asdict(penalties),
        "matchings": payload,
    }, indent=2, sort_keys=True) + "\n")
    return f"wrote {len(matchings)} chunk matchings to {args.out}"


def _cmd_train_embed(args, cfg, data) -> str:
    model, log = embed.train(data, cfg.train, penalties=cfg.penalties,
                             chunk_len=cfg.chunk_len, rng=RngState(cfg.seed).split(10))
    seqpack.save_model(model, args.out)
    final = f"{np.mean(log.batch_loss[-50:]):.4f}" if log.batch_loss else "n/a"
    return (f"trained {log.epochs_run} epochs (final mean loss {final}); "
            f"model saved to {args.out}")


def _cmd_train_dyn(args, cfg, data, model) -> str:
    pred, log = dynamics.train_predictor(data, model, context_len=cfg.context_len,
                                         config=cfg.predictor,
                                         rng=RngState(cfg.seed).split(20))
    seqpack.save_predictor(pred, args.out)
    return (f"trained {len(log.epoch_loss)} epochs "
            f"(final loss {log.epoch_loss[-1]:.6f}); predictor saved to {args.out}")


def _report(args, cfg, metric, result, **config) -> None:
    """Save ``result`` (a protocol's dataclass or a dict) as ``metric``'s EvalReport:
    each sequence field a series of floats, every other field a value."""
    fields = result if isinstance(result, dict) else dataclasses.asdict(result)
    evaluate.EvalReport(
        metric=metric,
        values={k: float(v) for k, v in fields.items() if np.ndim(v) == 0},
        series={k: [float(x) for x in v] for k, v in fields.items() if np.ndim(v)},
        config=config,
        seed=cfg.seed,
    ).save(args.out)


def _cmd_eval_retrieval(args, cfg, data, model) -> str:
    ev = cfg.eval
    auc, auc_white = (evaluate.retrieval_auc(data, embedder, pose_epsilon=ev.pose_epsilon,
                                             num_queries=ev.num_queries,
                                             rng=RngState(cfg.seed).split(30))
                      for embedder in (model, embed.fit_whitener(data.all_frames())))
    _report(args, cfg, "retrieval_auc", {"auc": auc, "auc_whitened_raw": auc_white},
            num_queries=ev.num_queries)
    return f"retrieval auc {auc:.4f} (whitened-raw baseline {auc_white:.4f})"


def _cmd_eval_zeroshot(args, cfg, data, test, model) -> str:
    zs = evaluate.zero_shot_pose_error(data, test, model)
    _report(args, cfg, "zero_shot_pose_error", zs)
    return (f"zero-shot mean latent error {zs.mean_error:.4f} "
            f"(oracle bound {zs.oracle_mean_error:.4f})")


def _cmd_eval_predict(args, cfg, data, model, pred) -> str:
    ev = cfg.eval
    curve = evaluate.knn_prediction_curve(data, model, pred, k_max=ev.k_max,
                                          exclusion_window=ev.exclusion_window)
    _report(args, cfg, "knn_prediction_curve", curve,
            k_max=ev.k_max, exclusion_window=ev.exclusion_window)
    evaluate.write_curve(str(args.out) + ".curve.dat", curve.k, curve.knn_mean,
                         header="k mean_knn_distance")
    return (f"prediction error {curve.prediction_error_mean:.4f}, "
            f"2nd-NN bar {curve.knn_mean[min(1, len(curve.knn_mean) - 1)]:.4f}")


def _cmd_eval_alignment(args, cfg, model) -> str:
    ev = cfg.eval
    dp, nn = evaluate.alignment_benchmark(model, cfg.generator, ev.alignment_pairs,
                                          cfg.seed, cfg.penalties)
    _report(args, cfg, "alignment_accuracy",
            {"dp_mean": np.mean(dp), "nn_mean": np.mean(nn), "dp": dp, "nn": nn},
            pairs=ev.alignment_pairs)
    return f"alignment accuracy dp {np.mean(dp):.4f} vs nearest-neighbor {np.mean(nn):.4f}"


def _cmd_project(args, cfg, data, model) -> str:
    proj = evaluate.pca_project_2d(data, model)
    lines = ["# sequence frame x y  "
             f"(explained variance {proj.explained_variance_ratio[0]:.4f} "
             f"{proj.explained_variance_ratio[1]:.4f})"]
    for (sid, idx), (x, y) in zip(proj.frame_refs, proj.coords):
        lines.append(f"{sid} {idx} {float(x)!r} {float(y)!r}")
    write_file(args.out, "\n".join(lines) + "\n")
    return f"projected {len(proj.frame_refs)} frames to {args.out}"


def _cmd_synth(args, cfg, data, model, pred) -> str:
    seed_frames = data.by_id(args.seed_seq).frames[:pred.context_len]
    trail = dynamics.synthesize(pred, model, seed_frames, args.steps, data)
    write_file(args.out, "\n".join(f"{sid} {idx}" for sid, idx in trail) + "\n")
    return f"synthesized {len(trail)} steps to {args.out}"


# input flag -> loader; a command's inputs load in this order, after its config
_LOADERS = {"data": seqpack.read_seqpack, "test": seqpack.read_seqpack,
            "model": seqpack.load_model, "pred": seqpack.load_predictor}
_REQUIRED = {"required": True}
_GROUP_HELP = {"eval": "run an evaluation protocol"}
# command words -> (help, input flags, extra flags, handler(args, cfg, **inputs) -> line)
_COMMANDS = {
    ("gen",): ("generate a synthetic dataset", (), {}, _cmd_gen),
    ("align",): ("match one sequence against another", ("data", "model"),
                 {"--query": _REQUIRED, "--target": _REQUIRED, "--chunk-len": {"type": int}},
                 _cmd_align),
    ("train-embed",): ("train the posture embedding", ("data",), {}, _cmd_train_embed),
    ("train-dyn",): ("train the recurrent predictor", ("data", "model"), {}, _cmd_train_dyn),
    ("eval", "retrieval"): (None, ("data", "model"), {}, _cmd_eval_retrieval),
    ("eval", "zeroshot"): (None, ("data", "model", "test"), {}, _cmd_eval_zeroshot),
    ("eval", "predict"): (None, ("data", "model", "pred"), {}, _cmd_eval_predict),
    ("eval", "alignment"): (None, ("model",), {}, _cmd_eval_alignment),
    ("project",): ("2D projection of the embedded dataset", ("data", "model"), {},
                   _cmd_project),
    ("synth",): ("recursively synthesize an activity", ("data", "model", "pred"),
                 {"--seed-seq": _REQUIRED, "--steps": {"type": int, "required": True}},
                 _cmd_synth),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="seqrep", description=__doc__)
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for words, (help_, inputs, extras, _) in _COMMANDS.items():
        group = words[:-1]
        if group not in subparsers:
            p = subparsers[()].add_parser(group[0], help=_GROUP_HELP[group[0]])
            subparsers[group] = p.add_subparsers(dest="protocol", required=True)
        p = subparsers[group].add_parser(words[-1], **({"help": help_} if help_ else {}))
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--config", default=None, help="run config JSON")
        for name in inputs:
            p.add_argument(f"--{name}", required=True)
        for flag, kwargs in extras.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", required=True)
        p.set_defaults(words=words, chunk_len=None)  # only align takes --chunk-len
    return parser


def _run(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    if args.chunk_len is not None:
        cfg = dataclasses.replace(cfg, chunk_len=args.chunk_len)
    _, inputs, _, handler = _COMMANDS[args.words]
    loaded = {name: load(getattr(args, name)) for name, load in _LOADERS.items()
              if name in inputs}
    print(handler(args, cfg, **loaded))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"seqrep: error: {exc}", file=sys.stderr)
        return 1
    try:
        return _run(args)
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
