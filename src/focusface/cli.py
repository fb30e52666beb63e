"""Command-line entry point: one binary, six subcommands.

gen-data    write a synthetic verification corpus to disk
train       run the dual-forward training loop, keep the best checkpoint
eval        score a checkpoint (um, mm, or mask-roc protocol)
paramcount  per-module parameter table at full or toy scale
gradcheck   finite-difference verification of every op and loss
roc-export  write the ROC sweep of a checkpoint as CSV

Every command is deterministic given its inputs and seed.  ``gen-data``
and ``train`` read the run configuration (``--config FILE`` and repeatable
``--set KEY=VALUE``) and echo the effective configuration into their
output directory as ``config.txt``; rerunning with that file at the same
BLAS thread count reproduces the run exactly.  ``train`` also writes
``environment.txt``: the BLAS thread variables as found and the numpy
version.  No config key applies to the other commands, so they take no
config flags.  ``main`` reports every bad input as one ``error:`` line and
exit status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import checks, params
from .config import (
    ConfigError,
    RunConfig,
    load_config,
    parse_overrides,
    write_config,
)
from .data import build_splits, load_corpus, save_corpus
from .metrics import (
    PROTOCOL_MODES,
    compute_metrics,
    mask_detection_roc,
    protocol_scores,
    roc_points,
    split_mask_detection_set,
    write_metrics_report,
    write_roc_csv,
)
from .model import load_checkpoint, save_checkpoint, toy_scale_modules
from .training import DivergenceError, best_model, check_fit_inputs, fit


def _group(n: int) -> str:
    return f"{n:,}"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="key = value config file")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override any config key (repeatable)")


# every other attribute of a gen-data or train namespace is a config key
_NOT_KEYS = ("command", "func", "config", "overrides")


def _load(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the file, then ``--set``, then every flag given."""
    flags = {key: value for key, value in vars(args).items()
             if key not in _NOT_KEYS and value is not None}
    return load_config(args.config, {**parse_overrides(args.overrides), **flags})


# -- subcommands -------------------------------------------------------------

def cmd_gen_data(args: argparse.Namespace) -> int:
    config = _load(args)
    if not config.out_dir:
        raise ConfigError("gen-data needs an output directory (--out or out_dir)")
    corpus = build_splits(config.num_identities, config.samples_per_identity,
                          config.dataset_seed,
                          coverage_range=(config.coverage_lo, config.coverage_hi))
    manifest = save_corpus(corpus, config.out_dir)
    write_config(config, config.out_dir)
    print(f"wrote {manifest}")
    print(f"identities: {corpus.num_classes} train, {corpus.val.num_identities} val, "
          f"{corpus.test.num_identities} test")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _load(args)
    if not config.data_dir:
        raise ConfigError("train needs a corpus directory (--data or data_dir)")
    if not config.out_dir:
        raise ConfigError("train needs an output directory (--out or out_dir)")
    if config.train.freeze_backbone and not config.init_checkpoint:
        raise ConfigError("--freeze-backbone requires --init-checkpoint "
                          "(a frozen backbone must come from somewhere)")
    corpus = load_corpus(config.data_dir)
    # echo the corpus the run reads, not the corpus keys' defaults
    lo, hi = corpus.coverage_range
    config = dataclasses.replace(
        config, num_identities=corpus.num_identities,
        samples_per_identity=corpus.samples_per_identity,
        dataset_seed=corpus.dataset_seed, coverage_lo=lo, coverage_hi=hi)
    model = None
    if config.init_checkpoint:
        model, _ = load_checkpoint(config.init_checkpoint)
    # inputs fit would reject, and an unusable --out, fail before --out exists
    check_fit_inputs(corpus, model)
    created = not os.path.isdir(config.out_dir)
    os.makedirs(config.out_dir, exist_ok=True)
    try:
        # a diverging run overflows before the guard stops it; its one
        # error line is the report, not numpy's warnings on the way there
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            state, log = fit(config.train, corpus, model=model)
    except BaseException:
        if created:  # still empty: nothing is written before fit returns
            os.rmdir(config.out_dir)
        raise
    trained = state.model
    # write the run before printing, so a closed stdout cannot lose it
    write_config(config, config.out_dir)
    log_path = os.path.join(config.out_dir, "train.log")
    with open(log_path, "w", encoding="ascii") as f:
        f.write("\n".join(log) + "\n")
    # beside the log, not in it: train.log stays a function of config.txt
    with open(os.path.join(config.out_dir, "environment.txt"), "w", encoding="utf-8") as f:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            f.write(f"{name} = {os.environ.get(name, 'unset')}\n")
        f.write(f"numpy = {np.__version__}\n")
    best_path = os.path.join(config.out_dir, "best.ckpt")
    final_path = os.path.join(config.out_dir, "final.ckpt")
    save_checkpoint(best_model(state), best_path, seed=config.train.seed)
    save_checkpoint(trained, final_path, seed=config.train.seed)
    trainable = sum(v.size for v in state.velocities.values())
    print(f"trainable parameters: {_group(trainable)} "
          f"of {_group(trained.total_count())}")
    if state.best_fmr100 == state.best_fmr100:
        print(f"best validation fmr100 {state.best_fmr100:.10g} "
              f"at iteration {state.best_iteration}")
    print(f"wrote {log_path}, {best_path}, {final_path}")
    return 0


def _eval_split(args: argparse.Namespace):
    """The split ``--split`` names; um and mm scoring need two identities in it."""
    corpus = load_corpus(args.data)
    split = corpus.val if args.split == "val" else corpus.test
    if args.mode != "mask-roc" and split.num_identities < 2:
        raise ValueError(f"{args.mode} verification needs at least 2 identities, the "
                         f"{args.split} split has {split.num_identities}")
    return split


def cmd_eval(args: argparse.Namespace) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    split = _eval_split(args)
    metadata = {"protocol": args.mode, "split": args.split,
                "checkpoint": args.checkpoint}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    if args.mode == "mask-roc":
        images, labels = split_mask_detection_set(split)
        points, auc = mask_detection_roc(model, images, labels)
        print(f"mask-roc {args.split} auc {auc:.10g} ({points[2].size} points)")
        if args.out:
            csv_path = os.path.join(args.out, f"mask-roc-{args.split}.csv")
            write_roc_csv(points, csv_path)
            print(f"wrote {csv_path}")
        return 0
    report = compute_metrics(protocol_scores(model, split, args.mode))
    print(f"{args.mode} {args.split} eer {report.eer:.10g} "
          f"fmr100 {report.fmr100:.10g} fmr10 {report.fmr10:.10g} "
          f"auc {report.auc:.10g}")
    if args.out:
        report_path = os.path.join(args.out, f"report-{args.mode}-{args.split}.json")
        write_metrics_report(report, report_path, **metadata)
        print(f"wrote {report_path}")
    return 0


def cmd_paramcount(args: argparse.Namespace) -> int:
    if args.scale == "paper":
        counts = params.full_scale_modules()
    else:
        counts = toy_scale_modules()
    summary = params.summarize(counts)
    rows = list(summary.module_counts)
    rows += [("total (training, scratch)", summary.scratch_total),
             ("total (training, frozen backbone)", summary.frozen_trainable),
             ("total (inference)", summary.inference_total)]
    width = max(len(name) for name, _ in rows)
    for name, count in rows:
        print(f"{name:<{width}}  {_group(count):>14}")
    print(f"frozen-backbone reduction: {100.0 * summary.reduction:.2f}%")
    if args.freeze:
        print(f"trainable parameters: {_group(summary.frozen_trainable)}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be non-negative, got {args.seed}")
    results = checks.run_all(seed=args.seed)
    worst = 0.0
    failed = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name:<30} max rel error {result.max_rel_error:.3e}  {status}")
        worst = max(worst, result.max_rel_error)
        if not result.passed:
            failed.append(result.name)
    print(f"{len(results)} checks, max rel error {worst:.3e}, "
          f"tolerance {results[0].tolerance:g}")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_roc_export(args: argparse.Namespace) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    split = _eval_split(args)
    points = roc_points(protocol_scores(model, split, args.mode))
    write_roc_csv(points, args.out)
    print(f"wrote {args.out} ({points[2].size} points)")
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focusface",
        description="Masked face verification toolkit: synthetic corpus "
                    "generation, dual-head contrastive training, and "
                    "biometric evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic corpus")
    _add_config_flags(p)
    p.add_argument("--out", dest="out_dir", metavar="DIR", help="corpus output directory")
    p.add_argument("--dataset-seed", type=int, metavar="N")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train and keep the best checkpoint")
    _add_config_flags(p)
    p.add_argument("--data", dest="data_dir", metavar="DIR", help="corpus directory")
    p.add_argument("--out", dest="out_dir", metavar="DIR", help="run output directory")
    p.add_argument("--seed", type=int, metavar="N")
    p.add_argument("--baseline", action="store_const", const=True,
                   help="margin-only training (no mask or contrastive terms)")
    p.add_argument("--freeze-backbone", action="store_const", const=True,
                   help="train heads only; requires --init-checkpoint")
    p.add_argument("--init-checkpoint", metavar="FILE",
                   help="start from these weights instead of a fresh init")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint")
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--mode", required=True, choices=(*PROTOCOL_MODES, "mask-roc"))
    p.add_argument("--split", choices=("val", "test"), default="test")
    p.add_argument("--out", metavar="DIR", help="write report files here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("paramcount", help="per-module parameter table")
    p.add_argument("--scale", choices=("paper", "toy"), default="paper",
                   help="full-scale architecture or the toy trainer")
    p.add_argument("--freeze", action="store_true",
                   help="also print the frozen-backbone trainable count")
    p.set_defaults(func=cmd_paramcount)

    p = sub.add_parser("gradcheck", help="finite-difference op verification")
    p.add_argument("--seed", type=int, default=0, metavar="N",
                   help="probe-point seed")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("roc-export", help="write a ROC sweep as CSV")
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--mode", required=True, choices=PROTOCOL_MODES)
    p.add_argument("--split", choices=("val", "test"), default="test")
    p.add_argument("--out", required=True, metavar="FILE", help="CSV path")
    p.set_defaults(func=cmd_roc_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`focusface train | head -1`); point stdout
        # at devnull so the interpreter's exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DivergenceError as exc:
        message = f"training diverged, no checkpoint written: {exc}"
    except MemoryError as exc:
        # a size setting too large for this machine (batch_size, a corpus)
        message = f"out of memory: {str(exc) or 'allocation failed'}"
    except (OSError, ValueError) as exc:
        # bad inputs raise these, naming what they reject; others are bugs
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
