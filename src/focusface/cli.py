"""Command-line entry point: one binary, six subcommands.

gen-data    write a synthetic verification corpus to disk
train       run the dual-forward training loop, keep the best checkpoint
eval        score a checkpoint (um, mm, or mask-roc protocol)
paramcount  per-module parameter table at full or toy scale
gradcheck   finite-difference verification of every op and loss
roc-export  write the ROC sweep of a checkpoint as CSV

Every command is deterministic given its config and seed.  Commands that
create an output directory echo the effective configuration into it as
``config.txt``; rerunning with that file reproduces the run exactly.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import checks, params
from .config import (
    ConfigError,
    RunConfig,
    load_config,
    parse_overrides,
    write_config,
)
from .data import build_splits, check_coverage_range, load_corpus, save_corpus
from .metrics import (
    compute_metrics,
    mask_detection_roc,
    protocol_scores,
    split_mask_detection_set,
    write_metrics_report,
    write_roc_csv,
)
from .model import load_checkpoint, save_checkpoint
from .training import DivergenceError, best_model, fit

EVAL_MODES = ("um", "mm", "mask-roc")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _group(n: int) -> str:
    return f"{n:,}"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="key = value config file")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override any config key (repeatable)")


def _load(args: argparse.Namespace, extra: dict | None = None) -> RunConfig:
    overrides = parse_overrides(args.overrides)
    overrides.update(extra or {})
    return load_config(args.config, overrides)


# -- subcommands -------------------------------------------------------------

def cmd_gen_data(args: argparse.Namespace) -> int:
    extra = {}
    if args.out is not None:
        extra["out_dir"] = args.out
    if args.dataset_seed is not None:
        extra["dataset_seed"] = args.dataset_seed
    config = _load(args, extra)
    if not config.out_dir:
        return _fail("gen-data needs an output directory (--out or out_dir)")
    try:
        check_coverage_range(config.coverage_lo, config.coverage_hi)
    except ValueError as exc:
        return _fail(f"coverage_lo/coverage_hi: {exc}")
    corpus = build_splits(config.num_identities, config.samples_per_identity,
                          config.dataset_seed,
                          coverage_range=config.coverage_range())
    manifest = save_corpus(corpus, config.out_dir)
    write_config(config, config.out_dir)
    counts = (corpus.num_classes,
              len(set(corpus.val.references.identity_ids.tolist())),
              len(set(corpus.test.references.identity_ids.tolist())))
    print(f"wrote {manifest}")
    print(f"identities: {counts[0]} train, {counts[1]} val, {counts[2]} test")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    extra = {}
    for attr, value in (("data_dir", args.data), ("out_dir", args.out),
                        ("init_checkpoint", args.init_checkpoint),
                        ("seed", args.seed)):
        if value is not None:
            extra[attr] = value
    if args.baseline:
        extra["baseline"] = True
    if args.freeze_backbone:
        extra["freeze_backbone"] = True
    config = _load(args, extra)
    if not config.data_dir:
        return _fail("train needs a corpus directory (--data or data_dir)")
    if not config.out_dir:
        return _fail("train needs an output directory (--out or out_dir)")
    if config.freeze_backbone and not config.init_checkpoint:
        return _fail("--freeze-backbone requires --init-checkpoint "
                     "(a frozen backbone must come from somewhere)")
    try:
        corpus = load_corpus(config.data_dir)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot load corpus from {config.data_dir}: {exc}")
    model = None
    if config.init_checkpoint:
        try:
            model, _ = load_checkpoint(config.init_checkpoint)
        except (OSError, ValueError) as exc:
            return _fail(f"cannot load checkpoint {config.init_checkpoint}: {exc}")
    try:
        state, log = fit(config.train_config(), corpus, model=model)
    except DivergenceError as exc:
        return _fail(f"training diverged, no checkpoint written: {exc}")
    trained = state.model
    print(f"trainable parameters: {_group(trained.trainable_count())} "
          f"of {_group(trained.total_count())}")

    os.makedirs(config.out_dir, exist_ok=True)
    write_config(config, config.out_dir)
    log_path = os.path.join(config.out_dir, "train.log")
    with open(log_path, "w", encoding="ascii") as f:
        f.write("\n".join(log) + "\n")
    best_path = os.path.join(config.out_dir, "best.ckpt")
    final_path = os.path.join(config.out_dir, "final.ckpt")
    save_checkpoint(best_model(state), best_path, seed=config.seed)
    save_checkpoint(trained, final_path, seed=config.seed)
    if state.best_iteration >= 0 and state.best_fmr100 == state.best_fmr100:
        print(f"best validation fmr100 {state.best_fmr100:.10g} "
              f"at iteration {state.best_iteration}")
    print(f"wrote {log_path}, {best_path}, {final_path}")
    return 0


def _load_eval_inputs(args: argparse.Namespace):
    if not os.path.exists(args.checkpoint):
        raise FileNotFoundError(f"checkpoint {args.checkpoint} does not exist")
    model, _ = load_checkpoint(args.checkpoint)
    try:
        corpus = load_corpus(args.data)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load corpus from {args.data}: {exc}") from None
    return model, corpus


def cmd_eval(args: argparse.Namespace) -> int:
    config = _load(args)
    try:
        model, corpus = _load_eval_inputs(args)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    split = corpus.val if args.split == "val" else corpus.test
    metadata = {"protocol": args.mode, "split": args.split,
                "checkpoint": args.checkpoint}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_config(config, args.out)
    if args.mode == "mask-roc":
        images, labels = split_mask_detection_set(split)
        points, auc = mask_detection_roc(model, images, labels)
        print(f"mask-roc {args.split} auc {auc:.10g} ({len(points)} points)")
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
        modules = params.full_scale_modules()
    else:
        modules = params.toy_scale_modules()
    summary = params.summarize(modules)
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
    _load(args)  # no key applies here, but a bad one is still an error
    try:
        model, corpus = _load_eval_inputs(args)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    split = corpus.val if args.split == "val" else corpus.test
    from .metrics import roc_points
    points = roc_points(protocol_scores(model, split, args.mode))
    write_roc_csv(points, args.out)
    print(f"wrote {args.out} ({len(points)} points)")
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
    p.add_argument("--out", metavar="DIR", help="corpus output directory")
    p.add_argument("--dataset-seed", type=int, metavar="N")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train and keep the best checkpoint")
    _add_config_flags(p)
    p.add_argument("--data", metavar="DIR", help="corpus directory")
    p.add_argument("--out", metavar="DIR", help="run output directory")
    p.add_argument("--seed", type=int, metavar="N")
    p.add_argument("--baseline", action="store_true",
                   help="margin-only training (no mask or contrastive terms)")
    p.add_argument("--freeze-backbone", action="store_true",
                   help="train heads only; requires --init-checkpoint")
    p.add_argument("--init-checkpoint", metavar="FILE",
                   help="start from these weights instead of a fresh init")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--mode", required=True, choices=EVAL_MODES)
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
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--mode", required=True, choices=("um", "mm"))
    p.add_argument("--split", choices=("val", "test"), default="test")
    p.add_argument("--out", required=True, metavar="FILE", help="CSV path")
    p.set_defaults(func=cmd_roc_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
