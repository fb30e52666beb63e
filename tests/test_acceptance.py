"""Acceptance gate: ten criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Criteria 5-8 share three full training runs per method (six total) through
a module-scoped fixture; everything else is seconds.
"""

import math
import os
import statistics
import time

import numpy as np
import pytest

from focusface.autodiff import Tape
from focusface.checks import run_all
from focusface.cli import main as cli_main
from focusface.data import build_splits
from focusface.losses import (
    arcface_loss,
    combined_loss,
    contrastive_mse,
    cross_entropy,
)
from focusface.metrics import (
    ScoreSet,
    compute_metrics,
    mask_detection_roc,
    protocol_scores,
    split_mask_detection_set,
)
from focusface.model import (
    ToyBackboneConfig,
    ToyModel,
    load_checkpoint,
    save_checkpoint,
    toy_scale_modules,
)
from focusface.params import summarize
from focusface.training import TrainConfig, best_model, fit, parse_log_mse

from oracles import oracle_metrics, random_scoreset

SEEDS = (0, 1, 2)


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"\ncriterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


# -- criterion 1: exact parameter table --------------------------------------

def test_criterion_1_parameter_table(capsys):
    t0 = time.perf_counter()
    code = cli_main(["paramcount", "--scale", "paper", "--freeze"])
    dt = time.perf_counter() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        expected = ("52,309,568", "12,846,080", "802,880", "43,899,904",
                    "109,858,498", "57,548,930", "65,155,648",
                    "trainable parameters: 57,548,930")
        counts_ok = code == 0 and all(e in out for e in expected)
        row66 = any(line.split()[-1] == "66" for line in out.splitlines())
        reduction = 1.0 - 57_548_930 / 109_858_498
        reduction_ok = abs(100 * reduction - 47.62) <= 0.1 and "47.62%" in out
        ok = counts_ok and row66 and reduction_ok and dt < 1.0
        assert _verdict(1, "parameter table", ok,
                        f"all seven module/total rows exact, reduction "
                        f"{100 * reduction:.5f}% in {dt * 1e3:.0f} ms")


# -- criterion 2: gradient correctness ---------------------------------------

def test_criterion_2_gradient_checks():
    t0 = time.perf_counter()
    results = run_all(seed=0)
    dt = time.perf_counter() - t0
    worst = max(r.max_rel_error for r in results)
    ok = all(r.passed for r in results) and worst <= 1e-4 and dt < 60.0
    assert _verdict(2, "gradient checks", ok,
                    f"{len(results)} op/loss checks, 20 points each, "
                    f"max rel error {worst:.2e} <= 1e-4 in {dt:.1f} s")


# -- criterion 3: metric oracle equivalence ----------------------------------

def test_criterion_3_metric_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        genuine, impostor = random_scoreset(rng)
        want = oracle_metrics(genuine, impostor)
        got = compute_metrics(ScoreSet(genuine=genuine, impostor=impostor)).as_dict()
        for key, value in want.items():
            worst = max(worst, abs(got[key] - value))
    worked = compute_metrics(ScoreSet(genuine=np.array([0.9, 0.7, 0.6, 0.4]),
                                      impostor=np.array([0.5, 0.3, 0.2, 0.1])))
    dt = time.perf_counter() - t0
    worked_ok = worked.eer == 0.25 and worked.fmr100 == 0.25
    ok = worst <= 1e-9 and worked_ok and dt < 60.0
    assert _verdict(3, "metric oracle", ok,
                    f"1000 random score sets, max |diff| {worst:.2e} <= 1e-9; "
                    f"worked example eer {worked.eer} fmr100 {worked.fmr100}; "
                    f"{dt:.1f} s")


# -- criterion 4: loss identities --------------------------------------------

def test_criterion_4_loss_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(6, 16))
    targets = rng.integers(0, 5, size=6)
    weights = np.random.default_rng(8).normal(0.0, 0.01, (16, 5))

    tape = Tape()
    f = tape.leaf(feats)
    w = tape.leaf(weights)
    m0 = arcface_loss(tape, f, w, targets, s=64.0, m=0.0)
    fn = tape.l2_normalize(f, axis=-1)
    wn = tape.l2_normalize(w, axis=0)
    ce = cross_entropy(tape, tape.scale(tape.matmul(fn, wn), 64.0), targets)
    gap_m0 = abs(m0.item() - ce.item())

    tape = Tape()
    w = tape.leaf(weights)
    a = arcface_loss(tape, tape.leaf(feats), w, targets, s=64.0, m=0.5)
    b = arcface_loss(tape, tape.leaf(feats * 123.0), w, targets, s=64.0, m=0.5)
    gap_scale = abs(a.item() - b.item())

    tape = Tape()
    uniform = cross_entropy(tape, tape.leaf(np.zeros((4, 9))), np.arange(4) % 9)
    gap_uniform = abs(uniform.item() - math.log(9))

    tape = Tape()
    x = tape.leaf(rng.normal(size=(5, 8)))
    y = tape.leaf(rng.normal(size=(5, 8)))
    mse_same = contrastive_mse(tape, x, x).item()
    mse_diff = contrastive_mse(tape, x, y).item()

    tape = Tape()
    parts = [tape.leaf(np.array(v)) for v in (0.3, 2.0, 1.0)]
    example = combined_loss(tape, *parts, alpha=1 / 3, beta=0.5).item()
    dt = time.perf_counter() - t0

    ok = (gap_m0 <= 1e-12 and gap_scale <= 1e-10 and gap_uniform <= 1e-12
          and mse_same == 0.0 and mse_diff > 0.0
          and abs(example - 1.6) <= 1e-15 and dt < 10.0)
    assert _verdict(4, "loss identities", ok,
                    f"m=0 reduction {gap_m0:.1e}; scale invariance "
                    f"{gap_scale:.1e}; uniform CE-ln n {gap_uniform:.1e}; "
                    f"mse zero iff equal; weighted example {example:.6f}; "
                    f"{dt:.1f} s")


# -- criteria 5-8: the full training comparison ------------------------------

@pytest.fixture(scope="module")
def training_runs():
    """Three seeds x (focus, baseline) on the default corpus, full budget."""
    corpus = build_splits()
    t0 = time.perf_counter()
    rows = {"focus": [], "base": []}
    for seed in SEEDS:
        for label, baseline in (("focus", False), ("base", True)):
            state, log = fit(TrainConfig(seed=seed, baseline=baseline), corpus)
            model = best_model(state)
            row = {"seed": seed, "model": model}
            for mode in ("um", "mm"):
                report = compute_metrics(protocol_scores(model, corpus.test, mode))
                row[f"{mode}_fmr100"] = report.fmr100
            images, labels = split_mask_detection_set(corpus.test)
            row["mask_auc"] = mask_detection_roc(model, images, labels)[1]
            mse = parse_log_mse(log)
            k = max(1, len(mse) // 10)
            row["mse_first"] = float(mse[:k].mean())
            row["mse_last"] = float(mse[-k:].mean())
            rows[label].append(row)
    rows["elapsed"] = time.perf_counter() - t0
    # representative checkpoint: realizes the median U-M FMR100 of the method
    rows["rep"] = sorted(rows["focus"], key=lambda r: r["um_fmr100"])[len(SEEDS) // 2]
    return rows


def test_criterion_5_method_over_baseline(training_runs):
    med_focus = statistics.median(r["um_fmr100"] for r in training_runs["focus"])
    med_base = statistics.median(r["um_fmr100"] for r in training_runs["base"])
    elapsed = training_runs["elapsed"]
    ok = med_focus < med_base and elapsed <= 1800.0
    assert _verdict(5, "method over baseline", ok,
                    f"median U-M FMR100 over seeds {SEEDS}: "
                    f"{med_focus:.4f} (method) < {med_base:.4f} (baseline); "
                    f"6 runs in {elapsed / 60:.1f} min <= 30 min")


def test_criterion_6_masked_references(training_runs):
    rep = training_runs["rep"]
    ok = rep["mm_fmr100"] <= rep["um_fmr100"] + 0.05
    assert _verdict(6, "M-M comparable", ok,
                    f"seed {rep['seed']} checkpoint: M-M FMR100 "
                    f"{rep['mm_fmr100']:.4f} <= U-M {rep['um_fmr100']:.4f} + 0.05")


def test_criterion_7_mask_detection(training_runs):
    rep = training_runs["rep"]
    ok = rep["mask_auc"] >= 0.99
    assert _verdict(7, "mask detection", ok,
                    f"seed {rep['seed']} checkpoint: held-out mask ROC AUC "
                    f"{rep['mask_auc']:.4f} >= 0.99")


def test_criterion_8_contrastive_alignment(training_runs):
    trends = [(r["seed"], r["mse_first"], r["mse_last"])
              for r in training_runs["focus"]]
    ok = all(last < first for _, first, last in trends)
    detail = "; ".join(f"seed {s}: {first:.3f} -> {last:.3f}"
                       for s, first, last in trends)
    assert _verdict(8, "contrastive alignment", ok,
                    f"mean contrastive MSE first 10% vs last 10%: {detail}")


# -- criterion 9: frozen backbone --------------------------------------------

def test_criterion_9_frozen_backbone(tmp_path, capsys):
    corpus_dir = str(tmp_path / "corpus")
    assert cli_main(["gen-data", "--out", corpus_dir, "--dataset-seed", "3",
                     "--set", "num_identities=20",
                     "--set", "samples_per_identity=8"]) == 0
    init_path = str(tmp_path / "init.ckpt")
    model = ToyModel.init(ToyBackboneConfig(num_classes=13), seed=5)
    save_checkpoint(model, init_path, seed=5)

    out_dir = str(tmp_path / "frozen")
    code = cli_main(["train", "--data", corpus_dir, "--out", out_dir,
                     "--seed", "5", "--freeze-backbone",
                     "--init-checkpoint", init_path,
                     "--set", "max_iterations=100", "--set", "milestones=50,80",
                     "--set", "eval_interval=40"])
    printed = capsys.readouterr().out
    with capsys.disabled():
        # "before" is what the trainer loaded, so compare in checkpoint space
        start, _ = load_checkpoint(init_path)
        trained, _ = load_checkpoint(os.path.join(out_dir, "final.ckpt"))
        backbone = [n for n in start.params if n.startswith("conv")]
        heads = [n for n in start.params if not n.startswith("conv")]
        identical = all(trained.params[n].tobytes() == start.params[n].tobytes()
                        for n in backbone)
        moved = any(trained.params[n].tobytes() != start.params[n].tobytes()
                    for n in heads)
        # the expected count comes from the per-module parameter table
        counts = summarize(toy_scale_modules(start.config))
        want_line = (f"trainable parameters: {counts.frozen_trainable:,} "
                     f"of {counts.scratch_total:,}")
        ok = code == 0 and identical and moved and want_line in printed
        assert _verdict(9, "frozen backbone", ok,
                        f"{len(backbone)} backbone arrays bit-identical after "
                        f"training, heads updated, printed count matches the "
                        f"module table ({counts.frozen_trainable:,})")


# -- criterion 10: determinism -----------------------------------------------

def test_criterion_10_determinism(tmp_path, capsys):
    corpus_dir = str(tmp_path / "corpus")
    assert cli_main(["gen-data", "--out", corpus_dir, "--dataset-seed", "4",
                     "--set", "num_identities=20",
                     "--set", "samples_per_identity=8"]) == 0
    args = ["train", "--data", corpus_dir, "--seed", "6",
            "--set", "max_iterations=80", "--set", "milestones=40,64",
            "--set", "eval_interval=25"]
    outs = []
    for name in ("a", "b"):
        out_dir = str(tmp_path / name)
        assert cli_main(args + ["--out", out_dir]) == 0
        outs.append(out_dir)
    capsys.readouterr()
    with capsys.disabled():
        same = {}
        for artifact in ("train.log", "best.ckpt", "final.ckpt"):
            with open(os.path.join(outs[0], artifact), "rb") as f:
                first = f.read()
            with open(os.path.join(outs[1], artifact), "rb") as f:
                second = f.read()
            same[artifact] = first == second
        ok = all(same.values())
        assert _verdict(10, "determinism", ok,
                        "identical config+seed -> byte-identical " +
                        ", ".join(same))
