import copy
import gc
import math
import weakref

import numpy as np
import pytest

from focusface import model as model_module
from focusface import training
from focusface.autodiff import Tape
from focusface.data import build_splits, train_batch
from focusface.losses import LossConfig
from focusface.model import ToyBackboneConfig, ToyModel, embed_images
from focusface.training import (
    LOG_FIELDS,
    TrainConfig,
    best_model,
    build_losses,
    fit,
    init_state,
    lr_at,
    parse_log_mse,
    sgd_step,
    train_iteration,
)


def tiny_model(seed=0, num_classes=12):
    return ToyModel.init(ToyBackboneConfig(num_classes=num_classes), seed=seed)


# -- sgd_step ----------------------------------------------------------------

def test_sgd_vanilla_step():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.array([0.5, 0.25])}
    velocities = {"w": np.zeros(2)}
    sgd_step(params, grads, velocities, lr=0.1, momentum=0.0, weight_decay=0.0)
    assert np.allclose(params["w"], [1.0 - 0.05, -2.0 - 0.025], atol=0, rtol=0)


def test_sgd_zero_grad_decays_buffer_only():
    params = {"w": np.array([3.0])}
    zero = {"w": np.array([0.0])}
    velocities = {"w": np.array([0.0])}
    sgd_step(params, zero, velocities, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert params["w"][0] == 3.0 and velocities["w"][0] == 0.0
    velocities = {"w": np.array([2.0])}
    sgd_step(params, zero, velocities, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert velocities["w"][0] == pytest.approx(1.8, abs=0)
    assert params["w"][0] == pytest.approx(3.0 - 0.1 * 1.8, abs=0)


def test_sgd_two_step_hand_recurrence():
    # v1 = 1, p1 = -0.1; v2 = 0.9 + 1 = 1.9, p2 = -0.1 - 0.19 = -0.29
    params = {"w": np.array([0.0])}
    velocities = {"w": np.array([0.0])}
    for _ in range(2):
        sgd_step(params, {"w": np.array([1.0])}, velocities,
                 lr=0.1, momentum=0.9, weight_decay=0.0)
    assert params["w"][0] == pytest.approx(-0.29, abs=1e-15)


def test_sgd_weight_decay_single_step():
    p0, g, lr, wd = 2.0, 0.3, 0.05, 0.01
    params = {"w": np.array([p0])}
    velocities = {"w": np.array([0.0])}
    sgd_step(params, {"w": np.array([g])}, velocities, lr, 0.0, wd)
    assert params["w"][0] == pytest.approx(p0 - lr * (g + wd * p0), abs=1e-15)


def test_sgd_nonfinite_grad_aborts_with_diagnostics():
    params = {"w": np.array([1.0, 1.0])}
    velocities = {"w": np.zeros(2)}
    bad = {"w": np.array([np.nan, 3.0])}
    with pytest.raises(RuntimeError, match=r"iteration 7.*\bw\b"):
        sgd_step(params, bad, velocities, 0.1, 0.9, 0.0, iteration=7)


# -- schedule and config -----------------------------------------------------

def test_lr_schedule_drops_by_factor_ten():
    config = TrainConfig(milestones=(34000, 64000), max_iterations=100000)
    assert lr_at(0, config) == 0.1
    assert lr_at(33999, config) == 0.1
    assert lr_at(34000, config) == pytest.approx(0.01)
    assert lr_at(64000, config) == pytest.approx(0.001)
    assert lr_at(99999, config) == pytest.approx(0.001)


def test_lr_schedule_toy_defaults():
    config = TrainConfig()
    assert [lr_at(i, config) for i in (0, 599, 600, 959, 960, 1199)] == \
        pytest.approx([0.1, 0.1, 0.01, 0.01, 0.001, 0.001])


def test_config_validation():
    for lr in (0.0, float("nan")):
        with pytest.raises(ValueError, match="lr must be positive"):
            TrainConfig(lr=lr)
    with pytest.raises(ValueError, match="milestones"):
        TrainConfig(milestones=(600, 600))
    for key, value in [("momentum", -1.0), ("momentum", 1.0), ("weight_decay", -1e-4),
                       ("milestones", (-3, 5)), ("milestones", (0,))]:
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})
    TrainConfig(momentum=0.0, weight_decay=0.0, milestones=(1,))
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="LossConfig"):
        TrainConfig(loss={"s": 64.0})


# -- loss graph --------------------------------------------------------------

def small_batch(corpus, it=0, n=8, seed=0):
    return train_batch(corpus, it, n, seed=seed)


@pytest.fixture(scope="module")
def corpus():
    return build_splits(20, 8, dataset_seed=7)


def test_baseline_iteration_ignores_aux_loss_weights(corpus):
    # the baseline graph reads only s, m and beta: lambda and alpha are inert
    batch = small_batch(corpus)
    runs = []
    for loss in (LossConfig(lambda_=0.7, alpha=2.0), LossConfig()):
        config = TrainConfig(batch_size=8, baseline=True, loss=loss)
        state = init_state(tiny_model(seed=3, num_classes=corpus.num_classes), config)
        breakdown = train_iteration(state, batch, config)
        runs.append((state.model.params, breakdown))
    (params_a, breakdown_a), (params_b, breakdown_b) = runs
    assert breakdown_a == breakdown_b
    for name, value in params_a.items():
        assert value.tobytes() == params_b[name].tobytes(), name


def test_unreached_parameter_still_sees_weight_decay(corpus):
    # the baseline loss never reaches the mask classifier, yet it trains:
    # its zero gradient leaves weight decay alone to move it at step 0
    config = TrainConfig(batch_size=8, baseline=True)
    state = init_state(tiny_model(seed=3, num_classes=corpus.num_classes), config)
    p0 = state.model.params["mask_classifier.weight"].copy()
    train_iteration(state, small_batch(corpus), config)
    lr, wd = lr_at(0, config), config.weight_decay
    assert np.array_equal(state.model.params["mask_classifier.weight"], p0 - lr * (wd * p0))
    assert not np.array_equal(state.model.params["mask_classifier.weight"], p0)


def test_baseline_path_matches_zeroed_full_path(corpus):
    # margin-only weights: the dedicated baseline graph and the full graph
    # with lambda = alpha = 0 must produce identical parameter updates
    batch = small_batch(corpus)
    zeroed = LossConfig(lambda_=0.0, alpha=0.0)
    results = []
    for baseline in (False, True):
        model = tiny_model(seed=3, num_classes=corpus.num_classes)
        state = init_state(model, TrainConfig())
        tape = Tape()
        leaves = model.leaves(tape, state.velocities)
        comb, _ = build_losses(model, leaves, batch, zeroed, baseline=baseline)
        grads = tape.backward(comb)
        named = {n: grads[t.node_id] for n, t in leaves.items()
                 if t.node_id in grads}
        sgd_step(model.params, named, state.velocities, 0.1, 0.9, 5e-4)
        results.append(model.params)
    for name in results[0]:
        diff = np.max(np.abs(results[0][name] - results[1][name]))
        assert diff < 1e-12, f"{name} differs by {diff}"


def test_breakdown_recombines_to_combined_value(corpus):
    batch = small_batch(corpus)
    config = TrainConfig(batch_size=8)
    model = tiny_model(seed=1, num_classes=corpus.num_classes)
    state = init_state(model, config)
    b = train_iteration(state, batch, config)
    lc = config.loss
    # float32 arithmetic in the tape's order: each branch, their scaled sum,
    # then the scaled contrastive term added to it
    f = np.float32
    l_m = f(b["arc_m"]) + f(lc.lambda_) * f(b["ce_m"])
    l_u = f(b["arc_u"]) + f(lc.lambda_) * f(b["ce_u"])
    rebuilt = f(lc.alpha) * f(b["mse"]) + f(lc.beta) * (l_m + l_u)
    assert b["comb"] == rebuilt
    assert state.iteration == 1


def test_combined_backward_equals_summed_branch_backwards(corpus):
    # grads of the single combined scalar vs three separate graphs summed
    batch = small_batch(corpus, n=4)
    lc = LossConfig()
    model = tiny_model(seed=5, num_classes=corpus.num_classes)

    tape = Tape()
    leaves = model.leaves(tape, model.params)
    comb, _ = build_losses(model, leaves, batch, lc)
    grads = tape.backward(comb)
    combined = {n: grads[t.node_id] for n, t in leaves.items()
                if t.node_id in grads}

    from focusface.losses import (arcface_loss, branch_loss, contrastive_mse,
                                  cross_entropy)

    def branch_grads(scale_mse, scale_branches):
        tape = Tape()
        leaves = model.leaves(tape, model.params)
        out_u = model.forward(tape, batch.unmasked, leaves=leaves)
        out_m = model.forward(tape, batch.masked, leaves=leaves)
        arc_w = leaves["arcface.weight"]
        targets = batch.identity_labels
        terms = []
        if scale_branches:
            for out, ce_labels in ((out_u, batch.mask_labels_unmasked),
                                   (out_m, batch.mask_labels_masked)):
                arc = arcface_loss(tape, out.recognition_embedding, arc_w,
                                   targets, lc.s, lc.m)
                ce = cross_entropy(tape, out.mask_logits, ce_labels)
                terms.append(branch_loss(tape, arc, ce, lc.lambda_))
            total = tape.scale(tape.add(terms[0], terms[1]), lc.beta)
        else:
            mse = contrastive_mse(tape, out_u.recognition_embedding,
                                  out_m.recognition_embedding)
            total = tape.scale(mse, lc.alpha)
        g = tape.backward(total)
        return {n: g[t.node_id] for n, t in leaves.items() if t.node_id in g}

    summed = branch_grads(True, False)
    for name, g in branch_grads(False, True).items():
        summed[name] = summed.get(name, 0.0) + g
    assert set(summed) == set(combined)
    for name in combined:
        scale = max(1.0, np.max(np.abs(combined[name])))
        assert np.max(np.abs(combined[name] - summed[name])) / scale < 1e-12


# -- gradient pruning ----------------------------------------------------------

def _count_backward_rules(monkeypatch):
    """Count, by op kind, the backward rules Tape.backward runs."""
    calls = {}
    record = Tape._record

    def counting_record(tape, kind, input_ids, backward_fn, value):
        if backward_fn is not None:
            rule = backward_fn

            def backward_fn(g):
                calls[kind] = calls.get(kind, 0) + 1
                return rule(g)
        return record(tape, kind, input_ids, backward_fn, value)

    monkeypatch.setattr(Tape, "_record", counting_record)
    return calls


def test_frozen_step_runs_no_backbone_backward_rule(corpus, monkeypatch):
    batch = small_batch(corpus)
    calls = _count_backward_rules(monkeypatch)
    model = tiny_model(seed=3, num_classes=corpus.num_classes)
    config = TrainConfig(batch_size=8)
    train_iteration(init_state(copy.deepcopy(model), config), batch, config)
    assert calls["conv2d"] == 6 and calls["prelu"] == 6  # 3 stages, 2 forwards
    calls.clear()
    config = TrainConfig(batch_size=8, freeze_backbone=True)
    train_iteration(init_state(copy.deepcopy(model), config), batch, config)
    assert "conv2d" not in calls and "prelu" not in calls
    assert calls["matmul"] > 0


def test_train_iteration_tape_is_left_to_the_cyclic_collector(corpus, monkeypatch):
    # Backward rules capture their input Tensors and a Tensor holds its Tape,
    # so a step's tape is a reference cycle that outlives train_iteration
    # until the cyclic collector runs.  Each way out costs more, measured on
    # 2 cores with BLAS on one thread: a tape freed at return made a step
    # 19-22 ms against about 16 ms, with 2.4-2.9k minor faults per step
    # against 0, as glibc trimmed the freed heap every step; rules that
    # capture no Tensors left fewer collector-tracked objects per tape, so
    # the collector ran less often and train peak RSS rose 5.7 %.  A third
    # way, a backward that drops each rule after it runs, cut the benchmark's
    # train peak_rss_mb from 145.5 to 93.3 MB and its op_ms_p50 by 6 %, but
    # a fresh-process CLI train slowed from 3.13-3.28 s to 3.84-4.13 s, with
    # minor faults rising from 45k to 1.39-1.43M, and the acceptance gate
    # from 22.9 to 27.0 s; pooled im2col buffers on top cut the faults only
    # to 1.17M and the run stayed 8-12 % slower.  glibc trims the heap top
    # every step; the benchmark's set-up frees whole corpora, which raises
    # glibc's dynamic mmap threshold, and a CLI process never does that.
    # Re-checked in 6 alternating runs at OpenBLAS's default thread count,
    # that variant's CLI train took a median 4.15 s against 3.30 s (1.01M
    # minor faults against 43k); with BLAS on one thread it matched the
    # parent (3.55 s against 3.58 s, 9 runs) at half the max RSS, 59 MB
    # against 116 MB.  Tapes that take no gradient store no rules and are
    # freed at return.
    tapes = []

    class RecordedTape(Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(training, "Tape", RecordedTape)
    state = init_state(tiny_model(seed=3, num_classes=corpus.num_classes), TrainConfig())
    gc.collect()
    gc.disable()
    try:
        train_iteration(state, small_batch(corpus), TrainConfig(batch_size=8))
        assert len(tapes) == 1 and tapes[0]() is not None
    finally:
        gc.enable()
    gc.collect()
    assert tapes[0]() is None


def test_frozen_state_trains_heads_only(corpus):
    # a frozen backbone gets no momentum buffer, so it stays bit-identical
    model = tiny_model(seed=3, num_classes=corpus.num_classes)
    before = {k: v.copy() for k, v in model.params.items()}
    config = TrainConfig(batch_size=8, freeze_backbone=True)
    train_iteration(init_state(model, config), small_batch(corpus), config)
    for name, value in before.items():
        same = model.params[name].tobytes() == value.tobytes()
        assert same == name.startswith("conv"), name


def test_tape_node_counts_and_inference_leaves(corpus, monkeypatch):
    # a training tape: 16 parameter leaves, then per forward an image leaf,
    # three conv2d + prelu stages and 9 head nodes, then the losses; an
    # inference tape records the parameters as plain leaves, so no node on
    # it takes a gradient or stores a rule, and no rule keeps an array
    tapes = []

    class RecordedTape(Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tapes.append(self)

    monkeypatch.setattr(training, "Tape", RecordedTape)
    monkeypatch.setattr(model_module, "Tape", RecordedTape)
    model = tiny_model(seed=3, num_classes=corpus.num_classes)
    batch = small_batch(corpus)
    for baseline, nodes in ((False, 72), (True, 60)):
        config = TrainConfig(batch_size=8, baseline=baseline)
        train_iteration(init_state(copy.deepcopy(model), config), batch, config)
        assert len(tapes[-1].nodes) == nodes
    tapes.clear()
    embed_images(model, batch.unmasked)
    assert len(tapes) == 1
    assert tapes[0].parameters == {}
    assert not any(node.needs_grad for node in tapes[0].nodes)
    assert all(node.backward_fn is None for node in tapes[0].nodes)


def test_frozen_head_gradients_equal_unfrozen_bit_for_bit(corpus):
    batch = small_batch(corpus)
    model = tiny_model(seed=4, num_classes=corpus.num_classes)
    results = []
    for freeze_backbone in (False, True):
        trainable = init_state(model, TrainConfig(freeze_backbone=freeze_backbone)).velocities
        tape = Tape()
        leaves = model.leaves(tape, trainable)
        comb, _ = build_losses(model, leaves, batch, LossConfig())
        grads = tape.backward(comb)
        results.append({name: grads[t.node_id] for name, t in leaves.items()
                        if t.node_id in grads})
    full, frozen = results
    assert set(frozen) == {n for n in full if not n.startswith("conv")}
    for name, g in frozen.items():
        assert g.tobytes() == full[name].tobytes(), name


# -- fit ---------------------------------------------------------------------

def short_config(**kw):
    defaults = dict(max_iterations=20, eval_interval=10, batch_size=8, seed=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_fit_is_deterministic(corpus):
    runs = [fit(short_config(), corpus) for _ in range(2)]
    assert runs[0][1] == runs[1][1]
    for name, value in runs[0][0].best_params.items():
        assert np.array_equal(value, runs[1][0].best_params[name])


def test_fit_log_shape_and_fields(corpus):
    state, log = fit(short_config(), corpus)
    plain = [l for l in log if not l.startswith("eval")]
    evals = [l for l in log if l.startswith("eval")]
    assert len(plain) == 20 and len(evals) == 2
    first = plain[0].split("\t")
    assert len(first) == len(LOG_FIELDS) and first[0] == "0"
    assert float(first[1]) == 0.1
    # eval record: tag, iteration, then the four metric columns
    assert len(evals[0].split("\t")) == 6
    assert evals[0].split("\t")[1] == "9"


def test_fit_best_selection_minimizes_logged_fmr100(corpus):
    state, log = fit(short_config(max_iterations=40, seed=4), corpus)
    fmr100s = [float(l.split("\t")[3]) for l in log if l.startswith("eval")]
    # log lines carry 10 significant digits; compare at that precision
    assert state.best_fmr100 == pytest.approx(min(fmr100s), abs=1e-9)
    best_positions = [9 + 10 * i for i, v in enumerate(fmr100s)
                      if v == min(fmr100s)]
    assert state.best_iteration == best_positions[0]
    assert best_model(state).config.num_classes == corpus.num_classes


def test_fit_frozen_backbone_bit_identical(corpus):
    model = tiny_model(seed=9, num_classes=corpus.num_classes)
    before = {k: v.copy() for k, v in model.params.items()
              if k.startswith("conv")}
    state, _ = fit(short_config(freeze_backbone=True), corpus, model=model)
    assert set(state.velocities) == {n for n in model.params if not n.startswith("conv")}
    for name, value in before.items():
        assert np.array_equal(state.model.params[name], value)
    assert not np.array_equal(state.model.params["recognition.weight"],
                              tiny_model(seed=9).params["recognition.weight"])


def test_fit_trains_backbone_of_a_frozen_model(corpus):
    # the model carries no freeze mode: a model a frozen-backbone fit
    # trained trains every parameter unless freeze_backbone asks otherwise
    model = tiny_model(seed=9, num_classes=corpus.num_classes)
    model = fit(short_config(max_iterations=3, freeze_backbone=True), corpus,
                model=model)[0].model
    before = {k: v.copy() for k, v in model.params.items()}
    state, _ = fit(short_config(max_iterations=3), corpus, model=model)
    assert sum(v.size for v in state.velocities.values()) == state.model.total_count()
    assert set(state.velocities) == set(before)
    for name, value in before.items():
        assert not np.array_equal(state.model.params[name], value), name


def test_fit_without_enough_val_identities_skips_eval():
    tiny = build_splits(5, 6, dataset_seed=3)
    config = TrainConfig(max_iterations=6, eval_interval=2, batch_size=4, seed=0)
    state, log = fit(config, tiny)
    assert not any(l.startswith("eval") for l in log)
    assert math.isnan(state.best_fmr100) and state.best_iteration == 5
    for name, value in state.best_params.items():
        assert np.array_equal(value, state.model.params[name])


def test_fit_rejects_class_count_mismatch(corpus):
    model = ToyModel.init(ToyBackboneConfig(num_classes=4), seed=0)
    with pytest.raises(ValueError, match="classes"):
        fit(short_config(), corpus, model=model)


def test_parse_log_mse_reads_iteration_records_only():
    lines = [
        "0\t0.1\t5\t1\t1\t0.5\t0.5\t2.25",
        "eval\t0\t0.5\t1\t1\t0.5",
        "1\t0.1\t4\t1\t1\t0.5\t0.5\t1.75",
    ]
    assert np.array_equal(parse_log_mse(lines), [2.25, 1.75])
