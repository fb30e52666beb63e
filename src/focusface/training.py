"""Dual-forward shared-weight training loop.

Each iteration runs the network twice on one tape (unmasked and masked
batch members read the same parameter leaves), combines the margin-softmax,
mask-detection, and contrastive terms into one scalar, then takes a single
momentum-SGD step.  The baseline mode trains the same dual forward with the
margin losses only, so the method-vs-baseline comparison shares its budget
and data stream exactly.  Logs carry no timestamps: two runs with the same
config and seed are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape
from .data import Corpus, PairBatch, train_batch
from .losses import (
    LossConfig,
    arcface_loss,
    branch_loss,
    combined_loss,
    contrastive_mse,
    cross_entropy,
)
from .metrics import compute_metrics, protocol_scores
from .model import ToyBackboneConfig, ToyModel, count_entries

LOG_FIELDS = ("iteration", "lr", "comb", "arc_u", "arc_m", "ce_u", "ce_m", "mse")
EVAL_FIELDS = ("eer", "fmr100", "fmr10", "auc")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 32
    milestones: tuple = (600, 960)
    max_iterations: int = 1200
    eval_interval: int = 100
    freeze_backbone: bool = False
    baseline: bool = False
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
        object.__setattr__(self, "milestones", tuple(int(m) for m in self.milestones))
        if any(m < 1 for m in self.milestones):
            raise ValueError(f"milestones must be at least 1, got {self.milestones}")
        if any(a >= b for a, b in zip(self.milestones, self.milestones[1:])):
            raise ValueError(f"milestones must be strictly increasing, got {self.milestones}")
        for name in ("batch_size", "max_iterations", "eval_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.loss, LossConfig):
            raise ValueError("loss must be a LossConfig")


class DivergenceError(RuntimeError):
    """A non-finite gradient, or a parameter no float32 checkpoint can hold."""


@dataclass
class TrainState:
    model: ToyModel
    velocities: dict
    iteration: int = 0
    best_fmr100: float = math.inf
    best_iteration: int = -1
    best_params: dict | None = None


def init_state(model: ToyModel, config: TrainConfig) -> TrainState:
    """Zeroed momentum buffers, one per parameter the run trains.

    The one reader of ``freeze_backbone``: a frozen backbone's ``conv*``
    parameters get no buffer, so ``train_iteration`` records them as plain
    leaves and ``sgd_step`` leaves them as they are.
    """
    velocities = {name: np.zeros_like(value) for name, value in model.params.items()
                  if not (config.freeze_backbone and name.startswith("conv"))}
    return TrainState(model=model, velocities=velocities)


def lr_at(iteration: int, config: TrainConfig) -> float:
    drops = sum(1 for m in config.milestones if m <= iteration)
    return config.lr * 10.0 ** (-drops)


def sgd_step(params: dict, grads: dict, velocities: dict, lr: float,
             momentum: float, weight_decay: float, iteration: int = -1) -> None:
    """v = momentum * v + (g + weight_decay * p); p = p - lr * v.

    Updates exactly the parameters that own a momentum buffer, and needs a
    gradient for each of them (``Tape.backward`` gives zeros to a trainable
    leaf the loss never reaches, so such a parameter still sees weight decay).
    Raises DivergenceError on a non-finite gradient, and on an update that
    takes a parameter outside float32 range, where the next float32 tape
    and any checkpoint would turn it into inf.
    """
    for name, v in velocities.items():
        p = params[name]
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient at iteration {iteration} "
                                  f"for {name}: {count_entries(~np.isfinite(g))}")
        v *= momentum
        v += g + weight_decay * p
        p -= lr * v
        bad = ~(np.abs(p) <= np.finfo(np.float32).max)
        if bad.any():
            raise DivergenceError(f"parameter {name} at iteration {iteration}: "
                                  f"{count_entries(bad, 'outside float32 range')}")


def build_losses(model: ToyModel, leaves: dict, batch: PairBatch,
                 loss_config: LossConfig, baseline: bool = False):
    """The full loss graph for one batch on the leaves' tape: (loss, named components)."""
    arc_w = leaves["arcface.weight"]
    tape = arc_w.tape
    out_u = model.forward(tape, batch.unmasked, leaves=leaves)
    out_m = model.forward(tape, batch.masked, leaves=leaves)
    targets = batch.identity_labels
    arc_u = arcface_loss(tape, out_u.recognition_embedding, arc_w, targets,
                         loss_config.s, loss_config.m)
    arc_m = arcface_loss(tape, out_m.recognition_embedding, arc_w, targets,
                         loss_config.s, loss_config.m)
    if baseline:
        comb = tape.scale(tape.add(arc_m, arc_u), loss_config.beta)
        components = {"arc_u": arc_u.item(), "arc_m": arc_m.item(),
                      "ce_u": 0.0, "ce_m": 0.0, "mse": 0.0}
        return comb, components
    ce_u = cross_entropy(tape, out_u.mask_logits, batch.mask_labels_unmasked)
    ce_m = cross_entropy(tape, out_m.mask_logits, batch.mask_labels_masked)
    l_u = branch_loss(tape, arc_u, ce_u, loss_config.lambda_)
    l_m = branch_loss(tape, arc_m, ce_m, loss_config.lambda_)
    mse = contrastive_mse(tape, out_u.recognition_embedding,
                          out_m.recognition_embedding)
    comb = combined_loss(tape, mse, l_m, l_u, loss_config.alpha, loss_config.beta)
    components = {"arc_u": arc_u.item(), "arc_m": arc_m.item(),
                  "ce_u": ce_u.item(), "ce_m": ce_m.item(), "mse": mse.item()}
    return comb, components


def train_iteration(state: TrainState, batch: PairBatch,
                    config: TrainConfig) -> dict:
    """One dual forward and backward on a float32 tape, one float64 SGD step.

    The state's momentum buffers name the parameters that train.  Returns
    the loss breakdown.
    """
    tape = Tape(np.float32)
    leaves = state.model.leaves(tape, state.velocities)
    comb, components = build_losses(state.model, leaves, batch, config.loss,
                                    baseline=config.baseline)
    grads = tape.backward(comb)
    named_grads = {name: grads[leaves[name].node_id] for name in state.velocities}
    lr = lr_at(state.iteration, config)
    sgd_step(state.model.params, named_grads, state.velocities, lr,
             config.momentum, config.weight_decay, iteration=state.iteration)
    state.iteration += 1
    breakdown = {"lr": lr, "comb": comb.item()}
    breakdown.update(components)
    return breakdown


def _format_iteration(iteration: int, b: dict) -> str:
    values = [str(iteration)] + [f"{b[k]:.10g}" for k in LOG_FIELDS[1:]]
    return "\t".join(values)


def _format_eval(iteration: int, report) -> str:
    values = ["eval", str(iteration)] + \
        [f"{getattr(report, k):.10g}" for k in EVAL_FIELDS]
    return "\t".join(values)


def check_fit_inputs(corpus: Corpus, model: ToyModel | None = None) -> None:
    """Raise ValueError unless ``fit`` can train ``model``, or a fresh one, on ``corpus``.

    A starting model whose first step would hand ``l2_normalize`` a zero
    vector (an all-zero recognition head or class column) is rejected too.
    """
    if corpus.num_classes < 2:
        raise ValueError(f"training needs at least 2 training identities, the corpus "
                         f"has {corpus.num_classes}")
    if model is None:
        return
    if corpus.num_classes != model.config.num_classes:
        raise ValueError(
            f"model expects {model.config.num_classes} classes, corpus has "
            f"{corpus.num_classes} training identities")
    params = model.params
    if not (params["recognition.weight"].any() or params["recognition.bias"].any()):
        raise ValueError("parameters recognition.weight and recognition.bias are all "
                         "zero, so every recognition embedding is zero")
    zero = np.flatnonzero(~params["arcface.weight"].any(axis=0))
    if zero.size:
        raise ValueError(f"parameter arcface.weight: class column {zero[0]} is all zero")


def fit(config: TrainConfig, corpus: Corpus, model: ToyModel | None = None):
    """Run the configured budget; returns (state, log lines).

    Validation runs every eval_interval iterations; the retained best
    parameter snapshot minimizes the unmasked-reference/masked-probe FMR100
    (earliest iteration wins ties).
    """
    check_fit_inputs(corpus, model)
    if model is None:
        model = ToyModel.init(
            ToyBackboneConfig(num_classes=corpus.num_classes), seed=config.seed)
    state = init_state(model, config)
    log = []
    evaluable = corpus.val.num_identities >= 2
    for it in range(config.max_iterations):
        batch = train_batch(corpus, it, config.batch_size, seed=config.seed)
        breakdown = train_iteration(state, batch, config)
        log.append(_format_iteration(it, breakdown))
        if evaluable and (it + 1) % config.eval_interval == 0:
            report = compute_metrics(protocol_scores(model, corpus.val, "um"))
            log.append(_format_eval(it, report))
            if report.fmr100 < state.best_fmr100:
                state.best_fmr100 = report.fmr100
                state.best_iteration = it
                state.best_params = {k: v.copy() for k, v in model.params.items()}
    if state.best_params is None:
        state.best_fmr100 = math.nan
        state.best_iteration = config.max_iterations - 1
        state.best_params = {k: v.copy() for k, v in model.params.items()}
    return state, log


def best_model(state: TrainState) -> ToyModel:
    return ToyModel(state.model.config,
                    {k: v.copy() for k, v in state.best_params.items()})


def parse_log_mse(log_lines) -> np.ndarray:
    """Contrastive-term column of the per-iteration records, in order."""
    values = []
    for line in log_lines:
        parts = line.split("\t")
        if parts[0] != "eval":
            values.append(float(parts[LOG_FIELDS.index("mse")]))
    return np.asarray(values)
