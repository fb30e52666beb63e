"""Loss constructions for joint recognition, mask detection and alignment.

Four building blocks: softmax cross-entropy, additive-angular-margin
(ArcFace) classification, mean-squared contrastive alignment between the
masked and unmasked recognition embeddings, and the weighted combinations
that tie them together.  All of them are differentiable tape operations;
cross-entropy and the margin transform carry fused hand-derived backward
rules, the rest are composed from tape primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError, Tape, Tensor

COMB_MODES = ("additive", "multiplicative")

# Cosines are clamped inside the open unit interval before the margin
# transform so arccos/sqrt stay well-conditioned at near-parallel vectors.
COS_CLAMP = 1e-7


@dataclass(frozen=True)
class LossConfig:
    """Hyperparameters of the combined training loss.

    ``s`` and ``m`` shape the angular-margin logits, ``lambda_`` weights the
    mask-detection cross-entropy inside each branch, ``alpha`` and ``beta``
    weight the contrastive term and the branch pair in the final
    combination, which is additive (see ``combined_loss``).

    ``s`` defaults to 4.2, not the paper's 64: 64 was tuned for tens of
    thousands of classes, and at it the margin loss of the 20-class toy
    model never leaves its plateau.  4.2 is AdaCos's fixed scale
    sqrt(2) * ln(C - 1) for C = 20 training classes (4.164), rounded.
    """

    s: float = 4.2
    m: float = 0.5
    lambda_: float = 0.1
    alpha: float = 1.0 / 3.0
    beta: float = 0.5

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"scale s must be positive, got {self.s}")
        if not 0 <= self.m < math.pi / 2:
            raise ValueError(f"margin m must be in [0, pi/2), got {self.m}")
        for name in ("lambda_", "alpha", "beta"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


def _as_targets(targets, n: int, batch: int) -> np.ndarray:
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (batch,):
        raise ShapeError(f"targets: expected shape ({batch},), got {t.shape}")
    if np.any(t < 0) or np.any(t >= n):
        bad = t[(t < 0) | (t >= n)][0]
        raise ValueError(f"target class {bad} out of range [0, {n})")
    return t


def cross_entropy(tape: Tape, logits: Tensor, targets) -> Tensor:
    """Mean negative log-softmax of the target class, log-sum-exp stabilised."""
    if logits.data.ndim != 2 or logits.shape[1] < 2:
        raise ShapeError(
            f"cross_entropy: logits must be (batch, n>=2), got {logits.shape}")
    batch, n = logits.shape
    t = _as_targets(targets, n, batch)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    value = np.mean(lse[:, 0] - z[np.arange(batch), t])
    dz = np.exp(z - lse)  # softmax minus the one-hot targets
    dz[np.arange(batch), t] -= 1.0

    def backward(g):
        return (g * dz / batch,)

    return tape.custom("cross_entropy", (logits,), value, backward)


def arcface_margin(tape: Tape, cosines: Tensor, targets, s: float,
                   m: float) -> Tensor:
    """Scale cosine logits by ``s``, adding the angular margin on target entries.

    Target cosines are clamped into the open unit interval and mapped to
    cos(theta + m).  Where theta would leave [0, pi] (cos theta <= cos(pi - m))
    the transform falls back to ``cos theta - m sin m``, which keeps the
    logit monotone in theta.
    """
    if cosines.data.ndim != 2:
        raise ShapeError(f"arcface_margin: cosines must be 2-d, got {cosines.shape}")
    batch, n = cosines.shape
    t = _as_targets(targets, n, batch)
    rows = np.arange(batch)

    c = cosines.data[rows, t]
    clamped = (c <= -1 + COS_CLAMP) | (c >= 1 - COS_CLAMP)
    cc = np.clip(c, -1 + COS_CLAMP, 1 - COS_CLAMP)
    sin_theta = np.sqrt(1.0 - cc * cc)
    cos_m, sin_m = math.cos(m), math.sin(m)
    fallback = cc <= math.cos(math.pi - m)
    margin = np.where(fallback, cc - m * sin_m, cc * cos_m - sin_theta * sin_m)

    value = s * cosines.data
    value[rows, t] = s * margin

    # d(margin)/d(cos): cos m + sin m * c / sin(theta) in the smooth region,
    # 1 past the fallback boundary, 0 where the clamp saturates.
    dmargin = np.where(fallback, 1.0, cos_m + sin_m * cc / sin_theta)
    dmargin = np.where(clamped, 0.0, dmargin)

    def backward(g):
        dc = s * g
        dc[rows, t] = s * g[rows, t] * dmargin
        return (dc,)

    return tape.custom("arcface_margin", (cosines,), value, backward)


def arcface_loss(tape: Tape, features: Tensor, weights: Tensor, targets,
                 s: float, m: float) -> Tensor:
    """Angular-margin softmax loss on the normalised hypersphere.

    ``weights`` is the class-weight matrix, a Tensor already on the tape,
    shaped (embed_dim, num_classes) with one column per class.  Stored
    weights are unconstrained: feature rows and weight columns are
    l2-normalised in-op, and a zero feature vector is an error.
    """
    if features.data.ndim != 2 or weights.data.ndim != 2 \
            or features.shape[1] != weights.shape[0]:
        raise ShapeError(
            f"arcface_loss: features {features.shape} incompatible with "
            f"weights {weights.shape}")
    fn = tape.l2_normalize(features, axis=-1)
    wn = tape.l2_normalize(weights, axis=0)
    cosines = tape.matmul(fn, wn)
    logits = arcface_margin(tape, cosines, targets, s, m)
    return cross_entropy(tape, logits, targets)


def contrastive_mse(tape: Tape, emb_unmasked: Tensor, emb_masked: Tensor) -> Tensor:
    """Mean squared difference between paired raw embedding batches."""
    if emb_unmasked.shape != emb_masked.shape:
        raise ShapeError(
            f"contrastive_mse: shapes differ, {emb_unmasked.shape} vs "
            f"{emb_masked.shape}")
    diff = tape.sub(emb_unmasked, emb_masked)
    return tape.scale(tape.sum(tape.mul(diff, diff)), 1.0 / diff.data.size)


def branch_loss(tape: Tape, l_arc: Tensor, l_ce: Tensor, lambda_: float) -> Tensor:
    """Per-branch total: recognition loss plus weighted mask-detection loss."""
    return tape.add(l_arc, tape.scale(l_ce, lambda_))


def combined_loss(tape: Tape, l_mse: Tensor, l_masked: Tensor,
                  l_unmasked: Tensor, alpha: float, beta: float,
                  comb_mode: str = "additive") -> Tensor:
    """Final training loss over both branches plus the contrastive term.

    Additive (default): alpha * mse + beta * (masked + unmasked), the one
    combination training uses.  Multiplicative: alpha * mse * beta *
    (masked + unmasked), under which the two constants collapse into one;
    no config key selects it, and it stays only while the benchmark names
    its gradient-check probe.
    """
    if comb_mode not in COMB_MODES:
        raise ValueError(f"comb_mode must be one of {COMB_MODES}, got {comb_mode!r}")
    branches = tape.scale(tape.add(l_masked, l_unmasked), beta)
    mse_term = tape.scale(l_mse, alpha)
    if comb_mode == "additive":
        return tape.add(mse_term, branches)
    return tape.mul(mse_term, branches)
