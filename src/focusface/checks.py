"""Registered gradient checks for every tape op and every loss.

Each entry draws one seeded random probe point and rejects it near a
non-smooth region (prelu kinks, the margin fallback boundary, saturated
cosines); ``_draw_conditioned`` redraws, at most 64 times.  Tape gradients
are compared against central finite differences at POINTS points, step H,
against the TOLERANCE gate; only the seed varies.  The one registry,
``ALL_CHECKS``, backs the ``gradcheck`` CLI command and the test suite.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, grad_check
from .losses import (
    arcface_loss,
    branch_loss,
    combined_loss,
    contrastive_mse,
    cross_entropy,
)

TOLERANCE = 1e-4  # max relative error a check passes at
POINTS = 20  # probe points per check
H = 1e-5  # central-difference step


class PreconditionError(ValueError):
    """A probe point violates an op's smoothness precondition."""


def require_prelu_smooth(x: np.ndarray, margin: float = 1e-3) -> None:
    """Reject probe points within ``margin`` of the prelu kink at zero."""
    closest = np.min(np.abs(x))
    if closest <= margin:
        raise PreconditionError(
            f"prelu probe too close to the kink: |pre-activation| = {closest:.2e} "
            f"<= {margin:.0e}")


def require_arcface_smooth(features: np.ndarray, weights: np.ndarray,
                           targets, m: float, margin: float = 1e-3) -> None:
    """Reject probes with near-saturated cosines or near the fallback boundary."""
    fn = features / np.linalg.norm(features, axis=1, keepdims=True)
    wn = weights / np.linalg.norm(weights, axis=0, keepdims=True)
    cos = fn @ wn
    if np.max(np.abs(cos)) >= 1 - margin:
        raise PreconditionError(
            f"arcface probe has |cos theta| = {np.max(np.abs(cos)):.6f} "
            f">= {1 - margin}")
    cos_t = cos[np.arange(len(targets)), np.asarray(targets)]
    boundary = math.cos(math.pi - m)
    if np.min(np.abs(cos_t - boundary)) <= margin:
        raise PreconditionError(
            "arcface probe target cosine within "
            f"{margin:.0e} of the fallback boundary {boundary:.4f}")


def _bounded(rng, shape, lo=0.3, hi=1.5):
    """Mixed-sign magnitudes bounded away from zero."""
    mag = rng.uniform(lo, hi, size=shape)
    return mag * np.where(rng.random(shape) < 0.5, 1.0, -1.0)


def _quadratic_readout(tape, out):
    return tape.sum(tape.mul(out, out))


# Each probe returns (build_fn, inputs); inputs become trainable leaves.
# Draws are conditioned so no analytic gradient element lands near zero,
# where the relative-error metric would amplify finite-difference noise:
# positive draws where gradients are sums (no cancellation), bounded
# magnitudes where they are products.

def _probe_add(rng):
    a, b = rng.uniform(0.3, 1.5, (3, 4)), rng.uniform(0.3, 1.5, (3, 4))
    return lambda t, x, y: _quadratic_readout(t, t.add(x, y)), [a, b]


def _probe_add_broadcast(rng):
    # bias-over-batch pattern used by the fully-connected layers
    a, b = rng.uniform(0.3, 1.5, (3, 4)), rng.uniform(0.3, 1.5, (4,))
    return lambda t, x, y: _quadratic_readout(t, t.add(x, y)), [a, b]


def _probe_sub(rng):
    a, b = rng.uniform(1.6, 2.8, (3, 4)), rng.uniform(0.3, 1.5, (3, 4))
    return lambda t, x, y: _quadratic_readout(t, t.sub(x, y)), [a, b]


def _probe_mul(rng):
    a, b = _bounded(rng, (3, 4)), _bounded(rng, (3, 4))
    return lambda t, x, y: _quadratic_readout(t, t.mul(x, y)), [a, b]


def _probe_matmul(rng):
    a, b = rng.uniform(0.3, 1.5, (3, 4)), rng.uniform(0.3, 1.5, (4, 2))
    return lambda t, x, y: _quadratic_readout(t, t.matmul(x, y)), [a, b]


def _probe_conv2d(rng):
    x = rng.uniform(0.3, 1.5, (2, 2, 6, 6))
    w = rng.uniform(0.3, 1.5, (3, 2, 3, 3))
    b = rng.uniform(0.3, 1.5, (3, 1, 1))
    return (lambda t, xt, wt, bt:
            _quadratic_readout(t, t.conv2d(xt, wt, bt, stride=2, padding=1)), [x, w, b])


def _probe_prelu(rng):
    x = _bounded(rng, (3, 4))
    x[0, 0] = -abs(x[0, 0])  # both sides of the kink must be exercised
    x[0, 1] = abs(x[0, 1])
    require_prelu_smooth(x)
    slope = np.asarray(0.25 + 0.05 * rng.normal())
    return lambda t, xt, st: _quadratic_readout(t, t.prelu(xt, st)), [x, slope]


def _probe_flatten(rng):
    x = _bounded(rng, (2, 3, 4))
    return lambda t, xt: _quadratic_readout(t, t.flatten(xt)), [x]


def _probe_l2_normalize(rng):
    x = _bounded(rng, (3, 5))
    w = _bounded(rng, (3, 5))
    # linear readout: a quadratic one is constant on the unit sphere
    return lambda t, xt: t.sum(t.mul(t.l2_normalize(xt), t.leaf(w))), [x]


def _probe_dot(rng):
    a, b = _bounded(rng, 6), _bounded(rng, 6)
    return lambda t, x, y: t.dot(x, y), [a, b]


def _probe_sum(rng):
    x = rng.normal(size=(3, 4))
    return lambda t, xt: t.sum(xt), [x]


def _probe_scale(rng):
    x = _bounded(rng, (3, 4))
    return lambda t, xt: t.scale(_quadratic_readout(t, xt), 0.37), [x]


def _probe_cross_entropy(rng):
    logits = rng.normal(size=(4, 5))
    targets = rng.integers(0, 5, size=4)
    return lambda t, lt: cross_entropy(t, lt, targets), [logits]


def _arcface_inputs(rng, m):
    features = rng.normal(size=(4, 8))
    weights = rng.normal(size=(8, 5))
    targets = rng.integers(0, 5, size=4)
    require_arcface_smooth(features, weights, targets, m)
    return features, weights, targets


def _probe_arcface(rng):
    m = 0.4
    features, weights, targets = _arcface_inputs(rng, m)
    return (lambda t, ft, wt:
            arcface_loss(t, ft, wt, targets, s=8.0, m=m), [features, weights])


def _probe_contrastive_mse(rng):
    a, b = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
    return lambda t, x, y: contrastive_mse(t, x, y), [a, b]


def _probe_branch_loss(rng):
    m = 0.4
    features, weights, targets = _arcface_inputs(rng, m)
    mask_w = rng.normal(size=(8, 2))
    mask_targets = rng.integers(0, 2, size=4)

    def build(t, ft, wt, mt):
        larc = arcface_loss(t, ft, wt, targets, s=8.0, m=m)
        lce = cross_entropy(t, t.matmul(ft, mt), mask_targets)
        return branch_loss(t, larc, lce, 0.1)

    return build, [features, weights, mask_w]


def _probe_combined(rng, comb_mode):
    m = 0.4
    feat_u, weights, targets = _arcface_inputs(rng, m)
    feat_m = feat_u + 0.1 * rng.normal(size=feat_u.shape)
    mask_w = rng.normal(size=(8, 2))

    def build(t, fu, fm, wt, mt):
        l_mse = contrastive_mse(t, fu, fm)
        lm = branch_loss(t, arcface_loss(t, fm, wt, targets, s=8.0, m=m),
                         cross_entropy(t, t.matmul(fm, mt), np.ones(4, int)), 0.1)
        lu = branch_loss(t, arcface_loss(t, fu, wt, targets, s=8.0, m=m),
                         cross_entropy(t, t.matmul(fu, mt), np.zeros(4, int)), 0.1)
        return combined_loss(t, l_mse, lm, lu, alpha=1 / 3, beta=0.5,
                             comb_mode=comb_mode)

    return build, [feat_u, feat_m, weights, mask_w]


# tape ops, then losses; the gradcheck command reports them in this order
ALL_CHECKS = {
    "add": _probe_add,
    "add_broadcast": _probe_add_broadcast,
    "sub": _probe_sub,
    "mul": _probe_mul,
    "matmul": _probe_matmul,
    "conv2d": _probe_conv2d,
    "prelu": _probe_prelu,
    "flatten": _probe_flatten,
    "l2_normalize": _probe_l2_normalize,
    "dot": _probe_dot,
    "sum": _probe_sum,
    "scale": _probe_scale,
    "cross_entropy": _probe_cross_entropy,
    "arcface_loss": _probe_arcface,
    "contrastive_mse": _probe_contrastive_mse,
    "branch_loss": _probe_branch_loss,
    "combined_loss": lambda rng: _probe_combined(rng, "additive"),
    "combined_loss_multiplicative": lambda rng: _probe_combined(rng, "multiplicative"),
}


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    points: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def _smallest_partial(build_fn, inputs):
    """Smallest analytic gradient magnitude across all inputs, and the loss."""
    tape = Tape()
    leaves = [tape.leaf(x, trainable=True) for x in inputs]
    loss = build_fn(tape, *leaves)
    grads = tape.backward(loss)
    smallest = min(float(np.min(np.abs(grads[lf.node_id]))) for lf in leaves)
    return smallest, abs(loss.item())


def _draw_conditioned(name, rng):
    # Central differences carry absolute roundoff noise near eps * |loss| / H.
    # A partial derivative below noise / TOLERANCE cannot meet the relative
    # tolerance no matter how correct the tape is, so redraw such probe
    # points, as well as points a probe's precondition rejects; they would
    # test numerical luck, not the chain rule.
    for _ in range(64):
        try:
            build_fn, inputs = ALL_CHECKS[name](rng)
        except PreconditionError:
            continue
        smallest, loss_scale = _smallest_partial(build_fn, inputs)
        noise_floor = np.finfo(float).eps * (1.0 + loss_scale) / H
        if smallest * TOLERANCE > 10.0 * noise_floor:
            return build_fn, inputs
    raise RuntimeError(f"gradient check {name!r}: no probe point in 64 draws met its "
                       "preconditions and cleared the noise floor")


def run_check(name: str, seed: int = 0) -> CheckResult:
    """Worst relative error of one registered check over POINTS seeded probe points."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    worst = 0.0
    for _ in range(POINTS):
        build_fn, inputs = _draw_conditioned(name, rng)
        worst = max(worst, grad_check(build_fn, inputs, h=H))
    return CheckResult(name, worst, POINTS, TOLERANCE)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [run_check(name, seed) for name in ALL_CHECKS]
