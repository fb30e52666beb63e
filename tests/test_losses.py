import math

import numpy as np
import pytest

from focusface.autodiff import ShapeError, Tape, grad_check
from focusface.losses import (
    LossConfig,
    arcface_loss,
    branch_loss,
    combined_loss,
    contrastive_mse,
    cross_entropy,
)


def _scalar(fn):
    tape = Tape()
    return float(fn(tape).data)


# ---------------------------------------------------------------- cross-entropy

def test_ce_uniform_two_classes():
    loss = _scalar(lambda t: cross_entropy(t, t.leaf([[0.0, 0.0]]), [0]))
    assert abs(loss - math.log(2)) < 1e-15


def test_ce_uniform_four_classes():
    logits = np.full((3, 4), 1.7)
    loss = _scalar(lambda t: cross_entropy(t, t.leaf(logits), [0, 1, 3]))
    assert abs(loss - math.log(4)) < 1e-12


def test_ce_large_logits_do_not_overflow():
    loss = _scalar(lambda t: cross_entropy(t, t.leaf([[1000.0, 0.0]]), [0]))
    assert 0.0 <= loss < 1e-12
    assert np.isfinite(loss)


def test_ce_target_out_of_range():
    tape = Tape()
    with pytest.raises(ValueError, match="out of range"):
        cross_entropy(tape, tape.leaf([[0.0, 0.0]]), [2])


def test_ce_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        logits = rng.normal(size=(4, 6)) * 3
        targets = rng.integers(0, 6, size=4)
        loss = _scalar(lambda t: cross_entropy(t, t.leaf(logits), targets))
        assert loss >= 0.0


# --------------------------------------------------------------------- arcface

def _orthonormal_head():
    # target class weight aligned with the feature, other class orthogonal
    return np.array([[1.0, 0.0], [0.0, 1.0]])


def test_arcface_margin_free_analytic():
    features = np.array([[1.0, 0.0]])
    loss = _scalar(lambda t: arcface_loss(
        t, t.leaf(features), t.leaf(_orthonormal_head()), [0], s=1.0, m=0.0))
    assert abs(loss - math.log(1 + math.exp(-1))) < 1e-6


def test_arcface_full_margin_drives_loss_to_zero():
    features = np.array([[2.5, 0.0]])  # scale must not matter
    loss = _scalar(lambda t: arcface_loss(
        t, t.leaf(features), t.leaf(_orthonormal_head()), [0], s=64.0, m=0.5))
    assert loss <= 1e-20


def test_arcface_zero_feature_rejected():
    tape = Tape()
    with pytest.raises(ValueError, match="norm"):
        arcface_loss(tape, tape.leaf([[0.0, 0.0]]),
                     tape.leaf(_orthonormal_head()), [0], s=64.0, m=0.5)


def _random_instance(rng, batch=4, dim=8, classes=5):
    features = rng.normal(size=(batch, dim))
    weights = rng.normal(size=(dim, classes))
    targets = rng.integers(0, classes, size=batch)
    return features, weights, targets


def test_arcface_m0_equals_scaled_cosine_ce():
    rng = np.random.default_rng(42)
    for _ in range(20):
        features, weights, targets = _random_instance(rng)
        s = 13.0

        larc = _scalar(lambda t: arcface_loss(
            t, t.leaf(features), t.leaf(weights), targets, s=s, m=0.0))

        tape = Tape()
        fn = tape.l2_normalize(tape.leaf(features), axis=-1)
        wn = tape.l2_normalize(tape.leaf(weights), axis=0)
        cosines = tape.matmul(fn, wn)
        lce = float(cross_entropy(tape, tape.scale(cosines, s), targets).data)
        assert abs(larc - lce) < 1e-12


def test_arcface_positive_scale_invariance():
    rng = np.random.default_rng(7)
    for c in (0.01, 0.5, 3.0, 250.0):
        features, weights, targets = _random_instance(rng)
        base = _scalar(lambda t: arcface_loss(
            t, t.leaf(features), t.leaf(weights), targets, s=64.0, m=0.5))
        scaled = _scalar(lambda t: arcface_loss(
            t, t.leaf(c * features), t.leaf(weights), targets, s=64.0, m=0.5))
        assert abs(base - scaled) < 1e-10


def test_arcface_margin_monotone_in_m():
    # larger margin never lowers the loss at a fixed parameter point,
    # provided no target cosine sits in the fallback region
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        features, weights, targets = _random_instance(rng)
        fn = features / np.linalg.norm(features, axis=1, keepdims=True)
        wn = weights / np.linalg.norm(weights, axis=0, keepdims=True)
        cos_t = (fn @ wn)[np.arange(len(targets)), targets]
        m_lo, m_hi = sorted(rng.uniform(0.05, 1.2, size=2))
        if m_hi - m_lo < 1e-3:
            continue
        if np.any(cos_t <= math.cos(math.pi - m_hi) + 1e-3):
            continue
        lo = _scalar(lambda t: arcface_loss(
            t, t.leaf(features), t.leaf(weights), targets, s=16.0, m=m_lo))
        hi = _scalar(lambda t: arcface_loss(
            t, t.leaf(features), t.leaf(weights), targets, s=16.0, m=m_hi))
        assert hi >= lo - 1e-12
        checked += 1


def test_arcface_head_container():
    # the head is a plain weight leaf, one column per class
    weights = np.random.default_rng(8).normal(0.0, 0.01, (16, 5))
    loss = _scalar(lambda t: arcface_loss(
        t, t.leaf(np.ones((2, 16))), t.leaf(weights), [0, 1], s=64.0, m=0.5))
    assert np.isfinite(loss)


# ------------------------------------------------------------- contrastive mse

def test_mse_identical_batches_is_zero():
    x = np.random.default_rng(1).normal(size=(3, 16))
    loss = _scalar(lambda t: contrastive_mse(t, t.leaf(x), t.leaf(x.copy())))
    assert loss == 0.0


def test_mse_two_unit_differences():
    a = np.zeros((1, 64))
    b = np.zeros((1, 64))
    b[0, 3] = 1.0
    b[0, 40] = 1.0
    loss = _scalar(lambda t: contrastive_mse(t, t.leaf(a), t.leaf(b)))
    assert loss == 2.0 / 64.0


def test_mse_matches_scalar_loop():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 12))
    b = rng.normal(size=(5, 12))
    loss = _scalar(lambda t: contrastive_mse(t, t.leaf(a), t.leaf(b)))
    expected = 0.0
    for i in range(5):
        for j in range(12):
            expected += (a[i, j] - b[i, j]) ** 2
    expected /= 5 * 12
    assert abs(loss - expected) < 1e-12


def test_mse_shape_mismatch():
    tape = Tape()
    with pytest.raises(ShapeError, match="contrastive_mse"):
        contrastive_mse(tape, tape.leaf(np.ones((2, 4))), tape.leaf(np.ones((2, 5))))


def test_mse_positive_iff_different():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = rng.normal(size=(2, 6))
        b = a + rng.normal(size=(2, 6)) * 0.1
        assert _scalar(lambda t: contrastive_mse(t, t.leaf(a), t.leaf(b))) > 0


# ------------------------------------------------------- branch + combination

def test_branch_loss_arithmetic():
    tape = Tape()
    out = branch_loss(tape, tape.leaf(2.0), tape.leaf(0.5), 0.1)
    assert abs(float(out.data) - 2.05) < 1e-15


def test_branch_loss_lambda_zero():
    tape = Tape()
    out = branch_loss(tape, tape.leaf(1.75), tape.leaf(123.0), 0.0)
    assert float(out.data) == 1.75


def test_branch_loss_gradient_decomposes():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(3, 6))
    arc_w = rng.normal(size=(6, 4))
    mask_w = rng.normal(size=(6, 2))
    targets = [0, 2, 1]

    def build(tape, f):
        larc = arcface_loss(tape, f, tape.leaf(arc_w), targets, s=8.0, m=0.3)
        lce = cross_entropy(tape, tape.matmul(f, tape.leaf(mask_w)), [0, 1, 0])
        return larc, lce

    tape = Tape()
    f = tape.leaf(features, trainable=True)
    larc, lce = build(tape, f)
    g_branch = tape.backward(branch_loss(tape, larc, lce, 0.1))[f.node_id]

    tape_a = Tape()
    fa = tape_a.leaf(features, trainable=True)
    la, _ = build(tape_a, fa)
    ga = tape_a.backward(la)[fa.node_id]
    tape_b = Tape()
    fb = tape_b.leaf(features, trainable=True)
    _, lb = build(tape_b, fb)
    gb = tape_b.backward(lb)[fb.node_id]
    np.testing.assert_allclose(g_branch, ga + 0.1 * gb, atol=1e-12)

    err = grad_check(
        lambda t, x: branch_loss(t, *build(t, x), 0.1), [features], h=1e-5)
    assert err <= 1e-4


def test_combined_loss_additive_example():
    tape = Tape()
    out = combined_loss(tape, tape.leaf(0.3), tape.leaf(2.0), tape.leaf(1.0),
                        alpha=1.0 / 3.0, beta=0.5, comb_mode="additive")
    assert abs(float(out.data) - 1.6) < 1e-15


def test_combined_loss_multiplicative_example():
    tape = Tape()
    out = combined_loss(tape, tape.leaf(0.3), tape.leaf(2.0), tape.leaf(1.0),
                        alpha=1.0 / 3.0, beta=0.5, comb_mode="multiplicative")
    assert abs(float(out.data) - 0.15) < 1e-15


def test_combined_loss_alpha_zero_is_pure_branch_term():
    tape = Tape()
    out = combined_loss(tape, tape.leaf(123.0), tape.leaf(2.0), tape.leaf(1.0),
                        alpha=0.0, beta=0.5, comb_mode="additive")
    assert float(out.data) == 0.5 * 3.0


def test_combined_loss_rejects_unknown_mode():
    tape = Tape()
    with pytest.raises(ValueError, match="comb_mode"):
        combined_loss(tape, tape.leaf(0.1), tape.leaf(0.1), tape.leaf(0.1),
                      1.0, 1.0, comb_mode="average")


# ---------------------------------------------------------------- loss config

def test_loss_config_defaults():
    cfg = LossConfig()
    assert cfg.s == 4.2 and cfg.m == 0.5
    assert cfg.lambda_ == 0.1
    assert abs(cfg.alpha - 1 / 3) < 1e-15 and cfg.beta == 0.5


@pytest.mark.parametrize("kwargs", [
    {"s": 0.0},
    {"s": -1.0},
    {"m": -0.1},
    {"m": math.pi / 2},
    {"lambda_": -0.5},
    {"alpha": -1.0},
    {"beta": -0.1},
    # a range check written as `x <= 0` or `x < 0` would let nan through
    {"m": math.nan},
    {"s": math.nan},
    {"lambda_": math.nan},
    {"alpha": math.nan},
    {"beta": math.nan},
])
def test_loss_config_validation(kwargs):
    (name, value), = kwargs.items()
    with pytest.raises(ValueError, match=f"{name} must be .*, got {value!r}"):
        LossConfig(**kwargs)
