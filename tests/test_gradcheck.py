import inspect

import numpy as np
import pytest

from focusface import checks
from focusface.autodiff import Tape
from focusface.checks import (
    ALL_CHECKS,
    POINTS,
    PreconditionError,
    require_arcface_smooth,
    run_all,
    run_check,
)


def test_every_op_kind_has_a_registered_check():
    # every public Tape method records an op, except these three
    ops = {name for name, _ in inspect.getmembers(Tape, inspect.isfunction)
           if not name.startswith("_")} - {"leaf", "custom", "backward"}
    assert "conv2d" in ops and ops <= set(ALL_CHECKS)


def test_five_losses_registered():
    for name in ("cross_entropy", "arcface_loss", "contrastive_mse",
                 "branch_loss", "combined_loss"):
        assert name in ALL_CHECKS


@pytest.mark.parametrize("name", sorted(ALL_CHECKS))
def test_gradients_match_central_differences(name):
    result = run_check(name, seed=0)
    assert result.passed, (
        f"{name}: max relative error {result.max_rel_error:.3e} over "
        f"{result.points} points exceeds {result.tolerance:.0e}")


@pytest.mark.parametrize("name", sorted(ALL_CHECKS))
def test_float32_tape_keeps_float32_gradients(name):
    build_fn, inputs = ALL_CHECKS[name](np.random.default_rng(0))
    tape = Tape(np.float32)
    leaves = [tape.leaf(x, trainable=True) for x in inputs]
    grads = tape.backward(build_fn(tape, *leaves))
    assert [grads[lf.node_id].dtype for lf in leaves] == [np.float32] * len(leaves)


def test_run_all_covers_everything():
    results = run_all(seed=1)
    assert {r.name for r in results} == set(ALL_CHECKS)
    assert all(r.passed for r in results)


def test_arcface_saturated_cosine_rejected():
    features = np.array([[1.0, 0.0]])
    weights = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(PreconditionError, match="cos"):
        require_arcface_smooth(features, weights, [0], m=0.5)


def test_seed_varies_probe_points_deterministically():
    a = run_check("matmul", seed=3)
    b = run_check("matmul", seed=3)
    c = run_check("matmul", seed=4)
    assert a.max_rel_error == b.max_rel_error
    assert a.max_rel_error != c.max_rel_error


def test_probe_with_no_testable_point_fails_by_name(monkeypatch):
    def always_kinked(rng):
        raise PreconditionError(f"probe at {rng.uniform()} sits on a kink")

    monkeypatch.setitem(ALL_CHECKS, "always_kinked", always_kinked)
    with pytest.raises(RuntimeError, match="'always_kinked': no probe point in 64 draws"):
        run_check("always_kinked")


def test_probe_rejected_once_is_tested_on_its_second_draw(monkeypatch):
    draws, tested = [], []

    def kinked_once(rng):
        x = rng.uniform(0.3, 1.5, (3, 4))
        draws.append(x)
        if len(draws) == 1:
            raise PreconditionError("first draw rejected")
        return lambda t, xt: t.sum(t.mul(xt, xt)), [x]

    def recording_grad_check(build_fn, inputs, h):
        tested.append(inputs[0])
        return 0.0

    monkeypatch.setitem(ALL_CHECKS, "kinked_once", kinked_once)
    monkeypatch.setattr(checks, "grad_check", recording_grad_check)
    assert run_check("kinked_once").passed
    assert len(draws) == POINTS + 1
    assert len(tested) == POINTS
    assert all(x is d for x, d in zip(tested, draws[1:]))
