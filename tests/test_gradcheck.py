import inspect

import numpy as np
import pytest

from focusface.autodiff import Tape
from focusface.checks import (
    ALL_CHECKS,
    LOSS_CHECKS,
    OP_CHECKS,
    PreconditionError,
    require_arcface_smooth,
    require_prelu_smooth,
    run_all,
    run_check,
)


def test_every_op_kind_has_a_registered_check():
    # every public Tape method records an op, except these three
    ops = {name for name, _ in inspect.getmembers(Tape, inspect.isfunction)
           if not name.startswith("_")} - {"leaf", "custom", "backward"}
    assert "conv2d" in ops and ops <= set(OP_CHECKS)


def test_five_losses_registered():
    for name in ("cross_entropy", "arcface_loss", "contrastive_mse",
                 "branch_loss", "combined_loss"):
        assert name in LOSS_CHECKS


@pytest.mark.parametrize("name", sorted(ALL_CHECKS))
def test_gradients_match_central_differences(name):
    result = run_check(name, seed=0)
    assert result.passed, (
        f"{name}: max relative error {result.max_rel_error:.3e} over "
        f"{result.points} points exceeds {result.tolerance:.0e}")


def test_run_all_covers_everything():
    results = run_all(seed=1, points=2)
    assert {r.name for r in results} == set(ALL_CHECKS)
    assert all(r.passed for r in results)


def test_prelu_kink_probe_rejected():
    x = np.array([0.5, 0.0, -0.7])
    with pytest.raises(PreconditionError, match="kink"):
        require_prelu_smooth(x)


def test_arcface_saturated_cosine_rejected():
    features = np.array([[1.0, 0.0]])
    weights = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(PreconditionError, match="cos"):
        require_arcface_smooth(features, weights, [0], m=0.5)


def test_seed_varies_probe_points_deterministically():
    a = run_check("matmul", seed=3, points=3)
    b = run_check("matmul", seed=3, points=3)
    c = run_check("matmul", seed=4, points=3)
    assert a.max_rel_error == b.max_rel_error
    assert a.max_rel_error != c.max_rel_error
