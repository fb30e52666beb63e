import numpy as np
import pytest

from focusface.autodiff import ShapeError, Tape, grad_check
from focusface.training import sgd_step


def test_add_elementwise():
    tape = Tape()
    out = tape.add(tape.leaf([1.0, 2.0]), tape.leaf([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_l2_normalize_triangle():
    tape = Tape()
    out = tape.l2_normalize(tape.leaf([3.0, 4.0]))
    np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-15)


def test_matmul_ones():
    tape = Tape()
    out = tape.matmul(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((3, 2))))
    np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))


def test_matmul_shape_error_names_op_and_shapes():
    tape = Tape()
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        tape.matmul(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((2, 3))))


def test_add_shape_error():
    tape = Tape()
    with pytest.raises(ShapeError, match="add"):
        tape.add(tape.leaf(np.ones(3)), tape.leaf(np.ones(4)))


def test_backward_of_sum_is_ones():
    tape = Tape()
    x = tape.leaf(np.arange(6, dtype=float).reshape(2, 3), trainable=True)
    grads = tape.backward(tape.sum(x))
    np.testing.assert_array_equal(grads[x.node_id], np.ones((2, 3)))


def test_backward_of_dot_quadratic():
    tape = Tape()
    x = tape.leaf([1.0, 2.0], trainable=True)
    grads = tape.backward(tape.dot(x, x))
    np.testing.assert_array_equal(grads[x.node_id], [2.0, 4.0])


def test_backward_rejects_non_scalar_loss():
    tape = Tape()
    x = tape.leaf([1.0, 2.0], trainable=True)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(tape.add(x, x))


def test_normalize_then_dot_matches_finite_differences():
    rng = np.random.default_rng(7)
    w = rng.normal(size=5)

    def build(tape, x):
        return tape.dot(tape.l2_normalize(x), tape.leaf(w))

    err = grad_check(build, [rng.normal(size=5)], h=1e-5)
    assert err <= 1e-6


def test_grad_check_identity_is_exact():
    # power-of-two step keeps x +/- h and the difference exactly representable
    err = grad_check(lambda tape, x: tape.sum(x), [np.ones(4)], h=2.0**-17)
    assert err == 0.0


def test_grad_check_three_layer_perceptron():
    rng = np.random.default_rng(11)
    w1 = rng.normal(size=(6, 5)) * 0.7
    w2 = rng.normal(size=(5, 4)) * 0.7
    w3 = rng.normal(size=(4, 1)) * 0.7
    x = rng.normal(size=(3, 6))

    def build(tape, w1t, w2t, w3t, slope):
        xin = tape.leaf(x)
        h1 = tape.prelu(tape.matmul(xin, w1t), slope)
        h2 = tape.prelu(tape.matmul(h1, w2t), slope)
        return tape.sum(tape.matmul(h2, w3t))

    err = grad_check(build, [w1, w2, w3, np.asarray(0.25)], h=1e-5)
    assert err <= 1e-4


def _conv2d_loops(x, w, b, g, stride, pad):
    """Forward output and the three gradients of sum(conv2d(x, w, b) * g), by loops."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n_img, _, kh, kw = x.shape[0], x.shape[1], w.shape[2], w.shape[3]
    ho = (xp.shape[2] - kh) // stride + 1
    wo = (xp.shape[3] - kw) // stride + 1
    out = np.zeros((n_img, w.shape[0], ho, wo))
    gw = np.zeros_like(w)
    gb = np.zeros_like(b)
    gxp = np.zeros_like(xp)
    for n in range(n_img):
        for o in range(w.shape[0]):
            for i in range(ho):
                for j in range(wo):
                    rows = slice(i * stride, i * stride + kh)
                    cols = slice(j * stride, j * stride + kw)
                    out[n, o, i, j] = np.sum(xp[n, :, rows, cols] * w[o]) + b[o, 0, 0]
                    gw[o] += g[n, o, i, j] * xp[n, :, rows, cols]
                    gb[o] += g[n, o, i, j]
                    gxp[n, :, rows, cols] += g[n, o, i, j] * w[o]
    gx = gxp[:, :, pad:pad + x.shape[2], pad:pad + x.shape[3]]
    return out, gx, gw, gb


def test_conv2d_matches_direct_loops():
    rng = np.random.default_rng(3)
    for stride in (1, 2):
        for pad in (0, 1):
            for c in (1, 3):
                x = rng.normal(size=(2, c, 7, 6))
                w = rng.normal(size=(4, c, 3, 3))
                b = rng.normal(size=(4, 1, 1))
                tape = Tape()
                xt = tape.leaf(x, trainable=True)
                wt = tape.leaf(w, trainable=True)
                bt = tape.leaf(b, trainable=True)
                out = tape.conv2d(xt, wt, bt, stride=stride, padding=pad)
                g = rng.normal(size=out.shape)
                grads = tape.backward(tape.sum(tape.mul(out, tape.leaf(g))))

                ref, ref_gx, ref_gw, ref_gb = _conv2d_loops(x, w, b, g, stride, pad)
                case = f"stride {stride}, padding {pad}, {c} channels"
                np.testing.assert_allclose(out.data, ref, atol=1e-12, err_msg=case)
                for leaf, want in ((xt, ref_gx), (wt, ref_gw), (bt, ref_gb)):
                    np.testing.assert_allclose(grads[leaf.node_id], want, atol=1e-12,
                                               err_msg=case)

                # an input that needs no gradient (an image) skips the
                # input-gradient pass; the weight and bias gradients are unchanged
                tape = Tape()
                wt2 = tape.leaf(w, trainable=True)
                bt2 = tape.leaf(b, trainable=True)
                out = tape.conv2d(tape.leaf(x), wt2, bt2, stride=stride, padding=pad)
                frozen_x = tape.backward(tape.sum(tape.mul(out, tape.leaf(g))))
                assert list(frozen_x) == [wt2.node_id, bt2.node_id]
                assert frozen_x[wt2.node_id].tobytes() == grads[wt.node_id].tobytes()
                assert frozen_x[bt2.node_id].tobytes() == grads[bt.node_id].tobytes()


def test_conv2d_bias_equals_added_bias_bit_for_bit():
    # the bias folded into conv2d gives the bits of an add after a zero-bias
    # conv2d, in the value and in every gradient
    rng = np.random.default_rng(29)
    x = rng.normal(size=(3, 2, 6, 5))
    w = rng.normal(size=(4, 2, 3, 3))
    b = rng.normal(size=(4, 1, 1))
    for dtype in (np.float32, np.float64):
        g = rng.normal(size=(3, 4, 3, 3)).astype(dtype)
        results = []
        for fold in (True, False):
            tape = Tape(dtype)
            xt, wt, bt = (tape.leaf(v, trainable=True) for v in (x, w, b))
            if fold:
                out = tape.conv2d(xt, wt, bt, stride=2, padding=1)
            else:
                zeros = tape.leaf(np.zeros_like(b))
                out = tape.add(tape.conv2d(xt, wt, zeros, stride=2, padding=1), bt)
            grads = tape.backward(tape.sum(tape.mul(out, tape.leaf(g))))
            results.append([out.data.tobytes()] +
                           [grads[t.node_id].tobytes() for t in (xt, wt, bt)])
            assert out.data.dtype == dtype
        assert results[0] == results[1], np.dtype(dtype).name


def test_backward_runs_once_per_tape():
    # conv2d drops the column matrix it kept once its rule has run
    tape = Tape()
    xt = tape.leaf(np.ones((1, 1, 4, 4)), trainable=True)
    out = tape.conv2d(xt, tape.leaf(np.ones((2, 1, 3, 3)), trainable=True),
                      tape.leaf(np.zeros((2, 1, 1))), padding=1)
    loss = tape.sum(tape.prelu(out, tape.leaf(0.25, trainable=True)))
    tape.backward(loss)
    with pytest.raises(RuntimeError, match="backward already ran"):
        tape.backward(loss)


def test_rules_are_kept_only_on_nodes_that_take_a_gradient():
    # the input-only branch stores no rule; the gradient is the one the rules
    # compute in order: sum gives ones, mul gives ones * y twice, summed, and
    # matmul gives h.T @ that
    rng = np.random.default_rng(41)
    tape = Tape()
    x = tape.leaf(rng.normal(size=(2, 3)))
    w = tape.leaf(rng.normal(size=(3, 4)), trainable=True)
    scaled = tape.scale(x, 2.0)
    h = tape.l2_normalize(scaled)
    y = tape.matmul(h, w)
    loss = tape.sum(tape.mul(y, y))
    for t in (x, scaled, h):
        assert tape.nodes[t.node_id].backward_fn is None and not t.needs_grad
    for t in (y, loss):
        assert tape.nodes[t.node_id].backward_fn is not None and t.needs_grad
    grads = tape.backward(loss)
    ones = np.ones_like(loss.data)
    expected = h.data.T @ (ones * y.data + ones * y.data)
    assert grads[w.node_id].tobytes() == expected.tobytes()


def test_prelu_matches_where_formula_bit_for_bit():
    # the reference is the np.where rule: where(x > 0, x, a * x) forward,
    # g * where(x > 0, 1, a) and sum(g * where(x > 0, 0, x)) backward, in the
    # tape's dtype; signed zeros must come out with the same sign, and
    # x = +inf at slope 0 gives inf, not the nan of max(inf, 0 * inf)
    rng = np.random.default_rng(23)
    # long enough for numpy's vector loops, odd so a scalar tail runs too
    mixed = rng.normal(size=1003)
    mixed[::5] = 0.0
    mixed[1::5] = -0.0
    signed_zero_g = rng.normal(size=mixed.size)
    signed_zero_g[2::7] = 0.0
    signed_zero_g[3::7] = -0.0
    infinite = np.array([np.inf, -np.inf, 1.5, -0.0, 0.0, -2.0, np.inf])
    cases = [(mixed, signed_zero_g, a) for a in (-0.5, 0.0, 0.25, 1.0, 1.7)]
    cases += [(infinite, np.array([1.0, 2.0, -1.0, 0.5, -0.5, 3.0, -2.0]), a)
              for a in (-0.5, 0.0, 0.25, 1.0, 1.7)]
    cases += [
        # every slope term is a zero: the sum's sign is the sign of those zeros
        (np.array([-0.0, 0.0, -0.0, 2.0]), np.array([1.0, -1.0, 2.0, -3.0]), 0.25),
        (np.array([-0.0, 0.0, 0.0]), np.array([-1.0, 1.0, -0.0]), 0.25),
    ]
    for dtype in (np.float64, np.float32):
        for x, g, a in cases:
            x, g, a = x.astype(dtype), g.astype(dtype), dtype(a)
            tape = Tape(dtype)
            xt = tape.leaf(x, trainable=True)
            st = tape.leaf(a, trainable=True)
            with np.errstate(invalid="ignore"):  # 0 * -inf is nan on both sides
                out = tape.prelu(xt, st)
                # the rule's returned pair is its contribution exactly, sign of zero included
                grad_x, grad_slope = tape.nodes[out.node_id].backward_fn(g)
                pos = x > 0
                ref_value = np.where(pos, x, a * x)
                ref_x = g * np.where(pos, dtype(1), a)
                ref_slope = np.sum(g * np.where(pos, dtype(0), x))
            case = (np.dtype(dtype).name, float(a), x.size)
            assert out.data.tobytes() == ref_value.tobytes(), case
            assert out.data.dtype == grad_x.dtype == grad_slope.dtype == dtype, case
            assert grad_x.tobytes() == ref_x.tobytes(), case
            assert grad_slope.tobytes() == ref_slope.tobytes(), case


def test_backward_sums_returned_gradients_and_owns_leaf_results():
    # add(w, w): both of the rule's entries reach one leaf and are summed
    tape = Tape()
    w = tape.leaf([1.0, -2.0, 3.0], trainable=True)
    s = tape.leaf([0.5, 1.5, -1.0])
    grads = tape.backward(tape.dot(tape.add(w, w), s))
    assert grads[w.node_id].tobytes() == (2 * s.data).tobytes()

    # add and sum pass g or a read-only view of it back; each trainable leaf
    # still gets a writable array that shares memory with no other result
    tape = Tape()
    w = tape.leaf(np.ones(3), trainable=True)
    v = tape.leaf(np.ones(3), trainable=True)
    u = tape.leaf(np.ones((2, 2)), trainable=True)
    unreached = tape.leaf(np.ones((2, 3)), trainable=True)
    tape.scale(unreached, 2.0)  # recorded, but no path leads to the loss
    grads = tape.backward(tape.add(tape.sum(tape.add(w, v)), tape.sum(u)))
    returned = list(grads.values())
    for k, g in enumerate(returned):
        assert isinstance(g, np.ndarray) and g.flags.writeable
        assert not any(np.may_share_memory(g, other) for other in returned[k + 1:])
    for leaf in (w, v, u):
        np.testing.assert_array_equal(grads[leaf.node_id], np.ones(leaf.shape))
    assert grads[unreached.node_id].tobytes() == np.zeros((2, 3)).tobytes()

    # a first contribution is no longer added to a +0.0 buffer, so a
    # gradient entry may be -0.0; sgd_step's velocities start at +0.0 and
    # +0.0 + -0.0 is +0.0, so the parameters come out bit for bit the same
    p0 = np.array([0.0, -0.0, 1.5, -2.0, 0.0, -0.0])
    v0 = np.array([0.0, 0.0, 0.0, 0.0, 0.3, -0.3])
    for weight_decay in (0.0, 5e-4):
        results = []
        for zero in (0.0, -0.0):
            params, velocities = {"w": p0.copy()}, {"w": v0.copy()}
            for _ in range(2):
                sgd_step(params, {"w": np.full(6, zero)}, velocities,
                         lr=0.1, momentum=0.9, weight_decay=weight_decay)
            results.append((params["w"].tobytes(), velocities["w"].tobytes()))
        assert results[0] == results[1]


def test_conv2d_channel_mismatch():
    tape = Tape()
    with pytest.raises(ShapeError, match="conv2d"):
        tape.conv2d(tape.leaf(np.ones((1, 2, 4, 4))),
                    tape.leaf(np.ones((3, 5, 3, 3))), tape.leaf(np.ones((3, 1, 1))))
    with pytest.raises(ShapeError, match="bias must have shape"):
        tape.conv2d(tape.leaf(np.ones((1, 2, 4, 4))),
                    tape.leaf(np.ones((3, 2, 3, 3))), tape.leaf(np.ones(3)))


def test_flatten_round_trip_gradient():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 4))

    def build(tape, xt):
        flat = tape.flatten(xt)
        return tape.sum(tape.mul(flat, flat))

    assert grad_check(build, [x], h=1e-5) <= 1e-6


def test_backward_linearity_over_loss_sum():
    rng = np.random.default_rng(13)
    xv = rng.normal(size=(3, 4))
    wv = rng.normal(size=(4, 2))

    def grads_for(combine):
        tape = Tape()
        x = tape.leaf(xv, trainable=True)
        w = tape.leaf(wv, trainable=True)
        y = tape.matmul(x, w)
        la = tape.sum(tape.mul(y, y))
        lb = tape.sum(y)
        return tape, x, w, la, lb, combine

    tape, x, w, la, lb, _ = grads_for(None)
    combined = tape.backward(tape.add(la, lb))

    tape2 = Tape()
    x2 = tape2.leaf(xv, trainable=True)
    w2 = tape2.leaf(wv, trainable=True)
    y2 = tape2.matmul(x2, w2)
    ga = tape2.backward(tape2.sum(tape2.mul(y2, y2)))
    tape3 = Tape()
    x3 = tape3.leaf(xv, trainable=True)
    w3 = tape3.leaf(wv, trainable=True)
    y3 = tape3.matmul(x3, w3)
    gb = tape3.backward(tape3.sum(y3))

    np.testing.assert_allclose(combined[x.node_id],
                               ga[x2.node_id] + gb[x3.node_id], atol=1e-12)
    np.testing.assert_allclose(combined[w.node_id],
                               ga[w2.node_id] + gb[w3.node_id], atol=1e-12)


def test_backward_is_deterministic():
    rng = np.random.default_rng(17)
    xv = rng.normal(size=(4, 4))

    def run():
        tape = Tape()
        x = tape.leaf(xv, trainable=True)
        y = tape.l2_normalize(tape.matmul(x, x))
        return tape.backward(tape.sum(tape.mul(y, y)))[x.node_id]

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_scale_by_constant():
    tape = Tape()
    x = tape.leaf([2.0, -4.0], trainable=True)
    out = tape.scale(x, 0.5)
    np.testing.assert_array_equal(out.data, [1.0, -2.0])
    grads = tape.backward(tape.sum(out))
    np.testing.assert_array_equal(grads[x.node_id], [0.5, 0.5])


def test_float32_tape_runs():
    tape = Tape(dtype=np.float32)
    x = tape.leaf(np.ones((2, 2)), trainable=True)
    out = tape.sum(tape.mul(x, x))
    assert out.data.dtype == np.float32
    grads = tape.backward(out)
    assert grads[x.node_id].dtype == np.float32
