import numpy as np
import pytest

from focusface.autodiff import ShapeError, Tape, grad_check


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


def _conv2d_loops(x, w, g, stride, pad):
    """Forward output and both gradients of sum(conv2d(x, w) * g), by loops."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n_img, _, kh, kw = x.shape[0], x.shape[1], w.shape[2], w.shape[3]
    ho = (xp.shape[2] - kh) // stride + 1
    wo = (xp.shape[3] - kw) // stride + 1
    out = np.zeros((n_img, w.shape[0], ho, wo))
    gw = np.zeros_like(w)
    gxp = np.zeros_like(xp)
    for n in range(n_img):
        for o in range(w.shape[0]):
            for i in range(ho):
                for j in range(wo):
                    rows = slice(i * stride, i * stride + kh)
                    cols = slice(j * stride, j * stride + kw)
                    out[n, o, i, j] = np.sum(xp[n, :, rows, cols] * w[o])
                    gw[o] += g[n, o, i, j] * xp[n, :, rows, cols]
                    gxp[n, :, rows, cols] += g[n, o, i, j] * w[o]
    gx = gxp[:, :, pad:pad + x.shape[2], pad:pad + x.shape[3]]
    return out, gx, gw


def test_conv2d_matches_direct_loops():
    rng = np.random.default_rng(3)
    for stride in (1, 2):
        for pad in (0, 1):
            for c in (1, 3):
                x = rng.normal(size=(2, c, 7, 6))
                w = rng.normal(size=(4, c, 3, 3))
                tape = Tape()
                xt = tape.leaf(x, trainable=True)
                wt = tape.leaf(w, trainable=True)
                out = tape.conv2d(xt, wt, stride=stride, padding=pad)
                g = rng.normal(size=out.shape)
                grads = tape.backward(tape.sum(tape.mul(out, tape.leaf(g))))

                ref, ref_gx, ref_gw = _conv2d_loops(x, w, g, stride, pad)
                case = f"stride {stride}, padding {pad}, {c} channels"
                np.testing.assert_allclose(out.data, ref, atol=1e-12, err_msg=case)
                np.testing.assert_allclose(grads[xt.node_id], ref_gx, atol=1e-12,
                                           err_msg=case)
                np.testing.assert_allclose(grads[wt.node_id], ref_gw, atol=1e-12,
                                           err_msg=case)

                # an input that needs no gradient (an image) skips the
                # input-gradient pass; the weight gradient is unchanged
                tape = Tape()
                wt2 = tape.leaf(w, trainable=True)
                out = tape.conv2d(tape.leaf(x), wt2, stride=stride, padding=pad)
                only_w = tape.backward(tape.sum(tape.mul(out, tape.leaf(g))))
                assert list(only_w) == [wt2.node_id]
                assert only_w[wt2.node_id].tobytes() == grads[wt.node_id].tobytes()


def test_prelu_matches_where_formula_bit_for_bit():
    # the reference is the np.where rule: where(x > 0, x, a * x) forward,
    # g * where(x > 0, 1, a) and sum(g * where(x > 0, 0, x)) backward;
    # signed zeros must come out with the same sign
    rng = np.random.default_rng(23)
    mixed = rng.normal(size=40)
    mixed[::5] = 0.0
    mixed[1::5] = -0.0
    signed_zero_g = rng.normal(size=40)
    signed_zero_g[2::7] = 0.0
    signed_zero_g[3::7] = -0.0
    cases = [
        (mixed, signed_zero_g, 0.25),
        (mixed, signed_zero_g, -0.5),
        # every slope term is a zero: the sum's sign is the sign of those zeros
        (np.array([-0.0, 0.0, -0.0, 2.0]), np.array([1.0, -1.0, 2.0, -3.0]), 0.25),
        (np.array([-0.0, 0.0, 0.0]), np.array([-1.0, 1.0, -0.0]), 0.25),
    ]
    for x, g, a in cases:
        tape = Tape()
        xt = tape.leaf(x, trainable=True)
        st = tape.leaf(a, trainable=True)
        out = tape.prelu(xt, st)
        # buffers start at -0.0, the identity of +=, so each holds the
        # rule's contribution exactly, sign of zero included
        grads = [None] * len(tape.nodes)
        grads[xt.node_id] = np.full(x.shape, -0.0)
        grads[st.node_id] = np.full((), -0.0)
        tape.nodes[out.node_id].backward_fn(g, grads)

        pos = x > 0
        assert out.data.tobytes() == np.where(pos, x, a * x).tobytes()
        ref_x = g * np.where(pos, 1.0, a)
        ref_slope = np.sum(g * np.where(pos, 0.0, x))
        assert grads[xt.node_id].tobytes() == ref_x.tobytes()
        assert grads[st.node_id].tobytes() == ref_slope.tobytes()


def test_conv2d_channel_mismatch():
    tape = Tape()
    with pytest.raises(ShapeError, match="conv2d"):
        tape.conv2d(tape.leaf(np.ones((1, 2, 4, 4))),
                    tape.leaf(np.ones((3, 5, 3, 3))))


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
