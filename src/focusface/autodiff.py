"""Minimal dense-tensor reverse-mode differentiation.

Everything the embedding network and its losses need is covered by a fixed
vocabulary of operations, each with a hand-written backward rule.  Ops are
recorded on a ``Tape`` in execution order, so the reverse pass is a single
walk over the node list from back to front.  There is no graph compiler,
no broadcasting cleverness beyond what the ops document, and no support
for higher-order derivatives.

Each node also records whether a trainable leaf feeds it.  ``backward``
gives gradient buffers and runs backward rules only for those nodes, so
inputs (images, a frozen backbone) cost nothing in the reverse pass.

Float64 is the default dtype because central-difference gradient checking
is unreliable in float32.  A tape takes any float dtype, but training,
inference and gradient checking all build float64 tapes.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when an op receives incompatibly shaped inputs."""


class Tensor:
    """A dense n-d array bound to a position on a tape.

    ``data`` is always a numpy array owned by this node; ``node_id`` is the
    index of the node on its tape.  Tensors are created through ``Tape``
    methods, never directly.
    """

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data: np.ndarray, tape: "Tape", node_id: int):
        self.data = data
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, node={self.node_id})"


class _Node:
    """One recorded operation: which inputs fed it and how to push gradients back.

    ``needs_grad`` is true for a trainable leaf and for every node that one
    feeds; only those nodes get a gradient buffer in ``Tape.backward``.
    """

    __slots__ = ("kind", "input_ids", "backward_fn", "needs_grad")

    def __init__(self, kind, input_ids, backward_fn, needs_grad):
        self.kind = kind
        self.input_ids = input_ids
        self.backward_fn = backward_fn  # (grad_out, grads) -> None, accumulates in-place
        self.needs_grad = needs_grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Conv windows of a zero-padded NCHW array as a (C*kh*kw, Ho*Wo*N) matrix.

    Rows run channel-major, matching an OIHW kernel reshaped to (O, C*kh*kw).
    Columns run over (output row, output column, image) with the image
    fastest: the batch axis is the longest contiguous run here, which makes
    the copies into and out of this layout cheap.
    """
    n, c, h, w = x.shape
    xp = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=x.dtype)
    xp[:, padding:padding + h, padding:padding + w, :] = x.transpose(1, 2, 3, 0)
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    sc, sh, sw, sn = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(c, kh, kw, ho, wo, n),
        strides=(sc, sh, sw, sh * stride, sw * stride, sn),
        writeable=False,
    )
    return windows.reshape(c * kh * kw, ho * wo * n)


def _prelu_factor(x: np.ndarray, a: float) -> np.ndarray:
    """1 where ``x > 0`` and ``a`` elsewhere: the prelu derivative in ``x``.

    Equal to ``np.where(x > 0, 1.0, a)`` for any finite ``a``, but built from
    plain arithmetic, which numpy runs several times faster than ``where``
    on these arrays.
    """
    pos = x > 0
    return ~pos * a + pos


class Tape:
    """Ordered record of operations for one forward computation.

    Nodes are appended in execution order, so the list is topologically
    sorted by construction.  ``backward`` walks it once in reverse.
    Tapes are single-threaded objects; build one per forward pass.

    Backward rules receive ``grads``, one buffer per node, and add into the
    buffers of their inputs.  The buffer of a node that needs no gradient
    is ``None``; a rule with more than one input skips those inputs.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.nodes: list[_Node] = []
        self._values: list[np.ndarray] = []
        self.parameters: list[int] = []  # node ids of trainable leaves

    # ------------------------------------------------------------------ leaves

    def leaf(self, data, trainable: bool = False) -> Tensor:
        """Record an input tensor.  Trainable leaves receive gradients."""
        # np.array keeps 0-d scalars 0-d (ascontiguousarray would promote them)
        arr = np.array(data, dtype=self.dtype, order="C", copy=True)
        node_id = self._record("leaf", (), None, arr)
        if trainable:
            self.parameters.append(node_id)
            self.nodes[node_id].needs_grad = True
        return Tensor(arr, self, node_id)

    def _record(self, kind, input_ids, backward_fn, value: np.ndarray) -> int:
        node_id = len(self.nodes)
        needs_grad = any(self.nodes[i].needs_grad for i in input_ids)
        self.nodes.append(_Node(kind, input_ids, backward_fn, needs_grad))
        self._values.append(value)
        return node_id

    def _out(self, kind, inputs, backward_fn, value: np.ndarray) -> Tensor:
        value = np.asarray(value, dtype=self.dtype)
        node_id = self._record(kind, tuple(t.node_id for t in inputs), backward_fn, value)
        return Tensor(value, self, node_id)

    def _check(self, t: Tensor) -> Tensor:
        if t.tape is not self:
            raise ValueError("tensor belongs to a different tape")
        return t

    # -------------------------------------------------------------- arithmetic

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise sum; numpy broadcasting allowed (e.g. bias over a batch)."""
        return self._broadcast_op("add", a, b, np.add,
                                  lambda g, other: g, lambda g, other: g)

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        return self._broadcast_op("sub", a, b, np.subtract,
                                  lambda g, other: g, lambda g, other: -g)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        return self._broadcast_op("mul", a, b, np.multiply,
                                  lambda g, other: g * other,
                                  lambda g, other: g * other)

    def _broadcast_op(self, kind, a, b, fwd, bwd_a, bwd_b):
        """``fwd(a, b)``; ``bwd_a(g, b)`` and ``bwd_b(g, a)`` give each input's gradient."""
        self._check(a), self._check(b)
        try:
            value = fwd(a.data, b.data)
        except ValueError:
            raise ShapeError(
                f"{kind}: incompatible shapes {a.shape} and {b.shape}") from None
        a_shape, b_shape = a.shape, b.shape
        av, bv = a.data, b.data

        def backward(g, grads):
            if grads[a.node_id] is not None:
                grads[a.node_id] += _unbroadcast(bwd_a(g, bv), a_shape)
            if grads[b.node_id] is not None:
                grads[b.node_id] += _unbroadcast(bwd_b(g, av), b_shape)

        return self._out(kind, (a, b), backward, value)

    def scale(self, x: Tensor, c: float) -> Tensor:
        """Multiply by a python constant (not a differentiable input)."""
        self._check(x)
        c = float(c)

        def backward(g, grads):
            grads[x.node_id] += c * g

        return self._out("scale", (x,), backward, c * x.data)

    # ------------------------------------------------------------variant linear

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """2-D matrix product (m,k) @ (k,n) -> (m,n)."""
        self._check(a), self._check(b)
        if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
        av, bv = a.data, b.data

        def backward(g, grads):
            if grads[a.node_id] is not None:
                grads[a.node_id] += g @ bv.T
            if grads[b.node_id] is not None:
                grads[b.node_id] += av.T @ g

        return self._out("matmul", (a, b), backward, av @ bv)

    def dot(self, a: Tensor, b: Tensor) -> Tensor:
        """Inner product of two 1-D vectors -> scalar."""
        self._check(a), self._check(b)
        if a.data.ndim != 1 or a.shape != b.shape:
            raise ShapeError(f"dot: need equal 1-d shapes, got {a.shape} and {b.shape}")
        av, bv = a.data, b.data

        def backward(g, grads):
            if grads[a.node_id] is not None:
                grads[a.node_id] += g * bv
            if grads[b.node_id] is not None:
                grads[b.node_id] += g * av

        return self._out("dot", (a, b), backward, av @ bv)

    def sum(self, x: Tensor) -> Tensor:
        """Sum of all elements -> scalar."""
        self._check(x)
        shape = x.shape

        def backward(g, grads):
            grads[x.node_id] += np.broadcast_to(g, shape)

        return self._out("sum", (x,), backward, x.data.sum())

    def flatten(self, x: Tensor) -> Tensor:
        """(N, ...) -> (N, prod(...)), keeping the batch axis."""
        self._check(x)
        if x.data.ndim < 2:
            raise ShapeError(f"flatten: need a batch dimension, got {x.shape}")
        shape = x.shape
        n = shape[0]

        def backward(g, grads):
            grads[x.node_id] += g.reshape(shape)

        return self._out("flatten", (x,), backward, x.data.reshape(n, -1))

    # -------------------------------------------------------------- nonlinear

    def prelu(self, x: Tensor, slope: Tensor) -> Tensor:
        """Parametric ReLU with a single trainable scalar slope.

        Both passes multiply by ``_prelu_factor``; the backward rule rebuilds
        it from the input rather than holding a mask on the tape.
        """
        self._check(x), self._check(slope)
        if slope.data.size != 1:
            raise ShapeError(f"prelu: slope must be scalar, got shape {slope.shape}")
        xv = x.data
        a = float(slope.data.reshape(()))

        def backward(g, grads):
            if grads[x.node_id] is not None:
                grads[x.node_id] += g * _prelu_factor(xv, a)
            if grads[slope.node_id] is not None:
                # minimum(x, 0) may turn a -0.0 input into +0.0; np.sum starts
                # from +0.0, so the sign of a zero term never shows in the total
                grads[slope.node_id] += np.sum(g * np.minimum(xv, 0.0)).reshape(
                    slope.data.shape)

        return self._out("prelu", (x, slope), backward, xv * _prelu_factor(xv, a))

    def l2_normalize(self, x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
        """Divide by the euclidean norm along ``axis`` (rows by default)."""
        self._check(x)
        norm = np.sqrt(np.sum(x.data**2, axis=axis, keepdims=True))
        if np.any(norm <= eps):
            raise ValueError(f"l2_normalize: vector norm below {eps}")
        y = x.data / norm

        def backward(g, grads):
            inner = np.sum(g * y, axis=axis, keepdims=True)
            grads[x.node_id] += (g - y * inner) / norm

        return self._out("l2_normalize", (x,), backward, y)

    def conv2d(self, x: Tensor, weight: Tensor, stride: int = 1,
               padding: int = 0) -> Tensor:
        """2-D convolution, NCHW input against an OIHW kernel, zero padding.

        Implemented by im2col: the padded input's windows form a
        (C*kh*kw, Ho*Wo*N) column matrix, and the forward pass and both
        gradients are one matrix product each.  The input gradient is
        scattered back onto the padded input with kh*kw strided adds, and
        is skipped when the input needs no gradient.  The padded input and
        the column matrix are rebuilt in the backward rule rather than kept
        on the tape.  The output is an NCHW view of a (C, H, W, N) array, so
        the gradient buffer that mirrors it reshapes to (O, Ho*Wo*N) for free.
        """
        self._check(x), self._check(weight)
        if x.data.ndim != 4 or weight.data.ndim != 4:
            raise ShapeError(
                f"conv2d: need NCHW input and OIHW kernel, got {x.shape} and "
                f"{weight.shape}")
        n, c, h, w = x.shape
        co, ci, kh, kw = weight.shape
        if ci != c:
            raise ShapeError(
                f"conv2d: input has {c} channels but kernel expects {ci} "
                f"(shapes {x.shape} and {weight.shape})")
        if h + 2 * padding < kh or w + 2 * padding < kw:
            raise ShapeError(
                f"conv2d: kernel {weight.shape} larger than padded input {x.shape}")
        xv, w2 = x.data, weight.data.reshape(co, -1)
        ho = (h + 2 * padding - kh) // stride + 1
        wo = (w + 2 * padding - kw) // stride + 1
        value = (w2 @ _im2col(xv, kh, kw, stride, padding)).reshape(co, ho, wo, n)

        def backward(g, grads):
            g2 = g.transpose(1, 2, 3, 0).reshape(co, -1)
            if grads[weight.node_id] is not None:
                cols = _im2col(xv, kh, kw, stride, padding)
                grads[weight.node_id] += (g2 @ cols.T).reshape(co, ci, kh, kw)
            if grads[x.node_id] is not None:
                # scatter W^T g onto the padded input, then crop the padding
                contrib = (w2.T @ g2).reshape(c, kh, kw, ho, wo, n)
                gx = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=xv.dtype)
                for i in range(kh):
                    for j in range(kw):
                        gx[:, i:i + ho * stride:stride, j:j + wo * stride:stride] += \
                            contrib[:, i, j]
                grads[x.node_id] += gx[:, padding:padding + h,
                                       padding:padding + w].transpose(3, 0, 1, 2)

        return self._out("conv2d", (x, weight), backward, value.transpose(3, 0, 1, 2))

    # ------------------------------------------------------------- fused rules

    def custom(self, kind: str, inputs: tuple[Tensor, ...], value: np.ndarray,
               backward_fn) -> Tensor:
        """Record an operation with a caller-supplied backward rule.

        Used by the loss suite for numerically fused constructions
        (log-sum-exp cross-entropy, the angular-margin transform) whose
        gradients are hand-derived rather than composed from primitives.
        ``backward_fn(g, grads)`` runs only when a trainable leaf feeds the
        node; with more than one input it must skip an input whose buffer
        ``grads[t.node_id]`` is ``None``.
        """
        for t in inputs:
            self._check(t)
        return self._out(kind, inputs, backward_fn, value)

    # -------------------------------------------------------------- backward

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Gradient of a scalar loss w.r.t. every trainable leaf.

        Visits each node exactly once in reverse recording order, so the
        result is deterministic and bit-identical across repeated runs.
        Nodes that no trainable leaf feeds (image leaves, everything below
        a frozen backbone) get no gradient buffer and their backward rules
        never run; the gradients returned are the same as with every rule
        run, since nothing flows from those nodes to a parameter.
        """
        self._check(loss)
        if loss.data.size != 1:
            raise ValueError(
                f"backward: loss must be scalar, got shape {loss.shape}")
        grads: list[np.ndarray | None] = [
            np.zeros_like(value) if node.needs_grad else None
            for node, value in zip(self.nodes, self._values)
        ]
        grads[loss.node_id] = np.ones_like(self._values[loss.node_id])
        for node_id in range(loss.node_id, -1, -1):
            node = self.nodes[node_id]
            if node.needs_grad and node.backward_fn is not None:
                node.backward_fn(grads[node_id], grads)
        return {pid: grads[pid] for pid in self.parameters}


def grad_check(build_fn, inputs: list[np.ndarray], h: float = 1e-5,
               dtype=np.float64) -> float:
    """Max relative error between tape gradients and central differences.

    ``build_fn(tape, *tensors)`` must construct a scalar loss from trainable
    leaves created out of ``inputs``.  The relative error is
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-12)`` maximised
    over every element of every input.  Probe points must sit away from
    non-smooth regions (prelu kinks, margin fallback boundaries); that is
    the caller's responsibility.
    """
    tape = Tape(dtype=dtype)
    tensors = [tape.leaf(x, trainable=True) for x in inputs]
    loss = build_fn(tape, *tensors)
    analytic = tape.backward(loss)

    def eval_at(point_arrays):
        t = Tape(dtype=dtype)
        ts = [t.leaf(x) for x in point_arrays]
        return float(build_fn(t, *ts).data)

    worst = 0.0
    for k, x in enumerate(inputs):
        an = analytic[tensors[k].node_id]
        flat = np.asarray(x, dtype=np.float64).ravel()
        for idx in range(flat.size):
            plus = [np.array(v, dtype=np.float64) for v in inputs]
            minus = [np.array(v, dtype=np.float64) for v in inputs]
            plus[k].ravel()[idx] += h
            minus[k].ravel()[idx] -= h
            numeric = (eval_at(plus) - eval_at(minus)) / (2 * h)
            a = float(an.ravel()[idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, err)
    return worst
