"""Minimal dense-tensor reverse-mode differentiation.

Everything the embedding network and its losses need is covered by a fixed
vocabulary of operations, each with a hand-written backward rule.  Ops are
recorded on a ``Tape`` in execution order, so the reverse pass is a single
walk over the node list from back to front.  There is no graph compiler,
no broadcasting cleverness beyond what the ops document, and no support
for higher-order derivatives.

Backward rules return their inputs' gradients and ``Tape.backward`` alone
sums them.  Only nodes that a trainable leaf feeds run their rules, so
inputs (images, a frozen backbone) cost nothing in the reverse pass.

One policy holds for arrays a rule keeps.  A rule may keep an array its
forward built only when the node that array serves needs a gradient, and
it drops the array once it has run.  conv2d's column matrix is the only
such array: prelu's rule rebuilds its factor from its input.  So a tape's
backward runs once, and a tape that takes no gradient, as at inference,
keeps nothing beyond its values.

One rule sets a tape's lifetime.  A node stores its backward rule only
when it needs a gradient.  A stored rule holds its input Tensors and each
Tensor holds its tape, so a training tape is a reference cycle that lives
until the cyclic collector runs; that is kept on purpose (README, "Design
notes").  A tape with no trainable leaf, as at inference and in the
evaluations of a gradient check, stores no rule, so reference counting
frees it and its activations as soon as the caller drops its outputs.

One dtype policy holds across the package.  Training and inference build
float32 tapes, because the conv GEMMs and im2col copies that dominate a
training step run faster in float32.  Gradient checks build float64
tapes, the default here, because central differences are unreliable in
float32.  Model parameters are float64 masters that each tape casts as it
records them, and checkpoints store them as float32.  Every op keeps its
tape's dtype in both passes, so a float32 tape returns float32 gradients.
"""

from __future__ import annotations

import numpy as np

NORM_FLOOR = 1e-12  # l2_normalize rejects a vector whose norm is at most this


class ShapeError(ValueError):
    """Raised when an op receives incompatibly shaped inputs."""


class Tensor:
    """A dense n-d array bound to a position on a tape.

    ``data`` is a numpy array in the tape's dtype that no op writes into;
    ``node_id`` is the index of the node on its tape.  Tensors are created
    through ``Tape`` methods, never directly.
    """

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data: np.ndarray, tape: "Tape", node_id: int):
        self.data = data
        self.tape = tape
        self.node_id = node_id

    @property
    def needs_grad(self) -> bool:
        """Whether a trainable leaf feeds this tensor, so it takes a gradient."""
        return self.tape.nodes[self.node_id].needs_grad

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
    feeds; only those nodes take a gradient in ``Tape.backward``, and only
    they store a ``backward_fn``.
    """

    __slots__ = ("kind", "input_ids", "backward_fn", "needs_grad")

    def __init__(self, kind, input_ids, backward_fn, needs_grad):
        self.kind = kind
        self.input_ids = input_ids
        self.backward_fn = backward_fn  # grad_out -> one gradient or None per input
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
    on these arrays.  ``a`` is cast to ``x``'s dtype, so the factor keeps it.
    """
    pos = x > 0
    return ~pos * x.dtype.type(a) + pos


class Tape:
    """Ordered record of operations for one forward computation.

    Nodes are appended in execution order, so the list is topologically
    sorted by construction.  ``backward`` walks it once in reverse.
    Tapes are single-threaded objects; build one per forward pass.

    A backward rule maps ``g``, its node's output gradient, to a tuple with
    one entry per input: a fresh array, ``g`` or a view of it, or ``None``
    when that input's ``needs_grad`` is false.  Rules write into nothing.
    A rule keeps a forward array only for an input that needs a gradient
    and drops it after it runs, so ``backward`` runs once per tape.

    Only a node that needs a gradient stores its rule.  A tape without a
    trainable leaf therefore holds no closure and dies with its last
    output Tensor; a tape that takes a gradient is a cycle through its
    rules and waits for the cyclic collector.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.nodes: list[_Node] = []
        self.parameters: dict[int, np.ndarray] = {}  # trainable leaf id -> value
        self._spent = False  # set by backward, whose rules drop what they kept

    # ------------------------------------------------------------------ leaves

    def leaf(self, data, trainable: bool = False) -> Tensor:
        """Record ``data`` in the tape's dtype.  Trainable leaves get gradients.

        An array already C-contiguous in that dtype is recorded as is, not
        copied, so one array can serve many tapes; no op writes into its
        inputs, and the caller must not write into it while a tape uses it.
        """
        # np.array keeps 0-d scalars 0-d (ascontiguousarray would promote them)
        arr = np.array(data, dtype=self.dtype, order="C", copy=None)
        out = self._record("leaf", (), None, arr)
        if trainable:
            self.parameters[out.node_id] = arr
            self.nodes[out.node_id].needs_grad = True
        return out

    def _record(self, kind, input_ids, backward_fn, value: np.ndarray) -> Tensor:
        node_id = len(self.nodes)
        needs_grad = any(self.nodes[i].needs_grad for i in input_ids)
        self.nodes.append(_Node(kind, input_ids, backward_fn if needs_grad else None,
                                needs_grad))
        return Tensor(value, self, node_id)

    def _out(self, kind, inputs, backward_fn, value: np.ndarray) -> Tensor:
        return self._record(kind, tuple(t.node_id for t in inputs), backward_fn,
                            np.asarray(value, dtype=self.dtype))

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

        def backward(g):
            return (_unbroadcast(bwd_a(g, bv), a_shape) if a.needs_grad else None,
                    _unbroadcast(bwd_b(g, av), b_shape) if b.needs_grad else None)

        return self._out(kind, (a, b), backward, value)

    def scale(self, x: Tensor, c: float) -> Tensor:
        """Multiply by a python constant (not a differentiable input)."""
        self._check(x)
        c = float(c)

        def backward(g):
            return (c * g,)

        return self._out("scale", (x,), backward, c * x.data)

    # ------------------------------------------------------------variant linear

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """2-D matrix product (m,k) @ (k,n) -> (m,n)."""
        self._check(a), self._check(b)
        if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
        av, bv = a.data, b.data

        def backward(g):
            return (g @ bv.T if a.needs_grad else None,
                    av.T @ g if b.needs_grad else None)

        return self._out("matmul", (a, b), backward, av @ bv)

    def dot(self, a: Tensor, b: Tensor) -> Tensor:
        """Inner product of two 1-D vectors -> scalar."""
        self._check(a), self._check(b)
        if a.data.ndim != 1 or a.shape != b.shape:
            raise ShapeError(f"dot: need equal 1-d shapes, got {a.shape} and {b.shape}")
        av, bv = a.data, b.data

        def backward(g):
            return (g * bv if a.needs_grad else None,
                    g * av if b.needs_grad else None)

        return self._out("dot", (a, b), backward, av @ bv)

    def sum(self, x: Tensor) -> Tensor:
        """Sum of all elements -> scalar."""
        self._check(x)
        shape = x.shape

        def backward(g):
            return (np.broadcast_to(g, shape),)

        return self._out("sum", (x,), backward, x.data.sum())

    def flatten(self, x: Tensor) -> Tensor:
        """(N, ...) -> (N, prod(...)), keeping the batch axis."""
        self._check(x)
        if x.data.ndim < 2:
            raise ShapeError(f"flatten: need a batch dimension, got {x.shape}")
        shape = x.shape
        n = shape[0]

        def backward(g):
            return (g.reshape(shape),)

        return self._out("flatten", (x,), backward, x.data.reshape(n, -1))

    # -------------------------------------------------------------- nonlinear

    def prelu(self, x: Tensor, slope: Tensor) -> Tensor:
        """Parametric ReLU with a single trainable scalar slope.

        The value is ``max(x, a * x)``, or ``min`` for a slope above 1: two
        passes, equal bit for bit to ``x * _prelu_factor(x, a)``, signed
        zeros included.  A zero slope takes the factor form, since 0 * inf
        is nan where the factor form gives inf.  The rule builds the
        factor from ``x``, which it keeps for the slope gradient anyway, so
        the forward keeps no array of its own.
        """
        self._check(x), self._check(slope)
        if slope.data.size != 1:
            raise ShapeError(f"prelu: slope must be scalar, got shape {slope.shape}")
        xv = x.data
        a = float(slope.data.reshape(()))
        if a == 0:
            value = xv * _prelu_factor(xv, a)
        else:
            # at a tie, numpy's maximum and minimum return the second
            # argument, so x = +-0 gives a * x, as the factor form does
            value = (np.minimum if a > 1 else np.maximum)(xv, a * xv)

        def backward(g):
            # minimum(x, 0) may turn a -0.0 input into +0.0; np.sum starts
            # from +0.0, so the sign of a zero term never shows in the total
            return (g * _prelu_factor(xv, a) if x.needs_grad else None,
                    np.sum(g * np.minimum(xv, 0.0)).reshape(slope.data.shape)
                    if slope.needs_grad else None)

        return self._out("prelu", (x, slope), backward, value)

    def l2_normalize(self, x: Tensor, axis: int = -1) -> Tensor:
        """Divide by the euclidean norm along ``axis`` (rows by default)."""
        self._check(x)
        norm = np.sqrt(np.sum(x.data**2, axis=axis, keepdims=True))
        if np.any(norm <= NORM_FLOOR):
            raise ValueError(f"l2_normalize: vector norm below {NORM_FLOOR}")
        y = x.data / norm

        def backward(g):
            inner = np.sum(g * y, axis=axis, keepdims=True)
            return ((g - y * inner) / norm,)

        return self._out("l2_normalize", (x,), backward, y)

    def conv2d(self, x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1,
               padding: int = 0) -> Tensor:
        """2-D convolution of an NCHW input with an OIHW kernel, plus an (O, 1, 1) bias.

        Implemented by im2col: the padded input's windows form a
        (C*kh*kw, Ho*Wo*N) column matrix, and the forward pass and both
        gradients are one matrix product each.  The bias is added in place
        to the (O, Ho*Wo*N) product, and its gradient is ``add``'s.  Padding
        is zeros.  The input gradient is scattered back
        onto the padded input with kh*kw strided adds, and is skipped when
        the input needs no gradient.  The rule keeps the forward's column
        matrix only when the weight needs a gradient, and drops it once it
        has run.  The output is an NCHW view of a (C, H, W, N) array, so
        an output gradient laid out like it reshapes to (O, Ho*Wo*N) for free.
        """
        self._check(x), self._check(weight), self._check(bias)
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
        if bias.shape != (co, 1, 1):
            raise ShapeError(
                f"conv2d: bias must have shape {(co, 1, 1)} for kernel "
                f"{weight.shape}, got {bias.shape}")
        if h + 2 * padding < kh or w + 2 * padding < kw:
            raise ShapeError(
                f"conv2d: kernel {weight.shape} larger than padded input {x.shape}")
        xv, w2 = x.data, weight.data.reshape(co, -1)
        ho = (h + 2 * padding - kh) // stride + 1
        wo = (w + 2 * padding - kw) // stride + 1
        cols = _im2col(xv, kh, kw, stride, padding)
        value = w2 @ cols
        value += bias.data.reshape(co, 1)
        if not weight.needs_grad:
            cols = None

        def backward(g):
            nonlocal cols
            g2 = g.transpose(1, 2, 3, 0).reshape(co, -1)
            gw = None if cols is None else (g2 @ cols.T).reshape(co, ci, kh, kw)
            cols = None
            gb = _unbroadcast(g, bias.shape) if bias.needs_grad else None
            if not x.needs_grad:
                return None, gw, gb
            # scatter W^T g onto the padded input, then crop the padding
            contrib = (w2.T @ g2).reshape(c, kh, kw, ho, wo, n)
            gx = np.zeros((c, h + 2 * padding, w + 2 * padding, n), dtype=xv.dtype)
            for i in range(kh):
                for j in range(kw):
                    gx[:, i:i + ho * stride:stride, j:j + wo * stride:stride] += contrib[:, i, j]
            return (gx[:, padding:padding + h, padding:padding + w].transpose(3, 0, 1, 2),
                    gw, gb)

        return self._out("conv2d", (x, weight, bias), backward,
                         value.reshape(co, ho, wo, n).transpose(3, 0, 1, 2))

    # ------------------------------------------------------------- fused rules

    def custom(self, kind: str, inputs: tuple[Tensor, ...], value: np.ndarray,
               backward_fn) -> Tensor:
        """Record an operation with a caller-supplied backward rule.

        Used by the loss suite for numerically fused constructions
        (log-sum-exp cross-entropy, the angular-margin transform) whose
        gradients are hand-derived rather than composed from primitives.
        ``backward_fn(g)`` returns one gradient per input, as the class
        docstring says, and runs only when a trainable leaf feeds the node.
        """
        for t in inputs:
            self._check(t)
        return self._out(kind, inputs, backward_fn, value)

    # -------------------------------------------------------------- backward

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Gradient of a scalar loss w.r.t. every trainable leaf.

        Walks the nodes once in reverse recording order.  A node's first
        contribution is its gradient and later ones are added out of place,
        so the result is deterministic and bit-identical across repeated
        runs.  Only a node that needs a gradient and received one runs its
        rule.  Each trainable leaf gets an array of its own, zeros if no
        gradient reached it.  Rules drop what they kept as they run, so a
        second call on the same tape raises.
        """
        self._check(loss)
        if loss.data.size != 1:
            raise ValueError(
                f"backward: loss must be scalar, got shape {loss.shape}")
        if self._spent:
            raise RuntimeError("backward already ran on this tape")
        self._spent = True
        grads: list = [None] * len(self.nodes)
        grads[loss.node_id] = np.ones_like(loss.data)
        for node_id in range(loss.node_id, -1, -1):
            node, g = self.nodes[node_id], grads[node_id]
            if g is None or node.backward_fn is None:
                continue
            for i, c in zip(node.input_ids, node.backward_fn(g)):
                if c is None:
                    continue
                if grads[i] is not None:
                    c = grads[i] + c
                elif self.nodes[i].kind == "leaf" and np.may_share_memory(c, g):
                    c = c.copy()  # a leaf's gradient is the caller's to keep
                grads[i] = c
        return {pid: np.zeros_like(value) if grads[pid] is None
                else np.asarray(grads[pid]) for pid, value in self.parameters.items()}


def grad_check(build_fn, inputs: list[np.ndarray], h: float = 1e-5) -> float:
    """Max relative error between float64 tape gradients and central differences.

    ``build_fn(tape, *tensors)`` must construct a scalar loss from trainable
    leaves created out of ``inputs``.  The relative error is
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-12)`` maximised
    over every element of every input.  Probe points must sit away from
    non-smooth regions (prelu kinks, margin fallback boundaries); that is
    the caller's responsibility.
    """
    tape = Tape()
    tensors = [tape.leaf(x, trainable=True) for x in inputs]
    loss = build_fn(tape, *tensors)
    analytic = tape.backward(loss)

    def eval_at(point_arrays):
        t = Tape()
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
