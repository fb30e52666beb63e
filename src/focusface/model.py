"""Toy dual-head embedding network and its checkpoint format.

A small strided conv stack feeds two parallel fully-connected heads: a
recognition embedding used for verification and margin-softmax training,
and a mask embedding feeding a 2-way mask/no-mask classifier.  All forward
passes run on a Tape so the same code path serves training and inference.
Checkpoints are a text header (format version, seed, config, layer list)
followed by the flat little-endian float32 parameter arrays in header order.
Which parameters train is a training run's choice (``TrainConfig``'s
``freeze_backbone``), not the model's, so the header records no freeze
mode; the ``frozen = ...`` line earlier versions wrote is ignored on load.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import ShapeError, Tape, Tensor
from .params import ARCFACE, BACKBONE, MASK_CLASSIFIER, MASK_HEAD, RECOGNITION_HEAD

CHECKPOINT_MAGIC = "focusface-checkpoint v1"


@dataclass(frozen=True)
class ToyBackboneConfig:
    """Architecture of the toy model; every field is checkpointed."""

    input_hw: int = 32
    in_channels: int = 1
    stages: tuple = ((8, 2), (16, 2), (32, 2))  # (out_channels, stride), 3x3 kernels
    recognition_dim: int = 64
    mask_dim: int = 8
    num_classes: int = 20

    def __post_init__(self):
        if self.recognition_dim < 8:
            raise ValueError(f"recognition_dim must be >= 8, got {self.recognition_dim}")
        if self.mask_dim < 2:
            raise ValueError(f"mask_dim must be >= 2, got {self.mask_dim}")
        object.__setattr__(self, "stages", tuple((int(c), int(s)) for c, s in self.stages))
        if self.flat_dim <= 0:
            raise ValueError("conv stack reduces the input to an empty feature map")

    @property
    def flat_dim(self) -> int:
        hw = self.input_hw
        for _, stride in self.stages:
            hw = (hw + 2 - 3) // stride + 1  # 3x3 kernel, padding 1
        return self.stages[-1][0] * hw * hw


@dataclass
class DualHeadOutput:
    """Both embeddings and the mask logits from one forward pass."""

    recognition_embedding: Tensor  # (batch, recognition_dim)
    mask_embedding: Tensor  # (batch, mask_dim)
    mask_logits: Tensor  # (batch, 2)


def _param_layout(config: ToyBackboneConfig):
    """Ordered (name, shape) pairs; the single source of parameter order."""
    layout = []
    cin = config.in_channels
    for i, (cout, _) in enumerate(config.stages):
        layout += [
            (f"conv{i}.weight", (cout, cin, 3, 3)),
            (f"conv{i}.bias", (cout, 1, 1)),
            (f"conv{i}.slope", ()),
        ]
        cin = cout
    flat = config.flat_dim
    layout += [
        ("recognition.weight", (flat, config.recognition_dim)),
        ("recognition.bias", (config.recognition_dim,)),
        ("mask.weight", (flat, config.mask_dim)),
        ("mask.bias", (config.mask_dim,)),
        ("mask_classifier.weight", (config.mask_dim, 2)),
        ("mask_classifier.bias", (2,)),
        ("arcface.weight", (config.recognition_dim, config.num_classes)),
    ]
    return layout


# parameter-name prefix -> module row; every conv* parameter is backbone
_HEAD_ROWS = {"recognition": RECOGNITION_HEAD, "mask": MASK_HEAD,
              "arcface": ARCFACE, "mask_classifier": MASK_CLASSIFIER}


def toy_scale_modules(config: ToyBackboneConfig = ToyBackboneConfig()) -> dict:
    """Parameter count of each module row, summed from the live layout."""
    counts = dict.fromkeys((BACKBONE, *_HEAD_ROWS.values()), 0)
    for name, shape in _param_layout(config):
        prefix = name.split(".")[0]
        row = BACKBONE if prefix.startswith("conv") else _HEAD_ROWS[prefix]
        counts[row] += math.prod(shape)
    return counts


# init gains over the usual sqrt(2/fan_in), for stability at the fixed
# optimizer settings (lr 0.1, momentum 0.9, margin scale 4.2) with no batch
# norm in the stack:
#  - conv gain 2 halves the conv gradients (the renormalized feature path is
#    scale-invariant, so grads shrink as 1/gain), keeping early feature drift
#    gentle while the heads absorb the violent first margin-softmax steps
#  - the recognition bias starts at a shared constant, which multiplies the
#    embedding norm several-fold; the margin-softmax gradient falls as
#    1/norm, so the first updates move the head by a modest fraction of its
#    size instead of several times it, while the masked/unmasked embedding
#    difference (what the contrastive term sees) is untouched because a
#    shared bias cancels in the difference
#  - mask head and classifier stay at gain 1 so the 2-way logits start small
#    enough for the mask cross-entropy to be well out of saturation
CONV_INIT_GAIN = 2.0
RECOGNITION_INIT_GAIN = 1.0
RECOGNITION_BIAS_INIT = 4.0


def _init_param(name: str, shape, rng) -> np.ndarray:
    if name.startswith("conv") and name.endswith(".bias"):
        # small constant so an all-zero image still yields nonzero features
        # (the feature renormalization below rejects zero-norm rows)
        return np.full(shape, 0.01)
    if name == "recognition.bias":
        return np.full(shape, RECOGNITION_BIAS_INIT)
    if name.endswith(".bias"):
        return np.zeros(shape)
    if name.endswith(".slope"):
        return np.array(0.25)
    if name == "arcface.weight":
        return rng.normal(0.0, 0.01, size=shape)
    if name.startswith("conv"):
        fan_in = int(np.prod(shape[1:]))
        return rng.normal(0.0, CONV_INIT_GAIN * np.sqrt(2.0 / fan_in), size=shape)
    gain = RECOGNITION_INIT_GAIN if name == "recognition.weight" else 1.0
    return rng.normal(0.0, gain * np.sqrt(2.0 / shape[0]), size=shape)


class ToyModel:
    """Toy network; parameters are float64 numpy arrays by name.

    The float64 arrays are master weights: training and inference run on
    float32 tapes that cast them as leaves, SGD updates them in float64, and
    checkpoints store them as float32 (see the ``autodiff`` module docstring).
    The model does not decide which parameters train: a training run's
    momentum buffers do (``training.init_state``).
    """

    def __init__(self, config: ToyBackboneConfig, params: dict):
        self.config = config
        layout = _param_layout(config)
        expected = [name for name, _ in layout]
        if list(params) != expected:
            raise ValueError(f"parameter names {list(params)} do not match layout {expected}")
        for name, shape in layout:
            if params[name].shape != shape:
                raise ShapeError(f"{name} has shape {params[name].shape}, expected {shape}")
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

    @classmethod
    def init(cls, config: ToyBackboneConfig = ToyBackboneConfig(), seed: int = 0) -> "ToyModel":
        params = {}
        for index, (name, shape) in enumerate(_param_layout(config)):
            rng = np.random.default_rng([seed, index])
            params[name] = _init_param(name, shape, rng)
        return cls(config, params)

    def total_count(self) -> int:
        return sum(p.size for p in self.params.values())

    # -- forward -------------------------------------------------------------

    def leaves(self, tape: Tape, trainable) -> dict:
        """Materialize every parameter on the tape; ``trainable`` names the trainable ones."""
        return {name: tape.leaf(value, trainable=name in trainable)
                for name, value in self.params.items()}

    def forward(self, tape: Tape, images: np.ndarray, leaves: dict) -> DualHeadOutput:
        """Both heads on ``images``, reading the parameters from ``leaves`` by name."""
        images = np.asarray(images)
        c, hw = self.config.in_channels, self.config.input_hw
        if images.ndim != 4 or images.shape[1:] != (c, hw, hw):
            raise ShapeError(
                f"expected images of shape (batch, {c}, {hw}, {hw}), got {images.shape}")
        x = tape.leaf(images)
        for i, (_, stride) in enumerate(self.config.stages):
            x = tape.conv2d(x, leaves[f"conv{i}.weight"], leaves[f"conv{i}.bias"],
                            stride=stride, padding=1)
            x = tape.prelu(x, leaves[f"conv{i}.slope"])
        flat = tape.flatten(x)
        # renormalize features to norm sqrt(dim): head inputs stay scale-stable
        # no matter how far SGD drifts the conv weights, so the margin-softmax
        # and the raw-embedding MSE both see bounded magnitudes
        feats = tape.scale(tape.l2_normalize(flat),
                           float(np.sqrt(self.config.flat_dim)))
        recognition = tape.add(tape.matmul(feats, leaves["recognition.weight"]),
                               leaves["recognition.bias"])
        mask_embedding = tape.add(tape.matmul(feats, leaves["mask.weight"]),
                                  leaves["mask.bias"])
        mask_logits = tape.add(tape.matmul(mask_embedding, leaves["mask_classifier.weight"]),
                               leaves["mask_classifier.bias"])
        return DualHeadOutput(recognition, mask_embedding, mask_logits)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


EMBED_CHUNK = 64


def embed_images(model: ToyModel, images: np.ndarray, threads: int = 1):
    """Raw recognition embeddings and masked-class probabilities for a stack of images.

    The images are embedded in chunks of EMBED_CHUNK.  Chunks are independent
    forward passes over read-only parameters, so any thread count produces
    identical results written by chunk index.  Each forward runs on a float32
    tape; the parameters are cast to float32 once per call, and every chunk's
    tape records those arrays as plain leaves, so no node stores a rule and
    each tape is freed with its outputs.  Both outputs are float64, computed
    from the float32 activations; the embeddings are not normalized, which
    ``metrics.score_pairs`` does once, rejecting a zero-norm row by name.
    """
    images = np.asarray(images)
    n = images.shape[0]
    embeddings = np.zeros((n, model.config.recognition_dim))
    mask_probs = np.zeros(n)
    params = {name: value.astype(np.float32) for name, value in model.params.items()}

    def run_chunk(start):
        stop = min(start + EMBED_CHUNK, n)
        tape = Tape(np.float32)
        leaves = {name: tape.leaf(value) for name, value in params.items()}
        out = model.forward(tape, images[start:stop], leaves)
        embeddings[start:stop] = out.recognition_embedding.data
        # a float32 softmax saturates to 1 at a logit gap of about 17
        logits = out.mask_logits.data.astype(np.float64)
        mask_probs[start:stop] = _softmax_rows(logits)[:, 1]

    starts = range(0, n, EMBED_CHUNK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, starts))
    else:
        for start in starts:
            run_chunk(start)
    return embeddings, mask_probs


# -- checkpoint io -----------------------------------------------------------

def save_checkpoint(model: ToyModel, path: str, seed: int = 0) -> None:
    """Text header then flat little-endian float32 arrays in header order."""
    config = model.config
    lines = [CHECKPOINT_MAGIC, f"seed = {seed}"]
    for field in fields(ToyBackboneConfig):
        value = getattr(config, field.name)
        if field.name == "stages":
            value = ",".join(f"{c}:{s}" for c, s in value)
        lines.append(f"{field.name} = {value}")
    for name, value in model.params.items():
        dims = " ".join(str(d) for d in value.shape) if value.ndim else "scalar"
        lines.append(f"param {name} {dims}")
    lines.append("end-header")
    header = ("\n".join(lines) + "\n").encode("ascii")
    blobs = [np.ascontiguousarray(v, dtype="<f4").tobytes() for v in model.params.values()]
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(header)
        for blob in blobs:
            f.write(blob)
    os.replace(tmp, path)


def count_entries(bad: np.ndarray, what: str = "inf or nan") -> str:
    """The "N of M entries are ..." tail of every bad-parameter message."""
    return f"{int(np.count_nonzero(bad))} of {bad.size} entries are {what}"


def _parse_stages(text: str) -> tuple:
    """The header's ``stages`` field, ``8:2,16:2,...``, as (channels, stride) pairs."""
    stages = []
    for part in text.split(","):
        pair = part.split(":")
        if len(pair) != 2 or not all(x.isdigit() and int(x) > 0 for x in pair):
            raise ValueError(f"stages field: {part!r} is not a channels:stride pair "
                             "of positive integers")
        stages.append((int(pair[0]), int(pair[1])))
    return tuple(stages)


def _parse_int(name: str, text: str) -> int:
    """An integer header field, or a ValueError naming it."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} field: {text!r} is not an integer") from None


def load_checkpoint(path: str) -> tuple[ToyModel, int]:
    """Rebuild the model from a checkpoint; returns (model, recorded seed).

    A malformed file of any kind raises a ValueError that names it.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        end = raw.find(b"end-header\n")
        if not raw.startswith(CHECKPOINT_MAGIC.encode()) or end < 0:
            raise ValueError("not a recognized checkpoint file")
        header = raw[:end].decode("ascii").splitlines()[1:]
        body = raw[end + len(b"end-header\n"):]
        values = {}
        order = []
        for line in header:
            if line.startswith("param "):
                _, name, *dims = line.split()
                shape = () if dims == ["scalar"] else tuple(
                    _parse_int(f"param {name}", d) for d in dims)
                order.append((name, shape))
            elif " = " in line:
                key, value = line.split(" = ", 1)
                values[key] = value
        # seed has a default and the architecture fields do not; other
        # lines (older files' "frozen = ...") are ignored
        names = [field.name for field in fields(ToyBackboneConfig)]
        missing = [name for name in names if name not in values]
        if missing:
            raise ValueError(f"header lacks field(s) {', '.join(missing)}")
        config = ToyBackboneConfig(**{
            name: _parse_stages(values[name]) if name == "stages"
            else _parse_int(name, values[name])
            for name in names})
        if order != _param_layout(config):
            raise ValueError("header param lines do not match its architecture fields")
        expected = 4 * sum(math.prod(shape) for _, shape in order)
        if len(body) != expected:
            raise ValueError(f"holds {len(body)} payload bytes, expected {expected}")
        params = {}
        offset = 0
        for name, shape in order:
            size = math.prod(shape)
            chunk = np.frombuffer(body, dtype="<f4", count=size, offset=offset)
            params[name] = chunk.reshape(shape)
            offset += size * 4
            if not np.isfinite(chunk).all():
                raise ValueError(f"parameter {name}: {count_entries(~np.isfinite(chunk))}")
        return ToyModel(config, params), _parse_int("seed", values.get("seed", "0"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
