"""Toy dual-head embedding network and its checkpoint format.

A small strided conv stack feeds two parallel fully-connected heads: a
recognition embedding used for verification and margin-softmax training,
and a mask embedding feeding a 2-way mask/no-mask classifier.  All forward
passes run on a Tape so the same code path serves training and inference.
The architecture is fixed by the module constants below; only the class
count, which follows the corpus, varies.  Checkpoints are a text header
(format version, seed, architecture, layer list) followed by the flat
little-endian float32 parameter arrays in header order.  The header is a
function of the class count and the seed (``_header``), so the loader
compares it line by line with the one it would write.  Which parameters
train is a training run's choice (``TrainConfig``'s ``freeze_backbone``),
not the model's, so the header records no freeze mode; the ``frozen = ...``
line earlier versions wrote is the one line the loader skips.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tape, Tensor
from .data import IMAGE_HW
from .params import ARCFACE, BACKBONE, MASK_CLASSIFIER, MASK_HEAD, RECOGNITION_HEAD

CHECKPOINT_MAGIC = "focusface-checkpoint v1"


# the fixed architecture; images are (IN_CHANNELS, IMAGE_HW, IMAGE_HW)
IN_CHANNELS = 1
STAGES = ((8, 2), (16, 2), (32, 2))  # (out_channels, stride), 3x3 kernels, padding 1
RECOGNITION_DIM = 64
MASK_DIM = 8
FLAT_DIM = STAGES[-1][0] * (IMAGE_HW // 8) ** 2  # three stride-2 stages: 32 -> 4


@dataclass(frozen=True)
class ToyBackboneConfig:
    """The class count, the one architecture setting; it is checkpointed."""

    num_classes: int = 20

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be at least 1, got {self.num_classes}")


@dataclass
class DualHeadOutput:
    """Both embeddings and the mask logits from one forward pass."""

    recognition_embedding: Tensor  # (batch, RECOGNITION_DIM)
    mask_embedding: Tensor  # (batch, MASK_DIM)
    mask_logits: Tensor  # (batch, 2)


def _param_layout(num_classes: int):
    """Ordered (name, shape) pairs; the single source of parameter order."""
    channels = [IN_CHANNELS] + [cout for cout, _ in STAGES]
    layout = []
    for i, (cin, cout) in enumerate(zip(channels, channels[1:])):
        layout += [(f"conv{i}.weight", (cout, cin, 3, 3)),
                   (f"conv{i}.bias", (cout, 1, 1)),
                   (f"conv{i}.slope", ())]
    return layout + [
        ("recognition.weight", (FLAT_DIM, RECOGNITION_DIM)),
        ("recognition.bias", (RECOGNITION_DIM,)),
        ("mask.weight", (FLAT_DIM, MASK_DIM)),
        ("mask.bias", (MASK_DIM,)),
        ("mask_classifier.weight", (MASK_DIM, 2)),
        ("mask_classifier.bias", (2,)),
        ("arcface.weight", (RECOGNITION_DIM, num_classes)),
    ]


# parameter-name prefix -> module row; every conv* parameter is backbone
_HEAD_ROWS = {"recognition": RECOGNITION_HEAD, "mask": MASK_HEAD,
              "arcface": ARCFACE, "mask_classifier": MASK_CLASSIFIER}


def toy_scale_modules(config: ToyBackboneConfig = ToyBackboneConfig()) -> dict:
    """Parameter count of each module row, summed from the live layout."""
    counts = dict.fromkeys((BACKBONE, *_HEAD_ROWS.values()), 0)
    for name, shape in _param_layout(config.num_classes):
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
        layout = _param_layout(config.num_classes)
        got = [(name, np.shape(value)) for name, value in params.items()]
        if got != layout:
            raise ShapeError(f"parameters (name, shape) {got} do not match the layout {layout}")
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

    @classmethod
    def init(cls, config: ToyBackboneConfig = ToyBackboneConfig(), seed: int = 0) -> "ToyModel":
        params = {}
        for index, (name, shape) in enumerate(_param_layout(config.num_classes)):
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
        if images.ndim != 4 or images.shape[1:] != (IN_CHANNELS, IMAGE_HW, IMAGE_HW):
            raise ShapeError(f"expected images of shape (batch, {IN_CHANNELS}, "
                             f"{IMAGE_HW}, {IMAGE_HW}), got {images.shape}")
        x = tape.leaf(images)
        for i, (_, stride) in enumerate(STAGES):
            x = tape.conv2d(x, leaves[f"conv{i}.weight"], leaves[f"conv{i}.bias"],
                            stride=stride, padding=1)
            x = tape.prelu(x, leaves[f"conv{i}.slope"])
        flat = tape.flatten(x)
        # renormalize features to norm sqrt(dim): head inputs stay scale-stable
        # no matter how far SGD drifts the conv weights, so the margin-softmax
        # and the raw-embedding MSE both see bounded magnitudes
        feats = tape.scale(tape.l2_normalize(flat), float(np.sqrt(FLAT_DIM)))
        recognition = tape.add(tape.matmul(feats, leaves["recognition.weight"]),
                               leaves["recognition.bias"])
        mask_embedding = tape.add(tape.matmul(feats, leaves["mask.weight"]),
                                  leaves["mask.bias"])
        mask_logits = tape.add(tape.matmul(mask_embedding, leaves["mask_classifier.weight"]),
                               leaves["mask_classifier.bias"])
        return DualHeadOutput(recognition, mask_embedding, mask_logits)


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
    embeddings = np.zeros((n, RECOGNITION_DIM))
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
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        mask_probs[start:stop] = e[:, 1] / e.sum(axis=1)

    starts = range(0, n, EMBED_CHUNK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, starts))
    else:
        for start in starts:
            run_chunk(start)
    return embeddings, mask_probs


# -- checkpoint io -----------------------------------------------------------

def _header(num_classes: int, seed: int) -> list:
    """The checkpoint header's lines, format tag to ``end-header``."""
    stages = ",".join(f"{c}:{s}" for c, s in STAGES)
    return [CHECKPOINT_MAGIC, f"seed = {seed}", f"input_hw = {IMAGE_HW}",
            f"in_channels = {IN_CHANNELS}", f"stages = {stages}",
            f"recognition_dim = {RECOGNITION_DIM}", f"mask_dim = {MASK_DIM}",
            f"num_classes = {num_classes}",
            *(f"param {name} {' '.join(map(str, shape)) or 'scalar'}"
              for name, shape in _param_layout(num_classes)),
            "end-header"]


def save_checkpoint(model: ToyModel, path: str, seed: int = 0) -> None:
    """Text header then flat little-endian float32 arrays in header order."""
    header = "".join(line + "\n" for line in _header(model.config.num_classes, seed))
    payload = b"".join(np.ascontiguousarray(v, dtype="<f4").tobytes()
                       for v in model.params.values())
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(header.encode("ascii") + payload)
    os.replace(tmp, path)


def count_entries(bad: np.ndarray, what: str = "inf or nan") -> str:
    """The "N of M entries are ..." tail of every bad-parameter message."""
    return f"{int(np.count_nonzero(bad))} of {bad.size} entries are {what}"


def _header_int(values: dict, name: str) -> int:
    """The integer header field ``name``, or a ValueError naming it."""
    if name not in values:
        raise ValueError(f"header lacks field {name}")
    try:
        return int(values[name])
    except ValueError:
        raise ValueError(f"{name} field: {values[name]!r} is not an integer") from None


def load_checkpoint(path: str) -> tuple[ToyModel, int]:
    """Rebuild the model from a checkpoint; returns (model, recorded seed).

    Only ``seed`` and ``num_classes`` are read from the header; every other
    line must be the one ``save_checkpoint`` writes for them.  A malformed
    file of any kind raises a ValueError that names it.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        end = raw.find(b"\nend-header\n") + 1
        if not raw.startswith(CHECKPOINT_MAGIC.encode()) or end == 0:
            raise ValueError("not a recognized checkpoint file")
        # (line number, line) up to end-header, less older files' frozen line
        lines = [(n, line) for n, line in
                 enumerate(raw[:end + len(b"end-header")].decode("ascii").split("\n"), 1)
                 if not line.startswith("frozen = ")]
        values = dict(line.split(" = ", 1) for _, line in lines if " = " in line)
        seed = _header_int(values, "seed")
        config = ToyBackboneConfig(_header_int(values, "num_classes"))
        # each list ends at its only end-header line, so a missing or an
        # extra line shows as a difference within the shorter list
        for (n, got), want in zip(lines, _header(config.num_classes, seed)):
            if got != want:
                raise ValueError(f"header line {n} reads {got!r}, expected {want!r}")
        body = raw[end + len(b"end-header\n"):]
        layout = _param_layout(config.num_classes)
        expected = 4 * sum(math.prod(shape) for _, shape in layout)
        if len(body) != expected:
            raise ValueError(f"holds {len(body)} payload bytes, expected {expected}")
        params = {}
        offset = 0
        for name, shape in layout:
            size = math.prod(shape)
            chunk = np.frombuffer(body, dtype="<f4", count=size, offset=offset)
            params[name] = chunk.reshape(shape)
            offset += size * 4
            if not np.isfinite(chunk).all():
                raise ValueError(f"parameter {name}: {count_entries(~np.isfinite(chunk))}")
        return ToyModel(config, params), seed
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
