"""Exact parameter accounting in plain integer arithmetic.

The full-scale architecture (112x112 input, improved-residual 100-layer
backbone, dual embedding heads, margin classifier) is counted layer by layer
without ever materializing weights.  The toy table is read off the live
model's parameter layout instead (``model.toy_scale_modules``).
"""

from __future__ import annotations

from dataclasses import dataclass

# Module row names, in table order, shared by both scales and the CLI output.
BACKBONE = "backbone"
RECOGNITION_HEAD = "recognition-embedding"
MASK_HEAD = "mask-embedding"
ARCFACE = "arcface"
MASK_CLASSIFIER = "mask-classifier"

# Full-scale architecture constants.
FULL_STAGE_CHANNELS = (64, 128, 256, 512)
FULL_STAGE_BLOCKS = (3, 13, 30, 3)
FULL_EMBED_DIM = 512
FULL_MASK_DIM = 32
FULL_NUM_CLASSES = 85742
FULL_FLAT_DIM = 512 * 7 * 7  # 112 input halved by the stem-less 4 strided stages


def _conv(i, o, k=3, bias=False) -> int:
    return o * i * k * k + (o if bias else 0)


def _bn(c) -> int:
    return 2 * c  # affine scale and shift


def _prelu(c) -> int:
    return c  # one slope per channel


def _fc(i, o, bias) -> int:
    return o * i + (o if bias else 0)


def _residual_block(in_ch, out_ch, downsample):
    # norm - conv3x3 - norm - prelu - conv3x3(strided) - norm, with a
    # 1x1 projection shortcut on the first (striding) block of each stage
    layers = [_bn(in_ch), _conv(in_ch, out_ch), _bn(out_ch), _prelu(out_ch),
              _conv(out_ch, out_ch), _bn(out_ch)]
    if downsample:
        layers += [_conv(in_ch, out_ch, k=1), _bn(out_ch)]
    return layers


def full_backbone_layers() -> tuple[int, ...]:
    """Per-layer counts of the improved-residual 100-layer backbone, no head."""
    layers = [_conv(3, 64), _bn(64), _prelu(64)]
    in_ch = 64
    for out_ch, blocks in zip(FULL_STAGE_CHANNELS, FULL_STAGE_BLOCKS):
        for b in range(blocks):
            layers += _residual_block(in_ch if b == 0 else out_ch, out_ch,
                                      downsample=(b == 0))
        in_ch = out_ch
    layers.append(_bn(FULL_STAGE_CHANNELS[-1]))
    return tuple(layers)


def full_scale_modules() -> dict:
    """Parameter count of each module row of the full-scale architecture."""
    return {
        BACKBONE: sum(full_backbone_layers()),
        RECOGNITION_HEAD: (_fc(FULL_FLAT_DIM, FULL_EMBED_DIM, bias=False)
                           + _bn(FULL_EMBED_DIM)),
        MASK_HEAD: _fc(FULL_FLAT_DIM, FULL_MASK_DIM, bias=False) + _bn(FULL_MASK_DIM),
        ARCFACE: FULL_EMBED_DIM * FULL_NUM_CLASSES,  # one class-centre column each
        MASK_CLASSIFIER: _fc(FULL_MASK_DIM, 2, bias=True),
    }


@dataclass(frozen=True)
class ParamSummary:
    """Per-module counts plus the three deployment totals.

    scratch_total counts every layer (training with no pretrained backbone),
    frozen_trainable drops the backbone (training on top of a frozen one),
    inference_total keeps the backbone plus the recognition head only.
    """

    module_counts: tuple
    scratch_total: int
    frozen_trainable: int
    inference_total: int

    @property
    def reduction(self) -> float:
        """Fraction of training parameters removed by freezing the backbone."""
        return 1.0 - self.frozen_trainable / self.scratch_total


def summarize(counts: dict) -> ParamSummary:
    """Totals of a ``{row: count}`` table such as ``full_scale_modules()``."""
    scratch = sum(counts.values())
    frozen = scratch - counts[BACKBONE]
    inference = counts[BACKBONE] + counts[RECOGNITION_HEAD]
    return ParamSummary(tuple(counts.items()), scratch, frozen, inference)
