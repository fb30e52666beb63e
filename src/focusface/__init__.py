"""Masked face verification toolkit, from scratch on numpy.

Layers of the package, bottom up:

- ``autodiff``: tape-based reverse-mode differentiation over a small fixed
  op vocabulary (dense, conv, prelu, normalization, reductions)
- ``model``: the two-head embedding network (shared conv backbone, a
  recognition-embedding head and a mask-embedding head with a 2-way
  classifier), plus checkpoint serialization
- ``losses``: additive-angular-margin softmax, cross-entropy, contrastive
  MSE between the masked/unmasked embeddings, and their weighted combination
- ``data``: deterministic synthetic identity corpus with lower-face
  occlusion rendering and the reference/probe evaluation protocol
- ``training``: SGD with momentum, weight decay and a step schedule; dual
  masked/unmasked forward passes per iteration; best-checkpoint selection
- ``metrics``: verification metrics (EER, FMR100, FMR10, ROC/AUC, score
  means) and the mask-detection ROC
- ``params``: exact parameter counts of the full-scale architecture in
  plain integer arithmetic (the toy table is ``model.toy_scale_modules``,
  read off the live parameter layout)
- ``checks``: finite-difference gradient verification registry
- ``cli``: the ``focusface`` command (gen-data, train, eval, paramcount,
  gradcheck, roc-export)
"""

from .autodiff import Tape, Tensor
from .config import ConfigError, RunConfig, load_config
from .data import Corpus, build_splits, load_corpus, save_corpus
from .losses import LossConfig
from .metrics import MetricsReport, ScoreSet, compute_metrics, roc_points
from .model import (
    ToyBackboneConfig,
    ToyModel,
    load_checkpoint,
    save_checkpoint,
    toy_scale_modules,
)
from .params import full_scale_modules, summarize
from .training import TrainConfig, best_model, fit

__all__ = [
    "ConfigError",
    "Corpus",
    "LossConfig",
    "MetricsReport",
    "RunConfig",
    "ScoreSet",
    "Tape",
    "Tensor",
    "ToyBackboneConfig",
    "ToyModel",
    "TrainConfig",
    "best_model",
    "build_splits",
    "compute_metrics",
    "fit",
    "full_scale_modules",
    "load_checkpoint",
    "load_config",
    "load_corpus",
    "roc_points",
    "save_checkpoint",
    "save_corpus",
    "summarize",
    "toy_scale_modules",
]
