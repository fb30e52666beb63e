"""Run configuration: line-oriented ``key = value`` text with overrides.

One flat key space covers corpus generation, the loss weights, the
optimizer loop, and plumbing (paths).  Files are diff-friendly
text; every value round-trips exactly (floats use repr), so the config
echoed into an output directory reproduces the run bit for bit.  Unknown
keys are rejected by name: a typo never silently falls back to a default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .losses import LossConfig
from .training import TrainConfig

CONFIG_BASENAME = "config.txt"


class ConfigError(ValueError):
    """A config file or override that cannot be applied."""


@dataclass(frozen=True)
class RunConfig:
    # corpus
    num_identities: int = 33
    samples_per_identity: int = 64
    dataset_seed: int = 0
    coverage_lo: float = 0.40
    coverage_hi: float = 0.55
    # loss weights, defaults taken from LossConfig
    s: float = LossConfig.s
    m: float = LossConfig.m
    lambda_: float = LossConfig.lambda_  # file key: lambda
    alpha: float = LossConfig.alpha
    beta: float = LossConfig.beta
    comb_mode: str = LossConfig.comb_mode
    mse_on_normalized: bool = LossConfig.mse_on_normalized
    # optimizer and loop, defaults taken from TrainConfig
    lr: float = TrainConfig.lr
    momentum: float = TrainConfig.momentum
    weight_decay: float = TrainConfig.weight_decay
    batch_size: int = TrainConfig.batch_size
    milestones: tuple = TrainConfig.milestones
    max_iterations: int = TrainConfig.max_iterations
    eval_interval: int = TrainConfig.eval_interval
    selection_mode: str = TrainConfig.selection_mode
    freeze_backbone: bool = TrainConfig.freeze_backbone
    baseline: bool = TrainConfig.baseline
    seed: int = TrainConfig.seed
    # plumbing
    init_checkpoint: str = ""
    data_dir: str = ""
    out_dir: str = ""

    def __post_init__(self):
        # a value TrainConfig or LossConfig rejects fails here, at load time
        self.train_config()

    def loss_config(self) -> LossConfig:
        return LossConfig(s=self.s, m=self.m, lambda_=self.lambda_,
                          alpha=self.alpha, beta=self.beta,
                          comb_mode=self.comb_mode,
                          mse_on_normalized=self.mse_on_normalized)

    def train_config(self) -> TrainConfig:
        return TrainConfig(lr=self.lr, momentum=self.momentum,
                           weight_decay=self.weight_decay,
                           batch_size=self.batch_size,
                           milestones=self.milestones,
                           max_iterations=self.max_iterations,
                           eval_interval=self.eval_interval,
                           selection_mode=self.selection_mode,
                           freeze_backbone=self.freeze_backbone,
                           baseline=self.baseline,
                           loss=self.loss_config(), seed=self.seed)

    def coverage_range(self) -> tuple:
        return (self.coverage_lo, self.coverage_hi)


def _attr_to_key(attr: str) -> str:
    return "lambda" if attr == "lambda_" else attr


_KEY_TO_ATTR = {_attr_to_key(f.name): f.name for f in fields(RunConfig)}
_ATTR_TYPE = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, attr: str, raw: str):
    kind = _ATTR_TYPE[attr]
    try:
        if kind == "bool":
            if raw not in ("true", "false"):
                raise ValueError("expected true or false")
            return raw == "true"
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "tuple":
            return tuple(int(v) for v in raw.split(",")) if raw else ()
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for key {key!r}: {raw!r} ({exc})") from None


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def parse_overrides(pairs) -> dict:
    """``key=value`` strings (CLI style) into an attribute dict."""
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, raw = (part.strip() for part in pair.split("=", 1))
        if key not in _KEY_TO_ATTR:
            raise ConfigError(f"unknown config key {key!r}")
        attr = _KEY_TO_ATTR[key]
        overrides[attr] = _parse_value(key, attr, raw)
    return overrides


def parse_config_text(text: str) -> dict:
    """The ``key = value`` file body as an attribute dict."""
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: {stripped!r} is not 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_TO_ATTR:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        attr = _KEY_TO_ATTR[key]
        overrides[attr] = _parse_value(key, attr, raw)
    return overrides


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the file (if any), then explicit overrides."""
    merged = {}
    if path is not None:
        with open(path, encoding="utf-8") as f:
            merged.update(parse_config_text(f.read()))
    merged.update(overrides or {})
    try:
        return replace(RunConfig(), **merged)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def format_config(config: RunConfig) -> str:
    lines = [f"{_attr_to_key(f.name)} = {_format_value(getattr(config, f.name))}"
             for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def write_config(config: RunConfig, out_dir: str) -> str:
    """Echo the effective config into the output directory."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, CONFIG_BASENAME)
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_config(config))
    return path
