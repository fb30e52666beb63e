"""Run configuration: line-oriented ``key = value`` text with overrides.

One flat key space covers corpus generation, the loss weights, the
optimizer loop, and plumbing (paths).  The loss and loop keys are the
fields of ``LossConfig`` and ``TrainConfig``, declared there only;
``RunConfig`` holds them as one ``train`` field.  Files are diff-friendly
text; every value round-trips exactly (floats use repr), so the config
echoed into an output directory reproduces the run bit for bit.  Unknown
keys are rejected by name: a typo never silently falls back to a default.
Every value is validated at load time, so a bad one fails before any work.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

from .data import check_coverage_range
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
    # loss and loop keys, with the library's own defaults
    train: TrainConfig = field(default_factory=TrainConfig)
    # plumbing
    init_checkpoint: str = ""
    data_dir: str = ""
    out_dir: str = ""

    def __post_init__(self):
        if self.dataset_seed < 0:
            raise ValueError(f"dataset_seed must be non-negative, got {self.dataset_seed}")
        try:
            check_coverage_range(self.coverage_lo, self.coverage_hi)
        except ValueError as exc:
            raise ValueError(f"coverage_lo/coverage_hi: {exc}") from None


def _file_fields():
    """(section, field) for every key, in file order.

    The section is None for a ``RunConfig`` field, else "loss" or "train".
    """
    for f in fields(RunConfig):
        if f.name != "train":
            yield None, f
            continue
        yield from (("loss", g) for g in fields(LossConfig))
        yield from (("train", g) for g in fields(TrainConfig) if g.name != "loss")


_KEYS = {("lambda" if f.name == "lambda_" else f.name): (section, f)
         for section, f in _file_fields()}
_SECTION = {f.name: section for section, f in _KEYS.values()}


def _parse_value(kind: str, raw: str):
    if kind == "bool":
        if raw not in ("true", "false"):
            raise ValueError("expected true or false")
        return raw == "true"
    if kind == "int":
        return int(raw)
    if kind == "float":
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError("must be finite")
        return value
    if kind == "tuple":
        return tuple(int(v) for v in raw.split(",")) if raw else ()
    return raw


def _parse_pair(text: str, where: str = "") -> tuple:
    """One ``key = value`` pair as (attribute, value); ``where`` prefixes errors."""
    if "=" not in text:
        raise ConfigError(f"{where}{text!r} is not of the form 'key = value'")
    key, raw = (part.strip() for part in text.split("=", 1))
    if key not in _KEYS:
        raise ConfigError(f"{where}unknown config key {key!r}")
    _, f = _KEYS[key]
    try:
        return f.name, _parse_value(f.type, raw)
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
    return dict(_parse_pair(pair) for pair in pairs)


def parse_config_text(text: str) -> dict:
    """The ``key = value`` file body as an attribute dict."""
    lines = ((n, line.strip()) for n, line in enumerate(text.splitlines(), start=1))
    return dict(_parse_pair(line, f"line {n}: ") for n, line in lines
                if line and not line.startswith("#"))


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the file (if any), then explicit overrides."""
    merged = {}
    if path is not None:
        with open(path, encoding="utf-8") as f:
            merged.update(parse_config_text(f.read()))
    merged.update(overrides or {})
    values = {None: {}, "loss": {}, "train": {}}
    for attr, value in merged.items():
        values[_SECTION[attr]][attr] = value
    try:
        train = TrainConfig(loss=LossConfig(**values["loss"]), **values["train"])
        return RunConfig(train=train, **values[None])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def format_config(config: RunConfig) -> str:
    owners = {None: config, "loss": config.train.loss, "train": config.train}
    lines = [f"{key} = {_format_value(getattr(owners[section], f.name))}"
             for key, (section, f) in _KEYS.items()]
    return "\n".join(lines) + "\n"


def write_config(config: RunConfig, out_dir: str) -> str:
    """Echo the effective config into the output directory."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, CONFIG_BASENAME)
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_config(config))
    return path
