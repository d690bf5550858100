"""Run configuration file: JSON with sections synth / model / loss / train / eval.

An empty file means all defaults. Unknown sections or keys are rejected with
the offending name. The effective (defaults-merged) configuration is echoed
into every output directory so a run is reconstructible from its outputs.
Overrides use dotted paths: ``--set train.lr=0.01``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .data import SynthConfig
from .fusion import ModelConfig
from .losses import LossWeights
from .training import ACC_RULES, TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class EvalConfig:
    acc_rule: str = "sign"

    def __post_init__(self):
        if self.acc_rule not in ACC_RULES:
            raise ConfigError(f"eval.acc_rule must be one of {ACC_RULES}, got {self.acc_rule!r}")


@dataclass
class RunConfig:
    synth: SynthConfig = field(default_factory=SynthConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        # the loss and eval sections are the single sources for the weights and
        # the accuracy rule; train carries copies because checkpoints store them
        self.train.weights = self.loss
        self.train.eval_acc_rule = self.eval.acc_rule


# train fields owned by other sections; not settable or echoed under train
_TRAIN_OWNED_ELSEWHERE = ("weights", "eval_acc_rule")

_SECTIONS = get_type_hints(RunConfig)  # section name -> its class, in field order


def _build_section(name, cls, data):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{name}' is not an object")
    allowed = {f.name for f in fields(cls)}
    if name == "train":
        allowed.difference_update(_TRAIN_OWNED_ELSEWHERE)
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key '{name}.{key}'")
    try:
        return cls(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section '{name}': {exc}") from exc


def build_config(raw):
    """Dict of sections -> validated RunConfig with defaults applied."""
    for section in raw:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section '{section}'")
    parts = {
        name: _build_section(name, cls, raw.get(name, {}))
        for name, cls in _SECTIONS.items()
    }
    return RunConfig(**parts)


def load_config(path=None, overrides=()):
    """Parse, validate, and default-merge a config file, or the defaults
    when `path` is None (as for an empty file); deterministic."""
    text = "" if path is None else Path(path).read_text()
    if text.strip() == "":
        raw = {}
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object of sections")
    raw = apply_overrides(raw, overrides)
    return build_config(raw)


def apply_overrides(raw, overrides):
    """Apply ``section.key=value`` pairs; values parsed as JSON, else strings."""
    raw = {k: dict(v) if isinstance(v, dict) else v for k, v in raw.items()}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form section.key=value")
        dotted, value = item.split("=", 1)
        if dotted.count(".") != 1:
            raise ConfigError(f"override '{item}' needs a dotted path section.key")
        section, key = dotted.split(".")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        raw.setdefault(section, {})
        if not isinstance(raw[section], dict):
            raise ConfigError(f"section '{section}' is not an object")
        raw[section][key] = parsed
    return raw


def config_to_dict(cfg):
    out = {name: asdict(getattr(cfg, name)) for name in _SECTIONS}
    for key in _TRAIN_OWNED_ELSEWHERE:
        out["train"].pop(key)
    return out


def write_config_echo(cfg, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
