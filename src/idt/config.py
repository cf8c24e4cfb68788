"""Run configuration: flat key=value files with an `include` directive.

A config file is a list of `key = value` lines (# comments). One optional
`include = path` line (relative to the including file) loads another config
first; keys in the current file override the included ones. The flat format
diffs cleanly across experiments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from .ioutil import parse_kv_lines
from .losses import LossConfig
from .model import ModelConfig
from .scenes import DatasetConfig, SceneConfig


class ConfigError(ValueError):
    pass


def parse_config_file(path: str) -> dict:
    """Flat key/value mapping with `include` resolved recursively."""
    return _parse(os.path.abspath(path), visited=())


def _parse(path: str, visited: tuple) -> dict:
    if path in visited:
        chain = " -> ".join(visited + (path,))
        raise ConfigError(f"include cycle: {chain}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        flat = parse_kv_lines(text, source=path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    inc = flat.pop("include", None)
    if inc is None:
        return flat
    base = _parse(os.path.normpath(os.path.join(os.path.dirname(path), inc)),
                  visited + (path,))
    base.update(flat)
    return base


def _to_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected integer, got {raw!r}") from None


def _to_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected number, got {raw!r}") from None


def _to_bool(key, raw):
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected boolean, got {raw!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: dataset shape, model, losses, optimizer."""

    dataset: str = "dataset"
    out_dir: str = "run"
    seed: int = 0
    steps: int = 400
    step_size: float = 3e-4
    momentum: float = 0.9
    decay: float = 0.0           # step size at step t: step_size / (1 + decay*t)
    batch_scenes: int = 1
    views_per_batch: int = 4
    view_dropout: float = 0.0    # per-step probability of training with V=1
    checkpoint_every: int = 200
    depth_weight: float = 0.1
    train_scenes: int = 0        # scenes [0, train_scenes) train; 0 = all
    occlusion_tau: float = 0.05
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    data: DatasetConfig = field(default_factory=DatasetConfig)

    def validate(self, need_dataset: bool = False) -> None:
        if not self.step_size > 0:
            raise ConfigError("step_size must be positive")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.decay < 0:
            raise ConfigError("decay must be nonnegative")
        if self.batch_scenes < 1 or self.views_per_batch < 1:
            raise ConfigError("batch_scenes and views_per_batch must be >= 1")
        if not 0.0 <= self.view_dropout <= 1.0:
            raise ConfigError("view_dropout must be in [0, 1]")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        if self.depth_weight < 0:
            raise ConfigError("depth_weight must be nonnegative")
        if self.train_scenes < 0:
            raise ConfigError("train_scenes must be nonnegative")
        try:
            self.model.validate()
            self.loss.validate()
            self.data.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if need_dataset and not os.path.isdir(self.dataset):
            raise ConfigError(f"dataset directory not found: {self.dataset}")


_COERCE = {"int": _to_int, "float": _to_float, "bool": _to_bool,
           "str": lambda key, raw: str(raw)}


def _flat_keys(section: str, cls) -> dict:
    """key -> (section, field, coercion) for each scalar field of `cls`;
    tuple and nested fields have no flat key."""
    keys = {}
    for f in fields(cls):
        conv = _COERCE.get(getattr(f.type, "__name__", f.type))
        if conv is not None:
            clash = (section, f.name) == ("data", "seed")  # vs RunConfig.seed
            keys["data_seed" if clash else f.name] = (section, f.name, conv)
    return keys


# the schema is the dataclasses; flat key names keep configs greppable
_KEYS = {**_flat_keys("model", ModelConfig), **_flat_keys("loss", LossConfig),
         **_flat_keys("data", DatasetConfig),
         **_flat_keys("scene", SceneConfig), **_flat_keys("run", RunConfig)}


def build_run_config(flat: dict) -> RunConfig:
    """Typed RunConfig from a flat mapping; unknown keys are errors."""
    kw = {"model": {}, "loss": {}, "data": {}, "scene": {}, "run": {}}
    for key, raw in flat.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key: {key}")
        section, name, conv = _KEYS[key]
        kw[section][name] = conv(key, raw)
    if kw["scene"]:
        kw["data"]["scene"] = SceneConfig(**kw["scene"])
    return RunConfig(model=ModelConfig(**kw["model"]),
                     loss=LossConfig(**kw["loss"]),
                     data=DatasetConfig(**kw["data"]), **kw["run"])


def load_run_config(path: str) -> RunConfig:
    return build_run_config(parse_config_file(path))
