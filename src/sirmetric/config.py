"""Run configuration: dataclass defaults plus a flat ``section.key=value``
text format with exact round-tripping.

The ``net.``, ``loss.`` and ``data.`` keys and every value parser come from
the dataclass fields (``blobio.field_table``); RunConfig's own fields keep
explicit key names.  Unknown keys are hard errors so a misspelled
hyperparameter can never silently fall back to its default.  Floats
serialize via repr, so parse(serialize(c)) == c bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .blobio import field_table, format_value
from .data import DatasetManifest
from .losses import LossWeights
from .networks import NetworkConfig


class ConfigError(ValueError):
    """Unknown key, malformed value, or inconsistent configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run needs.  Defaults are the trained-model
    settings: Adam 0.0002/0.9/0.999, margin 0.9, grayscale probability 0.1,
    fusion alpha 0.55, and the loss weights in LossWeights."""

    network: NetworkConfig = field(default_factory=NetworkConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    learning_rate: float = 0.0002
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 8
    epochs: int = 20
    steps_per_epoch: int = 100
    refresh_period_epochs: int = 1
    grayscale_prob: float = 0.1
    seed: int = 0
    swap_negative_appearance: bool = False
    data_path: str = ""
    data: DatasetManifest = field(default_factory=DatasetManifest)
    eval_alpha: float = 0.55
    eval_flip: bool = True
    out_dir: str = "runs/default"

    def __post_init__(self):
        for name, ok, rule in (
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("epochs", self.epochs >= 0, ">= 0"),
                ("steps_per_epoch", self.steps_per_epoch >= 1, ">= 1"),
                ("refresh_period_epochs", self.refresh_period_epochs >= 1, ">= 1"),
                ("grayscale_prob", 0.0 <= self.grayscale_prob <= 1.0, "in [0, 1]"),
                ("learning_rate", math.isfinite(self.learning_rate) and self.learning_rate > 0.0,
                 "finite and > 0"),
                ("epsilon", math.isfinite(self.epsilon) and self.epsilon > 0.0, "finite and > 0"),
                ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
                ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
                ("eval_alpha", math.isfinite(self.eval_alpha), "finite"),
                ("seed", self.seed >= 0, ">= 0")):
            if not ok:
                raise ConfigError(f"{_TOP_KEYS[name]} must be {rule}, got {getattr(self, name)!r}")
        if self.data.seed < 0:
            raise ConfigError(f"data.seed must be >= 0, got {self.data.seed!r}")
        if self.data.image_shape != self.network.image_shape:
            raise ConfigError(
                f"dataset image shape {self.data.image_shape} does not match "
                f"network image shape {self.network.image_shape}")


# Flat keys of RunConfig's own fields: these names are the file format.
_TOP_KEYS = dict(
    learning_rate="optim.learning_rate", beta1="optim.beta1",
    beta2="optim.beta2", epsilon="optim.epsilon",
    batch_size="train.batch_size", epochs="train.epochs",
    steps_per_epoch="train.steps_per_epoch",
    refresh_period_epochs="train.refresh_period_epochs",
    grayscale_prob="train.grayscale_prob", seed="train.seed",
    swap_negative_appearance="train.swap_negative_appearance",
    data_path="data.path", eval_alpha="eval.alpha", eval_flip="eval.flip",
    out_dir="out.dir")
# nested sections: (class, key prefix, excluded fields); "data.image_shape"
# is absent because the dataset always renders at the network's image shape
_SECTIONS = {"network": (NetworkConfig, "net.", ()), "loss": (LossWeights, "loss.", ()),
             "data": (DatasetManifest, "data.", ("image_shape",))}


def _build_schema() -> list:
    """(flat key, section, field name, parser) in RunConfig field order."""
    top = {name: parser for _, name, parser in field_table(RunConfig, exclude=_SECTIONS)}
    schema = []
    for f in fields(RunConfig):
        if f.name in _SECTIONS:
            cls, prefix, exclude = _SECTIONS[f.name]
            schema += [(key, f.name, name, parser)
                       for key, name, parser in field_table(cls, prefix, exclude)]
        else:
            schema.append((_TOP_KEYS[f.name], "", f.name, top[f.name]))
    return schema


_SCHEMA = _build_schema()


def serialize_config(config: RunConfig) -> str:
    """All keys in schema order, one per line."""
    lines = []
    for key, section, name, _ in _SCHEMA:
        holder = getattr(config, section) if section else config
        lines.append(f"{key}={format_value(getattr(holder, name))}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    """Parse the flat format; keys may appear in any order, each at most
    once, and every key must exist in the schema.  Missing keys keep their
    defaults.  Lines that are blank or start with '#' are skipped."""
    schema = {key: (section, name, parser) for key, section, name, parser in _SCHEMA}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = value.strip()

    sections = {section: {} for section in (*_SECTIONS, "")}
    for key, value in seen.items():
        section, name, parser = schema[key]
        try:
            sections[section][name] = parser(value)
        except ValueError:
            raise ConfigError(f"bad value for {key}: {value!r}") from None

    try:
        network = NetworkConfig(**sections["network"])
        loss = LossWeights(**sections["loss"])
        data = DatasetManifest(image_shape=network.image_shape, **sections["data"])
        return RunConfig(network=network, loss=loss, data=data, **sections[""])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> RunConfig:
    with open(path) as handle:
        return parse_config(handle.read())


def with_overrides(config: RunConfig, seed: int | None = None,
                   out_dir: str | None = None) -> RunConfig:
    """CLI-level overrides for --seed and --out."""
    updates = {key: value for key, value in (("seed", seed), ("out_dir", out_dir)) if value is not None}
    return replace(config, **updates) if updates else config
