"""Checkpoints: model parameters, Adam state, and cluster centers in the
shared manifest+blob archive format.

The manifest carries the full network configuration and the evaluation
defaults, so a checkpoint is self-contained for inference; resuming
training additionally needs the original run config for the schedule and
sampling settings.
"""
from __future__ import annotations

import numpy as np

from .autodiff import Adam
from .blobio import read_archive, write_archive
from .clusters import ClusterRegistry
from .networks import NetworkConfig, ReidModel


def save_checkpoint(dir_path, model: ReidModel, optimizer: Adam,
                    registry: ClusterRegistry, step: int,
                    eval_alpha: float = 0.55, eval_flip: bool = True) -> None:
    cfg = model.config
    meta = {
        "kind": "checkpoint",
        "step": int(step),
        "adam.t": optimizer.t,
        "adam.learning_rate": repr(optimizer.lr),
        "adam.beta1": repr(optimizer.beta1),
        "adam.beta2": repr(optimizer.beta2),
        "adam.epsilon": repr(optimizer.epsilon),
        "registry.refresh_period_epochs": registry.refresh_period_epochs,
        "registry.last_refresh_epoch": (
            "none" if registry.last_refresh_epoch is None
            else registry.last_refresh_epoch),
        "net.image_shape": ",".join(str(d) for d in cfg.image_shape),
        "net.feature_shape": ",".join(str(d) for d in cfg.feature_shape),
        "net.id_dim": cfg.id_dim,
        "net.app_dim": cfg.app_dim,
        "net.num_identities": cfg.num_identities,
        "net.backbone_hidden": cfg.backbone_hidden,
        "net.separator_hidden": cfg.separator_hidden,
        "net.generator_hidden": cfg.generator_hidden,
        "net.id_dropout": repr(cfg.id_dropout),
        "eval.alpha": repr(float(eval_alpha)),
        "eval.flip": "true" if eval_flip else "false",
    }
    tensors = {}
    for name, param in model.params.items():
        tensors[f"param/{name}"] = param.data
        tensors[f"adam_m/{name}"] = optimizer.m[name]
        tensors[f"adam_v/{name}"] = optimizer.v[name]
    for identity, center in registry.centers.items():
        tensors[f"registry/center_{identity}"] = center
    write_archive(dir_path, meta, tensors)


class _Entries(dict):
    """Checkpoint meta or tensors whose missing keys raise ValueError naming
    the key and the checkpoint directory, for every reader of them."""

    def __init__(self, entries: dict, dir_path):
        super().__init__(entries)
        self.dir_path = dir_path

    def __missing__(self, key):
        raise ValueError(f"checkpoint {self.dir_path} is missing {key!r}")


def load_checkpoint(dir_path):
    """Rebuild (model, optimizer, registry, meta) from a checkpoint
    directory.  Parameter values, Adam moments and step count, and cluster
    centers are restored bit-exactly."""
    meta, tensors = (_Entries(part, dir_path) for part in read_archive(dir_path))
    if meta.get("kind") != "checkpoint":
        raise ValueError(f"archive at {dir_path} is not a checkpoint "
                         f"(kind={meta.get('kind')!r})")
    cfg = NetworkConfig(
        image_shape=tuple(int(d) for d in meta["net.image_shape"].split(",")),
        feature_shape=tuple(int(d) for d in meta["net.feature_shape"].split(",")),
        id_dim=int(meta["net.id_dim"]),
        app_dim=int(meta["net.app_dim"]),
        num_identities=int(meta["net.num_identities"]),
        backbone_hidden=int(meta["net.backbone_hidden"]),
        separator_hidden=int(meta["net.separator_hidden"]),
        generator_hidden=int(meta["net.generator_hidden"]),
        id_dropout=float(meta["net.id_dropout"]),
    )
    model = ReidModel(cfg, seed=0)
    for name, param in model.params.items():
        stored = tensors[f"param/{name}"]
        if stored.shape != param.data.shape:
            raise ValueError(f"parameter {name!r} has shape {stored.shape}, "
                             f"expected {param.data.shape}")
        param.data = stored
    optimizer = Adam(model.params,
                     lr=float(meta["adam.learning_rate"]),
                     beta1=float(meta["adam.beta1"]),
                     beta2=float(meta["adam.beta2"]),
                     epsilon=float(meta["adam.epsilon"]))
    optimizer.t = int(meta["adam.t"])
    for name in model.params:
        optimizer.m[name] = tensors[f"adam_m/{name}"]
        optimizer.v[name] = tensors[f"adam_v/{name}"]
    registry = ClusterRegistry(int(meta["registry.refresh_period_epochs"]))
    centers = {}
    for key, value in tensors.items():
        if key.startswith("registry/center_"):
            centers[int(key[len("registry/center_"):])] = value
    if meta["registry.last_refresh_epoch"] != "none":
        registry.set_centers(centers, int(meta["registry.last_refresh_epoch"]))
    return model, optimizer, registry, meta
