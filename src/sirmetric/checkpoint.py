"""Checkpoints: model parameters, Adam state, and cluster centers in the
shared manifest+blob archive format.

The manifest carries the full network configuration and the evaluation
defaults, so a checkpoint is self-contained for inference; resuming
training additionally needs the original run config for the schedule and
sampling settings.  The ``net.*`` keys are the run config's, from one
NetworkConfig field table.
"""
from __future__ import annotations

import numpy as np

from .autodiff import Adam
from .blobio import ArchiveError, field_table, read_archive, write_archive
from .clusters import ClusterRegistry
from .config import RunConfig
from .networks import NetworkConfig, ReidModel

_NET_TABLE = field_table(NetworkConfig, "net.")


def save_checkpoint(dir_path, model: ReidModel, optimizer: Adam,
                    registry: ClusterRegistry, step: int, config: RunConfig) -> None:
    """Write the state at ``step``, with ``config``'s eval defaults and refresh period."""
    meta = {
        "kind": "checkpoint",
        "step": int(step),
        "adam.t": optimizer.t,
        "adam.learning_rate": optimizer.lr,
        "adam.beta1": optimizer.beta1,
        "adam.beta2": optimizer.beta2,
        "adam.epsilon": optimizer.epsilon,
        "registry.refresh_period_epochs": config.refresh_period_epochs,
        "registry.last_refresh_epoch": (
            "none" if registry.last_refresh_epoch is None
            else registry.last_refresh_epoch),
        **{key: getattr(model.config, name) for key, name, _ in _NET_TABLE},
        "eval.alpha": float(config.eval_alpha),
        "eval.flip": bool(config.eval_flip),
    }
    tensors = {}
    for name, param in model.params.items():
        tensors[f"param/{name}"] = param.data
        tensors[f"adam_m/{name}"] = optimizer.m[name]
        tensors[f"adam_v/{name}"] = optimizer.v[name]
    if registry.centers is not None:
        for identity, center in enumerate(registry.centers):
            tensors[f"registry/center_{identity}"] = center
    write_archive(dir_path, meta, tensors)


def load_checkpoint(dir_path):
    """Rebuild (model, optimizer, registry, meta) from a checkpoint
    directory.  Parameter values, Adam moments and step count, and cluster
    centers are restored bit-exactly; the model wraps the stored parameters
    (no random draw) and the optimizer copies them into its storage.
    A missing or unparsable entry, a parameter, Adam moment or center whose
    shape disagrees with the net.* keys, or a center set other than one per
    identity, raises ArchiveError naming the key or tensor and the
    directory."""
    meta, tensors = read_archive(dir_path)
    if meta.get("kind") != "checkpoint":
        raise ValueError(f"archive at {dir_path} is not a checkpoint "
                         f"(kind={meta.get('kind')!r})")
    config = NetworkConfig(**meta.decode_fields(_NET_TABLE))
    shapes = config.parameter_shapes()
    for name, shape in shapes.items():
        for kind in ("param", "adam_m", "adam_v"):
            stored = tensors[f"{kind}/{name}"]
            if stored.shape != shape:
                raise ArchiveError(f"archive {dir_path}: tensor '{kind}/{name}' has shape "
                                   f"{stored.shape}, but the net.* keys give {shape}")
    model = ReidModel(config, params={name: tensors[f"param/{name}"] for name in shapes})
    optimizer = Adam(model.params,
                     lr=meta.parse("adam.learning_rate", float),
                     beta1=meta.parse("adam.beta1", float),
                     beta2=meta.parse("adam.beta2", float),
                     epsilon=meta.parse("adam.epsilon", float))
    optimizer.t = meta.parse("adam.t", int)
    for name in shapes:
        optimizer.m[name][...] = tensors[f"adam_m/{name}"]
        optimizer.v[name][...] = tensors[f"adam_v/{name}"]
    # parsed only so a bad value is an error: a resume takes the period from its run config
    meta.parse("registry.refresh_period_epochs", int)
    registry = ClusterRegistry()
    registry.last_refresh_epoch = meta.parse(
        "registry.last_refresh_epoch", lambda text: None if text == "none" else int(text))
    if registry.last_refresh_epoch is not None:
        registry.centers = _read_centers(dir_path, tensors, model.config)
    return model, optimizer, registry, meta


def _read_centers(dir_path, tensors, config: NetworkConfig) -> np.ndarray:
    """The registry/center_<k> tensors, stacked in k order: exactly
    k = 0 .. num_identities - 1, each of shape (id_dim,)."""
    names = [f"registry/center_{k}" for k in range(config.num_identities)]
    stray = sorted(set(key for key in tensors if key.startswith("registry/center_")) - set(names))
    if stray:
        raise ArchiveError(f"archive {dir_path}: tensor '{stray[0]}' is not a center of "
                           f"identities 0..{config.num_identities - 1}")
    for key in names:
        if tensors[key].shape != (config.id_dim,):
            raise ArchiveError(f"archive {dir_path}: tensor '{key}' has shape "
                               f"{tensors[key].shape}, but the net.* keys give {(config.id_dim,)}")
    return np.stack([tensors[key] for key in names])
