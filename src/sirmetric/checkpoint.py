"""Checkpoints in the shared manifest+blob archive format: per parameter a
``param/``, ``adam_m/`` and ``adam_v/`` tensor, once refreshed one (K, id_dim)
``registry/centers`` matrix; meta the step, Adam's t, the last refresh
epoch, the ``net.*`` keys (the run config's, from one NetworkConfig field
table) and the eval defaults, so a checkpoint is self-contained for
inference.  It stores only what a load reads: the Adam settings, schedule,
refresh period and sampling settings belong to the run config, and
``Trainer.train_step`` passes the Adam settings to each step.
"""
from __future__ import annotations

from .autodiff import Adam
from .blobio import ArchiveError, field_table, read_archive, write_archive
from .clusters import ClusterRegistry
from .config import RunConfig
from .networks import NetworkConfig, ReidModel

_NET_TABLE = field_table(NetworkConfig, "net.")


def _count(text: str) -> int:
    """A step or Adam's t: an integer >= 0."""
    if int(text) < 0:
        raise ValueError(f"negative count {text!r}")
    return int(text)


def save_checkpoint(dir_path, model: ReidModel, optimizer: Adam,
                    registry: ClusterRegistry, step: int, config: RunConfig) -> None:
    """Write the state at ``step``, with ``config``'s eval defaults."""
    meta = {
        "kind": "checkpoint",
        "step": int(step),
        "adam.t": optimizer.t,
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
        tensors["registry/centers"] = registry.centers
    write_archive(dir_path, meta, tensors)


def load_checkpoint(dir_path):
    """Rebuild (model, optimizer, registry, meta) from a checkpoint
    directory.  Parameter values, Adam moments and step count, and cluster
    centers are restored bit-exactly; the model wraps the stored parameters
    (no random draw) and the optimizer, ``Adam(model.params)``, copies them
    into its storage and holds exactly the stored state.  A missing or
    unparsable entry, a negative step or adam.t, or a parameter, Adam
    moment or centers tensor whose shape disagrees with the net.* keys,
    raises ArchiveError naming the key or tensor and the directory."""
    meta, tensors = read_archive(dir_path)
    if meta.get("kind") != "checkpoint":
        raise ValueError(f"archive at {dir_path} is not a checkpoint "
                         f"(kind={meta.get('kind')!r})")
    config = NetworkConfig(**meta.decode_fields(_NET_TABLE))
    registry = ClusterRegistry()
    registry.last_refresh_epoch = meta.parse(
        "registry.last_refresh_epoch", lambda text: None if text == "none" else int(text))
    params = config.parameter_shapes()
    shapes = {f"{kind}/{name}": shape for name, shape in params.items()
              for kind in ("param", "adam_m", "adam_v")}
    if registry.last_refresh_epoch is not None:
        shapes["registry/centers"] = (config.num_identities, config.id_dim)
    for key, shape in shapes.items():
        if tensors[key].shape != shape:
            raise ArchiveError(f"archive {dir_path}: tensor {key!r} has shape "
                               f"{tensors[key].shape}, but the net.* keys give {shape}")
    model = ReidModel(config, params={name: tensors[f"param/{name}"] for name in params})
    optimizer = Adam(model.params)
    meta.parse("step", _count)
    optimizer.t = meta.parse("adam.t", _count)
    for name in model.params:
        optimizer.m[name][...] = tensors[f"adam_m/{name}"]
        optimizer.v[name][...] = tensors[f"adam_v/{name}"]
    if registry.last_refresh_epoch is not None:
        # a copy: a view would keep the whole blob alive as long as the registry
        registry.centers = tensors["registry/centers"].copy()
    return model, optimizer, registry, meta
