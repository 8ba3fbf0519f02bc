"""Network graph: backbone, embedding separator, generator, activation-map
head, and identity classifier over one shared parameter set.

All forward passes are batch-first.  Everything is dense layers at desk
scale: the losses under test care about the interfaces (norm-bounded
disentangled embeddings, a backbone-shaped feature tap, a single-channel
image output, spatial activation maps), not about convolutional capacity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor


@dataclass(frozen=True)
class NetworkConfig:
    """Shapes and widths of the network graph.

    Backbone spatial dims must divide the image dims so the feature grid is
    a coarsening of the image grid.
    """

    image_shape: tuple = (1, 16, 8)
    feature_shape: tuple = (8, 4, 2)
    id_dim: int = 16
    app_dim: int = 4
    num_identities: int = 10
    backbone_hidden: int = 64
    separator_hidden: int = 64
    generator_hidden: int = 64
    id_dropout: float = 0.1

    def __post_init__(self):
        if len(self.image_shape) != 3 or len(self.feature_shape) != 3:
            raise ValueError("image_shape and feature_shape must be (channels, height, width)")
        if any(int(v) < 1 for v in self.image_shape + self.feature_shape):
            raise ValueError("all shape entries must be >= 1")
        if self.id_dim < 1 or self.app_dim < 1:
            raise ValueError("id_dim and app_dim must be >= 1")
        if self.num_identities < 2:
            raise ValueError("num_identities must be >= 2")
        if self.image_shape[1] % self.feature_shape[1] or self.image_shape[2] % self.feature_shape[2]:
            raise ValueError("backbone spatial dims must divide image spatial dims")
        if not 0.0 <= self.id_dropout < 1.0:
            raise ValueError("id_dropout must be in [0, 1)")
        if min(self.backbone_hidden, self.separator_hidden, self.generator_hidden) < 1:
            raise ValueError("hidden widths must be >= 1")

    @property
    def image_size(self) -> int:
        c, h, w = self.image_shape
        return c * h * w

    @property
    def feature_size(self) -> int:
        c, h, w = self.feature_shape
        return c * h * w

    @property
    def embed_dim(self) -> int:
        return self.id_dim + self.app_dim

    def parameter_shapes(self) -> dict:
        """Name -> shape of every parameter, in creation order: each dense
        layer's weight (fan_in, fan_out), then its bias (fan_out,)."""
        layers = [("backbone", "1", self.image_size, self.backbone_hidden),
                  ("backbone", "2", self.backbone_hidden, self.feature_size),
                  ("separator", "1", self.feature_size, self.separator_hidden),
                  ("separator", "_id", self.separator_hidden, self.id_dim),
                  ("separator", "_app", self.separator_hidden, self.app_dim),
                  ("generator", "1", self.embed_dim, self.generator_hidden),
                  ("generator", "2", self.generator_hidden, self.feature_size),
                  ("generator", "3", self.feature_size, self.image_shape[1] * self.image_shape[2]),
                  ("cam", "", self.feature_shape[0], self.num_identities),
                  ("classifier", "", self.embed_dim, self.num_identities)]
        shapes = {}
        for prefix, index, fan_in, fan_out in layers:
            shapes[f"{prefix}.w{index}"] = (fan_in, fan_out)
            shapes[f"{prefix}.b{index}"] = (fan_out,)
        return shapes


@dataclass
class DisentangledEmbedding:
    """Separator output: id-carrying and appearance-carrying halves, each a
    (batch, dim) tensor with row norms < 1."""

    id_feat: Tensor
    app_feat: Tensor


class ReidModel:
    """The shared parameter set and every forward pass over it.

    Query, positive, and negative branches all run through this one object,
    so a gradient step taken through any branch moves them all.
    """

    def __init__(self, config: NetworkConfig, seed: int = 0, params: dict | None = None):
        """Weights uniform in +-1/sqrt(fan_in) drawn from ``seed`` and zero biases, or
        the ``params`` arrays wrapped without a copy; a wrong shape is a ShapeError."""
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0))) if params is None else None
        self.params: dict[str, Tensor] = {}
        for name, shape in config.parameter_shapes().items():
            if params is not None:
                data = params[name]
            elif len(shape) == 1:  # biases start at zero
                data = np.zeros(shape)
            else:
                bound = 1.0 / np.sqrt(shape[0])
                data = rng.uniform(-bound, bound, size=shape)
            if data.shape != shape:
                raise ShapeError(f"parameter {name!r} has shape {data.shape}, the config gives {shape}")
            self.params[name] = Tensor(data, requires_grad=True)

    def _dense(self, x: Tensor, prefix: str, index: str, act: str = "none") -> Tensor:
        return ad.dense(x, self.params[f"{prefix}.w{index}"],
                        self.params[f"{prefix}.b{index}"], act)

    def backbone_forward(self, x) -> Tensor:
        """Image batch (B, C, H, W) -> nonnegative feature maps (B, C_b, H_b, W_b)."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.data.ndim != 4 or x.data.shape[1:] != self.config.image_shape:
            raise ShapeError(
                f"backbone expects (B, {self.config.image_shape}), got {x.data.shape}")
        batch = x.data.shape[0]
        h = self._dense(x.reshape((batch, self.config.image_size)), "backbone", "1", "relu")
        f = self._dense(h, "backbone", "2", "relu")
        return f.reshape((batch,) + self.config.feature_shape)

    def separator_forward(self, features: Tensor, keep=None) -> DisentangledEmbedding:
        """Feature maps -> norm-bounded (id, appearance) embedding pair.

        A 0/1 ``keep`` mask of the id half's shape drops id components with
        no rescaling, so the norm bound survives.
        """
        if features.data.ndim != 4 or features.data.shape[1:] != self.config.feature_shape:
            raise ShapeError(
                f"separator expects (B, {self.config.feature_shape}), got {features.data.shape}")
        batch = features.data.shape[0]
        flat = features.reshape((batch, self.config.feature_size))
        shared = self._dense(flat, "separator", "1", "relu")
        id_feat = self._dense(shared, "separator", "_id").squash()
        app_feat = self._dense(shared, "separator", "_app").squash()
        if keep is not None:
            if np.shape(keep) != id_feat.shape:
                raise ShapeError(f"keep mask needs shape {id_feat.shape}, got {np.shape(keep)}")
            id_feat = ad.mask_mul(id_feat, keep)
        return DisentangledEmbedding(id_feat, app_feat)

    def generator_forward(self, id_feat: Tensor, app_feat: Tensor,
                          image_rows: int | None = None):
        """Embedding pair -> (feature tap (B, C_b, H_b, W_b), image (R, 1, H, W)).

        The tap is the generator's second hidden layer reshaped to the
        backbone grid; the image head maps its first R = ``image_rows`` rows
        (all B by default) through a sigmoid into [0, 1].
        """
        if id_feat.data.ndim != 2 or id_feat.data.shape[1] != self.config.id_dim:
            raise ShapeError(f"generator id input needs (B, {self.config.id_dim}), "
                             f"got {id_feat.data.shape}")
        if app_feat.data.ndim != 2 or app_feat.data.shape[1] != self.config.app_dim:
            raise ShapeError(f"generator appearance input needs (B, {self.config.app_dim}), "
                             f"got {app_feat.data.shape}")
        hidden = self._dense(ad.concat([id_feat, app_feat], axis=1), "generator", "1", "relu")
        tap_rows = self._dense(hidden, "generator", "2", "relu")
        batch = tap_rows.shape[0]
        image_rows = batch if image_rows is None else image_rows
        tap = tap_rows.reshape((batch,) + self.config.feature_shape)
        head_rows = tap_rows if image_rows == batch else tap_rows[:image_rows]
        image = self._dense(head_rows, "generator", "3", "sigmoid")
        _, height, width = self.config.image_shape
        return tap, image.reshape((image_rows, 1, height, width))

    def embed(self, images) -> tuple:
        """Eval-mode pass (no dropout, no graph): (id, appearance, backbone feature)
        arrays, in fixed 256-row chunks, as BLAS rounding can depend on row count."""
        parts = []
        with ad.no_grad():
            for start in range(0, max(len(images), 1), 256):
                features = self.backbone_forward(images[start:start + 256])
                emb = self.separator_forward(features)
                parts.append((emb.id_feat.data, emb.app_feat.data, features.data))
        return tuple(np.concatenate(column) for column in zip(*parts))

    def cam_logits(self, features: Tensor) -> Tensor:
        """Feature maps -> class logits via global average pooling + dense."""
        return self._dense(features.mean(axis=(2, 3)), "cam", "")

    def cam_maps(self, feature_values: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Per-sample spatial activation maps for the given labels.

        Pure numpy: the maps feed mask construction, never gradients.
        map[b] = sum_c W[c, labels[b]] * features[b, c].
        """
        labels = np.asarray(labels)
        if np.any(labels < 0) or np.any(labels >= self.config.num_identities):
            raise ValueError(f"labels must lie in [0, {self.config.num_identities})")
        weights = self.params["cam.w"].data[:, labels]  # (C_b, B)
        return np.einsum("bchw,cb->bhw", feature_values, weights)

    def classifier_forward(self, emb: DisentangledEmbedding) -> Tensor:
        """Concatenated embedding -> identity logits."""
        joined = ad.concat([emb.id_feat, emb.app_feat], axis=1)
        return self._dense(joined, "classifier", "")
