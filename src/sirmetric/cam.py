"""Activation-map masks, pseudo-ground-truth feature re-entanglement, and
the embedding-swap augmentations feeding the reconstruction losses.

Re-entanglement has one path, batched; a single pair is a batch of one.
Masks and pseudo-ground-truth maps are plain numpy: they act as detached
reconstruction targets, never as gradient paths.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .networks import DisentangledEmbedding, ReidModel


def cam_masks(cam: np.ndarray):
    """Threshold maps at their own mean: (..., H, W) -> (id_mask, app_mask),
    float arrays of 0/1.  Works on a single map or any batch of maps."""
    cam = np.asarray(cam, dtype=np.float64)
    threshold = cam.mean(axis=(-2, -1), keepdims=True)
    id_mask = (cam >= threshold).astype(np.float64)
    return id_mask, 1.0 - id_mask


def build_pseudo_gt_batch(f_query: np.ndarray, f_negative: np.ndarray,
                          cam_query: np.ndarray, cam_negative: np.ndarray):
    """Re-entangle (query, negative) feature maps into pseudo-ground-truth
    targets: feature arrays (B, C, H, W) and raw activation maps (B, H, W)
    in, the two target stacks out.  With masks from cam_masks, broadcast
    over channels,

        id_from_query    = id_q * f_q + (app_q * app_n) * f_n
        id_from_negative = id_n * f_n + (app_q * app_n) * f_q

    so each target keeps its own id-relevant cells, fills the jointly
    id-irrelevant cells from the partner, and is zero elsewhere."""
    id_q, app_q = cam_masks(cam_query)
    id_n, app_n = cam_masks(cam_negative)
    joint = (app_q * app_n)[:, None]
    id_from_query = id_q[:, None] * f_query + joint * f_negative
    id_from_negative = id_n[:, None] * f_negative + joint * f_query
    return id_from_query, id_from_negative


def augment_positive(emb_query: DisentangledEmbedding,
                     emb_positive: DisentangledEmbedding, model: ReidModel):
    """Three generator images from swapped embeddings, in the order
    (id_p + app_q, id_q + app_p, id_q + app_q).  One stacked forward."""
    batch = emb_query.id_feat.shape[0]
    ids = ad.concat([emb_positive.id_feat, emb_query.id_feat, emb_query.id_feat], axis=0)
    apps = ad.concat([emb_query.app_feat, emb_positive.app_feat, emb_query.app_feat], axis=0)
    _, images = model.generator_forward(ids, apps)
    return images[:batch], images[batch:2 * batch], images[2 * batch:]


def augment_negative(emb_query: DisentangledEmbedding,
                     emb_negative: DisentangledEmbedding, model: ReidModel,
                     swap_second_appearance: bool = False,
                     emb_positive: DisentangledEmbedding | None = None):
    """Two generator feature taps: (id_q + app_n, id_n + app_q).  Runs only
    the generator's tap layers, not its image head.

    With ``swap_second_appearance`` the second tap takes the positive's
    appearance instead of the query's (the alternative printed reading of
    the objective); that requires ``emb_positive``.
    """
    if swap_second_appearance:
        if emb_positive is None:
            raise ValueError("swapped reading needs the positive embedding")
        second_app = emb_positive.app_feat
    else:
        second_app = emb_query.app_feat
    batch = emb_query.id_feat.shape[0]
    ids = ad.concat([emb_query.id_feat, emb_negative.id_feat], axis=0)
    apps = ad.concat([emb_negative.app_feat, second_app], axis=0)
    taps = model.generator_tap(ids, apps).reshape((2 * batch,) + model.config.feature_shape)
    return taps[:batch], taps[batch:]


def write_cam_debug_csv(path, cam: np.ndarray, id_from_query: np.ndarray | None = None,
                        id_from_negative: np.ndarray | None = None) -> None:
    """Dump one (H, W) activation map with its mean threshold and masks, and
    optionally (C, H, W) pseudo-ground-truth targets per channel, as
    labeled CSV blocks for eyeballing."""

    def block(handle, name, grid):
        handle.write(f"# {name}\n")
        for row in np.atleast_2d(grid):
            handle.write(",".join(repr(float(v)) for v in row) + "\n")

    cam = np.asarray(cam, dtype=np.float64)
    id_mask, app_mask = cam_masks(cam)
    with open(path, "w") as handle:
        block(handle, "cam", cam)
        handle.write(f"# threshold\n{float(cam.mean())!r}\n")
        block(handle, "id_mask", id_mask)
        block(handle, "app_mask", app_mask)
        targets = {"id_from_query": id_from_query, "id_from_negative": id_from_negative}
        for name, target in targets.items():
            for c in range(0 if target is None else target.shape[0]):
                block(handle, f"{name}_channel_{c}", target[c])
