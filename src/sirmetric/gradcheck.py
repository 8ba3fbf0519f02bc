"""Finite-difference verification of all six loss kernels.

Each check differentiates a loss with respect to a compact leaf tensor
(embeddings, logits input features) while routing through the real model
pieces the loss consumes, the classifier and activation-map heads and the
generator included.  Inputs are resampled until every hinge, relu, and L1
term sits at least ten finite-difference steps away from its kink, so the
central-difference estimate is valid everywhere it is compared.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .cam import augment_negative, augment_positive, generate_swaps
from .losses import (TripletBatch, cam_classification_loss,
                     center_discrepancy_loss, classification_loss,
                     negative_recon_loss, positive_recon_loss, triplet_loss)
from .networks import DisentangledEmbedding, NetworkConfig, ReidModel

FD_STEP = 1e-5
KINK_MARGIN = 10.0 * FD_STEP
_MAX_RESAMPLE = 200


def _split_embeddings(matrix: Tensor, rows: slice, id_dim: int) -> DisentangledEmbedding:
    return DisentangledEmbedding(matrix[rows, :id_dim], matrix[rows, id_dim:])


def _check_triplet(rng, model, tol):
    id_dim = model.config.id_dim
    margin = 0.9
    for _ in range(_MAX_RESAMPLE):
        x = rng.uniform(-0.8, 0.8, size=(6, id_dim))
        d_pos = ((x[0:2] - x[2:4]) ** 2).sum(axis=1)
        d_neg = ((x[0:2] - x[4:6]) ** 2).sum(axis=1)
        hinge = d_pos - d_neg + margin
        if np.min(np.abs(hinge)) > KINK_MARGIN and np.any(hinge > 0.0):
            break
    else:
        raise RuntimeError("could not sample a triplet batch away from the hinge kink")

    def fn(leaf):
        q = DisentangledEmbedding(leaf[0:2], Tensor(np.zeros((2, 1))))
        p = DisentangledEmbedding(leaf[2:4], Tensor(np.zeros((2, 1))))
        n = DisentangledEmbedding(leaf[4:6], Tensor(np.zeros((2, 1))))
        return triplet_loss(TripletBatch(q, p, n, np.zeros(2, dtype=int),
                                         np.ones(2, dtype=int)), margin)

    return ad.grad_check(fn, Tensor(x), h=FD_STEP, tol=tol)


def _check_center(rng, model, tol):
    cfg = model.config
    centers = rng.uniform(-0.6, 0.6, size=(cfg.num_identities, cfg.id_dim))
    labels = rng.integers(0, cfg.num_identities, size=2)
    x = rng.uniform(-0.7, 0.7, size=(2, cfg.id_dim))

    def fn(leaf):
        return center_discrepancy_loss(leaf, labels, centers)

    return ad.grad_check(fn, Tensor(x), h=FD_STEP, tol=tol)


def _check_cls(rng, model, tol):
    cfg = model.config
    labels = rng.integers(0, cfg.num_identities, size=2)
    x = rng.uniform(-0.8, 0.8, size=(2, cfg.embed_dim))

    def fn(leaf):
        emb = _split_embeddings(leaf, slice(0, 2), cfg.id_dim)
        return classification_loss(model.classifier_forward(emb), labels)

    return ad.grad_check(fn, Tensor(x), h=FD_STEP, tol=tol)


def _check_cam(rng, model, tol):
    cfg = model.config
    labels = rng.integers(0, cfg.num_identities, size=1)
    x = rng.uniform(0.0, 1.0, size=(1,) + cfg.feature_shape)

    def fn(leaf):
        return cam_classification_loss(model.cam_logits(leaf), labels)

    return ad.grad_check(fn, Tensor(x), h=FD_STEP, tol=tol)


def _generator_intermediates(model, ids: np.ndarray, apps: np.ndarray):
    """Numpy replica of the generator forward, exposing the pre-activation
    values whose relu kinks the finite differences must stay clear of."""
    p = {k: v.data for k, v in model.params.items()}
    joined = np.concatenate([ids, apps], axis=1)
    z1 = joined @ p["generator.w1"] + p["generator.b1"]
    z2 = np.maximum(z1, 0.0) @ p["generator.w2"] + p["generator.b2"]
    tap = np.maximum(z2, 0.0)
    z3 = tap @ p["generator.w3"] + p["generator.b3"]
    image = 1.0 / (1.0 + np.exp(-z3))
    return z1, z2, tap, image


def _check_pos_recon(rng, model, tol):
    cfg = model.config
    _, height, width = cfg.image_shape
    for _ in range(_MAX_RESAMPLE):
        x = rng.uniform(-0.8, 0.8, size=(2, cfg.embed_dim))
        gray_q = rng.uniform(0.1, 0.9, size=(1, 1, height, width))
        gray_p = rng.uniform(0.1, 0.9, size=(1, 1, height, width))
        q_id, q_app = x[0, :cfg.id_dim], x[0, cfg.id_dim:]
        p_id, p_app = x[1, :cfg.id_dim], x[1, cfg.id_dim:]
        ids = np.stack([p_id, q_id, q_id])
        apps = np.stack([q_app, p_app, q_app])
        z1, z2, _, images = _generator_intermediates(model, ids, apps)
        images = images.reshape(3, 1, height, width)
        gaps = np.abs(images - np.stack([gray_q[0], gray_p[0], gray_q[0]]))
        if min(np.abs(z1).min(), np.abs(z2).min(), gaps.min()) > KINK_MARGIN:
            break
    else:
        raise RuntimeError("could not sample positive-recon inputs away from kinks")

    def fn(leaf):
        emb_q = _split_embeddings(leaf, slice(0, 1), cfg.id_dim)
        emb_p = _split_embeddings(leaf, slice(1, 2), cfg.id_dim)
        images_out, _ = generate_swaps(model, augment_positive(emb_q, emb_p), [])
        return positive_recon_loss(images_out, gray_q, gray_p)

    return ad.grad_check(fn, Tensor(x), h=FD_STEP, tol=tol)


def _check_neg_recon(rng, model, tol):
    cfg = model.config
    for _ in range(_MAX_RESAMPLE):
        x = rng.uniform(-0.8, 0.8, size=(2, cfg.embed_dim))
        # pseudo-GT-like targets: mostly positive cells with exact zeros mixed in
        target_q = rng.uniform(0.05, 0.5, size=(1,) + cfg.feature_shape)
        target_n = rng.uniform(0.05, 0.5, size=(1,) + cfg.feature_shape)
        zero_mask = rng.random(size=target_q.shape) < 0.25
        target_q[zero_mask] = 0.0
        target_n[rng.random(size=target_n.shape) < 0.25] = 0.0
        q_id, q_app = x[0, :cfg.id_dim], x[0, cfg.id_dim:]
        n_id, n_app = x[1, :cfg.id_dim], x[1, cfg.id_dim:]
        ids = np.stack([q_id, n_id])
        apps = np.stack([n_app, q_app])
        z1, z2, taps, _ = _generator_intermediates(model, ids, apps)
        taps = taps.reshape((2,) + cfg.feature_shape)
        gaps = np.abs(taps - np.concatenate([target_q, target_n]))
        # a zero gap is safe when the tap sits on relu's flat side (target 0,
        # pre-activation clearly negative); only other cells constrain
        flat_side = (np.concatenate([target_q, target_n]) == 0.0) & (
            z2.reshape(taps.shape) < -KINK_MARGIN)
        gap_floor = gaps[~flat_side].min() if np.any(~flat_side) else np.inf
        if min(np.abs(z1).min(), np.abs(z2).min(), gap_floor) > KINK_MARGIN:
            break
    else:
        raise RuntimeError("could not sample negative-recon inputs away from kinks")

    def fn(leaf):
        emb_q = _split_embeddings(leaf, slice(0, 1), cfg.id_dim)
        emb_n = _split_embeddings(leaf, slice(1, 2), cfg.id_dim)
        _, taps_out = generate_swaps(model, [], augment_negative(emb_q, emb_n))
        return negative_recon_loss(taps_out, target_q, target_n)

    return ad.grad_check(fn, Tensor(x), h=FD_STEP, tol=tol)


_CHECKS = [
    ("triplet_loss", _check_triplet),
    ("center_discrepancy_loss", _check_center),
    ("classification_loss", _check_cls),
    ("cam_classification_loss", _check_cam),
    ("positive_recon_loss", _check_pos_recon),
    ("negative_recon_loss", _check_neg_recon),
]


def gradcheck_all(seed: int = 0, tol: float = 1e-4) -> dict[str, ad.GradCheckReport]:
    """Run every loss check on a default-config model; returns each loss's
    report by name, in check order."""
    if seed < 0:
        raise ValueError(f"gradcheck seed must be >= 0, got {seed!r}")
    model = ReidModel(NetworkConfig(), seed=seed)
    reports = {}
    for index, (name, check) in enumerate(_CHECKS):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 4, index)))
        reports[name] = check(rng, model, tol)
    return reports
