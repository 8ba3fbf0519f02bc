"""Training objective: triplet, center-discrepancy, two cross-entropies,
and the two reconstruction terms, combined by a weighted total.

Conventions shared by every kernel here:
- batch-first tensors, scalar Tensor out, value always >= 0;
- reconstruction targets and cluster centers enter as plain numpy arrays,
  i.e. constants during backward;
- log-sum-exp terms use a detached max shift (same value, same gradient,
  no overflow);
- every loss, the weighted total included, is one fused node built with
  ``autodiff.node``: its function holds the forward and the backward of
  the primitive chain it stands for, with the chain's numpy expressions in
  the chain's order, so values and gradients are bitwise the chain's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .networks import DisentangledEmbedding


@dataclass(frozen=True)
class LossWeights:
    """Objective weights.  Defaults are the trained-model settings:
    identity group (cls 0.05, triplet 1, center 0.5), reconstruction group
    (positive 1e-4, negative 1e-4, activation-map 1), group weights 1/1,
    triplet margin 0.9."""

    id_weight: float = 1.0
    recon_weight: float = 1.0
    cls_weight: float = 0.05
    triplet_weight: float = 1.0
    center_weight: float = 0.5
    pos_recon_weight: float = 1e-4
    neg_recon_weight: float = 1e-4
    cam_weight: float = 1.0
    margin: float = 0.9

    def __post_init__(self):
        for name in ("id_weight", "recon_weight", "cls_weight", "triplet_weight",
                     "center_weight", "pos_recon_weight", "neg_recon_weight",
                     "cam_weight", "margin"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                # named by its run-config key
                raise ValueError(f"loss.{name} must be finite and >= 0, got {value!r}")


@dataclass
class TripletBatch:
    """Embeddings for query/positive/negative branches of one batch.

    Positive shares the query label; negative must differ, per entry.
    """

    query: DisentangledEmbedding
    positive: DisentangledEmbedding
    negative: DisentangledEmbedding
    query_labels: np.ndarray
    negative_labels: np.ndarray

    def __post_init__(self):
        self.query_labels = np.asarray(self.query_labels)
        self.negative_labels = np.asarray(self.negative_labels)
        n = self.query.id_feat.shape[0]
        if n < 1:
            raise ValueError("batch must contain at least one triplet")
        for emb in (self.query, self.positive, self.negative):
            if emb.id_feat.shape[0] != n or emb.app_feat.shape[0] != n:
                raise ValueError("query/positive/negative batch sizes disagree")
        if self.query_labels.shape != (n,) or self.negative_labels.shape != (n,):
            raise ValueError("labels must be one per batch entry")
        if np.any(self.query_labels == self.negative_labels):
            raise ValueError("negative label equals query label in some entry")


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """(B,) integer labels in [0, num_classes) -> (B, num_classes) float 0/1
    rows; a label outside that range is a ValueError.  Every loss that takes
    labels also takes these rows, so a step checks and builds them once."""
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _targets(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot rows of ``labels``, or ``labels`` itself when it already is
    (B, num_classes) rows."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        return one_hot(labels, num_classes)
    if labels.shape[1] != num_classes:
        raise ShapeError(f"one-hot rows {labels.shape} do not match {num_classes} classes")
    return labels


def triplet_loss(batch: TripletBatch, margin: float = 0.9) -> Tensor:
    """Hinge on squared Euclidean id-embedding distances, averaged over the
    batch: mean(max(d(q,p) - d(q,n) + margin, 0))."""
    q, p, n = batch.query.id_feat, batch.positive.id_feat, batch.negative.id_feat
    diff_p = q.data - p.data
    diff_n = q.data - n.data
    hinge = (diff_p * diff_p).sum(axis=1) - (diff_n * diff_n).sum(axis=1) + margin
    data = np.maximum(hinge, 0.0).sum() / hinge.size

    def rule(g):
        g_hinge = ad.relu_grad(np.full(hinge.shape, g / hinge.size), hinge > 0.0)
        grad_p = 2.0 * diff_p * g_hinge[:, None]
        grad_n = 2.0 * diff_n * (-g_hinge)[:, None]
        # the chain's order: (q - p) hands q then p its part, then (q - n)
        for t, grad in ((q, grad_p), (p, -grad_p), (q, grad_n), (n, -grad_n)):
            if t.requires_grad:
                t._accumulate(grad)

    return ad.node(data, (q, p, n), rule)


def _softmax_cross_entropy(z: np.ndarray, labels: np.ndarray):
    """Mean over rows of logsumexp(z) - sum(target * z) for (B, K) logit
    values and the one-hot rows ``target`` of ``labels``, with a detached
    row-max shift: (loss, exps, summed, target)."""
    if z.ndim != 2:
        raise ShapeError(f"logits must be (batch, classes), got {z.shape}")
    target = np.asarray(_targets(labels, z.shape[1]), dtype=np.float64)
    if target.shape != z.shape:
        raise ShapeError(f"logits {z.shape} vs one-hot rows {target.shape}")
    shift = z.max(axis=1, keepdims=True)
    exps = np.exp(z - shift)
    summed = exps.sum(axis=1)
    losses = np.log(summed) + shift.reshape(-1) - (z * target).sum(axis=1)
    return losses.sum() / losses.size, exps, summed, target


def _softmax_cross_entropy_grads(g, exps, summed, target):
    """The logits' two gradient contributions, in the order the chain adds them."""
    g_rows = np.full(summed.shape, g / summed.size)
    return exps * (g_rows / summed)[:, None], (-g_rows)[:, None] * target


def center_discrepancy_loss(id_feat: Tensor, labels: np.ndarray,
                            centers: np.ndarray) -> Tensor:
    """Softmax-over-centers pull/push: negative mean log-probability of the
    own-identity center under exp(-squared distance) scores.

    Pulls each embedding toward its identity's center and away from every
    other center at once, so no negative sampling is involved.  Centers are
    constants during backward; ``labels`` are integer labels or their
    ``one_hot`` rows.  One node: the distance chain's reshape, sub, square,
    sum and negation, then the cross-entropy over logits -d.
    """
    centers = np.asarray(centers, dtype=np.float64)
    x = id_feat.data
    if x.ndim != 2 or centers.ndim != 2 or centers.shape[1] != x.shape[1]:
        raise ShapeError(f"centers shape {centers.shape} does not match "
                         f"embeddings {x.shape}")
    rows, dim = x.shape
    diff = x.reshape(rows, 1, dim) - centers[None, :, :]
    data, exps, summed, target = _softmax_cross_entropy((diff * diff).sum(axis=2) * -1.0, labels)

    def rule(g):
        first, second = _softmax_cross_entropy_grads(g, exps, summed, target)
        g_dist = (first + second) * -1.0
        # the sum's backward materialises the (B, K, d) broadcast: a stride-0
        # operand would make the product below several times slower
        g_sq = np.broadcast_to(g_dist[:, :, None], diff.shape).copy()
        id_feat._accumulate((2.0 * diff * g_sq).sum(axis=1))

    return ad.node(data, (id_feat,), rule)


def classification_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy: mean(logsumexp(logits) - logit of the true label).
    ``labels`` are integer labels or their ``one_hot`` rows."""
    data, exps, summed, target = _softmax_cross_entropy(logits.data, labels)

    def rule(g):
        for grad in _softmax_cross_entropy_grads(g, exps, summed, target):
            logits._accumulate(grad)

    return ad.node(data, (logits,), rule)


def cam_classification_loss(cam_logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross-entropy on the activation-map head's logits.  Same arithmetic
    as classification_loss; kept separate because it trains a different head
    and is weighted and reported independently."""
    return classification_loss(cam_logits, labels)


def _l1_terms(outputs, targets, what: str) -> Tensor:
    """Sum over (output, target) pairs of mean |output - target|, added left
    to right; targets are constants."""
    diffs, data = [], None
    for output, target in zip(outputs, targets):
        target = np.asarray(target, dtype=np.float64)
        if output.shape != target.shape:
            raise ShapeError(f"{what} {output.shape} vs target {target.shape}")
        diffs.append(output.data - target)
        term = np.abs(diffs[-1]).sum() / diffs[-1].size
        data = term if data is None else data + term

    def rule(g):
        for t, diff in zip(outputs, diffs):
            if t.requires_grad:
                t._accumulate(np.full(diff.shape, g / diff.size) * np.sign(diff))

    return ad.node(data, tuple(outputs), rule)


def positive_recon_loss(aug_images, gray_query: np.ndarray,
                        gray_positive: np.ndarray) -> Tensor:
    """Sum of three mean-absolute-error terms between generator images and
    detached grayscale targets.

    ``aug_images`` order: (id_p + app_q, id_q + app_p, id_q + app_q); the
    first and third compare against the query's grayscale, the second
    against the positive's.
    """
    if len(aug_images) != 3:
        raise ValueError("expected the three augmented images")
    return _l1_terms(aug_images, (gray_query, gray_positive, gray_query), "image")


def negative_recon_loss(aug_taps, pseudo_from_query: np.ndarray,
                        pseudo_from_negative: np.ndarray) -> Tensor:
    """Sum of two mean-absolute-error terms between generator feature taps
    and detached pseudo-ground-truth maps.

    ``aug_taps`` order: (id_q + app_n, id_n + app_q-or-p); the first
    compares against the map built around the query's id regions, the
    second against the map built around the negative's.
    """
    if len(aug_taps) != 2:
        raise ValueError("expected the two augmented feature taps")
    return _l1_terms(aug_taps, (pseudo_from_query, pseudo_from_negative), "feature tap")


def total_loss(cls_term: Tensor, triplet_term: Tensor, center_term: Tensor,
               cam_term: Tensor, pos_recon_term: Tensor, neg_recon_term: Tensor,
               weights: LossWeights) -> Tensor:
    """Weighted sum: id_weight * (cls + triplet + center group) +
    recon_weight * (positive + negative + activation-map group), every sum
    added left to right."""
    w = weights
    data = ((cls_term.data * w.cls_weight + triplet_term.data * w.triplet_weight
             + center_term.data * w.center_weight) * w.id_weight
            + (pos_recon_term.data * w.pos_recon_weight
               + neg_recon_term.data * w.neg_recon_weight
               + cam_term.data * w.cam_weight) * w.recon_weight)

    def rule(g):
        g_id, g_recon = g * w.id_weight, g * w.recon_weight
        for t, grad in ((cls_term, g_id * w.cls_weight), (triplet_term, g_id * w.triplet_weight),
                        (center_term, g_id * w.center_weight),
                        (pos_recon_term, g_recon * w.pos_recon_weight),
                        (neg_recon_term, g_recon * w.neg_recon_weight),
                        (cam_term, g_recon * w.cam_weight)):
            if t.requires_grad:
                t._accumulate(grad)

    return ad.node(data, (cls_term, triplet_term, center_term, pos_recon_term,
                          neg_recon_term, cam_term), rule)
