"""Training objective: triplet, center-discrepancy, two cross-entropies,
and the two reconstruction terms, combined by a weighted total.

Conventions shared by every kernel here:
- batch-first tensors, scalar Tensor out, value always >= 0;
- reconstruction targets and cluster centers enter as plain numpy arrays,
  i.e. constants during backward;
- log-sum-exp terms use a detached max shift (same value, same gradient,
  no overflow);
- every loss, the weighted total included, is one fused autodiff node.
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


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def triplet_loss(batch: TripletBatch, margin: float = 0.9) -> Tensor:
    """Hinge on squared Euclidean id-embedding distances, averaged over the
    batch: mean(max(d(q,p) - d(q,n) + margin, 0))."""
    return ad.triplet_hinge(batch.query.id_feat, batch.positive.id_feat,
                            batch.negative.id_feat, margin)


def center_discrepancy_loss(id_feat: Tensor, labels: np.ndarray,
                            centers: np.ndarray) -> Tensor:
    """Softmax-over-centers pull/push: negative mean log-probability of the
    own-identity center under exp(-squared distance) scores.

    Pulls each embedding toward its identity's center and away from every
    other center at once, so no negative sampling is involved.  Centers are
    constants during backward.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != id_feat.shape[1]:
        raise ShapeError(f"centers shape {centers.shape} does not match "
                         f"embedding dim {id_feat.shape[1]}")
    # cross-entropy over logits -d: mean(d_own + logsumexp(-d))
    return ad.center_cross_entropy(id_feat, centers, _one_hot(labels, centers.shape[0]))


def classification_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy: mean(logsumexp(logits) - logit of the true label)."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be (batch, classes), got {logits.shape}")
    return ad.cross_entropy(logits, _one_hot(labels, logits.shape[1]))


def cam_classification_loss(cam_logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross-entropy on the activation-map head's logits.  Same arithmetic
    as classification_loss; kept separate because it trains a different head
    and is weighted and reported independently."""
    return classification_loss(cam_logits, labels)


def _l1_terms(outputs, targets, what: str) -> Tensor:
    """Sum over (output, target) pairs of mean |output - target|; targets
    are constants."""
    targets = [np.asarray(target, dtype=np.float64) for target in targets]
    for output, target in zip(outputs, targets):
        if output.shape != target.shape:
            raise ShapeError(f"{what} {output.shape} vs target {target.shape}")
    return ad.l1_terms(outputs, targets)


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
    recon_weight * (positive + negative + activation-map group)."""
    return ad.weighted_sum([
        (weights.id_weight, [(cls_term, weights.cls_weight),
                             (triplet_term, weights.triplet_weight),
                             (center_term, weights.center_weight)]),
        (weights.recon_weight, [(pos_recon_term, weights.pos_recon_weight),
                                (neg_recon_term, weights.neg_recon_weight),
                                (cam_term, weights.cam_weight)])])
