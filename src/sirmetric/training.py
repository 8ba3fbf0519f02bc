"""Training loop: triplet sampling, augmentation, the six-part objective,
Adam updates, loss logging, and checkpoints.

Determinism contract: every step draws from a fresh generator seeded by
(run seed, 1, step index), consuming randomness in a fixed order (triplet
index draws, then grayscale coins, then the dropout mask).  Model init
uses (run seed, 0), dataset synthesis uses (data seed, 2).  A run resumed
from a checkpoint therefore replays the exact remaining trajectory.
"""
from __future__ import annotations

import math
import os

import numpy as np

from .autodiff import Adam
from .cam import augment_negative, augment_positive, build_pseudo_gt_batch
from .checkpoint import load_checkpoint, save_checkpoint
from .clusters import ClusterRegistry
from .config import ConfigError, RunConfig
from .data import (Dataset, generate, load_dataset, randomly_grayscale,
                   sample_triplet, to_grayscale)
from .losses import (TripletBatch, cam_classification_loss,
                     center_discrepancy_loss, classification_loss,
                     negative_recon_loss, positive_recon_loss, total_loss,
                     triplet_loss)
from .networks import DisentangledEmbedding, ReidModel

LOG_HEADER = ("step,cls_loss,triplet_loss,center_loss,cam_loss,"
              "pos_recon_loss,neg_recon_loss,total_loss")


def resolve_dataset(config: RunConfig) -> Dataset:
    """Load the configured dataset path or synthesize from the manifest."""
    if config.data_path:
        dataset = load_dataset(config.data_path)
    else:
        dataset = generate(config.data)
    if dataset.images.shape[1:] != config.network.image_shape:
        raise ConfigError(f"dataset images {dataset.images.shape[1:]} do not "
                          f"match network input {config.network.image_shape}")
    if int(dataset.labels.max()) >= config.network.num_identities:
        raise ConfigError("dataset has more identities than the classifier heads")
    return dataset


class Trainer:
    """Runs the full objective over random triplets and records per-step
    component losses."""

    def __init__(self, config: RunConfig, dataset: Dataset | None = None,
                 model: ReidModel | None = None, optimizer: Adam | None = None,
                 registry: ClusterRegistry | None = None, start_step: int = 0):
        self.config = config
        self.dataset = dataset if dataset is not None else resolve_dataset(config)
        self.model = model if model is not None else ReidModel(config.network, config.seed)
        self.optimizer = optimizer if optimizer is not None else Adam(
            self.model.params, lr=config.learning_rate, beta1=config.beta1,
            beta2=config.beta2, epsilon=config.epsilon)
        self.registry = registry if registry is not None else ClusterRegistry(
            config.refresh_period_epochs)
        self.step = int(start_step)
        self.loss_rows: list[tuple] = []

    @classmethod
    def from_checkpoint(cls, ckpt_dir, config: RunConfig,
                        dataset: Dataset | None = None) -> "Trainer":
        """Resume: the checkpoint supplies the state (parameters, Adam moments and
        t, centers, step); the run config all else, all four Adam settings too."""
        model, optimizer, registry, meta = load_checkpoint(ckpt_dir)
        if model.config != config.network:
            raise ConfigError("checkpoint network configuration does not match "
                              "the run config")
        optimizer.lr, optimizer.beta1, optimizer.beta2, optimizer.epsilon = (
            config.learning_rate, config.beta1, config.beta2, config.epsilon)
        return cls(config, dataset=dataset, model=model, optimizer=optimizer,
                   registry=registry, start_step=meta.parse("step", int))

    def run(self, save_checkpoints: bool = True) -> list:
        """Train to epochs * steps_per_epoch total steps (continuing from
        the current step), logging losses and writing per-epoch
        checkpoints under the configured output directory.  A run that
        starts past step 0 keeps the rows of an existing loss log that
        precede its step and appends after them."""
        cfg = self.config
        total_steps = cfg.epochs * cfg.steps_per_epoch
        os.makedirs(cfg.out_dir, exist_ok=True)
        log_path = os.path.join(cfg.out_dir, "loss_log.csv")
        kept = []
        if self.step > 0 and os.path.exists(log_path):
            kept = [row for row in read_loss_log(log_path) if row[0] < self.step]
        with open(log_path, "w") as log:
            log.write(LOG_HEADER + "\n")
            for row in kept:
                log.write(self._format_row(row) + "\n")
            while self.step < total_steps:
                if self.step % cfg.steps_per_epoch == 0:
                    epoch = self.step // cfg.steps_per_epoch
                    if save_checkpoints and epoch > 0:
                        self._save(f"ckpt_step_{self.step}")
                    if self.registry.should_refresh(epoch):
                        self._refresh_centers(epoch)
                row = self.train_step()
                log.write(self._format_row(row) + "\n")
        if save_checkpoints:
            self._save("ckpt_final")
        return self.loss_rows

    def _refresh_centers(self, epoch: int) -> None:
        train_idx = self.dataset.train_idx
        self.registry.refresh(self.dataset.images[train_idx],
                              self.dataset.labels[train_idx],
                              self.model, epoch)

    def _save(self, name: str) -> None:
        save_checkpoint(os.path.join(self.config.out_dir, name), self.model,
                        self.optimizer, self.registry, self.step,
                        eval_alpha=self.config.eval_alpha,
                        eval_flip=self.config.eval_flip)

    @staticmethod
    def _format_row(row: tuple) -> str:
        return ",".join([str(row[0])] + [repr(float(v)) for v in row[1:]])

    def train_step(self) -> tuple:
        """One optimization step.  Returns the logged loss row.  A
        non-finite loss component raises ValueError before backward, so the
        parameters and Adam state stay as they were."""
        cfg = self.config
        if not self.registry.centers:
            raise RuntimeError("cluster registry is empty; refresh before stepping")
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1, self.step)))
        size = cfg.batch_size

        triplets = [sample_triplet(self.dataset, rng) for _ in range(size)]
        q_idx, p_idx, n_idx = (np.array(part) for part in zip(*triplets))
        stacked_idx = np.concatenate([q_idx, p_idx, n_idx])
        images, _ = randomly_grayscale(self.dataset.images[stacked_idx], rng,
                                       cfg.grayscale_prob)
        y_q = self.dataset.labels[q_idx]
        y_n = self.dataset.labels[n_idx]

        features = self.model.backbone_forward(images)
        emb_all = self.model.separator_forward(features, train_mode=True, rng=rng)
        q_rows, p_rows, n_rows = slice(size), slice(size, 2 * size), slice(2 * size, None)
        emb_q = DisentangledEmbedding(emb_all.id_feat[q_rows], emb_all.app_feat[q_rows])
        emb_p = DisentangledEmbedding(emb_all.id_feat[p_rows], emb_all.app_feat[p_rows])
        emb_n = DisentangledEmbedding(emb_all.id_feat[n_rows], emb_all.app_feat[n_rows])

        batch = TripletBatch(emb_q, emb_p, emb_n, y_q, y_n)
        tri = triplet_loss(batch, cfg.loss.margin)
        center = center_discrepancy_loss(emb_q.id_feat, y_q,
                                         self.registry.centers_matrix())
        cls = classification_loss(self.model.classifier_forward(emb_q), y_q)
        cam = cam_classification_loss(self.model.cam_logits(features[q_rows]), y_q)

        gray = to_grayscale(images[:2 * size])
        pos = positive_recon_loss(augment_positive(emb_q, emb_p, self.model),
                                  gray[:size], gray[size:])

        feature_values = features.data
        f_q = feature_values[:size]
        f_n = feature_values[2 * size:]
        pseudo_q, pseudo_n = build_pseudo_gt_batch(
            f_q, f_n, self.model.cam_maps(f_q, y_q), self.model.cam_maps(f_n, y_n))
        taps = augment_negative(emb_q, emb_n, self.model,
                                swap_second_appearance=cfg.swap_negative_appearance,
                                emb_positive=emb_p)
        neg = negative_recon_loss(taps, pseudo_q, pseudo_n)

        total = total_loss(cls, tri, center, cam, pos, neg, cfg.loss)
        row = (self.step, cls.item(), tri.item(), center.item(), cam.item(),
               pos.item(), neg.item(), total.item())
        for name, value in zip(LOG_HEADER.split(",")[1:], row[1:]):
            if not math.isfinite(value):
                raise ValueError(f"step {self.step}: non-finite {name} ({value!r}); "
                                 "stopped before the update")
        total.backward()
        self.optimizer.step()
        self.loss_rows.append(row)
        self.step += 1
        return row


def read_loss_log(path) -> list:
    """Loss log rows as (step, floats...) tuples."""
    with open(path) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines or lines[0] != LOG_HEADER:
        raise ValueError(f"unexpected loss log header in {path}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append((int(cells[0]),) + tuple(float(c) for c in cells[1:]))
    return rows
