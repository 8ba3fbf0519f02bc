"""Training loop: triplet sampling, augmentation, the six-part objective,
Adam updates, loss logging, and checkpoints.

Determinism contract: every step draws from a fresh generator seeded by
(run seed, 1, step index); ``draw_step`` takes all of a step's draws in a
fixed order and ``step_losses`` then draws nothing.  Model init
uses (run seed, 0), dataset synthesis uses (data seed, 2).  A run resumed
from a checkpoint therefore replays the exact remaining trajectory.
"""
from __future__ import annotations

import math
import os

import numpy as np

from .autodiff import Adam
from .cam import augment_negative, augment_positive, build_pseudo_gt_batch, generate_swaps
from .checkpoint import load_checkpoint, save_checkpoint
from .clusters import ClusterRegistry
from .config import ConfigError, RunConfig
# the step draws through sample_triplets; sample_triplet stays importable from
# here because perfbench fills the sampler's index through this name
from .data import (Dataset, generate, load_dataset, randomly_grayscale,  # noqa: F401
                   sample_triplet, sample_triplets, to_grayscale)
from .losses import (TripletBatch, cam_classification_loss,
                     center_discrepancy_loss, classification_loss,
                     negative_recon_loss, one_hot, positive_recon_loss,
                     total_loss, triplet_loss)
from .networks import DisentangledEmbedding, ReidModel

LOG_HEADER = ("step,cls_loss,triplet_loss,center_loss,cam_loss,"
              "pos_recon_loss,neg_recon_loss,total_loss")


class Trainer:
    """Runs the full objective over random triplets and records per-step
    component losses.  The dataset is the one given, else the configured
    path's, else the manifest's synthesis; an image shape other than the
    network's, or a label of net.num_identities or more, is a ConfigError."""

    def __init__(self, config: RunConfig, dataset: Dataset | None = None,
                 model: ReidModel | None = None, optimizer: Adam | None = None,
                 registry: ClusterRegistry | None = None, start_step: int = 0):
        if dataset is None:
            dataset = load_dataset(config.data_path) if config.data_path else generate(config.data)
        if dataset.images.shape[1:] != config.network.image_shape:
            raise ConfigError(f"dataset images {dataset.images.shape[1:]} do not "
                              f"match network input {config.network.image_shape}")
        if int(dataset.labels.max()) >= config.network.num_identities:
            raise ConfigError("dataset has more identities than the classifier heads")
        self.config = config
        self.dataset = dataset
        self.model = model if model is not None else ReidModel(config.network, config.seed)
        self.optimizer = optimizer if optimizer is not None else Adam(
            self.model.params, lr=config.learning_rate, beta1=config.beta1,
            beta2=config.beta2, epsilon=config.epsilon)
        self.registry = registry if registry is not None else ClusterRegistry()
        self.step = int(start_step)
        self.loss_rows: list[tuple] = []

    @classmethod
    def from_checkpoint(cls, ckpt_dir, config: RunConfig,
                        dataset: Dataset | None = None) -> "Trainer":
        """Resume: the checkpoint supplies the state (parameters, Adam moments and
        t, centers and their epoch, step); the run config all else, all four Adam
        settings and the center refresh period too."""
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
        checkpoints under the configured output directory; the log holds
        every row before a checkpoint's step when the checkpoint is written.
        A run that starts past step 0 keeps an existing loss log's first
        ``step`` rows, which must be steps 0 .. step - 1 (else ValueError, the
        log untouched), cuts the log after them and appends there."""
        cfg = self.config
        total_steps = cfg.epochs * cfg.steps_per_epoch
        os.makedirs(cfg.out_dir, exist_ok=True)
        log_path = os.path.join(cfg.out_dir, "loss_log.csv")
        resuming = self.step > 0 and os.path.exists(log_path)
        if resuming:
            os.truncate(log_path, _kept_log_end(log_path, self.step))
        with open(log_path, "a" if resuming else "w") as log:
            if not resuming:
                log.write(LOG_HEADER + "\n")
            while self.step < total_steps:
                if self.step % cfg.steps_per_epoch == 0:
                    epoch = self.step // cfg.steps_per_epoch
                    if save_checkpoints and epoch > 0:
                        log.flush()
                        self._save(f"ckpt_step_{self.step}")
                    last = self.registry.last_refresh_epoch
                    if last is None or epoch - last >= cfg.refresh_period_epochs:
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
                        self.optimizer, self.registry, self.step, self.config)

    @staticmethod
    def _format_row(row: tuple) -> str:
        return ",".join([str(row[0])] + [repr(float(v)) for v in row[1:]])

    def train_step(self) -> tuple:
        """One optimization step.  Returns the logged loss row.  A
        non-finite loss component raises ValueError before backward, so the
        parameters and Adam state stay as they were."""
        cfg = self.config
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1, self.step)))
        losses = step_losses(self.model, *draw_step(self.dataset, rng, cfg),
                             self.registry.centers_matrix(), cfg)
        row = (self.step,) + tuple(loss.item() for loss in losses)
        for name, value in zip(LOG_HEADER.split(",")[1:], row[1:]):
            if not math.isfinite(value):
                raise ValueError(f"step {self.step}: non-finite {name} ({value!r}); "
                                 "stopped before the update")
        losses[-1].backward()
        self.optimizer.step()
        self.loss_rows.append(row)
        self.step += 1
        return row


def draw_step(dataset: Dataset, rng: np.random.Generator, config: RunConfig) -> tuple:
    """One step's random inputs in the contract's order (triplets, grayscale coins, then the
    id-dropout keep mask, None at rate 0): (images as query, positive and negative row
    blocks, keep, query labels, negative labels)."""
    q_idx, p_idx, n_idx = sample_triplets(dataset, rng, config.batch_size)
    images, _ = randomly_grayscale(dataset.images[np.concatenate([q_idx, p_idx, n_idx])],
                                   rng, config.grayscale_prob)
    rate = config.network.id_dropout
    keep = None if rate == 0.0 else (
        rng.random((len(images), config.network.id_dim)) >= rate).astype(np.float64)
    return images, keep, dataset.labels[q_idx], dataset.labels[n_idx]


def step_losses(model: ReidModel, images: np.ndarray, keep, y_q: np.ndarray,
                y_n: np.ndarray, centers: np.ndarray, config: RunConfig) -> tuple:
    """(cls, triplet, center, cam, positive recon, negative recon, total) losses
    of one drawn step; draws nothing.  The query labels' one-hot rows are built
    once and shared by the three cross-entropies."""
    size = len(y_q)
    features = model.backbone_forward(images)
    emb_all = model.separator_forward(features, keep)
    q_rows, p_rows, n_rows = slice(size), slice(size, 2 * size), slice(2 * size, None)
    emb_q, emb_p, emb_n = (DisentangledEmbedding(emb_all.id_feat[rows], emb_all.app_feat[rows])
                           for rows in (q_rows, p_rows, n_rows))

    target = one_hot(y_q, config.network.num_identities)
    tri = triplet_loss(TripletBatch(emb_q, emb_p, emb_n, y_q, y_n), config.loss.margin)
    center = center_discrepancy_loss(emb_q.id_feat, target, centers)
    cls = classification_loss(model.classifier_forward(emb_q), target)
    cam = cam_classification_loss(model.cam_logits(features[q_rows]), target)

    images_out, taps = generate_swaps(
        model, augment_positive(emb_q, emb_p),
        augment_negative(emb_q, emb_n, config.swap_negative_appearance, emb_p))
    gray = to_grayscale(images[:2 * size])
    pos = positive_recon_loss(images_out, gray[:size], gray[size:])

    f_q, f_n = features.data[q_rows], features.data[n_rows]
    pseudo_q, pseudo_n = build_pseudo_gt_batch(
        f_q, f_n, model.cam_maps(f_q, y_q), model.cam_maps(f_n, y_n))
    neg = negative_recon_loss(taps, pseudo_q, pseudo_n)
    return cls, tri, center, cam, pos, neg, total_loss(cls, tri, center, cam, pos, neg, config.loss)


def _kept_log_end(log_path, step: int) -> int:
    """The byte offset past row ``step - 1`` of a loss log; ValueError unless
    its header and first ``step`` rows are whole rows of steps 0 .. step - 1."""
    with open(log_path, "rb") as handle:
        for line_no, start in enumerate([LOG_HEADER + "\n"] + [f"{k}," for k in range(step)], 1):
            line = handle.readline()
            if not (line.startswith(start.encode()) and line.endswith(b"\n")):
                raise ValueError(f"{log_path} does not hold exactly the rows of steps 0.."
                                 f"{step - 1} to resume after (line {line_no} is not a "
                                 f"whole line starting {start.rstrip()!r})")
        return handle.tell()


def read_loss_log(path) -> list:
    """Loss log rows as (step, floats...) tuples.  A row that is not eight
    numbers, like a killed run's torn last row, is a ValueError naming the
    file and the line."""
    with open(path) as handle:
        lines = [(line_no, line.strip()) for line_no, line in enumerate(handle, 1)
                 if line.strip()]
    if not lines or lines[0][1] != LOG_HEADER:
        raise ValueError(f"unexpected loss log header in {path}")
    width = len(LOG_HEADER.split(","))
    rows = []
    for line_no, line in lines[1:]:
        cells = line.split(",")
        try:
            row = (int(cells[0]),) + tuple(float(c) for c in cells[1:])
        except ValueError:
            row = ()
        if len(row) != width:
            raise ValueError(f"{path} line {line_no}: {line!r} is not a row of "
                             f"{width} numbers")
        rows.append(row)
    return rows
