"""Synthetic long-term re-identification data: each identity has a fixed
"face" band at the top of the image and draws a fresh appearance (clothes
and background stand-in) for every sample, so matching across samples only
works through the identity band.

Also hosts the random triplet sampler and the image transforms used in
training and evaluation.  The data path is batch-first: ``generate``
renders every image from one uniform draw, and ``to_grayscale`` converts a
single image or a whole batch in one call.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blobio import ArchiveError, field_table, read_archive, write_archive

LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])


@dataclass(frozen=True)
class DatasetManifest:
    """Counts, shapes, and seed that fully determine a synthetic dataset.

    Per identity the first ``train_per_identity`` samples form the train
    split, then ``query_per_identity``, then ``gallery_per_identity``; the
    splits are disjoint by construction and every query identity has
    gallery samples.
    """

    num_identities: int = 10
    samples_per_identity: int = 20
    train_per_identity: int = 12
    query_per_identity: int = 4
    gallery_per_identity: int = 4
    seed: int = 0
    image_shape: tuple = (1, 16, 8)
    appearance_bands: int = 6

    def __post_init__(self):
        if self.seed < 0:  # named by its run-config key
            raise ValueError(f"data.seed must be >= 0, got {self.seed!r}")
        if self.num_identities < 2:
            raise ValueError("need at least 2 identities")
        for name, least in (("query_per_identity", 0), ("gallery_per_identity", 0),
                            ("appearance_bands", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"data.{name} must be >= {least}, got {getattr(self, name)!r}")
        split = self.train_per_identity + self.query_per_identity + self.gallery_per_identity
        if split != self.samples_per_identity:
            raise ValueError(f"splits sum to {split}, expected {self.samples_per_identity}")
        if self.train_per_identity < 2:
            raise ValueError("triplet sampling needs >= 2 train samples per identity")
        if self.query_per_identity >= 1 and self.gallery_per_identity < 1:
            raise ValueError("every query identity must appear in the gallery")
        channels, height, width = self.image_shape
        if channels < 1 or height < 4 or width < 1:
            raise ValueError(f"image shape too small: {self.image_shape}")
        if (height - self.identity_rows) % self.appearance_bands:
            raise ValueError("appearance bands must tile the non-identity rows evenly")

    @property
    def identity_rows(self) -> int:
        # the "face" band: top quarter of the image
        return self.image_shape[1] // 4

    @property
    def band_rows(self) -> int:
        return (self.image_shape[1] - self.identity_rows) // self.appearance_bands


@dataclass
class Dataset:
    images: np.ndarray          # (N, C, H, W), values in [0, 1]
    labels: np.ndarray          # (N,) int
    train_idx: np.ndarray
    query_idx: np.ndarray
    gallery_idx: np.ndarray
    manifest: DatasetManifest
    _sampler_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def generate(manifest: DatasetManifest) -> Dataset:
    """Render the full dataset with its per-identity train/query/gallery
    split, deterministically from the manifest.

    One uniform draw with a row per identity: its (C, identity_rows, W)
    signature, then one (C, appearance_bands) vector per sample.  Sample j
    of identity i is image i * samples_per_identity + j: the signature on
    top, each appearance value widened into a constant band below.
    """
    channels, height, width = manifest.image_shape
    ids, per_id = manifest.num_identities, manifest.samples_per_identity
    rows, bands = manifest.identity_rows, manifest.appearance_bands
    signature_size = channels * rows * width
    rng = np.random.default_rng(np.random.SeedSequence((int(manifest.seed), 2)))
    draws = rng.uniform(size=(ids, signature_size + per_id * channels * bands))
    images = np.empty((ids, per_id, channels, height, width))
    images[:, :, :, :rows] = draws[:, :signature_size].reshape(ids, 1, channels, rows, width)
    appearances = draws[:, signature_size:].reshape(ids, per_id, channels, bands)
    images[:, :, :, rows:] = np.repeat(appearances, manifest.band_rows, axis=-1)[..., None]
    total = ids * per_id
    split = np.digitize(np.arange(total) % per_id,
                        [manifest.train_per_identity,
                         manifest.train_per_identity + manifest.query_per_identity])
    train, query, gallery = (np.flatnonzero(split == part) for part in range(3))
    return Dataset(images.reshape(total, channels, height, width),
                   np.arange(total) // per_id, train, query, gallery, manifest)


def _sampler_index(dataset: Dataset) -> dict:
    """The triplet sampler's per-dataset index, built by the first call in
    O(T log T) time and O(T) memory for T train samples and cached on the
    dataset: the train samples grouped by identity in train order, each
    member's group, the group starts and counts, the eligible members'
    positions (groups of two or more), their common group size m (0 when
    the sizes differ), and the ascending negative keys."""
    index = dataset._sampler_cache
    if not index:
        labels = dataset.labels[dataset.train_idx]
        positions = np.argsort(labels, kind="stable")
        _, starts, counts = np.unique(labels[positions], return_index=True, return_counts=True)
        group = np.repeat(np.arange(len(counts)), counts)
        # position_j - j + start counts the non-members before member j; the
        # offset group * (T + 1) makes the keys ascend across groups too
        total = len(labels)
        keys = positions - np.arange(total) + starts[group] + group * (total + 1)
        sizes = np.unique(counts[counts >= 2])
        index.update(members=dataset.train_idx[positions], group=group, starts=starts,
                     counts=counts, eligible=np.flatnonzero(counts[group] >= 2),
                     size=int(sizes[0]) if len(sizes) == 1 else 0, keys=keys)
    return index


def sample_triplet(dataset: Dataset, rng) -> tuple:
    """One triplet of sample_triplets, as ints."""
    return tuple(int(part[0]) for part in sample_triplets(dataset, rng, 1))


def sample_triplets(dataset: Dataset, rng, count: int) -> tuple:
    """``count`` uniform random triplets as (query, positive, negative)
    train index arrays.

    Query is uniform over train samples of identities with at least two
    train samples; positive is a different sample of the same identity;
    negative is any train sample of another identity.  Three draws per
    triplet, in that order: the query's position among the E eligible
    samples, the positive's among the query identity's m - 1 other
    samples, and the negative's rank among the T - m non-members.  When
    every eligible identity has the same m, one ``rng.integers`` call with
    those bounds repeated ``count`` times takes the same draws.
    """
    index = _sampler_index(dataset)
    eligible, group, starts = index["eligible"], index["group"], index["starts"]
    if not len(eligible):
        raise ValueError("no identity has >= 2 train samples")
    if len(starts) == 1:
        raise ValueError("no negative candidates outside the query identity")
    total, size = len(group), index["size"]
    if size:
        draws = rng.integers(0, np.array([len(eligible), size - 1, total - size] * count))
    else:
        draws = []
        for _ in range(count):
            position = rng.integers(len(eligible))
            m = index["counts"][group[eligible[position]]]
            draws += [position, rng.integers(m - 1), rng.integers(total - m)]
    position, j, k = np.asarray(draws, dtype=np.int64).reshape(count, 3).T
    query = eligible[position]
    g = group[query]
    start = starts[g]
    # skip the query's slot for the positive; the k-th non-member sits after
    # the members whose key is <= k
    positive = start + j + (j >= query - start)
    negative = k + index["keys"].searchsorted(g * (total + 1) + k, side="right") - start
    return index["members"][query], index["members"][positive], dataset.train_idx[negative]


def to_grayscale(images: np.ndarray) -> np.ndarray:
    """(..., 3, H, W) -> (..., 1, H, W) luminance, for one image or any
    batch; single-channel input passes through unchanged."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim < 3:
        raise ValueError(f"expected (..., C, H, W), got {images.shape}")
    if images.shape[-3] == 1:
        return images.copy()
    if images.shape[-3] == 3:
        return np.einsum("c,...chw->...hw", LUMA_WEIGHTS, images)[..., None, :, :]
    raise ValueError(f"grayscale conversion needs 1 or 3 channels, got {images.shape[-3]}")


def horizontal_flip(image: np.ndarray) -> np.ndarray:
    """Reverse the width axis, as a view; works on single images or batches."""
    return np.asarray(image)[..., ::-1]


def randomly_grayscale(images: np.ndarray, rng, probability: float = 0.1):
    """Per-image coin flip: replace hit images with their grayscale version
    replicated across channels.  Returns (images, applied mask).  Always
    consumes exactly one uniform draw per image."""
    images = np.asarray(images, dtype=np.float64)
    applied = rng.random(images.shape[0]) < probability
    out = images.copy()
    out[applied] = to_grayscale(images[applied])
    return out, applied


_MANIFEST_TABLE = field_table(DatasetManifest)
_INT_TENSORS = ("labels", "train_idx", "query_idx", "gallery_idx")


def save_dataset(dataset: Dataset, dir_path) -> None:
    meta = {"kind": "dataset",
            **{key: getattr(dataset.manifest, name) for key, name, _ in _MANIFEST_TABLE}}
    tensors = {name: getattr(dataset, name) for name in ("images",) + _INT_TENSORS}
    write_archive(dir_path, meta, tensors)


def load_dataset(dir_path) -> Dataset:
    """Read a dataset archive.  Images must be (num_identities *
    samples_per_identity,) + image_shape; labels and the three split index
    tensors must be 1-D and integral, with labels one per image in
    [0, num_identities) and every index in [0, number of images), no image
    in two splits or twice in one; otherwise ArchiveError names the tensor
    and the directory."""
    meta, tensors = read_archive(dir_path)
    if meta.get("kind") != "dataset":
        raise ValueError(f"archive at {dir_path} is not a dataset "
                         f"(kind={meta.get('kind')!r})")
    manifest = DatasetManifest(**meta.decode_fields(_MANIFEST_TABLE))
    images = tensors["images"]
    expected = (manifest.num_identities * manifest.samples_per_identity,) + manifest.image_shape
    if images.shape != expected:
        raise ArchiveError(f"archive {dir_path}: tensor 'images' has shape {images.shape}, "
                           f"the manifest gives {expected}")
    arrays = {}
    for name in _INT_TENSORS:
        values = tensors[name]
        if values.ndim != 1 or not np.all(np.isfinite(values) & (values == np.floor(values))):
            raise ArchiveError(f"archive {dir_path}: tensor {name!r} is not 1-D integral")
        arrays[name] = values.astype(np.int64)
    labels = arrays["labels"]
    if len(labels) != len(images):
        raise ArchiveError(f"archive {dir_path}: tensor 'labels' is not one per image")
    if np.any((labels < 0) | (labels >= manifest.num_identities)):
        raise ArchiveError(f"archive {dir_path}: tensor 'labels' lies outside "
                           f"[0, {manifest.num_identities})")
    for name in _INT_TENSORS[1:]:
        if np.any((arrays[name] < 0) | (arrays[name] >= len(images))):
            raise ArchiveError(f"archive {dir_path}: tensor {name!r} indexes outside "
                               f"[0, {len(images)})")
    counts = np.bincount(np.concatenate([arrays[name] for name in _INT_TENSORS[1:]]))
    if np.any(counts > 1):
        index = int(np.argmax(counts > 1))
        names = " and ".join(repr(n) for n in _INT_TENSORS[1:] if np.any(arrays[n] == index))
        raise ArchiveError(f"archive {dir_path}: image {index} is listed {counts[index]} times "
                           f"in {names}; the split indices must be distinct")
    return Dataset(images=images, manifest=manifest, **arrays)
