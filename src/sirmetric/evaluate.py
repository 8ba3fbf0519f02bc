"""Retrieval evaluation: embedding fusion, distance ranking, CMC, and mAP.

Fused vector = [id embedding | appearance embedding | alpha * pooled
backbone features], optionally averaged with the horizontally flipped
image's vector.  Ranking is ascending Euclidean distance with ties broken
by gallery index.  Distances come from the squared-norm expansion
||q||^2 + ||g||^2 - 2 q.g, one matrix product into one (Q, N_g) buffer, and
equal the direct ||q - g|| up to rounding.  CMC and mAP are derived from
the positions of the relevant gallery items alone.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, horizontal_flip
from .networks import ReidModel


@dataclass
class RetrievalResult:
    cmc: np.ndarray             # (num_gallery,), cumulative match rate at k=1..N_g
    mean_ap: float
    num_queries_without_match: int
    num_queries: int
    num_gallery: int

    def rank_k(self, k: int) -> float:
        """CMC at rank k, clamped to the gallery size."""
        if k < 1:
            raise ValueError("rank index starts at 1")
        return float(self.cmc[min(k, self.num_gallery) - 1])


def fuse_embeddings(images: np.ndarray, model: ReidModel, alpha: float = 0.55,
                    use_flip: bool = True) -> np.ndarray:
    """Batch of images -> (N, d_I + d_A + C_b) fused vectors, from the
    model's eval-mode ``embed`` pass."""
    if not math.isfinite(alpha):
        raise ValueError(f"fusion alpha must be finite, got {alpha!r}")
    views = (images, horizontal_flip(images)) if use_flip else (images,)
    fused = [np.concatenate([id_feat, app_feat, alpha * features.mean(axis=(2, 3))], axis=1)
             for id_feat, app_feat, features in map(model.embed, views)]
    return 0.5 * (fused[0] + fused[1]) if use_flip else fused[0]


def rank_all(query_vectors: np.ndarray, gallery_vectors: np.ndarray):
    """Ascending-Euclidean gallery order for every query: (Q, N_g) index
    matrix and the distances in that order.  Equal distances keep
    gallery-index order."""
    queries = np.asarray(query_vectors, dtype=np.float64)
    gallery = np.asarray(gallery_vectors, dtype=np.float64)
    if (gallery.ndim != 2 or gallery.shape[0] == 0 or queries.ndim != 2
            or queries.shape[1] != gallery.shape[1]):
        raise ValueError("need (Q, dim) queries and a non-empty (N, dim) gallery, "
                         f"got shapes {queries.shape} and {gallery.shape}")
    # ||q||^2 + ||g||^2 - 2 q.g in one (Q, N_g) buffer, the same operations
    # in the same order as the plain expression, so the bits match it
    distances = (queries * queries).sum(axis=1)[:, None] + (gallery * gallery).sum(axis=1)
    cross = queries @ gallery.T
    cross *= 2.0
    distances -= cross
    del cross
    np.maximum(distances, 0.0, out=distances)
    np.sqrt(distances, out=distances)
    # One row sort of int64 keys: a distance's bits (nonnegative floats order as
    # their bits) with the low bits replaced by the gallery index, then the
    # distances put in that order in place, 64 rows at a time.  A row that does
    # not strictly increase is sorted again stably: by value, ties by index.
    mask = (1 << (gallery.shape[0] - 1).bit_length()) - 1
    order = distances.view(np.int64) & ~mask
    order |= np.arange(gallery.shape[0])
    order.sort(axis=1)
    order &= mask
    row_starts = np.arange(0, distances.size, gallery.shape[0])[:, None]
    for start in range(0, len(order), 64):
        rows = slice(start, start + 64)
        distances[rows] = np.take(distances, order[rows] + row_starts[rows])
    unstable = ~np.all(distances[:, 1:] > distances[:, :-1], axis=1)
    if unstable.any():
        perm = np.lexsort((order[unstable], distances[unstable]))
        order[unstable] = np.take_along_axis(order[unstable], perm, axis=1)
        distances[unstable] = np.take_along_axis(distances[unstable], perm, axis=1)
    return order, distances


def cmc_and_map(rank_indices: np.ndarray, query_labels: np.ndarray,
                gallery_labels: np.ndarray) -> RetrievalResult:
    """Cumulative match curve over k = 1..N_g and mean average precision.

    CMC counts every query; queries with no relevant gallery item can never
    hit.  Such queries are excluded from mAP and reported in
    ``num_queries_without_match``.
    """
    rank_indices = np.asarray(rank_indices)
    query_labels = np.asarray(query_labels)
    gallery_labels = np.asarray(gallery_labels)
    if gallery_labels.size == 0:
        raise ValueError("empty gallery")
    if rank_indices.shape != (len(query_labels), len(gallery_labels)):
        raise ValueError(f"rank indices {rank_indices.shape} do not match the label counts")
    matches = np.empty(rank_indices.shape, dtype=bool)
    for start in range(0, len(matches), 64):   # no (Q, N_g) label matrix
        rows = slice(start, start + 64)
        matches[rows] = np.take(gallery_labels, rank_indices[rows]) == query_labels[rows, None]
    num_queries, num_gallery = matches.shape
    # hits in row-major order: a hit's count so far is its ordinal in its row
    rows, cols = np.divmod(np.flatnonzero(matches), num_gallery)
    total_relevant = np.bincount(rows, minlength=num_queries)
    row_starts = np.cumsum(total_relevant) - total_relevant
    hits = np.arange(1, rows.size + 1) - row_starts[rows]
    matched = total_relevant > 0
    # CMC at k: the queries whose first hit lies at rank <= k, over all queries
    first_hits = np.bincount(cols[row_starts[matched]], minlength=num_gallery)
    cmc = np.cumsum(first_hits) / num_queries
    # precision at each hit: hits so far over its 1-based rank
    precision_sums = np.bincount(rows, weights=hits / (cols + 1), minlength=num_queries)
    aps = precision_sums[matched] / total_relevant[matched]
    mean_ap = float(aps.mean()) if aps.size else 0.0
    return RetrievalResult(cmc, mean_ap, int((~matched).sum()), num_queries, num_gallery)


def evaluate_retrieval(dataset: Dataset, model: ReidModel, alpha: float = 0.55,
                       use_flip: bool = True):
    """Embed the query and gallery splits, rank, and score.  Returns
    (RetrievalResult, rank index matrix, ranked distance matrix)."""
    query_vecs, gallery_vecs = (fuse_embeddings(dataset.images[split], model, alpha, use_flip)
                                for split in (dataset.query_idx, dataset.gallery_idx))
    order, distances = rank_all(query_vecs, gallery_vecs)
    result = cmc_and_map(order, dataset.labels[dataset.query_idx],
                         dataset.labels[dataset.gallery_idx])
    return result, order, distances


def metrics_json(result: RetrievalResult, alpha: float) -> str:
    """The metrics document consumed by scripts and the eval command."""
    return json.dumps({
        "rank1": result.rank_k(1),
        "rank5": result.rank_k(5),
        "rank10": result.rank_k(10),
        "map": result.mean_ap,
        "num_queries": result.num_queries,
        "num_gallery": result.num_gallery,
        "alpha": alpha,
    }, indent=2)


def write_embeddings_csv(path, sample_ids, labels, id_feats: np.ndarray,
                         app_feats: np.ndarray) -> None:
    """Embedding table for external plotting: sample_id, label, then the id
    and appearance components."""
    id_feats = np.asarray(id_feats)
    app_feats = np.asarray(app_feats)
    header = (["sample_id", "label"]
              + [f"id_{i}" for i in range(id_feats.shape[1])]
              + [f"app_{i}" for i in range(app_feats.shape[1])])
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        for sid, label, id_row, app_row in zip(sample_ids, labels, id_feats, app_feats):
            cells = [str(sid), str(int(label))]
            cells += [repr(float(v)) for v in id_row]
            cells += [repr(float(v)) for v in app_row]
            handle.write(",".join(cells) + "\n")
