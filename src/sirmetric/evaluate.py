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
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
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
                    use_flip: bool = True, batch_size: int = 64) -> np.ndarray:
    """Batch of images -> (N, d_I + d_A + C_b) fused vectors, eval mode."""
    # fixed 64-row chunks: a product's row count can move embedding bits (a 4,000-row pass does)
    images = np.asarray(images, dtype=np.float64)
    out = np.empty((images.shape[0],
                    model.config.embed_dim + model.config.feature_shape[0]))
    with ad.no_grad():
        for start in range(0, images.shape[0], batch_size):
            chunk = images[start:start + batch_size]
            fused = _fuse_chunk(chunk, model, alpha)
            if use_flip:
                fused = 0.5 * (fused + _fuse_chunk(horizontal_flip(chunk), model, alpha))
            out[start:start + batch_size] = fused
    return out


def _fuse_chunk(chunk: np.ndarray, model: ReidModel, alpha: float) -> np.ndarray:
    features = model.backbone_forward(chunk)
    emb = model.separator_forward(features)
    pooled = features.data.mean(axis=(2, 3))
    return np.concatenate([emb.id_feat.data, emb.app_feat.data, alpha * pooled], axis=1)


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
    order = np.argsort(distances, axis=1)
    # On a strictly increasing row the order is unique and the sorted values
    # are distances[order] bit for bit.  The default sort is not stable: rows
    # holding an exact tie (or a NaN) are sorted again stably and gathered.
    ranked = np.sort(distances, axis=1)
    unstable = ~np.all(ranked[:, 1:] > ranked[:, :-1], axis=1)
    if unstable.any():
        order[unstable] = np.argsort(distances[unstable], axis=1, kind="stable")
        ranked[unstable] = np.take_along_axis(distances[unstable], order[unstable], axis=1)
    return order, ranked


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
    matches = np.take(gallery_labels, rank_indices) == query_labels[:, None]
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
    query_vecs = fuse_embeddings(dataset.images[dataset.query_idx], model,
                                 alpha, use_flip)
    gallery_vecs = fuse_embeddings(dataset.images[dataset.gallery_idx], model,
                                   alpha, use_flip)
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
