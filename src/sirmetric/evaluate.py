"""Retrieval evaluation: embedding fusion, distance ranking, CMC, and mAP.

Fused vector = [id embedding | appearance embedding | alpha * pooled
backbone features], optionally averaged with the horizontally flipped
image's vector.  Ranking is ascending Euclidean distance with ties broken
by gallery index.  Distances come from the squared-norm expansion
||q||^2 + ||g||^2 - 2 q.g and equal the direct ||q - g|| up to rounding.
The cross products are one matrix product, because products of row blocks
do not keep its bits; the rest of the ranking runs one in-cache pass per
block of about 2**15 distances, and ``workers.run_workers`` deals the
blocks of a ranking of 2**19 or more distances to threads, one per CPU
(numpy releases the GIL in each of the pass's operations).  CMC and mAP
are derived from the positions of the relevant gallery items alone.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, horizontal_flip
from .networks import ReidModel
from .workers import cpus, run_workers

# Distances ranked in one in-cache pass: a block's four arrays (distances,
# cross products, keys and rises) then take about 0.8 MB.
_BLOCK_DISTANCES = 1 << 15


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
    """Batch of images -> (N, d_I + d_A + C_b) fused vectors, from one
    eval-mode ``embed`` pass over the images and, with ``use_flip``, their
    flipped view, so the two views' chunks share its workers.  A vector whose
    squared norm is not finite, which ranking cannot use, is a ValueError."""
    if not math.isfinite(alpha):
        raise ValueError(f"fusion alpha must be finite, got {alpha!r}")
    views = (images, horizontal_flip(images)) if use_flip else (images,)
    embedded = model.embed(*views)
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        fused = [np.concatenate([id_feat, app_feat, alpha * features.mean(axis=(2, 3))], axis=1)
                 for id_feat, app_feat, features in embedded]
        fused = 0.5 * (fused[0] + fused[1]) if use_flip else fused[0]
        finite = np.isfinite(np.einsum("ij,ij->i", fused, fused)).all()
    if not finite:
        raise ValueError(f"fusion alpha {alpha!r} gives a fused vector with a non-finite "
                         "squared norm")
    return fused


def rank_all(query_vectors: np.ndarray, gallery_vectors: np.ndarray):
    """Ascending-Euclidean gallery order for every query: (Q, N_g) index
    matrix and the distances in that order.  Equal distances keep
    gallery-index order.

    One matrix product fills the array that is returned as the distances.
    Each block of rows (about 2**15 distances) then goes from its cross
    products to its ranked distances, order and stability flag while it is
    in cache.  ``workers.run_workers`` deals the blocks, each to the next
    free one of min(CPUs, Q*N_g >> 18, blocks) workers, so a ranking of
    fewer than 2**19 distances runs them all in this thread: starting a
    thread costs more than such a ranking gains."""
    queries = np.asarray(query_vectors, dtype=np.float64)
    gallery = np.asarray(gallery_vectors, dtype=np.float64)
    if (gallery.ndim != 2 or gallery.shape[0] == 0 or queries.ndim != 2
            or queries.shape[1] != gallery.shape[1]):
        raise ValueError("need (Q, dim) queries and a non-empty (N, dim) gallery, "
                         f"got shapes {queries.shape} and {gallery.shape}")
    num_queries, num_gallery = len(queries), len(gallery)
    query_norms = (queries * queries).sum(axis=1)[:, None]
    gallery_norms = (gallery * gallery).sum(axis=1)
    # one product: row-block products do not keep its bits
    ranked = queries @ gallery.T
    order = np.empty(ranked.shape, dtype=np.int64)
    rising = np.empty(num_queries, dtype=bool)
    mask = (1 << (num_gallery - 1).bit_length()) - 1
    indices = np.arange(num_gallery)
    block_rows = max(1, min(num_queries, _BLOCK_DISTANCES // num_gallery))
    row_starts = np.arange(0, block_rows * num_gallery, num_gallery)[:, None]
    blocks = -(-num_queries // block_rows)
    workers = max(1, min(num_queries * num_gallery >> 18, blocks, cpus()))
    scratch = [(np.empty((block_rows, num_gallery)),
                np.empty((block_rows, num_gallery - 1), dtype=bool)) for _ in range(workers)]

    def rank_block(worker, number):
        # ||q||^2 + ||g||^2 - 2 q.g by the same operations in the same order
        # as the plain expression, so the bits match it; then one row sort of
        # int64 keys (a distance's bits, as nonnegative floats order as their
        # bits, with the low bits replaced by the gallery index) and the
        # distances gathered in that order into the block's cross rows,
        # through the keys shifted to flat indices and back.  Every op writes
        # into the worker's scratch or the outputs, so no thread allocates (a
        # thread's allocations grow a per-thread malloc arena), and take's
        # "clip" mode does not buffer.
        block, rises = scratch[worker]
        rows = slice(number * block_rows, (number + 1) * block_rows)
        cross, keys = ranked[rows], order[rows]
        count = len(cross)
        dist, rise, starts = block[:count], rises[:count], row_starts[:count]
        np.add(query_norms[rows], gallery_norms, out=dist)
        np.multiply(cross, 2.0, out=cross)
        np.subtract(dist, cross, out=dist)
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        np.bitwise_and(dist.view(np.int64), ~mask, out=keys)
        np.bitwise_or(keys, indices, out=keys)
        keys.sort(axis=1)
        np.bitwise_and(keys, mask, out=keys)
        keys += starts
        np.take(dist, keys, out=cross, mode="clip")
        keys -= starts
        np.greater(cross[:, 1:], cross[:, :-1], out=rise)
        rise.all(axis=1, out=rising[rows])

    run_workers(rank_block, blocks, workers)
    # A row that does not strictly increase is sorted again stably: by
    # value, ties by index.
    unstable = ~rising
    if unstable.any():
        perm = np.lexsort((order[unstable], ranked[unstable]))
        order[unstable] = np.take_along_axis(order[unstable], perm, axis=1)
        ranked[unstable] = np.take_along_axis(ranked[unstable], perm, axis=1)
    return order, ranked


def cmc_and_map(rank_indices: np.ndarray, query_labels: np.ndarray,
                gallery_labels: np.ndarray) -> RetrievalResult:
    """Cumulative match curve over k = 1..N_g and mean average precision.

    CMC counts every query; queries with no relevant gallery item can never
    hit.  Such queries are excluded from mAP and reported in
    ``num_queries_without_match``.  No queries, or an empty gallery, is a
    ValueError.
    """
    rank_indices = np.asarray(rank_indices)
    query_labels = np.asarray(query_labels)
    gallery_labels = np.asarray(gallery_labels)
    if gallery_labels.size == 0:
        raise ValueError("empty gallery")
    if query_labels.size == 0:
        raise ValueError("no queries")
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
    lengths = [len(sample_ids), len(labels), len(id_feats), len(app_feats)]
    if len(set(lengths)) > 1:
        raise ValueError("sample ids, labels, id rows and appearance rows differ in "
                         "length: {}, {}, {} and {}".format(*lengths))
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
