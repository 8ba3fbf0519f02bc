"""Ranking and metric checks, including an independent brute-force
CMC/mAP oracle, bitwise oracles for the packed-key ranking and the
hits-only scoring, and frozen digests of the chunked embedding pass."""
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sirmetric.clusters import ClusterRegistry
from sirmetric.data import DatasetManifest, generate
from sirmetric.evaluate import (cmc_and_map, evaluate_retrieval,
                                fuse_embeddings, metrics_json, rank_all,
                                write_embeddings_csv)
from sirmetric.networks import NetworkConfig, ReidModel

CFG = NetworkConfig(image_shape=(1, 4, 4), feature_shape=(3, 2, 2),
                    id_dim=4, app_dim=2, num_identities=3, id_dropout=0.0)


def _brute_force_distances(queries, gallery):
    return np.linalg.norm(queries[:, None, :] - gallery[None, :, :], axis=2)


def test_rank_all_sort_oracle():
    query = np.array([[0.0]])
    gallery = np.array([[3.0], [1.0], [2.0]])
    order, distances = rank_all(query, gallery)
    np.testing.assert_array_equal(order, [[1, 2, 0]])
    np.testing.assert_array_equal(distances, [[1.0, 2.0, 3.0]])

    # Rows longer than 16 with many exact ties on an integer grid: the
    # default sort and the stable re-sort of tied rows both run.
    rng = np.random.default_rng(5)
    queries = rng.integers(0, 3, size=(64, 3)).astype(float)
    gallery = rng.integers(0, 3, size=(300, 3)).astype(float)
    brute = _brute_force_distances(queries, gallery)
    order, distances = rank_all(queries, gallery)
    np.testing.assert_array_equal(order, np.argsort(brute, axis=1, kind="stable"))
    np.testing.assert_array_equal(distances, np.take_along_axis(brute, order, axis=1))

    queries = rng.normal(size=(200, 28))
    gallery = rng.normal(size=(300, 28))
    brute = _brute_force_distances(queries, gallery)
    order, distances = rank_all(queries, gallery)
    reference = np.take_along_axis(brute, order, axis=1)
    np.testing.assert_allclose(distances, reference, rtol=0, atol=1e-12)
    assert np.all(np.diff(reference, axis=1) >= 0.0)


def test_rank_all_self_match_first_and_stable_ties():
    query = np.array([[1.0, 1.0]])
    gallery = np.array([[2.0, 2.0], [1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
    order, _ = rank_all(query, gallery)
    assert order[0, 0] == 1
    # indices 0 and 3 are equidistant; stable order keeps 0 before 3
    assert list(order[0]).index(0) < list(order[0]).index(3)


def test_rank_all_rejects_bad_shapes():
    with pytest.raises(ValueError):
        rank_all(np.array([[0.0]]), np.zeros((0, 1)))
    with pytest.raises(ValueError):
        rank_all(np.array([[0.0]]), np.zeros(3))
    with pytest.raises(ValueError):
        rank_all(np.zeros((1, 2)), np.zeros((3, 5)))


def test_fused_embedding_length_and_alpha_zero():
    model = ReidModel(CFG, seed=0)
    rng = np.random.default_rng(0)
    images = rng.uniform(size=(3, 1, 4, 4))
    vecs = fuse_embeddings(images, model, alpha=0.0, use_flip=False)
    assert vecs.shape == (3, 4 + 2 + 3)
    np.testing.assert_array_equal(vecs[:, 6:], np.zeros((3, 3)))
    single = fuse_embeddings(images[:1], model, alpha=0.55, use_flip=False)
    assert single.shape == (1, 9)


def test_flip_average_equals_single_pass_on_symmetric_image():
    model = ReidModel(CFG, seed=1)
    rng = np.random.default_rng(1)
    half = rng.uniform(size=(1, 1, 4, 2))
    image = np.concatenate([half, half[..., ::-1]], axis=3)
    with_flip = fuse_embeddings(image, model, use_flip=True)
    without = fuse_embeddings(image, model, use_flip=False)
    np.testing.assert_allclose(with_flip, without, rtol=0, atol=1e-15)


def test_ranking_invariant_under_common_scaling():
    rng = np.random.default_rng(2)
    queries = rng.normal(size=(4, 5))
    gallery = rng.normal(size=(7, 5))
    base, _ = rank_all(queries, gallery)
    scaled, _ = rank_all(3.0 * queries, 3.0 * gallery)
    np.testing.assert_array_equal(base, scaled)


def test_ap_five_sixths_example():
    # ranked relevance (1, 0, 1) with two relevant items
    result = cmc_and_map(np.array([[0, 1, 2]]), np.array([0]),
                         np.array([0, 1, 0]))
    np.testing.assert_allclose(result.mean_ap, 5.0 / 6.0, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(result.cmc, [1.0, 1.0, 1.0])


def test_all_relevant_first():
    result = cmc_and_map(np.array([[1, 0, 2]]), np.array([5]),
                         np.array([4, 5, 4]))
    # ranked relevance (1, 0, 0)
    assert result.mean_ap == 1.0
    assert result.rank_k(1) == 1.0


def test_no_match_queries_excluded_from_map_and_counted():
    result = cmc_and_map(np.array([[0, 1], [0, 1]]), np.array([0, 9]),
                         np.array([0, 1]))
    assert result.num_queries_without_match == 1
    assert result.mean_ap == 1.0  # only the matchable query contributes
    np.testing.assert_array_equal(result.cmc, [0.5, 0.5])


def test_cmc_monotone_and_bounds():
    rng = np.random.default_rng(3)
    order = np.stack([rng.permutation(6) for _ in range(5)])
    result = cmc_and_map(order, rng.integers(0, 3, size=5), rng.integers(0, 3, size=6))
    assert np.all(np.diff(result.cmc) >= 0.0)
    assert 0.0 <= result.mean_ap <= 1.0


def test_empty_gallery_raises():
    with pytest.raises(ValueError):
        cmc_and_map(np.zeros((1, 0), dtype=int), np.array([0]), np.array([], dtype=int))


@pytest.mark.parametrize("shape", [(2, 3), (1, 2), (1, 4)], ids=["extra-row", "short-row", "long-row"])
def test_cmc_rejects_rank_indices_that_disagree_with_the_labels(shape):
    """One query and three gallery labels: a ranking of another shape."""
    with pytest.raises(ValueError):
        cmc_and_map(np.zeros(shape, dtype=int), np.array([0]), np.array([0, 1, 0]))


def _brute_force_cmc_map(query_vecs, gallery_vecs, q_labels, g_labels):
    """Fully independent scan: explicit sort keys, prefix counts, precision
    sums."""
    num_q, num_g = len(q_labels), len(g_labels)
    cmc_hits = np.zeros(num_g)
    aps, skipped = [], 0
    for qi in range(num_q):
        dists = [float(np.sqrt(((gallery_vecs[g] - query_vecs[qi]) ** 2).sum()))
                 for g in range(num_g)]
        order = sorted(range(num_g), key=lambda g: (dists[g], g))
        rel = [1 if g_labels[g] == q_labels[qi] else 0 for g in order]
        for k in range(1, num_g + 1):
            if sum(rel[:k]) > 0:
                cmc_hits[k - 1] += 1
        total = sum(rel)
        if total == 0:
            skipped += 1
            continue
        ap = 0.0
        seen = 0
        for rank, is_rel in enumerate(rel, start=1):
            if is_rel:
                seen += 1
                ap += seen / rank
        aps.append(ap / total)
    mean_ap = float(np.mean(aps)) if aps else 0.0
    return cmc_hits / num_q, mean_ap, skipped


def test_cmc_map_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(4)
    for trial in range(200):
        # every fourth instance is larger, so some rows carry 8 or more
        # relevant items
        num_g = int(rng.integers(1, 41 if trial % 4 == 3 else 9))
        num_q = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 4))
        if trial % 2 == 0:
            # integer grids force exact distance ties, exercising tie-break
            queries = rng.integers(0, 3, size=(num_q, dim)).astype(float)
            gallery = rng.integers(0, 3, size=(num_g, dim)).astype(float)
        else:
            queries = rng.normal(size=(num_q, dim))
            gallery = rng.normal(size=(num_g, dim))
        q_labels = rng.integers(0, 3, size=num_q)
        g_labels = rng.integers(0, 3, size=num_g)
        order, _ = rank_all(queries, gallery)
        result = cmc_and_map(order, q_labels, g_labels)
        cmc_ref, map_ref, skipped_ref = _brute_force_cmc_map(
            queries, gallery, q_labels, g_labels)
        np.testing.assert_allclose(result.cmc, cmc_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.mean_ap, map_ref, rtol=0, atol=1e-12)
        assert result.num_queries_without_match == skipped_ref


def test_evaluate_retrieval_end_to_end_shapes():
    manifest = DatasetManifest(num_identities=3, samples_per_identity=6,
                               train_per_identity=3, query_per_identity=1,
                               gallery_per_identity=2, image_shape=(1, 4, 4),
                               appearance_bands=3, seed=0)
    dataset = generate(manifest)
    model = ReidModel(CFG, seed=2)
    result, order, distances = evaluate_retrieval(dataset, model)
    assert result.num_queries == 3 and result.num_gallery == 6
    assert order.shape == (3, 6) and distances.shape == (3, 6)
    assert np.all(np.diff(distances, axis=1) >= 0.0)
    assert result.cmc[-1] == 1.0  # every query identity is in the gallery
    assert result.num_queries_without_match == 0


def test_metrics_json_document():
    result = cmc_and_map(np.array([[0, 1, 2]]), np.array([0]), np.array([0, 1, 0]))
    doc = json.loads(metrics_json(result, alpha=0.55))
    assert set(doc) == {"rank1", "rank5", "rank10", "map", "num_queries",
                        "num_gallery", "alpha"}
    assert doc["rank1"] == 1.0
    assert doc["rank5"] == 1.0  # clamped to the 3-item gallery
    assert doc["num_gallery"] == 3
    assert doc["alpha"] == 0.55


def test_embeddings_csv(tmp_path):
    emb_path = tmp_path / "emb.csv"
    write_embeddings_csv(emb_path, [7, 8], [0, 1],
                         np.array([[0.1, 0.2], [0.3, 0.4]]),
                         np.array([[0.5], [0.6]]))
    lines = emb_path.read_text().splitlines()
    assert lines[0] == "sample_id,label,id_0,id_1,app_0"
    assert len(lines) == 3
    assert lines[1] == "7,0,0.1,0.2,0.5"


def _reference_rank_all(queries, gallery):
    """The plain vectorized ranking: the squared-norm expression with its
    temporaries, an argsort, a gather, and a stable re-sort of rows whose
    float differences are not all positive."""
    squared = ((queries * queries).sum(axis=1)[:, None] + (gallery * gallery).sum(axis=1)
               - 2.0 * (queries @ gallery.T))
    distances = np.sqrt(np.maximum(squared, 0.0))
    order = np.argsort(distances, axis=1)
    ranked = np.take_along_axis(distances, order, axis=1)
    unstable = ~np.all(np.diff(ranked, axis=1) > 0.0, axis=1)
    if unstable.any():
        order[unstable] = np.argsort(distances[unstable], axis=1, kind="stable")
        ranked = np.take_along_axis(distances, order, axis=1)
    return order, ranked


def _reference_cmc_and_map(rank_indices, query_labels, gallery_labels):
    """The plain vectorized scoring over the full (Q, N_g) relevance
    matrix: (cmc, mean AP, queries without a match)."""
    matches = gallery_labels[rank_indices] == query_labels[:, None]
    hits = np.cumsum(matches, axis=1)
    cmc = (hits > 0).mean(axis=0)
    rows, cols = np.nonzero(matches)
    precision_sums = np.bincount(rows, weights=hits[rows, cols] / (cols + 1),
                                 minlength=matches.shape[0])
    total_relevant = hits[:, -1]
    matched = total_relevant > 0
    aps = precision_sums[matched] / total_relevant[matched]
    return cmc, float(aps.mean()) if aps.size else 0.0, int((~matched).sum())


def _oracle_sets():
    """Random normal sets, integer grids full of exact ties, NaNs in one
    query and in one gallery vector, and Q = 1 and G = 1."""
    rng = np.random.default_rng(11)
    sets = [("normal", rng.normal(size=(120, 28)), rng.normal(size=(200, 28))),
            ("normal-wide", rng.normal(size=(7, 300)), rng.normal(size=(40, 300))),
            ("grid", rng.integers(0, 3, size=(64, 3)).astype(float),
             rng.integers(0, 3, size=(300, 3)).astype(float))]
    queries, gallery = rng.normal(size=(30, 5)), rng.normal(size=(50, 5))
    queries[4, 2] = np.nan
    sets.append(("nan-query", queries, gallery))
    gallery = gallery.copy()
    gallery[17, 0] = np.nan
    sets.append(("nan-gallery", rng.normal(size=(30, 5)), gallery))
    sets.append(("q1", rng.normal(size=(1, 6)), rng.normal(size=(25, 6))))
    sets.append(("g1", rng.normal(size=(25, 6)), rng.normal(size=(1, 6))))
    sets.append(("q1-g1", rng.normal(size=(1, 6)), rng.normal(size=(1, 6))))
    sets += _key_collision_sets(rng)
    return [pytest.param(queries, gallery, id=name) for name, queries, gallery in sets]


def _key_collision_sets(rng):
    """One-dimensional galleries of G values in [1, 4) ranked from the
    queries 0.0, -0.0 and 0.5, so the distances are the values themselves
    (or the values less 0.5, exactly).  Gallery items 0 and 1 differ only in
    the lowest mantissa bit, which the ranking keys overwrite with the index:
    "reversed" puts the larger value first (the key order is wrong and the
    row must take the stable path), "in-order" the smaller (the key order is
    right), and "in-order" also overflows one more item to a +inf distance.
    A -0.0 distance cannot come out of the expansion; -0.0 enters as a query."""
    sets = []
    queries = np.array([[0.0], [-0.0], [0.5]])
    low, high = 1.5, np.nextafter(1.5, 2.0)
    for size in (1, 2, 1023, 1024, 1025):
        for name, pair in (("reversed", (high, low)), ("in-order", (low, high))):
            gallery = rng.uniform(1.0, 4.0, size=(size, 1))
            gallery[:2, 0] = pair[:size]
            if name == "in-order" and size > 2:
                gallery[-1, 0] = 1e200
            sets.append((f"keys-G{size}-{name}", queries, gallery))
    return sets


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and overflow sets
@pytest.mark.parametrize("queries,gallery", _oracle_sets())
def test_rank_all_and_scores_match_the_plain_formulas_bitwise(queries, gallery):
    order, ranked = rank_all(queries, gallery)
    ref_order, ref_ranked = _reference_rank_all(queries, gallery)
    assert np.array_equal(order, ref_order)
    assert ranked.shape == ref_ranked.shape and ranked.tobytes() == ref_ranked.tobytes()
    rng = np.random.default_rng(12)
    for num_labels in (2, 5, 50):   # from most queries matched to many unmatched
        q_labels = rng.integers(0, num_labels, size=len(queries))
        g_labels = rng.integers(0, num_labels, size=len(gallery))
        result = cmc_and_map(order, q_labels, g_labels)
        cmc, mean_ap, unmatched = _reference_cmc_and_map(ref_order, q_labels, g_labels)
        assert result.cmc.dtype == cmc.dtype and result.cmc.tobytes() == cmc.tobytes()
        assert repr(result.mean_ap) == repr(mean_ap)
        assert result.num_queries_without_match == unmatched
        assert (result.num_queries, result.num_gallery) == order.shape


def _stable_argsort_oracle(queries, gallery):
    """The plain expression's distances, sorted by a stable argsort."""
    squared = ((queries * queries).sum(axis=1)[:, None] + (gallery * gallery).sum(axis=1)
               - 2.0 * (queries @ gallery.T))
    distances = np.sqrt(np.maximum(squared, 0.0))
    order = np.argsort(distances, axis=1, kind="stable")
    return order, np.take_along_axis(distances, order, axis=1)


# values one or a few ulps apart (key collisions), both zeros, an overflow
# to +inf, and the non-finite values themselves
_SPECIAL = [0.0, -0.0, 1.5, float(np.nextafter(1.5, 2.0)), 1.5 + 2 ** -51, 1.5 + 3 * 2 ** -52,
            2.0, 1e200, -1e200, np.inf, -np.inf, np.nan]
_ELEMENTS = st.one_of(st.sampled_from(_SPECIAL), st.floats(-4.0, 4.0))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_rank_all_matches_the_stable_argsort_oracle(data):
    num_gallery = data.draw(st.integers(1, 40), label="G")
    dim = data.draw(st.integers(1, 3), label="dim")
    queries = data.draw(arrays(np.float64, (data.draw(st.integers(1, 4)), dim), elements=_ELEMENTS))
    gallery = data.draw(arrays(np.float64, (num_gallery, dim), elements=_ELEMENTS))
    with np.errstate(invalid="ignore", over="ignore"):
        order, ranked = rank_all(queries, gallery)
        ref_order, ref_ranked = _stable_argsort_oracle(queries, gallery)
    assert order.dtype == ref_order.dtype and np.array_equal(order, ref_order)
    assert ranked.tobytes() == ref_ranked.tobytes()


def test_fused_embeddings_and_centers_across_chunk_boundaries_are_frozen():
    """700 fused vectors and the centers of a 100-identity, 1,200-image
    train split, both pinned to the digests of the former 64-row chunks, so
    the 256-row chunks of ReidModel.embed are shown not to move a bit (same
    numpy/BLAS caveat as test_training.py::test_loss_log_digest_is_frozen)."""
    model = ReidModel(NetworkConfig(num_identities=100), seed=5)
    dataset = generate(DatasetManifest(num_identities=100, seed=5))
    fused = fuse_embeddings(dataset.images[:700], model)
    registry = ClusterRegistry()
    registry.refresh(dataset.images[dataset.train_idx], dataset.labels[dataset.train_idx],
                     model, epoch=0)
    digests = [hashlib.sha256(array.tobytes()).hexdigest()
               for array in (fused, registry.centers_matrix())]
    assert digests == ["f30fbc98692de1cdfa511cd0e3a5d53a41cb0833decee1e555722870679595c8",
                       "35e4d3188219491a28ba10d7fd225b846a1732fa61aca960ee4236ba133fb9ad"]
