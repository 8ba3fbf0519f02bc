"""Mask construction, pseudo-ground-truth assembly (against a per-cell
brute-force oracle), and the embedding-swap augmentations."""
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest

from sirmetric import autodiff as ad
from sirmetric.autodiff import Tensor
from sirmetric.cam import (augment_negative, augment_positive, build_pseudo_gt_batch,
                           cam_masks, generate_swaps, write_cam_debug_csv)
from sirmetric.networks import DisentangledEmbedding, NetworkConfig, ReidModel

from reference_ops import add, tensor_sum

CFG = NetworkConfig(image_shape=(1, 4, 4), feature_shape=(3, 2, 2),
                    id_dim=4, app_dim=2, num_identities=3, id_dropout=0.0)


def _pseudo(f_q, f_n, cam_q, cam_n):
    """build_pseudo_gt_batch on one (query, negative) pair."""
    out_q, out_n = build_pseudo_gt_batch(f_q[None], f_n[None],
                                         np.asarray(cam_q)[None], np.asarray(cam_n)[None])
    return out_q[0], out_n[0]


def test_cam_masks_hand_example():
    id_mask, app_mask = cam_masks(np.array([[1.0, 3.0], [5.0, 7.0]]))
    np.testing.assert_array_equal(id_mask, [[0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(app_mask, [[1.0, 1.0], [0.0, 0.0]])


def test_cam_masks_constant_map_ties_to_id():
    id_mask, app_mask = cam_masks(np.full((2, 3), 2.5))
    np.testing.assert_array_equal(id_mask, np.ones((2, 3)))
    np.testing.assert_array_equal(app_mask, np.zeros((2, 3)))


def test_cam_masks_scale_invariant():
    rng = np.random.default_rng(0)
    cam = rng.normal(size=(4, 2))
    a, _ = cam_masks(cam)
    b, _ = cam_masks(3.7 * cam)
    np.testing.assert_array_equal(a, b)


def test_cam_masks_partition_random_maps():
    rng = np.random.default_rng(1)
    cams = rng.normal(size=(500, 4, 2))
    id_mask, app_mask = cam_masks(cams)
    np.testing.assert_array_equal(id_mask + app_mask, np.ones_like(id_mask))
    np.testing.assert_array_equal(id_mask * app_mask, np.zeros_like(id_mask))


def test_pseudo_gt_hand_example():
    f_q = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    f_n = np.array([[[5.0, 6.0], [7.0, 8.0]]])
    # a 0/1 map thresholds at its mean to itself
    cam_q = [[1.0, 0.0], [0.0, 0.0]]   # app_q = [[0,1],[1,1]]
    cam_n = [[0.0, 1.0], [0.0, 0.0]]   # app_n = [[1,0],[1,1]] -> joint [[0,0],[1,1]]
    id_from_query, id_from_negative = _pseudo(f_q, f_n, cam_q, cam_n)
    np.testing.assert_array_equal(id_from_query, [[[1.0, 0.0], [7.0, 8.0]]])
    np.testing.assert_array_equal(id_from_negative, [[[0.0, 6.0], [3.0, 4.0]]])


def test_pseudo_gt_vanishing_joint_region():
    rng = np.random.default_rng(3)
    f_q, f_n = rng.uniform(size=(2, 2, 2, 2))
    cam_q = np.array([[1.0, 1.0], [0.0, 0.0]])
    cam_n = np.array([[0.0, 0.0], [1.0, 1.0]])  # app masks are disjoint
    id_from_query, _ = _pseudo(f_q, f_n, cam_q, cam_n)
    np.testing.assert_array_equal(id_from_query, cam_q[None] * f_q)


def _brute_force_pseudo(f_keep, f_fill, id_keep, app_keep, app_fill):
    """Independent per-cell case analysis of the re-entanglement rule."""
    out = np.zeros_like(f_keep)
    channels, height, width = f_keep.shape
    for c in range(channels):
        for i in range(height):
            for j in range(width):
                if id_keep[i, j] == 1.0:
                    out[c, i, j] += f_keep[c, i, j]
                if app_keep[i, j] == 1.0 and app_fill[i, j] == 1.0:
                    out[c, i, j] += f_fill[c, i, j]
    return out


def test_pseudo_gt_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        f_q = rng.uniform(size=(2, 3, 2))
        f_n = rng.uniform(size=(2, 3, 2))
        cam_q = rng.normal(size=(3, 2))
        cam_n = rng.normal(size=(3, 2))
        id_q, app_q = cam_masks(cam_q)
        id_n, app_n = cam_masks(cam_n)
        id_from_query, id_from_negative = _pseudo(f_q, f_n, cam_q, cam_n)
        np.testing.assert_array_equal(
            id_from_query, _brute_force_pseudo(f_q, f_n, id_q, app_q, app_n))
        np.testing.assert_array_equal(
            id_from_negative, _brute_force_pseudo(f_n, f_q, id_n, app_n, app_q))


def test_pseudo_gt_role_swap_symmetry():
    rng = np.random.default_rng(5)
    f_q, f_n = rng.uniform(size=(2, 2, 2, 2))
    cam_q = rng.normal(size=(2, 2))
    cam_n = rng.normal(size=(2, 2))
    forward = _pseudo(f_q, f_n, cam_q, cam_n)
    swapped = _pseudo(f_n, f_q, cam_n, cam_q)
    np.testing.assert_array_equal(forward[0], swapped[1])
    np.testing.assert_array_equal(forward[1], swapped[0])


def test_pseudo_gt_batch_matches_per_sample():
    # one batched call, each sample checked against the brute-force oracle
    rng = np.random.default_rng(15)
    f_q = rng.uniform(size=(6, 2, 3, 2))
    f_n = rng.uniform(size=(6, 2, 3, 2))
    cam_q = rng.normal(size=(6, 3, 2))
    cam_n = rng.normal(size=(6, 3, 2))
    batch_q, batch_n = build_pseudo_gt_batch(f_q, f_n, cam_q, cam_n)
    for b in range(6):
        id_q, app_q = cam_masks(cam_q[b])
        id_n, app_n = cam_masks(cam_n[b])
        np.testing.assert_array_equal(
            batch_q[b], _brute_force_pseudo(f_q[b], f_n[b], id_q, app_q, app_n))
        np.testing.assert_array_equal(
            batch_n[b], _brute_force_pseudo(f_n[b], f_q[b], id_n, app_n, app_q))


def test_pseudo_gt_support_invariant():
    rng = np.random.default_rng(6)
    f_q = rng.uniform(0.5, 1.0, size=(2, 3, 3))
    f_n = rng.uniform(0.5, 1.0, size=(2, 3, 3))
    cam_q = rng.normal(size=(3, 3))
    cam_n = rng.normal(size=(3, 3))
    id_q, app_q = cam_masks(cam_q)
    _, app_n = cam_masks(cam_n)
    id_from_query, _ = _pseudo(f_q, f_n, cam_q, cam_n)
    outside = (id_q + app_q * app_n) == 0.0
    assert np.all(id_from_query[:, outside] == 0.0)


def _embeddings(model, batch, seed):
    rng = np.random.default_rng(seed)
    f = model.backbone_forward(rng.uniform(size=(batch, 1, 4, 4)))
    return model.separator_forward(f)


def test_augment_positive_order_and_shapes():
    model = ReidModel(CFG, seed=1)
    emb_q = _embeddings(model, 2, 7)
    emb_p = _embeddings(model, 2, 8)
    swaps = augment_positive(emb_q, emb_p)
    expected = [(emb_p.id_feat, emb_q.app_feat), (emb_q.id_feat, emb_p.app_feat),
                (emb_q.id_feat, emb_q.app_feat)]
    assert len(swaps) == 3
    for (id_feat, app_feat), (id_ref, app_ref) in zip(swaps, expected):
        assert id_feat is id_ref and app_feat is app_ref
    images, taps = generate_swaps(model, swaps, [])
    assert len(images) == 3 and taps == []
    for image, (id_feat, app_feat) in zip(images, swaps):
        assert image.shape == (2, 1, 4, 4)
        # against individual generator calls; one stacked pass may round differently
        _, reference = model.generator_forward(id_feat, app_feat)
        np.testing.assert_allclose(image.data, reference.data, rtol=0, atol=1e-15)


def test_augment_positive_identical_pair_collapses():
    model = ReidModel(CFG, seed=1)
    emb = _embeddings(model, 3, 9)
    images, _ = generate_swaps(model, augment_positive(emb, emb), augment_negative(emb, emb))
    np.testing.assert_array_equal(images[0].data, images[1].data)
    np.testing.assert_array_equal(images[1].data, images[2].data)


def test_augment_negative_shapes_and_swap_flag():
    model = ReidModel(CFG, seed=2)
    emb_q = _embeddings(model, 2, 10)
    emb_n = _embeddings(model, 2, 11)
    emb_p = _embeddings(model, 2, 12)
    swaps = augment_negative(emb_q, emb_n)
    assert swaps == [(emb_q.id_feat, emb_n.app_feat), (emb_n.id_feat, emb_q.app_feat)]
    _, (tap_a, tap_b) = generate_swaps(model, [], swaps)
    assert tap_a.shape == (2, 3, 2, 2) and tap_b.shape == (2, 3, 2, 2)
    _, step_taps = generate_swaps(model, augment_positive(emb_q, emb_p), swaps)
    for tap, step_tap, (id_feat, app_feat) in zip((tap_a, tap_b), step_taps, swaps):
        # against the step's 5B-row stack and individual generator calls, which
        # may round differently from this 2B-row stack
        np.testing.assert_allclose(step_tap.data, tap.data, rtol=0, atol=1e-15)
        reference, _ = model.generator_forward(id_feat, app_feat)
        np.testing.assert_allclose(tap.data, reference.data, rtol=0, atol=1e-15)
    swapped = augment_negative(emb_q, emb_n, swap_second_appearance=True, emb_positive=emb_p)
    assert swapped[0] == swaps[0]
    assert swapped[1][0] is emb_n.id_feat and swapped[1][1] is emb_p.app_feat
    _, (swapped_a, swapped_b) = generate_swaps(model, [], swapped)
    np.testing.assert_array_equal(tap_a.data, swapped_a.data)  # first tap untouched
    assert np.any(tap_b.data != swapped_b.data)
    with pytest.raises(ValueError):
        augment_negative(emb_q, emb_n, swap_second_appearance=True)


def test_augment_negative_identical_pair_collapses():
    model = ReidModel(CFG, seed=2)
    emb = _embeddings(model, 2, 13)
    _, (tap_a, tap_b) = generate_swaps(model, [], augment_negative(emb, emb))
    np.testing.assert_array_equal(tap_a.data, tap_b.data)


def test_cam_debug_csv_dump(tmp_path):
    model = ReidModel(CFG, seed=3)
    rng = np.random.default_rng(14)
    f_q = rng.uniform(size=(1, 3, 2, 2))
    f_n = rng.uniform(size=(1, 3, 2, 2))
    cam_q = model.cam_maps(f_q, np.array([0]))
    cam_n = model.cam_maps(f_n, np.array([1]))
    id_from_query, id_from_negative = build_pseudo_gt_batch(f_q, f_n, cam_q, cam_n)
    path = tmp_path / "debug.csv"
    write_cam_debug_csv(path, cam_q[0], id_from_query[0], id_from_negative[0])
    text = path.read_text()
    for section in ("# cam", "# threshold", "# id_mask", "# app_mask",
                    "# id_from_query_channel_0", "# id_from_negative_channel_2"):
        assert section in text
    lines = text.splitlines()
    assert float(lines[lines.index("# threshold") + 1]) == cam_q[0].mean()
    id_mask, _ = cam_masks(cam_q[0])
    start = lines.index("# id_mask") + 1
    rows = [[float(v) for v in line.split(",")] for line in lines[start:start + 2]]
    np.testing.assert_array_equal(rows, id_mask)


def test_augment_negative_taps_and_gradients_match_generator_forward():
    """generate_swaps is one generator_forward over the stacked swap rows: its
    images, taps and every gradient are bitwise those of that call.  Against
    separate passes per swap they agree up to BLAS rounding, and the taps
    alone give the image head no gradient."""
    model = ReidModel(CFG, seed=4)
    weights = np.random.default_rng(15).normal(size=(3, 2, 3, 2, 2))

    def run(outputs_of):
        leaves = [Tensor(np.random.default_rng(16 + i).uniform(-0.8, 0.8, size=(2, dim)),
                         requires_grad=True)
                  for i, dim in enumerate((CFG.id_dim, CFG.app_dim) * 2)]
        emb_q, emb_n = DisentangledEmbedding(*leaves[:2]), DisentangledEmbedding(*leaves[2:])
        image, taps = outputs_of(emb_q, emb_n)
        terms = [tensor_sum(ad.mask_mul(tap, w)) for tap, w in zip(taps, weights)]
        if image is not None:
            terms.append(tensor_sum(image))
        reduce(add, terms, 0).backward()
        grads = [leaf.grad for leaf in leaves] + [p.grad for p in model.params.values()]
        for p in model.params.values():
            p.grad = None
        outputs = [tap.data for tap in taps] + ([] if image is None else [image.data])
        return outputs, grads

    def one_pass(emb_q, emb_n, with_image=True):
        image_swaps = [(emb_q.id_feat, emb_q.app_feat)] if with_image else []
        images, taps = generate_swaps(model, image_swaps, augment_negative(emb_q, emb_n))
        return (images[0] if with_image else None), taps

    def through_generator_forward(emb_q, emb_n):
        swaps = [(emb_q.id_feat, emb_q.app_feat)] + augment_negative(emb_q, emb_n)
        ids = ad.concat([id_feat for id_feat, _ in swaps], axis=0)
        apps = ad.concat([app_feat for _, app_feat in swaps], axis=0)
        taps, images = model.generator_forward(ids, apps, image_rows=2)
        return images[0:2], [taps[2:4], taps[4:6]]

    def pass_per_swap(emb_q, emb_n):
        _, image = model.generator_forward(emb_q.id_feat, emb_q.app_feat)
        taps = [model.generator_forward(*swap)[0] for swap in augment_negative(emb_q, emb_n)]
        return image, taps

    outputs, grads = run(one_pass)
    stacked_outputs, stacked_grads = run(through_generator_forward)
    assert len(outputs) == len(stacked_outputs) == 3
    for out, ref in zip(outputs, stacked_outputs):
        np.testing.assert_array_equal(out, ref)
    for grad, ref in zip(grads, stacked_grads):
        assert (grad is None) == (ref is None)  # backbone, separator and heads get none
        assert grad is None or np.array_equal(grad, ref)
    for grad, ref in zip(grads, run(pass_per_swap)[1]):
        assert (grad is None) == (ref is None)
        if grad is not None:
            np.testing.assert_allclose(grad, ref, rtol=1e-12, atol=1e-15)
    taps_only = run(lambda q, n: one_pass(q, n, with_image=False))[1]
    image_head = [name in ("generator.w3", "generator.b3") for name in model.params]
    for grad, ref, in_head in zip(taps_only[4:], stacked_grads[4:], image_head):
        assert grad is None if in_head else (grad is None) == (ref is None)
