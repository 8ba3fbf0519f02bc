"""Hand-computed loss values, degenerate cases, and per-loss gradient
checks."""
import inspect

import numpy as np
import pytest

from sirmetric import autodiff as ad
from sirmetric import losses
from sirmetric.autodiff import ShapeError, Tensor
from sirmetric.losses import (LossWeights, TripletBatch, cam_classification_loss,
                              center_discrepancy_loss, classification_loss,
                              negative_recon_loss, one_hot, positive_recon_loss,
                              total_loss, triplet_loss)
from sirmetric.networks import DisentangledEmbedding

from reference_ops import absolute, add, exp, log, mul, relu, square, sub, tensor_sum


def _emb(id_rows, app_rows=None):
    id_rows = np.atleast_2d(np.asarray(id_rows, dtype=np.float64))
    if app_rows is None:
        app_rows = np.zeros((id_rows.shape[0], 2))
    return DisentangledEmbedding(Tensor(id_rows, requires_grad=True),
                                 Tensor(np.atleast_2d(app_rows), requires_grad=True))


def _batch(q, p, n, y_q=0, y_n=1):
    size = np.atleast_2d(q).shape[0]
    return TripletBatch(_emb(q), _emb(p), _emb(n),
                        np.full(size, y_q), np.full(size, y_n))


def test_triplet_degenerate_equals_margin():
    e = [[0.3, 0.4]]
    loss = triplet_loss(_batch(e, e, e), margin=0.9)
    assert loss.item() == 0.9


def test_triplet_hand_example():
    loss = triplet_loss(_batch([[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]]), margin=0.9)
    np.testing.assert_allclose(loss.item(), 1.9, rtol=0, atol=1e-15)


def test_triplet_inactive_hinge_is_zero():
    # d(q,p) = 0, d(q,n) = 4 >= 0 + margin
    loss = triplet_loss(_batch([[0.0, 0.0]], [[0.0, 0.0]], [[2.0, 0.0]]), margin=0.9)
    assert loss.item() == 0.0


def test_triplet_batch_mean():
    q = [[1.0, 0.0], [0.0, 0.0]]
    p = [[0.0, 1.0], [0.0, 0.0]]
    n = [[1.0, 1.0], [2.0, 0.0]]
    loss = triplet_loss(_batch(q, p, n), margin=0.9)
    np.testing.assert_allclose(loss.item(), (1.9 + 0.0) / 2.0, rtol=0, atol=1e-15)


def test_triplet_batch_validation():
    with pytest.raises(ValueError):
        _batch([[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]], y_q=3, y_n=3)
    with pytest.raises(ValueError):
        TripletBatch(_emb([[1.0, 0.0]]), _emb([[0.0, 1.0]]),
                     _emb([[1.0, 1.0], [0.0, 0.0]]),
                     np.array([0]), np.array([1]))


def test_center_loss_equidistant_two_centers_is_ln2():
    loss = center_discrepancy_loss(Tensor([[0.0, 0.0]], requires_grad=True),
                                   np.array([0]),
                                   np.array([[1.0, 0.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(loss.item(), np.log(2.0), rtol=0, atol=1e-12)


def test_center_loss_single_center_is_zero():
    loss = center_discrepancy_loss(Tensor([[0.3, 0.1]], requires_grad=True),
                                   np.array([0]), np.array([[0.9, 0.9]]))
    np.testing.assert_allclose(loss.item(), 0.0, rtol=0, atol=1e-15)


def test_center_loss_decreases_toward_own_center():
    centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
    far = center_discrepancy_loss(Tensor([[0.0, 0.0]]), np.array([0]), centers).item()
    near = center_discrepancy_loss(Tensor([[0.9, 0.0]]), np.array([0]), centers).item()
    assert near < far


def test_center_loss_equidistant_many_centers_is_log_nc():
    # all centers on a ring around the origin, query at the origin
    angles = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
    centers = 0.8 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    loss = center_discrepancy_loss(Tensor([[0.0, 0.0]]), np.array([3]), centers)
    np.testing.assert_allclose(loss.item(), np.log(7.0), rtol=0, atol=1e-12)


def test_center_loss_missing_center_errors():
    with pytest.raises(ValueError):
        center_discrepancy_loss(Tensor([[0.0, 0.0]]), np.array([2]),
                                np.array([[1.0, 0.0], [-1.0, 0.0]]))


def test_cross_entropy_uniform_logits():
    loss = classification_loss(Tensor(np.zeros((4, 10)), requires_grad=True),
                               np.arange(4))
    np.testing.assert_allclose(loss.item(), np.log(10.0), rtol=0, atol=1e-12)


def test_cross_entropy_saturates_at_large_gap():
    logits = np.zeros((1, 10))
    logits[0, 3] = 20.0
    loss = classification_loss(Tensor(logits), np.array([3]))
    assert loss.item() < 1e-6


def test_cross_entropy_permutation_invariant():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 5))
    labels = rng.integers(0, 5, size=6)
    perm = rng.permutation(6)
    a = classification_loss(Tensor(logits), labels).item()
    b = classification_loss(Tensor(logits[perm]), labels[perm]).item()
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


def test_cam_loss_matches_classification_arithmetic():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(3, 4))
    labels = np.array([0, 2, 3])
    assert (cam_classification_loss(Tensor(logits), labels).item()
            == classification_loss(Tensor(logits), labels).item())


def test_label_losses_take_one_hot_rows_with_the_same_bits():
    """A step builds the query labels' one-hot rows once and passes them to
    the cls, cam and center losses: values and gradients match labels."""
    rng = np.random.default_rng(2)
    logits, feats = rng.normal(size=(5, 4)), rng.uniform(-0.8, 0.8, size=(5, 3))
    centers, labels = rng.uniform(-0.6, 0.6, size=(4, 3)), np.array([0, 3, 1, 3, 2])
    rows = one_hot(labels, 4)
    for loss, data in ((classification_loss, logits), (cam_classification_loss, logits),
                       (lambda x, y: center_discrepancy_loss(x, y, centers), feats)):
        results = []
        for target in (labels, rows):
            leaf = Tensor(data, requires_grad=True)
            value = loss(leaf, target)
            value.backward()
            results.append((value.data.tobytes(), leaf.grad.tobytes()))
        assert results[0] == results[1]
    with pytest.raises(ShapeError):
        classification_loss(Tensor(logits), one_hot(labels, 5))
    with pytest.raises(ShapeError):
        center_discrepancy_loss(Tensor(feats), one_hot(labels, 5), centers)
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        one_hot(np.array([0, 4]), 4)


def test_positive_recon_exact_match_is_zero():
    target = np.random.default_rng(2).uniform(size=(1, 1, 4, 4))
    images = tuple(Tensor(target.copy(), requires_grad=True) for _ in range(3))
    loss = positive_recon_loss(images, target, target)
    assert loss.item() == 0.0


def test_positive_recon_hand_value():
    # constant 0.5 output vs constant 0.25 targets: three terms of 0.25
    images = tuple(Tensor(np.full((1, 1, 2, 2), 0.5), requires_grad=True) for _ in range(3))
    target = np.full((1, 1, 2, 2), 0.25)
    loss = positive_recon_loss(images, target, target)
    np.testing.assert_allclose(loss.item(), 0.75, rtol=0, atol=1e-15)


def test_positive_recon_spatial_permutation_invariant():
    rng = np.random.default_rng(3)
    out = rng.uniform(size=(1, 1, 1, 6))
    tgt = rng.uniform(size=(1, 1, 1, 6))
    perm = rng.permutation(6)
    a = positive_recon_loss((Tensor(out),) * 3, tgt, tgt).item()
    b = positive_recon_loss((Tensor(out[..., perm]),) * 3, tgt[..., perm], tgt[..., perm]).item()
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


def test_positive_recon_shape_mismatch():
    with pytest.raises(ShapeError):
        positive_recon_loss((Tensor(np.zeros((1, 1, 2, 2))),) * 3,
                            np.zeros((1, 1, 2, 3)), np.zeros((1, 1, 2, 2)))


def test_negative_recon_exact_match_is_zero():
    target = np.random.default_rng(4).uniform(size=(1, 3, 2, 2))
    taps = (Tensor(target.copy()), Tensor(target.copy()))
    assert negative_recon_loss(taps, target, target).item() == 0.0


def test_negative_recon_masked_target_fraction():
    # zero taps against a target with k of K cells set to one: each term k/K
    target = np.zeros((1, 2, 2, 2))
    target[0, :, 0, 0] = 1.0  # 2 of 8 cells
    taps = (Tensor(np.zeros((1, 2, 2, 2))), Tensor(np.zeros((1, 2, 2, 2))))
    loss = negative_recon_loss(taps, target, target)
    np.testing.assert_allclose(loss.item(), 2.0 * 2.0 / 8.0, rtol=0, atol=1e-15)


def test_total_loss_zero_components():
    zeros = [Tensor(0.0) for _ in range(6)]
    assert total_loss(*zeros, LossWeights()).item() == 0.0


def test_total_loss_unit_components_default_weights():
    ones = [Tensor(1.0) for _ in range(6)]
    loss = total_loss(*ones, LossWeights())
    np.testing.assert_allclose(loss.item(), 2.5502, rtol=0, atol=1e-12)


def test_total_loss_linear_in_triplet_weight():
    rng = np.random.default_rng(5)
    comps = [Tensor(v) for v in rng.uniform(0.1, 2.0, size=6)]
    base = total_loss(*comps, LossWeights()).item()
    doubled = total_loss(*comps, LossWeights(triplet_weight=2.0)).item()
    np.testing.assert_allclose(doubled - base, comps[1].item(), rtol=1e-12, atol=1e-14)


def test_loss_weights_reject_negative():
    with pytest.raises(ValueError):
        LossWeights(margin=-0.1)


def _leaf(*shape):
    return Tensor(np.random.default_rng(11).uniform(0.1, 0.9, size=shape), requires_grad=True)


# each public op and loss on inputs that require grad
_OP_CASES = {
    "node": lambda: ad.node(np.zeros(2), (_leaf(2),), None),
    "mask_mul": lambda: ad.mask_mul(_leaf(2, 3), np.ones((2, 3))),
    "squash": lambda: ad.squash(_leaf(2, 3)),
    "tensor_mean": lambda: ad.tensor_mean(_leaf(2, 3), axis=0),
    "reshape": lambda: ad.reshape(_leaf(2, 3), (3, 2)),
    "take": lambda: ad.take(_leaf(2, 3), (slice(None), 1)),
    "concat": lambda: ad.concat([_leaf(2, 3), _leaf(1, 3)]),
    "dense": lambda: ad.dense(_leaf(2, 3), _leaf(3, 4), _leaf(4), "relu"),
    "triplet_loss": lambda: triplet_loss(_batch([[0.0, 1.0]], [[1.0, 0.0]], [[1.0, 1.0]])),
    "center_discrepancy_loss": lambda: center_discrepancy_loss(
        _leaf(3, 2), np.array([0, 1, 1]), np.eye(2)),
    "classification_loss": lambda: classification_loss(_leaf(3, 4), np.array([0, 3, 1])),
    "cam_classification_loss": lambda: cam_classification_loss(_leaf(3, 4), np.array([2, 3, 1])),
    "positive_recon_loss": lambda: positive_recon_loss(
        [_leaf(1, 1, 2, 2) for _ in range(3)], np.zeros((1, 1, 2, 2)), np.ones((1, 1, 2, 2))),
    "negative_recon_loss": lambda: negative_recon_loss(
        [_leaf(1, 2, 2, 2) for _ in range(2)], np.zeros((1, 2, 2, 2)), np.ones((1, 2, 2, 2))),
    "total_loss": lambda: total_loss(*[_leaf() for _ in range(6)], LossWeights()),
}


@pytest.mark.parametrize("name", sorted(
    name for module in (ad, losses) for name, fn in vars(module).items()
    if inspect.isfunction(fn) and fn.__module__ == module.__name__
    and not name.startswith("_") and fn.__annotations__.get("return") == "Tensor"))
def test_every_op_and_loss_records_nothing_under_no_grad(name):
    """Every public function of autodiff or losses that returns a Tensor
    (a new one fails here until it has a case) builds a graph node from
    inputs that require grad, and a plain tensor under no_grad."""
    assert _OP_CASES[name]().requires_grad
    with ad.no_grad():
        out = _OP_CASES[name]()
    assert not out.requires_grad
    assert out._parents == ()


# gradient checks per loss, inputs sampled away from hinge and L1 kinks


def test_triplet_gradient():
    rng = np.random.default_rng(6)

    def fn(stacked):
        q = DisentangledEmbedding(stacked[0:2], Tensor(np.zeros((2, 1))))
        p = DisentangledEmbedding(stacked[2:4], Tensor(np.zeros((2, 1))))
        n = DisentangledEmbedding(stacked[4:6], Tensor(np.zeros((2, 1))))
        batch = TripletBatch(q, p, n, np.zeros(2, dtype=int), np.ones(2, dtype=int))
        return triplet_loss(batch, margin=0.9)

    x = Tensor(rng.uniform(-0.8, 0.8, size=(6, 3)))
    slack = triplet_loss(TripletBatch(
        DisentangledEmbedding(Tensor(x.data[0:2]), Tensor(np.zeros((2, 1)))),
        DisentangledEmbedding(Tensor(x.data[2:4]), Tensor(np.zeros((2, 1)))),
        DisentangledEmbedding(Tensor(x.data[4:6]), Tensor(np.zeros((2, 1)))),
        np.zeros(2, dtype=int), np.ones(2, dtype=int)), 0.9)
    assert slack.item() > 1e-3  # hinge active and away from the kink
    report = ad.grad_check(fn, x)
    assert report.passed, report.max_rel_error


def test_center_loss_gradient():
    rng = np.random.default_rng(7)
    centers = rng.uniform(-0.7, 0.7, size=(4, 3))
    labels = np.array([0, 2, 1])

    def fn(e):
        return center_discrepancy_loss(e, labels, centers)

    report = ad.grad_check(fn, Tensor(rng.uniform(-0.7, 0.7, size=(3, 3))))
    assert report.passed, report.max_rel_error


def test_classification_gradient():
    rng = np.random.default_rng(8)
    labels = np.array([1, 0, 3])

    def fn(logits):
        return classification_loss(logits, labels)

    report = ad.grad_check(fn, Tensor(rng.normal(size=(3, 4))))
    assert report.passed, report.max_rel_error


def test_positive_recon_gradient():
    rng = np.random.default_rng(9)
    tgt_q = rng.uniform(0.0, 0.3, size=(2, 1, 2, 2))
    tgt_p = rng.uniform(0.0, 0.3, size=(2, 1, 2, 2))

    def fn(stacked):
        images = (stacked[0:2], stacked[2:4], stacked[4:6])
        return positive_recon_loss(images, tgt_q, tgt_p)

    x = Tensor(rng.uniform(0.5, 0.9, size=(6, 1, 2, 2)))  # gap > 0.2 from targets
    report = ad.grad_check(fn, x)
    assert report.passed, report.max_rel_error


def test_negative_recon_gradient():
    rng = np.random.default_rng(10)
    tgt_a = rng.uniform(0.0, 0.3, size=(1, 2, 2, 2))
    tgt_b = rng.uniform(0.0, 0.3, size=(1, 2, 2, 2))

    def fn(stacked):
        taps = (stacked[0:1], stacked[1:2])
        return negative_recon_loss(taps, tgt_a, tgt_b)

    x = Tensor(rng.uniform(0.5, 0.9, size=(2, 2, 2, 2)))
    report = ad.grad_check(fn, x)
    assert report.passed, report.max_rel_error


# fused loss nodes against the primitive chains they replace: the forward
# value and every leaf gradient must be bitwise equal


def _twin_leaves(rng, *shapes):
    fused = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
    return fused, [Tensor(t.data.copy(), requires_grad=True) for t in fused]


def _assert_same_bits(fused, chain, fused_leaves, chain_leaves):
    fused, chain = mul(fused, 0.37), mul(chain, 0.37)  # a non-unit upstream gradient
    fused.backward()
    chain.backward()
    assert np.array_equal(fused.data, chain.data)
    for f, c in zip(fused_leaves, chain_leaves):
        assert f.grad is not None and np.array_equal(f.grad, c.grad)


def _chain_cross_entropy(logits, labels):
    shift = logits.data.max(axis=1, keepdims=True)
    summed = tensor_sum(exp(sub(logits, shift)), axis=1)
    log_sum_exp = add(log(summed), shift.reshape(-1))
    one_hot = np.eye(logits.shape[1])[labels]
    true_logit = tensor_sum(ad.mask_mul(logits, one_hot), axis=1)
    return sub(log_sum_exp, true_logit).mean()


def test_fused_triplet_matches_primitive_chain():
    rng = np.random.default_rng(31)
    fused_leaves, chain_leaves = _twin_leaves(rng, (7, 5), (7, 5), (7, 5))
    q, p, n = chain_leaves
    d_pos = tensor_sum(square(sub(q, p)), axis=1)
    d_neg = tensor_sum(square(sub(q, n)), axis=1)
    chain = relu(add(sub(d_pos, d_neg), 0.9)).mean()
    fused = triplet_loss(TripletBatch(*(DisentangledEmbedding(t, Tensor(np.zeros((7, 1))))
                                        for t in fused_leaves),
                                      np.zeros(7, dtype=int), np.ones(7, dtype=int)), 0.9)
    assert 0.0 < np.mean(d_pos.data - d_neg.data + 0.9 > 0.0) < 1.0  # both hinge sides
    _assert_same_bits(fused, chain, fused_leaves, chain_leaves)


def test_fused_cross_entropy_matches_primitive_chain():
    rng = np.random.default_rng(32)
    labels = rng.integers(0, 6, size=9)
    fused_leaves, chain_leaves = _twin_leaves(rng, (9, 6))
    _assert_same_bits(classification_loss(fused_leaves[0], labels),
                      _chain_cross_entropy(chain_leaves[0], labels),
                      fused_leaves, chain_leaves)


def test_fused_center_loss_matches_primitive_chain():
    rng = np.random.default_rng(33)
    labels = rng.integers(0, 5, size=8)
    centers = rng.normal(size=(5, 4))
    fused_leaves, chain_leaves = _twin_leaves(rng, (8, 4))
    diff = sub(chain_leaves[0].reshape((8, 1, 4)), centers[None, :, :])
    chain = _chain_cross_entropy(mul(tensor_sum(square(diff), axis=2), -1.0), labels)
    _assert_same_bits(center_discrepancy_loss(fused_leaves[0], labels, centers), chain,
                      fused_leaves, chain_leaves)


def test_fused_l1_terms_match_primitive_chain():
    rng = np.random.default_rng(34)
    shape = (3, 1, 4, 2)
    targets = [rng.normal(size=shape) for _ in range(3)]
    targets[0][0, 0, 0, 0] = 0.0
    fused_leaves, chain_leaves = _twin_leaves(rng, shape, shape, shape)
    chain_leaves[0].data[0, 0, 0, 0] = fused_leaves[0].data[0, 0, 0, 0] = 0.0  # |x - t| kink
    chain = None
    for output, target in zip(chain_leaves, (targets[0], targets[1], targets[0])):
        term = absolute(sub(output, target)).mean()
        chain = term if chain is None else add(chain, term)
    _assert_same_bits(positive_recon_loss(fused_leaves, targets[0], targets[1]), chain,
                      fused_leaves, chain_leaves)


def _chain_total(terms, weights):
    cls_term, triplet_term, center_term, cam_term, pos_term, neg_term = terms
    identity_group = add(add(mul(cls_term, weights.cls_weight),
                             mul(triplet_term, weights.triplet_weight)),
                         mul(center_term, weights.center_weight))
    recon_group = add(add(mul(pos_term, weights.pos_recon_weight),
                          mul(neg_term, weights.neg_recon_weight)),
                      mul(cam_term, weights.cam_weight))
    return add(mul(identity_group, weights.id_weight), mul(recon_group, weights.recon_weight))


@pytest.mark.parametrize("weights", [
    LossWeights(),
    LossWeights(recon_weight=0.0, center_weight=0.0),
    LossWeights(id_weight=0.7, recon_weight=1.3, cls_weight=1.7, triplet_weight=0.0,
                pos_recon_weight=2.9, neg_recon_weight=0.11, cam_weight=0.0)])
def test_fused_total_loss_matches_primitive_chain(weights):
    rng = np.random.default_rng(35)
    fused_leaves, chain_leaves = _twin_leaves(rng, *[()] * 6)
    _assert_same_bits(total_loss(*fused_leaves, weights), _chain_total(chain_leaves, weights),
                      fused_leaves, chain_leaves)


def test_fused_negative_recon_matches_primitive_chain():
    rng = np.random.default_rng(36)
    shape = (3, 2, 2, 2)
    targets = [rng.normal(size=shape) for _ in range(2)]
    targets[1][0, 0, 0, 0] = 0.0
    fused_leaves, chain_leaves = _twin_leaves(rng, shape, shape)
    chain_leaves[1].data[0, 0, 0, 0] = fused_leaves[1].data[0, 0, 0, 0] = 0.0  # |x - t| kink
    chain = add(absolute(sub(chain_leaves[0], targets[0])).mean(),
                absolute(sub(chain_leaves[1], targets[1])).mean())
    _assert_same_bits(negative_recon_loss(fused_leaves, *targets), chain,
                      fused_leaves, chain_leaves)


def test_fused_center_loss_matches_chain_at_wide_shapes():
    # 100 centers and a batch of 64, as in the wide benchmark workload
    rng = np.random.default_rng(37)
    labels = rng.integers(0, 100, size=64)
    centers = rng.uniform(-0.5, 0.5, size=(100, 16))
    fused_leaves, chain_leaves = _twin_leaves(rng, (64, 16))
    diff = sub(chain_leaves[0].reshape((64, 1, 16)), centers[None, :, :])
    chain = _chain_cross_entropy(mul(tensor_sum(square(diff), axis=2), -1.0), labels)
    _assert_same_bits(center_discrepancy_loss(fused_leaves[0], labels, centers), chain,
                      fused_leaves, chain_leaves)
