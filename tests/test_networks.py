"""Shape, determinism, and structural checks on the network graph."""
import numpy as np
import pytest

from sirmetric.autodiff import ShapeError, Tensor
from sirmetric.networks import NetworkConfig, ReidModel

SMALL = NetworkConfig(image_shape=(1, 4, 4), feature_shape=(3, 2, 2),
                      id_dim=4, app_dim=2, num_identities=3, id_dropout=0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(id_dim=0)
    with pytest.raises(ValueError):
        NetworkConfig(num_identities=1)
    with pytest.raises(ValueError):
        NetworkConfig(image_shape=(1, 16, 8), feature_shape=(8, 5, 2))
    with pytest.raises(ValueError):
        NetworkConfig(id_dropout=1.0)


def test_zero_image_zero_biases_gives_zero_features():
    model = ReidModel(SMALL, seed=0)
    out = model.backbone_forward(np.zeros((2, 1, 4, 4)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 3, 2, 2)))


def test_backbone_deterministic_and_sensitive():
    model = ReidModel(SMALL, seed=1)
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(1, 1, 4, 4))
    a = model.backbone_forward(x).data
    b = model.backbone_forward(x).data
    np.testing.assert_array_equal(a, b)
    x2 = x.copy()
    x2[0, 0, 0, 0] += 0.5
    c = model.backbone_forward(x2).data
    assert np.any(a != c)
    assert np.all(a >= 0.0)


def test_same_seed_same_parameters():
    a = ReidModel(SMALL, seed=5)
    b = ReidModel(SMALL, seed=5)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    c = ReidModel(SMALL, seed=6)
    assert any(np.any(a.params[n].data != c.params[n].data) for n in a.params)


def test_backbone_rejects_wrong_shape():
    model = ReidModel(SMALL, seed=0)
    with pytest.raises(ShapeError):
        model.backbone_forward(np.zeros((2, 1, 8, 4)))
    with pytest.raises(ShapeError):
        model.backbone_forward(np.zeros((1, 4, 4)))


def test_separator_norm_bound_and_dims():
    model = ReidModel(SMALL, seed=2)
    rng = np.random.default_rng(1)
    f = model.backbone_forward(rng.uniform(size=(6, 1, 4, 4)))
    emb = model.separator_forward(f)
    assert emb.id_feat.shape == (6, 4)
    assert emb.app_feat.shape == (6, 2)
    assert np.all(np.linalg.norm(emb.id_feat.data, axis=1) < 1.0)
    assert np.all(np.linalg.norm(emb.app_feat.data, axis=1) < 1.0)
    # huge activations still stay inside the unit ball
    big = model.separator_forward(Tensor(np.full((1, 3, 2, 2), 1e4)))
    assert np.linalg.norm(big.id_feat.data) < 1.0


def test_separator_eval_mode_deterministic():
    cfg = NetworkConfig(image_shape=(1, 4, 4), feature_shape=(3, 2, 2),
                        id_dim=4, app_dim=2, num_identities=3, id_dropout=0.5)
    model = ReidModel(cfg, seed=3)
    f = model.backbone_forward(np.random.default_rng(2).uniform(size=(3, 1, 4, 4)))
    a = model.separator_forward(f)
    b = model.separator_forward(f)
    np.testing.assert_array_equal(a.id_feat.data, b.id_feat.data)


def test_separator_dropout_zeroes_components_without_rescale():
    cfg = NetworkConfig(image_shape=(1, 4, 4), feature_shape=(3, 2, 2),
                        id_dim=4, app_dim=2, num_identities=3, id_dropout=0.5)
    model = ReidModel(cfg, seed=3)
    f = model.backbone_forward(np.random.default_rng(2).uniform(size=(8, 1, 4, 4)))
    plain = model.separator_forward(f)
    dropped = model.separator_forward(f, train_mode=True, rng=np.random.default_rng(0))
    zeroed = dropped.id_feat.data == 0.0
    assert zeroed.any()
    # surviving components keep their eval-mode values (no inverted scaling)
    survived = ~zeroed
    np.testing.assert_array_equal(dropped.id_feat.data[survived], plain.id_feat.data[survived])
    assert np.all(np.linalg.norm(dropped.id_feat.data, axis=1) < 1.0)
    with pytest.raises(ValueError):
        model.separator_forward(f, train_mode=True)


def test_generator_shapes_range_and_sensitivity():
    model = ReidModel(SMALL, seed=4)
    rng = np.random.default_rng(3)
    id_a = Tensor(rng.uniform(-0.5, 0.5, size=(2, 4)))
    app_a = Tensor(rng.uniform(-0.5, 0.5, size=(2, 2)))
    tap, image = model.generator_forward(id_a, app_a)
    assert tap.shape == (2, 3, 2, 2)
    assert image.shape == (2, 1, 4, 4)
    assert np.all((image.data > 0.0) & (image.data < 1.0))
    id_b = Tensor(id_a.data + 0.1)
    tap_b, image_b = model.generator_forward(id_b, app_a)
    assert np.any(tap.data != tap_b.data)
    assert np.any(image.data != image_b.data)
    with pytest.raises(ShapeError):
        model.generator_forward(app_a, id_a)


def test_cam_logits_equal_gap_under_identity_weights():
    model = ReidModel(SMALL, seed=0)
    model.params["cam.w"].data[:] = np.eye(3)
    model.params["cam.b"].data[:] = 0.0
    logits = model.cam_logits(Tensor(np.ones((1, 3, 2, 2))))
    np.testing.assert_array_equal(logits.data, [[1.0, 1.0, 1.0]])


def test_cam_map_recovers_one_hot_channel():
    model = ReidModel(SMALL, seed=0)
    model.params["cam.w"].data[:] = np.eye(3)
    pattern = np.array([[1.0, 2.0], [3.0, 4.0]])
    f = np.zeros((1, 3, 2, 2))
    f[0, 1] = pattern
    cam = model.cam_maps(f, np.array([1]))
    np.testing.assert_array_equal(cam[0], pattern)


def test_cam_map_constant_input_and_linearity():
    model = ReidModel(SMALL, seed=7)
    f = np.full((1, 3, 2, 2), 2.0)
    cam = model.cam_maps(f, np.array([0]))
    assert np.ptp(cam[0]) == 0.0
    scaled = model.cam_maps(3.0 * np.random.default_rng(4).uniform(size=(1, 3, 2, 2)), np.array([2]))
    base = model.cam_maps(np.random.default_rng(4).uniform(size=(1, 3, 2, 2)), np.array([2]))
    np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12, atol=0)


def test_cam_map_rejects_bad_label():
    model = ReidModel(SMALL, seed=0)
    with pytest.raises(ValueError):
        model.cam_maps(np.zeros((1, 3, 2, 2)), np.array([3]))


def test_classifier_zero_embedding_gives_bias_logits():
    model = ReidModel(SMALL, seed=0)
    from sirmetric.networks import DisentangledEmbedding
    emb = DisentangledEmbedding(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 2))))
    logits = model.classifier_forward(emb)
    np.testing.assert_array_equal(logits.data, np.zeros((2, 3)))
    assert logits.shape == (2, 3)


def test_weight_sharing_single_parameter_set():
    model = ReidModel(SMALL, seed=0)
    f1 = model.backbone_forward(np.ones((1, 1, 4, 4)))
    f2 = model.backbone_forward(np.zeros((1, 1, 4, 4)))
    # both branches reference the identical parameter tensors
    assert f1._parents or True  # graph built
    before = model.params["backbone.w1"].data.copy()
    model.params["backbone.w1"].data += 1.0
    g1 = model.backbone_forward(np.ones((1, 1, 4, 4)))
    assert np.any(g1.data != f1.data)
    model.params["backbone.w1"].data[:] = before


def test_model_wraps_given_parameters_and_checks_their_shapes():
    drawn = ReidModel(SMALL, seed=0)
    params = {name: np.full(p.data.shape, 0.5) for name, p in drawn.params.items()}
    model = ReidModel(SMALL, params=params)
    assert list(model.params) == list(SMALL.parameter_shapes()) == list(params)
    assert all(model.params[name].data is params[name] for name in params)
    params["cam.w"] = np.zeros((1, 1))
    with pytest.raises(ShapeError, match="'cam.w'"):
        ReidModel(SMALL, params=params)


def test_embed_returns_the_eval_pass_as_arrays_in_256_row_chunks():
    cfg = NetworkConfig(image_shape=(1, 4, 4), feature_shape=(3, 2, 2), id_dim=4,
                        app_dim=2, num_identities=3, id_dropout=0.5)
    model = ReidModel(cfg, seed=3)
    images = np.random.default_rng(3).uniform(size=(600, 1, 4, 4))
    id_feat, app_feat, features = model.embed(images)
    assert (id_feat.shape, app_feat.shape, features.shape) == ((600, 4), (600, 2), (600, 3, 2, 2))
    # chunk by chunk, the plain forward passes (no dropout in eval mode)
    for start in range(0, 600, 256):
        chunk = model.backbone_forward(images[start:start + 256])
        emb = model.separator_forward(chunk)
        assert np.array_equal(features[start:start + 256], chunk.data)
        assert np.array_equal(id_feat[start:start + 256], emb.id_feat.data)
        assert np.array_equal(app_feat[start:start + 256], emb.app_feat.data)
    assert all(type(array) is np.ndarray for array in (id_feat, app_feat, features))
    empty = model.embed(np.zeros((0, 1, 4, 4)))
    assert [array.shape for array in empty] == [(0, 4), (0, 2), (0, 3, 2, 2)]
