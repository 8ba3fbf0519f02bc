"""Center computation; the refresh schedule is the Trainer's (test_training.py)."""
from types import SimpleNamespace

import numpy as np
import pytest

from sirmetric.autodiff import Tensor
from sirmetric.clusters import ClusterRegistry
from sirmetric.networks import DisentangledEmbedding, NetworkConfig, ReidModel


class _PassthroughModel:
    """Stub whose id embedding is the flattened input image, for exact-mean
    oracles; the chunked eval pass is ReidModel's own."""

    embed = ReidModel.embed

    def __init__(self, num_identities, id_dim):
        self.config = SimpleNamespace(num_identities=num_identities, id_dim=id_dim)

    def backbone_forward(self, x):
        return Tensor(np.asarray(x))

    def separator_forward(self, f, keep=None):
        flat = f.data.reshape(f.data.shape[0], -1)
        return DisentangledEmbedding(Tensor(flat), Tensor(flat[:, :1]))


def test_center_is_mean_of_class_embeddings():
    model = _PassthroughModel(num_identities=2, id_dim=2)
    images = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    labels = np.array([0, 0, 1])
    registry = ClusterRegistry()
    registry.refresh(images, labels, model, epoch=0)
    np.testing.assert_array_equal(registry.centers[0], [0.5, 0.5])
    np.testing.assert_array_equal(registry.centers[1], [0.5, 0.5])


@pytest.mark.parametrize("id_dim,sizes", [(16, (1, 7, 12, 30, 9)), (3, (20, 8, 2)),
                                           (1, (12, 12, 12))],
                         ids=["unequal-16", "unequal-3", "equal-1"])
def test_grouped_centers_equal_masked_means_bitwise(id_dim, sizes):
    """Shuffled labels with unequal group sizes (or a one-column embedding
    with equal sizes): each center has the bits of the masked mean."""
    rng = np.random.default_rng(id_dim)
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    images = rng.normal(size=(len(labels), id_dim)) * rng.choice([1e-3, 1.0, 1e6], size=(len(labels), 1))
    images[rng.random(images.shape) < 0.05] = -0.0
    images[labels == np.argmin(sizes), 0] = -0.0   # a column of -0.0 in a padded group
    registry = ClusterRegistry()
    registry.refresh(images, labels, _PassthroughModel(len(sizes), id_dim), epoch=0)
    for identity in range(len(sizes)):
        expected = images[labels == identity].mean(axis=0)
        assert registry.centers[identity].tobytes() == expected.tobytes(), identity


def test_single_sample_class_center_equals_embedding():
    model = _PassthroughModel(num_identities=2, id_dim=3)
    images = np.array([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]])
    registry = ClusterRegistry()
    registry.refresh(images, np.array([0, 1]), model, epoch=0)
    np.testing.assert_array_equal(registry.centers[1], [0.9, 0.8, 0.7])


def test_missing_identity_raises():
    model = _PassthroughModel(num_identities=3, id_dim=2)
    registry = ClusterRegistry()
    with pytest.raises(ValueError):
        registry.refresh(np.ones((2, 2)), np.array([0, 1]), model, epoch=0)


@pytest.mark.parametrize("labels", [[0, 1, 2], [-1, 0, 1]], ids=["above", "below"])
def test_label_outside_the_identities_raises(labels):
    """Every identity 0..1 is present, plus a label the heads do not have:
    it would be a third row of a two-identity center matrix."""
    registry = ClusterRegistry()
    with pytest.raises(ValueError, match=r"^labels outside identities 0\.\.1: \[-?[12]\]$"):
        registry.refresh(np.ones((3, 2)), np.array(labels), _PassthroughModel(2, 2), epoch=0)
    assert registry.centers is None and registry.last_refresh_epoch is None


def test_refresh_idempotent_with_frozen_model():
    cfg = NetworkConfig(image_shape=(1, 4, 4), feature_shape=(3, 2, 2),
                        id_dim=4, app_dim=2, num_identities=3, id_dropout=0.5)
    model = ReidModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    images = rng.uniform(size=(9, 1, 4, 4))
    labels = np.repeat(np.arange(3), 3)
    registry = ClusterRegistry()
    registry.refresh(images, labels, model, epoch=0)
    first = registry.centers.copy()
    registry.refresh(images, labels, model, epoch=1)
    np.testing.assert_array_equal(first, registry.centers)


def test_center_norms_below_one():
    cfg = NetworkConfig(image_shape=(1, 4, 4), feature_shape=(3, 2, 2),
                        id_dim=4, app_dim=2, num_identities=3, id_dropout=0.0)
    model = ReidModel(cfg, seed=1)
    rng = np.random.default_rng(1)
    registry = ClusterRegistry()
    registry.refresh(rng.uniform(size=(12, 1, 4, 4)), np.repeat(np.arange(3), 4),
                     model, epoch=0)
    matrix = registry.centers_matrix()
    assert matrix is registry.centers and matrix.dtype == np.float64
    assert matrix.shape == (3, 4)
    assert np.all(np.linalg.norm(matrix, axis=1) < 1.0)


def test_centers_matrix_requires_a_refresh():
    registry = ClusterRegistry()
    with pytest.raises(RuntimeError, match="refresh before stepping"):
        registry.centers_matrix()


def test_refresh_uses_eval_mode_despite_dropout():
    cfg = NetworkConfig(image_shape=(1, 4, 4), feature_shape=(3, 2, 2),
                        id_dim=4, app_dim=2, num_identities=2, id_dropout=0.9)
    model = ReidModel(cfg, seed=2)
    rng = np.random.default_rng(2)
    images = rng.uniform(size=(6, 1, 4, 4))
    labels = np.array([0, 0, 0, 1, 1, 1])
    a = ClusterRegistry()
    b = ClusterRegistry()
    a.refresh(images, labels, model, epoch=0)
    b.refresh(images, labels, model, epoch=0)
    np.testing.assert_array_equal(a.centers, b.centers)
