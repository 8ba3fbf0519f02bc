"""Shape, determinism, and structural checks on the network graph."""
import sys
import threading

import numpy as np
import pytest

from sirmetric import autodiff as ad
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
    keep = (np.random.default_rng(0).random((8, 4)) >= 0.5).astype(np.float64)
    dropped = model.separator_forward(f, keep)
    zeroed = dropped.id_feat.data == 0.0
    assert zeroed.any()
    np.testing.assert_array_equal(zeroed, keep == 0.0)
    # surviving components keep their eval-mode values (no inverted scaling)
    survived = ~zeroed
    np.testing.assert_array_equal(dropped.id_feat.data[survived], plain.id_feat.data[survived])
    np.testing.assert_array_equal(dropped.app_feat.data, plain.app_feat.data)
    assert np.all(np.linalg.norm(dropped.id_feat.data, axis=1) < 1.0)


@pytest.mark.parametrize("shape", [(1, 4), (8, 1), (8, 6), (8,), (2, 8, 4)])
def test_separator_rejects_a_keep_mask_of_another_shape(shape):
    """Any mask not of the id half's shape is refused, broadcastable ones included."""
    model = ReidModel(SMALL, seed=3)
    f = model.backbone_forward(np.random.default_rng(2).uniform(size=(8, 1, 4, 4)))
    with pytest.raises(ShapeError, match="keep mask"):
        model.separator_forward(f, np.ones(shape))


def test_generator_shapes_range_and_sensitivity():
    model = ReidModel(SMALL, seed=4)
    rng = np.random.default_rng(3)
    id_a = Tensor(rng.uniform(-0.5, 0.5, size=(2, 4)))
    app_a = Tensor(rng.uniform(-0.5, 0.5, size=(2, 2)))
    tap, image = model.generator_forward(id_a, app_a, image_rows=2)
    assert tap.shape == (2, 3, 2, 2)
    assert image.shape == (2, 1, 4, 4)
    assert np.all((image.data > 0.0) & (image.data < 1.0))
    id_b = Tensor(id_a.data + 0.1)
    tap_b, image_b = model.generator_forward(id_b, app_a, image_rows=2)
    assert np.any(tap.data != tap_b.data)
    assert np.any(image.data != image_b.data)
    with pytest.raises(ShapeError):
        model.generator_forward(app_a, id_a, image_rows=2)


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
    [(id_feat, app_feat, features)] = model.embed(images)
    assert (id_feat.shape, app_feat.shape, features.shape) == ((600, 4), (600, 2), (600, 3, 2, 2))
    # chunk by chunk, the plain forward passes (no dropout in eval mode)
    for start in range(0, 600, 256):
        chunk = model.backbone_forward(images[start:start + 256])
        emb = model.separator_forward(chunk)
        assert np.array_equal(features[start:start + 256], chunk.data)
        assert np.array_equal(id_feat[start:start + 256], emb.id_feat.data)
        assert np.array_equal(app_feat[start:start + 256], emb.app_feat.data)
    assert all(type(array) is np.ndarray for array in (id_feat, app_feat, features))
    [empty] = model.embed(np.zeros((0, 1, 4, 4)))
    assert [array.shape for array in empty] == [(0, 4), (0, 2), (0, 3, 2, 2)]


# 128 * 256 + 256 * 64 + 64 * 64 + 64 * 20 = 54,528 multiply-adds per row,
# above embed's split rule of 2**15; the default widths (17,664) are below it
ABOVE_SPLIT = NetworkConfig(backbone_hidden=256)


def _chunk_by_chunk(model, images):
    parts = []
    with ad.no_grad():
        for start in range(0, max(len(images), 1), 256):
            features = model.backbone_forward(images[start:start + 256])
            emb = model.separator_forward(features)
            parts.append((emb.id_feat.data, emb.app_feat.data, features.data))
    return [np.concatenate(column) for column in zip(*parts)]


@pytest.mark.parametrize("rows", [255, 256, 257, 600, 1200])
def test_split_embed_equals_the_chunk_by_chunk_passes_bitwise(force_cpus, rows):
    started = force_cpus(2)
    model = ReidModel(ABOVE_SPLIT, seed=4)
    images = np.random.default_rng(rows).uniform(size=(rows, 1, 16, 8))
    before = threading.active_count()
    [arrays] = model.embed(images)
    assert threading.active_count() == before
    assert len(started) == min(2, -(-rows // 256)) - 1
    assert not any(thread.is_alive() for thread in started)
    for array, expected in zip(arrays, _chunk_by_chunk(model, images)):
        assert array.shape == expected.shape and array.tobytes() == expected.tobytes()
    assert Tensor(np.ones(2), requires_grad=True).mean().requires_grad  # grad mode is on


@pytest.mark.parametrize("cpus,rows,threads", [(3, 1200, 2), (4, 600, 2), (8, 257, 1), (1, 1200, 0)])
def test_split_embed_starts_one_thread_per_cpu_and_chunk_beyond_this_one(force_cpus, cpus,
                                                                         rows, threads):
    started = force_cpus(cpus)
    model = ReidModel(ABOVE_SPLIT, seed=5)
    images = np.random.default_rng(5).uniform(size=(rows, 1, 16, 8))
    [arrays] = model.embed(images)
    assert len(started) == threads and not any(thread.is_alive() for thread in started)
    for array, expected in zip(arrays, _chunk_by_chunk(model, images)):
        assert array.tobytes() == expected.tobytes()


def test_split_embed_with_more_workers_than_cores_under_fast_switching(force_cpus):
    """Eight workers on any host, switching threads every microsecond, over
    two batches' 13 chunks: no chunk is lost or written twice."""
    started = force_cpus(8)
    model = ReidModel(ABOVE_SPLIT, seed=9)
    rng = np.random.default_rng(9)
    batches = [rng.uniform(size=(rows, 1, 16, 8)) for rows in (2100, 1000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outputs = model.embed(*batches)
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 7 and not any(thread.is_alive() for thread in started)
    assert len(outputs) == 2
    for arrays, images in zip(outputs, batches):
        for array, expected in zip(arrays, _chunk_by_chunk(model, images)):
            assert array.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sizes", [(400, 400), (255, 257), (0, 300), (700,)],
                         ids=["400-400", "255-257", "0-300", "700"])
def test_embed_of_several_batches_equals_each_batchs_chunk_by_chunk_passes(force_cpus, sizes):
    """Each batch is cut into chunks from its own row 0, whichever worker
    computes them."""
    started = force_cpus(2)
    model = ReidModel(ABOVE_SPLIT, seed=10)
    rng = np.random.default_rng(len(sizes) * 1000 + sizes[-1])
    batches = [rng.uniform(size=(rows, 1, 16, 8)) for rows in sizes]
    outputs = model.embed(*batches)
    assert len(outputs) == len(batches) and len(started) == 1
    assert not started[0].is_alive()
    for arrays, images in zip(outputs, batches):
        assert all(type(array) is np.ndarray for array in arrays)
        for array, expected in zip(arrays, _chunk_by_chunk(model, images)):
            assert array.shape == expected.shape and array.tobytes() == expected.tobytes()


def test_embed_deals_each_chunk_once_to_the_next_free_worker(force_cpus, monkeypatch):
    """Four workers and three batches of two chunks each, with a patched
    backbone pass that records which thread computes which chunk and holds
    chunk 0 until every other chunk has started.  Each chunk is computed
    once, worker k takes chunk k first and then chunks in rising order,
    every started worker computes at least one, and the workers that are
    free take every chunk after the first four, so worker 0 computes only
    chunk 0 (dealing chunks k, k + workers, ... would give it chunk 4)."""
    started = force_cpus(4)
    model = ReidModel(ABOVE_SPLIT, seed=11)
    rng = np.random.default_rng(11)
    batches = [rng.uniform(size=(rows, 1, 16, 8)) for rows in (400, 300, 512)]
    for number, images in enumerate(batches):   # pixel 0 names the batch and row
        images[:, 0, 0, 0] = 10_000 * number + np.arange(len(images))
    chunk_numbers = {(number, start): index for index, (number, start) in enumerate(
        (number, start) for number, images in enumerate(batches)
        for start in range(0, len(images), 256))}
    expected = [_chunk_by_chunk(model, images) for images in batches]
    computed, seen, others = {}, [], set(range(1, len(chunk_numbers)))
    others_started = threading.Event()
    plain = model.backbone_forward

    def recording(x):
        first = int(x[0, 0, 0, 0])
        chunk = chunk_numbers[(first // 10_000, first % 10_000)]
        computed.setdefault(threading.current_thread(), []).append(chunk)
        seen.append(chunk)
        if chunk == 0:
            others_started.wait(timeout=10)
        elif others <= set(seen):
            others_started.set()
        return plain(x)

    monkeypatch.setattr(model, "backbone_forward", recording)
    outputs = model.embed(*batches)
    workers = [threading.main_thread(), *started]
    assert len(started) == 3 and set(computed) == set(workers)
    assert sorted(sum(computed.values(), [])) == list(range(len(chunk_numbers)))
    for worker, thread in enumerate(workers):
        assert computed[thread][0] == worker and computed[thread] == sorted(computed[thread])
    assert computed[threading.main_thread()] == [0]
    for arrays, passes in zip(outputs, expected):
        assert [array.tobytes() for array in arrays] == [array.tobytes() for array in passes]


def test_embed_below_the_split_rule_starts_no_thread(force_cpus):
    started = force_cpus(2)
    model = ReidModel(NetworkConfig(), seed=6)
    images = np.random.default_rng(6).uniform(size=(1200, 1, 16, 8))
    [arrays] = model.embed(images)
    assert started == []
    for array, expected in zip(arrays, _chunk_by_chunk(model, images)):
        assert array.tobytes() == expected.tobytes()


def test_an_error_on_an_embed_worker_reaches_the_caller_with_no_thread_left(force_cpus,
                                                                            monkeypatch):
    started = force_cpus(2)
    model = ReidModel(ABOVE_SPLIT, seed=7)
    plain = model.separator_forward

    def fails_off_the_main_thread(features, keep=None):
        if threading.current_thread() is not threading.main_thread():
            raise ShapeError("worker chunk")
        return plain(features, keep)

    monkeypatch.setattr(model, "separator_forward", fails_off_the_main_thread)
    before = threading.active_count()
    with pytest.raises(ShapeError, match="worker chunk"):
        model.embed(np.zeros((600, 1, 16, 8)), np.zeros((300, 1, 16, 8)))
    assert threading.active_count() == before
    assert len(started) == 1 and not started[0].is_alive()
    assert Tensor(np.ones(2), requires_grad=True).mean().requires_grad  # grad mode is on


def test_split_embed_of_the_empty_batch_keeps_its_shapes(force_cpus):
    started = force_cpus(2)
    [arrays] = ReidModel(ABOVE_SPLIT, seed=8).embed(np.zeros((0, 1, 16, 8)))
    assert [array.shape for array in arrays] == [(0, 16), (0, 4), (0, 8, 4, 2)]
    assert started == []
