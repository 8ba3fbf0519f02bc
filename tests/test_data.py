"""Synthetic dataset construction, triplet sampling, transforms, and the
archive round-trip."""
import numpy as np
import pytest

from sirmetric.blobio import ArchiveError, read_archive, write_archive
from sirmetric.data import (Dataset, DatasetManifest, generate,
                            horizontal_flip, load_dataset, randomly_grayscale,
                            sample_triplet, save_dataset, to_grayscale)


def test_manifest_validation():
    with pytest.raises(ValueError):
        DatasetManifest(samples_per_identity=10)  # splits sum to 20
    with pytest.raises(ValueError):
        DatasetManifest(train_per_identity=1, query_per_identity=10,
                        gallery_per_identity=9)
    with pytest.raises(ValueError):
        DatasetManifest(query_per_identity=8, gallery_per_identity=0,
                        train_per_identity=12)
    with pytest.raises(ValueError):
        DatasetManifest(appearance_bands=5)  # 12 rows not divisible by 5


def test_generate_deterministic_under_seed():
    manifest = DatasetManifest(seed=42)
    a = generate(manifest)
    b = generate(manifest)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = generate(DatasetManifest(seed=43))
    assert np.any(a.images != c.images)


def test_identity_region_fixed_appearance_region_varies():
    manifest = DatasetManifest()
    ds = generate(manifest)
    rows = manifest.identity_rows
    first, second = ds.images[0], ds.images[1]  # two samples of identity 0
    assert ds.labels[0] == ds.labels[1]
    np.testing.assert_array_equal(first[:, :rows], second[:, :rows])
    assert np.any(first[:, rows:] != second[:, rows:])


def test_appearance_bands_are_constant_rows():
    manifest = DatasetManifest()
    ds = generate(manifest)
    image = ds.images[5]
    rows = manifest.identity_rows
    for band in range(manifest.appearance_bands):
        start = rows + band * manifest.band_rows
        chunk = image[:, start:start + manifest.band_rows, :]
        assert np.ptp(chunk) == 0.0


def _generate_oracle(manifest):
    """Per-sample reference renderer: per-identity draws in the order
    signature, then appearances; each image painted band by band."""
    rng = np.random.default_rng(np.random.SeedSequence((manifest.seed, 2)))
    channels, height, width = manifest.image_shape
    rows = manifest.identity_rows
    images, labels, train, query, gallery = [], [], [], [], []
    for identity in range(manifest.num_identities):
        signature = rng.uniform(size=(channels, rows, width))
        appearances = rng.uniform(
            size=(manifest.samples_per_identity, channels, manifest.appearance_bands))
        for j, appearance in enumerate(appearances):
            image = np.empty((channels, height, width))
            image[:, :rows, :] = signature
            for band in range(manifest.appearance_bands):
                start = rows + band * manifest.band_rows
                image[:, start:start + manifest.band_rows, :] = appearance[:, band, None, None]
            if j < manifest.train_per_identity:
                split = train
            elif j < manifest.train_per_identity + manifest.query_per_identity:
                split = query
            else:
                split = gallery
            split.append(len(images))
            images.append(image)
            labels.append(identity)
    return np.stack(images), np.array(labels), train, query, gallery


@pytest.mark.parametrize("manifest", [
    DatasetManifest(),
    DatasetManifest(num_identities=12, image_shape=(3, 16, 8), seed=7),
    DatasetManifest(num_identities=5, image_shape=(2, 20, 3), appearance_bands=3, seed=3),
    DatasetManifest(num_identities=3, samples_per_identity=6, train_per_identity=4,
                    query_per_identity=0, gallery_per_identity=2, seed=9),
])
def test_generate_matches_per_sample_oracle(manifest):
    ds = generate(manifest)
    images, labels, train, query, gallery = _generate_oracle(manifest)
    assert np.array_equal(ds.images, images)
    assert np.array_equal(ds.labels, labels)
    for got, want in ((ds.train_idx, train), (ds.query_idx, query), (ds.gallery_idx, gallery)):
        assert np.array_equal(got, want) and got.ndim == 1


def test_labels_and_split_structure():
    manifest = DatasetManifest()
    ds = generate(manifest)
    assert len(ds.labels) == 200
    counts = np.bincount(ds.labels, minlength=10)
    np.testing.assert_array_equal(counts, np.full(10, 20))
    train, query, gallery = set(ds.train_idx), set(ds.query_idx), set(ds.gallery_idx)
    assert not query & gallery
    assert not train & (query | gallery)
    assert set(ds.labels[ds.query_idx]) <= set(ds.labels[ds.gallery_idx])
    assert len(ds.train_idx) == 120 and len(ds.query_idx) == 40 and len(ds.gallery_idx) == 40


def test_triplet_constraints_hold_over_many_draws():
    ds = generate(DatasetManifest())
    rng = np.random.default_rng(0)
    train = set(ds.train_idx)
    for _ in range(10_000):
        q, p, n = sample_triplet(ds, rng)
        assert q != p
        assert ds.labels[q] == ds.labels[p]
        assert ds.labels[q] != ds.labels[n]
        assert q in train and p in train and n in train


def test_triplet_sequence_reproducible():
    ds = generate(DatasetManifest())
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    seq1 = [sample_triplet(ds, rng1) for _ in range(50)]
    seq2 = [sample_triplet(ds, rng2) for _ in range(50)]
    assert seq1 == seq2


def test_triplet_covers_all_pairs_two_by_two():
    manifest = DatasetManifest(num_identities=2, samples_per_identity=2,
                               train_per_identity=2, query_per_identity=0,
                               gallery_per_identity=0)
    ds = generate(manifest)
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(1000):
        q, p, _ = sample_triplet(ds, rng)
        seen.add((q, p))
    assert len(seen) == 4  # both ordered pairs within each identity


def test_triplet_requires_two_train_samples():
    ds = generate(DatasetManifest())
    starved = Dataset(ds.images, ds.labels, np.array([0, 20, 40]), ds.query_idx,
                      ds.gallery_idx, ds.manifest)
    with pytest.raises(ValueError):
        sample_triplet(starved, np.random.default_rng(0))


def test_grayscale_luminance_values():
    white = np.ones((3, 2, 2))
    np.testing.assert_allclose(to_grayscale(white), np.ones((1, 2, 2)),
                               rtol=0, atol=1e-15)
    red = np.zeros((3, 2, 2))
    red[0] = 1.0
    np.testing.assert_allclose(to_grayscale(red), np.full((1, 2, 2), 0.299),
                               rtol=0, atol=1e-15)
    single = np.random.default_rng(2).uniform(size=(1, 3, 3))
    np.testing.assert_array_equal(to_grayscale(single), single)
    with pytest.raises(ValueError):
        to_grayscale(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        to_grayscale(np.zeros((3, 2)))
    batch = np.random.default_rng(3).uniform(size=(5, 3, 4, 2))
    per_image = np.stack([to_grayscale(image) for image in batch])
    assert to_grayscale(batch).shape == (5, 1, 4, 2)
    assert to_grayscale(batch).tobytes() == per_image.tobytes()


def test_flip_is_involution():
    rng = np.random.default_rng(3)
    image = rng.uniform(size=(1, 4, 6))
    np.testing.assert_array_equal(horizontal_flip(horizontal_flip(image)), image)
    flipped = horizontal_flip(image)
    np.testing.assert_array_equal(flipped[0, :, 0], image[0, :, -1])
    batch = rng.uniform(size=(5, 1, 4, 6))
    np.testing.assert_array_equal(horizontal_flip(horizontal_flip(batch)), batch)


def test_randomly_grayscale_frequency_and_effect():
    rng = np.random.default_rng(4)
    images = np.random.default_rng(5).uniform(size=(10_000, 3, 2, 2))
    out, applied = randomly_grayscale(images, rng, probability=0.1)
    rate = applied.mean()
    assert 0.07 <= rate <= 0.13
    hit = np.flatnonzero(applied)[0]
    np.testing.assert_allclose(out[hit][0], out[hit][1], rtol=0, atol=1e-15)
    for index in np.flatnonzero(applied):
        expected = np.broadcast_to(to_grayscale(images[index]), images[index].shape)
        assert np.array_equal(out[index], expected)
    np.testing.assert_array_equal(out[~applied], images[~applied])


def test_randomly_grayscale_consumes_fixed_draws():
    # rng state after the call must not depend on which images were hit
    images = np.random.default_rng(6).uniform(size=(20, 1, 4, 4))
    rng_a = np.random.default_rng(8)
    randomly_grayscale(images, rng_a, probability=0.0)
    rng_b = np.random.default_rng(8)
    randomly_grayscale(images, rng_b, probability=1.0)
    assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)


def test_dataset_archive_roundtrip(tmp_path):
    ds = generate(DatasetManifest(seed=11))
    save_dataset(ds, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(loaded.images, ds.images)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    np.testing.assert_array_equal(loaded.train_idx, ds.train_idx)
    np.testing.assert_array_equal(loaded.query_idx, ds.query_idx)
    np.testing.assert_array_equal(loaded.gallery_idx, ds.gallery_idx)
    assert loaded.manifest == ds.manifest


def _first_set_to(value):
    def edit(values):
        values = values.copy()
        values[0] = value
        return values
    return edit


@pytest.mark.parametrize("name,edit", [
    ("query_idx", _first_set_to(10 ** 6)),
    ("gallery_idx", _first_set_to(-1)),
    ("train_idx", _first_set_to(0.5)),
    ("labels", _first_set_to(np.nan)),
    ("train_idx", lambda values: values.reshape(-1, 2)),
    ("labels", lambda values: values[:-1]),
])
def test_load_dataset_rejects_bad_index_tensors(tmp_path, name, edit):
    save_dataset(generate(DatasetManifest()), tmp_path / "ds")
    meta, tensors = read_archive(tmp_path / "ds")
    tensors[name] = edit(tensors[name])
    write_archive(tmp_path / "ds", meta, tensors)
    with pytest.raises(ArchiveError) as info:
        load_dataset(tmp_path / "ds")
    assert repr(name) in str(info.value) and str(tmp_path / "ds") in str(info.value)


@pytest.mark.parametrize("name,edit", [
    ("labels", _first_set_to(10)),
    ("images", lambda values: values[:-1]),
    ("images", lambda values: values.reshape(-1, 16, 8)),
], ids=["label-out-of-range", "image-missing", "images-3d"])
def test_load_dataset_rejects_tensors_disagreeing_with_manifest(tmp_path, name, edit):
    test_load_dataset_rejects_bad_index_tensors(tmp_path, name, edit)


def test_archive_format_checks(tmp_path):
    write_archive(tmp_path / "a", {"kind": "dataset"}, {"x": np.arange(3.0)})
    meta, tensors = read_archive(tmp_path / "a")
    assert meta["kind"] == "dataset"
    np.testing.assert_array_equal(tensors["x"], [0.0, 1.0, 2.0])
    text = (tmp_path / "a" / "manifest.txt").read_text()
    assert text.splitlines()[0] == "format=sir-metric/1"
    with pytest.raises(ArchiveError):
        read_archive(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.txt").write_text("format=other/9\n")
    (bad / "data.blob").write_bytes(b"")
    with pytest.raises(ArchiveError):
        read_archive(bad)


def test_archive_rejects_blob_overrun(tmp_path):
    write_archive(tmp_path / "a", {}, {"x": np.arange(4.0)})
    blob = tmp_path / "a" / "data.blob"
    blob.write_bytes(blob.read_bytes()[:16])
    with pytest.raises(ArchiveError):
        read_archive(tmp_path / "a")


def test_archive_rejects_trailing_blob_bytes(tmp_path):
    write_archive(tmp_path / "a", {}, {"x": np.arange(4.0), "y": np.ones((2, 2))})
    blob = tmp_path / "a" / "data.blob"
    blob.write_bytes(blob.read_bytes() + bytes(8))
    with pytest.raises(ArchiveError) as info:
        read_archive(tmp_path / "a")
    assert str(tmp_path / "a") in str(info.value)
    write_archive(tmp_path / "empty", {}, {})
    (tmp_path / "empty" / "data.blob").write_bytes(bytes(1))
    with pytest.raises(ArchiveError):
        read_archive(tmp_path / "empty")


def _three_tensor_archive(path):
    """x, y and z at bytes 0-32, 32-64 and 64-88 of an 88-byte blob."""
    write_archive(path, {}, {"x": np.arange(4.0), "y": np.ones((2, 2)), "z": np.arange(3.0)})
    manifest = path / "manifest.txt"
    return manifest, manifest.read_text().splitlines()


@pytest.mark.parametrize("offset", [24, 40], ids=["overlap", "gap"])
def test_archive_extents_must_tile_the_blob(tmp_path, offset):
    """y moved onto x's last value or 8 bytes past x's end: the blob length
    still matches the furthest extent, but the extents no longer tile."""
    manifest, lines = _three_tensor_archive(tmp_path / "a")
    manifest.write_text("\n".join(line.replace("tensor.y=2,2:32", f"tensor.y=2,2:{offset}")
                                  for line in lines) + "\n")
    with pytest.raises(ArchiveError) as info:
        read_archive(tmp_path / "a")
    assert str(tmp_path / "a") in str(info.value)


@pytest.mark.parametrize("entry", ["-2,-2:0", "4,-1:0", "-4:0", "2,,2:0", "2,x:0", "4"],
                         ids=["negatives-tile", "one-negative", "negative", "empty-dim",
                              "junk-dim", "no-offset"])
def test_archive_rejects_a_malformed_tensor_line(tmp_path, entry):
    """x holds 4 floats; every line is bad, and "-2,-2" multiplies to 4, so
    it tiles the blob and used to fail later, in reshape, naming nothing."""
    write_archive(tmp_path / "a", {}, {"x": np.arange(4.0)})
    manifest = tmp_path / "a" / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("tensor.x=4:0", f"tensor.x={entry}"))
    with pytest.raises(ArchiveError) as info:
        read_archive(tmp_path / "a")
    assert str(tmp_path / "a") in str(info.value) and "'x'" in str(info.value)


def test_archive_rejects_a_partial_float_tail(tmp_path):
    _three_tensor_archive(tmp_path / "a")
    blob = tmp_path / "a" / "data.blob"
    blob.write_bytes(blob.read_bytes() + bytes(7))
    with pytest.raises(ArchiveError) as info:
        read_archive(tmp_path / "a")
    assert str(tmp_path / "a") in str(info.value) and "95-byte" in str(info.value)


def test_archive_tensor_lines_in_any_order_load_as_views(tmp_path):
    manifest, lines = _three_tensor_archive(tmp_path / "a")
    manifest.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
    _, tensors = read_archive(tmp_path / "a")
    np.testing.assert_array_equal(tensors["x"], np.arange(4.0))
    np.testing.assert_array_equal(tensors["y"], np.ones((2, 2)))
    np.testing.assert_array_equal(tensors["z"], np.arange(3.0))
    # one buffer: each tensor is a writable view of its own extent
    assert tensors["x"].base is tensors["z"].base is not None and tensors["y"].flags.writeable
