"""Synthetic dataset construction, triplet sampling, transforms, and the
archive round-trip."""
import os
from dataclasses import replace

import numpy as np
import pytest

from sirmetric.blobio import ArchiveError, read_archive, write_archive
from sirmetric.data import (Dataset, DatasetManifest, generate,
                            horizontal_flip, load_dataset, randomly_grayscale,
                            sample_triplet, sample_triplets, save_dataset,
                            to_grayscale)


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


def _reference_triplets(ds, rng, draws):
    """The list-based oracle: per-identity lists in train order, the query
    uniform over identities with >= 2 train samples, the positive from the
    list of its other samples, the negative from the list of every train
    sample of another identity; the same three draws per triplet."""
    by_id = {}
    for idx in ds.train_idx:
        by_id.setdefault(int(ds.labels[idx]), []).append(int(idx))
    eligible = [idx for ident in sorted(by_id) if len(by_id[ident]) >= 2
                for idx in by_id[ident]]
    for _ in range(draws):
        q = eligible[int(rng.integers(len(eligible)))]
        same = [i for i in by_id[int(ds.labels[q])] if i != q]
        p = same[int(rng.integers(len(same)))]
        others = [int(i) for i in ds.train_idx if ds.labels[i] != ds.labels[q]]
        n = others[int(rng.integers(len(others)))]
        yield q, p, n


def _draw_cases(tmp_path) -> list:
    """An identity cut to 3 train samples, a shuffled train order, an
    identity with one train sample and unequal group sizes, and that set
    after an archive round trip."""
    manifest = DatasetManifest(num_identities=5, samples_per_identity=8,
                               train_per_identity=6, query_per_identity=1,
                               gallery_per_identity=1)
    ds = generate(manifest)
    shuffled = np.random.default_rng(4).permutation(ds.train_idx)
    # identity 1 keeps four train samples, identity 2 one, identity 3 two
    uneven = np.setdiff1d(ds.train_idx, [10, 11, 17, 18, 19, 20, 21, 25, 26, 27, 28])
    uneven = np.random.default_rng(5).permutation(uneven)
    save_dataset(replace(ds, train_idx=uneven), tmp_path / "ds")
    return [replace(ds, train_idx=ds.train_idx[3:]), replace(ds, train_idx=shuffled),
            replace(ds, train_idx=uneven), load_dataset(tmp_path / "ds")]


def test_triplet_draws_match_list_reference(tmp_path):
    """The index draws the oracle's triplets on every _draw_cases set."""
    for case in _draw_cases(tmp_path):
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        drawn = [sample_triplet(case, rng) for _ in range(10_000)]
        assert drawn == list(_reference_triplets(case, ref_rng, 10_000))
        assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)
    lone = 16  # identity 2's only train sample: a negative, never a query or positive
    assert any(n == lone for _, _, n in drawn)
    assert all(lone not in (q, p) for q, p, _ in drawn)


def test_batched_triplet_draws_match_sample_triplet(tmp_path):
    """sample_triplets takes the oracle's triplets, count 0 included, and
    leaves the generator where the oracle's draws do: in one batched draw on
    the shuffled set and on uniform sets (6, 12 and 2 train samples per
    identity), by three scalar draws per triplet on the sets with unequal
    groups."""
    uniform = [generate(DatasetManifest()),
               generate(DatasetManifest(num_identities=100, image_shape=(3, 16, 8), seed=3)),
               generate(DatasetManifest(num_identities=4, samples_per_identity=5,
                                        train_per_identity=2, query_per_identity=2,
                                        gallery_per_identity=1))]
    batched = []
    for case in _draw_cases(tmp_path) + uniform:
        for seed in range(10):
            for count in (0, 1, 8, 64):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                q_idx, p_idx, n_idx = sample_triplets(case, rng, count)
                assert all(part.shape == (count,) and part.dtype == np.int64
                           for part in (q_idx, p_idx, n_idx))
                assert list(zip(q_idx.tolist(), p_idx.tolist(), n_idx.tolist())) == list(
                    _reference_triplets(case, ref_rng, count))
                assert rng.random() == ref_rng.random()
        batched.append(case._sampler_cache["size"] > 0)
    assert batched == [False, True, False, False, True, True, True]


def test_copied_dataset_builds_its_own_sampler_index():
    """A split made with dataclasses.replace after the parent's index is
    built draws only from its own train samples."""
    ds = generate(DatasetManifest())
    sample_triplet(ds, np.random.default_rng(0))
    half = replace(ds, train_idx=ds.train_idx[ds.labels[ds.train_idx] < 5])
    rng = np.random.default_rng(1)
    drawn = {idx for _ in range(2000) for idx in sample_triplet(half, rng)}
    assert drawn <= set(half.train_idx.tolist())


def _entries(value):
    """Entries held by nested lists, tuples, dicts and arrays, each container
    counted by its length and each array by its size."""
    if isinstance(value, np.ndarray):
        return value.size
    if isinstance(value, dict):
        return len(value) + sum(_entries(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return len(value) + sum(_entries(v) for v in value)
    return 0


def test_sampler_index_is_linear_in_train_size():
    """1,000 identities with 12 train samples each, and 1,000 where one
    holds 10,000 and the rest 2 each: a per-identity list of every other
    identity's samples would hold about 12 million entries, and a padded
    identities x largest-group table 10 million on the skewed set."""
    for counts in (np.full(1000, 12), np.r_[10_000, np.full(999, 2)]):
        labels = np.repeat(np.arange(1000), counts)
        train = np.random.default_rng(0).permutation(len(labels))
        ds = Dataset(np.zeros((len(labels), 1, 1, 1)), labels, train, train[:0], train[:0],
                     DatasetManifest(num_identities=1000, samples_per_identity=12,
                                     train_per_identity=12, query_per_identity=0,
                                     gallery_per_identity=0))
        rng = np.random.default_rng(1)
        for _ in range(1000):
            q, p, n = sample_triplet(ds, rng)
            assert q != p and labels[q] == labels[p] != labels[n]
        assert _entries(ds._sampler_cache) <= 10 * len(train)


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


def test_triplet_requires_a_negative_candidate():
    ds = generate(DatasetManifest())
    lone = replace(ds, train_idx=ds.train_idx[:12])  # identity 0 alone
    with pytest.raises(ValueError, match="no negative candidates"):
        sample_triplet(lone, np.random.default_rng(0))


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
    # query 12 moved onto gallery 16: the query would match its own image
    pytest.param("query_idx", _first_set_to(16), id="query-in-gallery"),
    # train 0 replaced by a second train 1: a query could be its own positive
    pytest.param("train_idx", _first_set_to(1), id="train-repeated"),
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
    assert text.splitlines()[0] == "format=sir-metric/2"
    with pytest.raises(ArchiveError, match="illegal meta key"):
        write_archive(tmp_path / "b", {"blob.sum": 0}, {})
    with pytest.raises(ArchiveError):
        read_archive(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.txt").write_text("format=other/9\n")
    (bad / "data.blob").write_bytes(b"")
    with pytest.raises(ArchiveError):
        read_archive(bad)


def test_blob_sum_is_the_wrapping_sum_of_the_blob_words(tmp_path):
    """Negative floats have the top bit set, so their words overflow 2**64."""
    write_archive(tmp_path / "a", {}, {"x": -np.arange(1.0, 9.0), "y": np.array([np.inf, -0.0])})
    raw = (tmp_path / "a" / "data.blob").read_bytes()
    words = [int.from_bytes(raw[i:i + 8], "little") for i in range(0, len(raw), 8)]
    assert sum(words) >= 2**64
    lines = (tmp_path / "a" / "manifest.txt").read_text().splitlines()
    assert f"blob.sum={sum(words) % 2**64}" in lines
    meta, _ = read_archive(tmp_path / "a")
    assert "blob.sum" not in meta


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


OLD_TENSORS = {"x": np.arange(4.0), "y": np.ones((2, 2))}


def _raise_on_swap(*args):
    raise OSError("swap failed")


def _raise_on_second_swap(src, dst, _replace=os.replace):
    """os.replace that fails only on moving the new archive into place."""
    if str(src).endswith(".tmp"):
        raise OSError("swap failed")
    _replace(src, dst)


@pytest.mark.parametrize("fault", ["conversion", "swap", "second-swap"])
def test_interrupted_archive_write_keeps_the_old_archive(tmp_path, monkeypatch, fault):
    """A write that fails after some bytes are out (a tensor that cannot
    become float64, sorted after one that could; a failed swap; or a failed
    move of the new archive after the old one was moved aside) leaves the
    previous archive loading bit-identically and no ``<dir>.tmp`` behind."""
    path = tmp_path / "a"
    write_archive(path, {"kind": "old"}, OLD_TENSORS)
    new = {"a": np.arange(3.0), "b": np.array(["x"]) if fault == "conversion" else np.zeros(2)}
    with monkeypatch.context() as patch:
        if fault != "conversion":
            patch.setattr("os.replace", _raise_on_swap if fault == "swap" else _raise_on_second_swap)
        with pytest.raises((ValueError, OSError)):
            write_archive(path, {"kind": "new"}, new)
    meta, tensors = read_archive(path)
    assert meta == {"kind": "old"}
    assert {name: t.tobytes() for name, t in tensors.items()} == {
        name: t.tobytes() for name, t in OLD_TENSORS.items()}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]
    write_archive(path, {"kind": "new"}, {"a": np.arange(3.0)})
    assert read_archive(path)[0] == {"kind": "new"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]


def test_archive_rewrite_swaps_in_new_files(tmp_path):
    """Rewriting an archive creates a new blob rather than truncating the
    old one, through any spelling of the path; it clears the ``<dir>.tmp``
    and ``<dir>.old`` a killed write can leave, and leaves neither."""
    path = tmp_path / "a"
    write_archive(path, {}, OLD_TENSORS)
    write_archive(tmp_path / "a.old", {}, OLD_TENSORS)
    (tmp_path / "a.tmp").mkdir()
    (tmp_path / "a.tmp" / "data.blob").write_bytes(bytes(8))
    first = (path / "data.blob").stat().st_ino
    write_archive(str(path) + "/", {}, {"x": np.arange(2.0)})
    assert (path / "data.blob").stat().st_ino != first
    np.testing.assert_array_equal(read_archive(path)[1]["x"], np.arange(2.0))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]


def _tree(root) -> dict:
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("kind", ["file", "symlink", "directory", "stale-tmp"])
def test_write_archive_refuses_to_replace_what_is_not_an_archive(tmp_path, kind):
    """A file, a symlink (even to an archive) or a directory holding other
    entries, at the target or at its ``<dir>.tmp``, is refused by name
    before anything is written or removed."""
    path = tmp_path / "a"
    write_archive(tmp_path / "b", {}, OLD_TENSORS)
    refused = tmp_path / "a.tmp" if kind == "stale-tmp" else path
    if kind == "file":
        path.write_text("keep")
    elif kind == "symlink":
        path.symlink_to(tmp_path / "b")
    else:
        refused.mkdir()
        (refused / "notes.txt").write_text("keep")
        (refused / "data.blob").write_bytes(bytes(8))
    before = _tree(tmp_path)
    with pytest.raises(ArchiveError) as info:
        write_archive(path, {}, {"x": np.arange(2.0)})
    assert f"{refused} is not an archive directory" in str(info.value)
    assert _tree(tmp_path) == before
