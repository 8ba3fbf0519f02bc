"""Trainer determinism, checkpoint round-trip, and resume equality at
miniature scale."""
import hashlib
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from sirmetric import checkpoint, training
from sirmetric.autodiff import no_grad
from sirmetric.blobio import Entries
from sirmetric.checkpoint import load_checkpoint, save_checkpoint
from sirmetric.cli import main
from sirmetric.clusters import ClusterRegistry
from sirmetric.config import ConfigError, RunConfig
from sirmetric.data import (DatasetManifest, generate, randomly_grayscale, sample_triplet,
                            save_dataset)
from sirmetric.evaluate import evaluate_retrieval, metrics_json
from sirmetric.losses import LossWeights
from sirmetric.networks import NetworkConfig, ReidModel
from sirmetric.training import LOG_HEADER, Trainer, draw_step, read_loss_log, step_losses

TINY_NET = NetworkConfig(image_shape=(1, 8, 4), feature_shape=(4, 2, 2),
                         id_dim=6, app_dim=3, num_identities=4,
                         backbone_hidden=16, separator_hidden=16,
                         generator_hidden=16, id_dropout=0.1)
TINY_DATA = DatasetManifest(num_identities=4, samples_per_identity=5,
                            train_per_identity=3, query_per_identity=1,
                            gallery_per_identity=1, image_shape=(1, 8, 4),
                            appearance_bands=6, seed=0)


def _tiny_config(tmp_path, **kwargs):
    defaults = dict(network=TINY_NET, data=TINY_DATA, batch_size=2, epochs=2,
                    steps_per_epoch=3, out_dir=str(tmp_path / "run"))
    defaults.update(kwargs)
    return RunConfig(**defaults)


def test_run_writes_log_and_checkpoints(tmp_path):
    trainer = Trainer(_tiny_config(tmp_path))
    before = {k: v.data.copy() for k, v in trainer.model.params.items()}
    rows = trainer.run()
    assert len(rows) == 6
    assert all(np.isfinite(row[1:]).all() for row in rows)
    assert any(np.any(trainer.model.params[k].data != before[k]) for k in before)
    log = (tmp_path / "run" / "loss_log.csv").read_text().splitlines()
    assert log[0] == LOG_HEADER
    assert len(log) == 7
    assert (tmp_path / "run" / "ckpt_final" / "manifest.txt").exists()
    assert (tmp_path / "run" / "ckpt_step_3" / "manifest.txt").exists()


def test_identical_seeds_identical_rows(tmp_path):
    rows_a = Trainer(_tiny_config(tmp_path / "a", seed=5)).run(save_checkpoints=False)
    rows_b = Trainer(_tiny_config(tmp_path / "b", seed=5)).run(save_checkpoints=False)
    assert rows_a == rows_b
    rows_c = Trainer(_tiny_config(tmp_path / "c", seed=6)).run(save_checkpoints=False)
    assert rows_a != rows_c


def test_loss_log_file_parses_back_exactly(tmp_path):
    trainer = Trainer(_tiny_config(tmp_path))
    rows = trainer.run(save_checkpoints=False)
    parsed = read_loss_log(tmp_path / "run" / "loss_log.csv")
    assert parsed == rows


@pytest.mark.parametrize("tail", ["2", "25,"])
def test_loss_log_with_a_torn_last_row_names_file_and_line(tmp_path, tail):
    """A killed run can leave half a row: too few cells, or an empty one."""
    log_path = tmp_path / "loss_log.csv"
    log_path.write_text(f"{LOG_HEADER}\n0," + ",".join(["1.5"] * 7) + f"\n{tail}")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(log_path))} line 3: "
                                         rf"'{tail}' is not a row of 8 numbers$"):
        read_loss_log(log_path)


def test_zero_weights_freeze_parameters(tmp_path):
    config = _tiny_config(tmp_path, loss=LossWeights(id_weight=0.0, recon_weight=0.0))
    trainer = Trainer(config)
    before = {k: v.data.copy() for k, v in trainer.model.params.items()}
    trainer.run(save_checkpoints=False)
    for name, old in before.items():
        np.testing.assert_array_equal(trainer.model.params[name].data, old)


def test_step_requires_refreshed_registry(tmp_path):
    trainer = Trainer(_tiny_config(tmp_path))
    with pytest.raises(RuntimeError):
        trainer.train_step()


def test_checkpoint_roundtrip_bitwise(tmp_path):
    config = _tiny_config(tmp_path, epochs=1)
    trainer = Trainer(config)
    trainer.run(save_checkpoints=False)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, trainer.model, trainer.optimizer, trainer.registry, trainer.step,
                    replace(config, eval_alpha=0.33, eval_flip=False))
    model, optimizer, registry, meta = load_checkpoint(ckpt)
    assert model.config == TINY_NET
    for name, param in trainer.model.params.items():
        np.testing.assert_array_equal(model.params[name].data, param.data)
        np.testing.assert_array_equal(optimizer.m[name], trainer.optimizer.m[name])
        np.testing.assert_array_equal(optimizer.v[name], trainer.optimizer.v[name])
    assert optimizer.t == trainer.optimizer.t
    assert registry.last_refresh_epoch == trainer.registry.last_refresh_epoch
    assert registry.centers.shape == trainer.registry.centers.shape == (4, 6)
    assert registry.centers.tobytes() == trainer.registry.centers.tobytes()
    assert registry.centers.flags.owndata  # not a view that would keep the blob alive
    assert meta["step"] == "3"
    assert meta["eval.alpha"] == "0.33"
    assert meta["eval.flip"] == "false"


def test_load_checkpoint_rejects_dataset_archive(tmp_path):
    save_dataset(generate(TINY_DATA), tmp_path / "ds")
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "ds")


def test_resume_matches_uninterrupted_run(tmp_path):
    full = Trainer(_tiny_config(tmp_path / "full", seed=11, epochs=2))
    full_rows = full.run(save_checkpoints=False)

    # stop after epoch 1 by training a 1-epoch schedule, then checkpoint
    first = Trainer(_tiny_config(tmp_path / "first", seed=11, epochs=1))
    first_rows = first.run(save_checkpoints=True)

    resumed_cfg = _tiny_config(tmp_path / "resumed", seed=11, epochs=2)
    resumed = Trainer.from_checkpoint(tmp_path / "first" / "run" / "ckpt_final",
                                      resumed_cfg)
    resumed_rows = resumed.run(save_checkpoints=False)

    assert first_rows + resumed_rows == full_rows
    # bitwise equality of every float in every row
    for row_a, row_b in zip(first_rows + resumed_rows, full_rows):
        assert row_a == row_b


def test_resume_in_same_dir_keeps_loss_log(tmp_path):
    Trainer(_tiny_config(tmp_path / "full", seed=11)).run()
    expected = (tmp_path / "full" / "run" / "loss_log.csv").read_bytes()

    Trainer(_tiny_config(tmp_path, seed=11, epochs=1)).run()
    config = _tiny_config(tmp_path, seed=11)
    Trainer.from_checkpoint(tmp_path / "run" / "ckpt_final", config).run()
    assert (tmp_path / "run" / "loss_log.csv").read_bytes() == expected
    # resuming from an earlier checkpoint drops the log rows after it
    Trainer.from_checkpoint(tmp_path / "run" / "ckpt_step_3", config).run()
    assert (tmp_path / "run" / "loss_log.csv").read_bytes() == expected
    # a fresh run over the same directory swaps in every ckpt_* archive
    Trainer(config).run()
    for name in ("loss_log.csv", "ckpt_final/data.blob", "ckpt_step_3/data.blob"):
        assert (tmp_path / "run" / name).read_bytes() == (
            tmp_path / "full" / "run" / name).read_bytes(), name
    assert not list((tmp_path / "run").glob("*.tmp")) + list((tmp_path / "run").glob("*.old"))


def test_loss_log_holds_every_row_before_each_checkpoint(tmp_path, monkeypatch):
    """A run killed right after writing a checkpoint can resume from it with
    the log intact: every row before the checkpoint's step is on disk."""
    config = _tiny_config(tmp_path, epochs=3)
    log_path = tmp_path / "run" / "loss_log.csv"
    on_disk, save = {}, training.save_checkpoint

    def counting(path, model, optimizer, registry, step, run_config):
        on_disk[os.path.basename(path)] = (step, [row[0] for row in read_loss_log(log_path)])
        save(path, model, optimizer, registry, step, run_config)

    monkeypatch.setattr(training, "save_checkpoint", counting)
    Trainer(config).run()
    assert on_disk == {name: (step, list(range(step))) for name, step in
                       (("ckpt_step_3", 3), ("ckpt_step_6", 6), ("ckpt_final", 9))}


@pytest.mark.parametrize("edit", ["missing", "repeated", "reordered"])
def test_resume_refuses_a_loss_log_without_exactly_the_earlier_rows(tmp_path, edit):
    Trainer(_tiny_config(tmp_path, seed=11, epochs=1)).run()
    log_path = tmp_path / "run" / "loss_log.csv"
    header, *rows = log_path.read_text().splitlines()
    rows = {"missing": rows[:1] + rows[2:], "repeated": rows[:2] + rows[1:],
            "reordered": [rows[1], rows[0], rows[2]]}[edit]
    log_path.write_text("\n".join([header] + rows) + "\n")
    before = log_path.read_bytes()
    resumed = Trainer.from_checkpoint(tmp_path / "run" / "ckpt_final",
                                      _tiny_config(tmp_path, seed=11))
    with pytest.raises(ValueError, match=r"^\S+loss_log\.csv does not hold exactly the rows "
                                         r"of steps 0\.\.2 to resume after [^\n]*$"):
        resumed.run()
    assert log_path.read_bytes() == before and resumed.step == 3


@pytest.mark.parametrize("tail", ["2", "5,"])
def test_resume_cuts_a_torn_loss_log_tail(tmp_path, tail):
    """A kill after a partial flush leaves half a row after whole ones: a
    resume from an earlier checkpoint keeps the rows before its step, cuts
    the rest and ends with the uninterrupted run's log."""
    Trainer(_tiny_config(tmp_path / "full", seed=11, epochs=3)).run()
    expected = (tmp_path / "full" / "run" / "loss_log.csv").read_bytes()
    config = _tiny_config(tmp_path, seed=11, epochs=3)
    Trainer(config).run()
    log_path = tmp_path / "run" / "loss_log.csv"
    header_and_steps_0_to_4 = log_path.read_bytes().splitlines(keepends=True)[:6]
    log_path.write_bytes(b"".join(header_and_steps_0_to_4) + tail.encode())
    Trainer.from_checkpoint(tmp_path / "run" / "ckpt_step_3", config).run()
    assert log_path.read_bytes() == expected


def test_every_stored_checkpoint_key_is_read(tmp_path, monkeypatch):
    """The meta keys save_checkpoint writes are exactly the keys that
    load_checkpoint, Trainer.from_checkpoint and eval read from the loaded
    meta, so a key that nothing reads cannot come back."""
    written, read, metas = set(), set(), []
    write_archive, read_archive = checkpoint.write_archive, checkpoint.read_archive

    def recording_write(dir_path, meta, tensors):
        written.update(meta)
        write_archive(dir_path, meta, tensors)

    def recording_read(dir_path):
        meta, tensors = read_archive(dir_path)
        metas.append(meta)
        return meta, tensors

    def recording(lookup):
        def wrapper(self, key, *default):
            if any(self is meta for meta in metas):
                read.add(key)
            return lookup(self, key, *default)
        return wrapper

    monkeypatch.setattr(checkpoint, "write_archive", recording_write)
    monkeypatch.setattr(checkpoint, "read_archive", recording_read)
    monkeypatch.setattr(Entries, "__getitem__", recording(dict.__getitem__))
    monkeypatch.setattr(Entries, "get", recording(dict.get))
    config = _tiny_config(tmp_path, epochs=1)
    Trainer(config).run()
    ckpt = str(tmp_path / "run" / "ckpt_final")
    save_dataset(generate(TINY_DATA), tmp_path / "ds")
    Trainer.from_checkpoint(ckpt, config)
    assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "ds")]) == 0
    assert len(metas) == 2 and read == written


def test_resume_takes_every_adam_setting_from_the_run_config(tmp_path):
    """The checkpoint supplies Adam's state (t and the moments), the run
    config its four settings."""
    Trainer(_tiny_config(tmp_path, seed=11, epochs=1)).run()
    ckpt = tmp_path / "run" / "ckpt_final"
    settings = dict(learning_rate=0.001, beta1=0.5, beta2=0.99, epsilon=1e-6)
    resumed = Trainer.from_checkpoint(ckpt, _tiny_config(tmp_path / "b", seed=11, **settings))
    optimizer = resumed.optimizer
    assert (optimizer.lr, optimizer.beta1, optimizer.beta2, optimizer.epsilon) == (
        0.001, 0.5, 0.99, 1e-6)
    _, stored, _, _ = load_checkpoint(ckpt)
    assert optimizer.t == stored.t == 3
    for name in stored.m:
        assert np.array_equal(optimizer.m[name], stored.m[name])
        assert np.array_equal(optimizer.v[name], stored.v[name])


def test_resume_takes_the_refresh_period_from_the_run_config(tmp_path):
    Trainer(_tiny_config(tmp_path, seed=11, epochs=1)).run()
    config = _tiny_config(tmp_path / "b", seed=11, refresh_period_epochs=2)
    resumed = Trainer.from_checkpoint(tmp_path / "run" / "ckpt_final", config)
    resumed.run()
    # refreshed at epoch 0 in the first run; period 2 makes epoch 1 no refresh epoch
    assert resumed.registry.last_refresh_epoch == 0


@pytest.mark.parametrize("rate", [0.1, 0.0])
def test_draw_step_draws_triplets_then_coins_then_keep_mask(rate):
    config = RunConfig(network=replace(TINY_NET, id_dropout=rate), data=TINY_DATA,
                       batch_size=3, grayscale_prob=0.5)
    dataset = generate(TINY_DATA)
    drawn_rng = np.random.default_rng(7)
    images, keep, y_q, y_n = draw_step(dataset, drawn_rng, config)
    rng = np.random.default_rng(7)
    q_idx, p_idx, n_idx = np.array([sample_triplet(dataset, rng) for _ in range(3)]).T
    expected, _ = randomly_grayscale(dataset.images[np.concatenate([q_idx, p_idx, n_idx])],
                                     rng, 0.5)
    np.testing.assert_array_equal(images, expected)
    np.testing.assert_array_equal(y_q, dataset.labels[q_idx])
    np.testing.assert_array_equal(y_n, dataset.labels[n_idx])
    if rate:
        np.testing.assert_array_equal(keep, rng.random((9, TINY_NET.id_dim)) >= rate)
        assert keep.dtype == np.float64
    else:
        assert keep is None
    assert drawn_rng.random() == rng.random()  # nothing else was drawn


def _record_refreshes(registry) -> list:
    """The epochs ``registry.refresh`` runs at from now on."""
    epochs, refresh = [], registry.refresh

    def recording(images, labels, model, epoch):
        epochs.append(epoch)
        refresh(images, labels, model, epoch)

    registry.refresh = recording
    return epochs


def test_trainer_epoch_refresh_schedule(tmp_path):
    """A cold start refreshes at epoch 0, then every ``period`` epochs of a
    4-epoch run."""
    for period, expected in ((1, [0, 1, 2, 3]), (2, [0, 2]), (3, [0, 3])):
        trainer = Trainer(_tiny_config(tmp_path / str(period), epochs=4,
                                       refresh_period_epochs=period))
        refreshed = _record_refreshes(trainer.registry)
        trainer.run(save_checkpoints=False)
        assert refreshed == expected, period
        assert trainer.registry.last_refresh_epoch == expected[-1]


def test_resume_from_a_mid_period_checkpoint_keeps_the_schedule(tmp_path):
    """Period 3 refreshes at epochs 0 and 3; a resume from the epoch-2
    checkpoint (centers of epoch 0) refreshes at 3 only and retraces the log."""
    config = _tiny_config(tmp_path, seed=11, epochs=4, refresh_period_epochs=3)
    Trainer(config).run()
    expected = (tmp_path / "run" / "loss_log.csv").read_bytes()
    resumed = Trainer.from_checkpoint(tmp_path / "run" / "ckpt_step_6", config)
    assert (resumed.step, resumed.registry.last_refresh_epoch) == (6, 0)
    refreshed = _record_refreshes(resumed.registry)
    resumed.run()
    assert refreshed == [3]
    assert (tmp_path / "run" / "loss_log.csv").read_bytes() == expected


@pytest.mark.parametrize("edit,message", [("identities", "more identities than the classifier"),
                                          ("channels", r"\(3, 8, 4\) do not match network")])
def test_trainer_rejects_a_given_dataset_that_does_not_fit_the_network(tmp_path, edit, message):
    """A dataset passed in is checked as a loaded or synthesized one is: 8
    identities under 4-identity heads, or 3-channel images under a 1-channel
    backbone."""
    manifest = (replace(TINY_DATA, num_identities=8) if edit == "identities"
                else replace(TINY_DATA, image_shape=(3, 8, 4)))
    with pytest.raises(ConfigError, match=message):
        Trainer(_tiny_config(tmp_path), dataset=generate(manifest))


def test_loss_log_digest_is_frozen(tmp_path):
    """The loss logs and final checkpoint blobs of a 30-step RunConfig() run
    and of the tiny run, and the first run's eval, are pinned to the bit.
    The blob holds the Adam moments, which keep a gradient's last bits that
    the loss log may round away.  The digests were re-frozen when the step moved
    to one stacked generator pass and Adam's step-size form, on numpy 2.4.6
    with scipy-openblas 0.3.31 (x86-64, Haswell kernels) and Python 3.11; a
    change that moves one rounding fails here.  Another numpy or BLAS build
    may round the matrix products differently."""
    runs = {
        "runconfig": (RunConfig(epochs=3, steps_per_epoch=10, out_dir=str(tmp_path / "default")),
                      "2e2bf51249e7adf91a49e729c11c37d53ebef876d552d760d417dc9fd74968e8",
                      "ec349a4586364f62b2021c5287b0395219282884fdc51c8be69e9853833c51c4"),
        "tiny": (_tiny_config(tmp_path),
                 "4be45b5749b52b5bd887ab67b2568b4d2e3028da12d15ae204d770b83d4b3790",
                 "40ed892c22cd70600885c0d8d0fdc6f3e27a05481fa28a15d2da75f1df6adc85"),
    }
    for name, (config, log_digest, blob_digest) in runs.items():
        Trainer(config).run()
        out = tmp_path / config.out_dir
        for path, expected in ((out / "loss_log.csv", log_digest),
                               (out / "ckpt_final" / "data.blob", blob_digest)):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, (name, path.name)
    # The eval of the 30-step run on its dataset's query/gallery split: the
    # gallery order, the ranked distances and the metrics document (the
    # distances re-frozen with the loss log; order and metrics kept their bits).
    config = runs["runconfig"][0]
    model, _, _, _ = load_checkpoint(tmp_path / "default" / "ckpt_final")
    result, order, distances = evaluate_retrieval(generate(config.data), model)
    digests = [hashlib.sha256(raw).hexdigest() for raw in
               (order.tobytes(), distances.tobytes(), metrics_json(result, 0.55).encode())]
    assert digests == ["bb9f469e561e5dd6b02f1b92c307045e031e8ab2964e9cce006628045dbb707a",
                       "b5afd046c0a12f615c853f5f413d4e5374d033c8c5914bbf2319a03604da75c8",
                       "6365456e3c5e6a8da5f214131f4b92f039d265b4a235048c85a09dab2aea3a56"]


def test_wide_loss_log_digest_is_frozen(tmp_path):
    """A short run at the wide benchmark shapes (3-channel images, so the
    grayscale targets really convert; 100 identities, so 100 centers; batch
    64; hidden widths 256), pinned to the bit like the run above: its loss
    log and final checkpoint blob, over two epochs of two steps, with a
    center refresh after the first.  The blob digest was re-frozen with the
    run above, on the numpy and BLAS build named there, and again when the
    centers became one registry/centers matrix (rows in row order, not in
    the name order of 100 center_<k> tensors; every tensor kept its bits)."""
    shape = (3, 16, 8)
    network = NetworkConfig(image_shape=shape, num_identities=100, backbone_hidden=256,
                            separator_hidden=256, generator_hidden=256)
    config = RunConfig(network=network, data=DatasetManifest(num_identities=100,
                                                             image_shape=shape, seed=3),
                       batch_size=64, epochs=2, steps_per_epoch=2, seed=3,
                       out_dir=str(tmp_path / "wide"))
    Trainer(config).run()
    digests = [hashlib.sha256((tmp_path / "wide" / name).read_bytes()).hexdigest()
               for name in ("loss_log.csv", "ckpt_final/data.blob")]
    assert digests == ["9b376f52b70b657c10bac3c2309782f74058883bcbd54119d070dd93892279f2",
                       "58da0f9f39685a2988dfa4a09185605b911bcde1ce958854d5a774611de2e452"]


def test_loaded_checkpoint_parameters_move_on_step(tmp_path):
    trainer = Trainer(_tiny_config(tmp_path, epochs=1))
    trainer.run()
    model, optimizer, _, _ = load_checkpoint(tmp_path / "run" / "ckpt_final")
    before = {name: p.data.copy() for name, p in model.params.items()}
    for p in model.params.values():
        p.grad = np.ones_like(p.data)
    optimizer.step()
    for name, p in model.params.items():
        assert optimizer.params[name] is p
        assert np.all(p.data != before[name]), name
        assert np.array_equal(optimizer.m[name], trainer.optimizer.m[name] * 0.9 + (1.0 - 0.9))


def _nan_dataset():
    dataset = generate(TINY_DATA)
    dataset.images[:] = np.nan
    return dataset


def test_non_finite_loss_stops_before_update(tmp_path):
    trainer = Trainer(_tiny_config(tmp_path), dataset=_nan_dataset())
    before = {name: p.data.copy() for name, p in trainer.model.params.items()}
    with pytest.raises(ValueError, match=r"^step 0: non-finite cls_loss \(nan\)"):
        trainer.run(save_checkpoints=False)
    assert trainer.step == 0 and trainer.optimizer.t == 0
    for name, p in trainer.model.params.items():
        assert np.array_equal(p.data, before[name])
        assert not np.any(trainer.optimizer.m[name])


FD_STEP, SCALE_FLOOR, TOLERANCE, MAX_SCREENED_SHARE = 1e-5, 1e-3, 1e-3, 0.05


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_whole_step_gradient_matches_finite_differences(seed, monkeypatch):
    """``total`` from step_losses on one frozen default draw, differentiated
    with respect to 16 sampled coordinates of each of the 20 parameters (296
    coordinates: three biases have fewer), by grad_check's rule: central
    differences at h = 1e-5, relative error with its denominator floored at
    1e-3 absolute, tolerance 1e-3.

    The detached targets are frozen at the base point.  The pseudo-ground-truth
    maps are the one build_pseudo_gt_batch output of the base-point forward; the
    centers and the keep mask are constants; the gray targets come from the
    images.  A coordinate whose one-sided slopes disagree by more than the
    tolerance (on the same floored scale) has a relu or L1 kink within h, so
    its central difference is screened out; more than 5 % screened fails.

    Blind spot: at default weights every generator gradient is at most about
    3.3e-6, far below the 1e-3 floor, so an error in the generator's backward
    passes here.  Unit loss weights do not lift it (generator gradients near
    1e-6, and 7-16 % of coordinates screened), so gradcheck_all's two
    reconstruction entries remain the generator's check.
    """
    config = RunConfig(seed=seed)
    dataset = generate(config.data)
    model = ReidModel(config.network, seed)
    registry = ClusterRegistry()
    train_idx = dataset.train_idx
    registry.refresh(dataset.images[train_idx], dataset.labels[train_idx], model, 0)
    centers = registry.centers_matrix()
    drawn = draw_step(dataset, np.random.default_rng(np.random.SeedSequence((seed, 1, 0))),
                      config)
    assert drawn[1] is not None  # the dropout mask is part of the composition

    base_targets = []
    build = training.build_pseudo_gt_batch

    def pseudo_gt_at_base(*args):
        if not base_targets:
            base_targets.append(build(*args))
        return base_targets[0]

    monkeypatch.setattr(training, "build_pseudo_gt_batch", pseudo_gt_at_base)

    def total():
        return step_losses(model, *drawn, centers, config)[-1]

    total().backward()
    pick = np.random.default_rng(seed)
    analytic, bumped = [], []
    with no_grad():
        at_base = total().item()
        for p in model.params.values():
            flat = p.data.reshape(-1)
            for i in pick.choice(flat.size, min(16, flat.size), replace=False):
                value = flat[i]
                flat[i] = value + FD_STEP
                above = total().item()
                flat[i] = value - FD_STEP
                bumped.append((above, total().item()))
                flat[i] = value
                analytic.append(p.grad.reshape(-1)[i])
    analytic, (above, below) = np.array(analytic), np.array(bumped).T
    assert len(model.params) == 20 and analytic.size == 296

    numeric = (above - below) / (2.0 * FD_STEP)
    forward, backward = (above - at_base) / FD_STEP, (at_base - below) / FD_STEP
    kinked = np.abs(forward - backward) / np.maximum(
        np.maximum(np.abs(forward), np.abs(backward)), SCALE_FLOOR) > TOLERANCE
    assert kinked.mean() <= MAX_SCREENED_SHARE, f"{kinked.sum()} coordinates screened"
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), SCALE_FLOOR)
    rel = (np.abs(analytic - numeric) / denom)[~kinked]
    assert rel.max() <= TOLERANCE, f"max relative error {rel.max():.3g}"
