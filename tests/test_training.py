"""Trainer determinism, checkpoint round-trip, and resume equality at
miniature scale."""
import hashlib

import numpy as np
import pytest

from sirmetric.autodiff import Adam
from sirmetric.checkpoint import load_checkpoint, save_checkpoint
from sirmetric.clusters import ClusterRegistry
from sirmetric.config import RunConfig
from sirmetric.data import DatasetManifest, generate
from sirmetric.evaluate import evaluate_retrieval, metrics_json
from sirmetric.losses import LossWeights
from sirmetric.networks import NetworkConfig, ReidModel
from sirmetric.training import LOG_HEADER, Trainer, read_loss_log

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
    save_checkpoint(ckpt, trainer.model, trainer.optimizer, trainer.registry,
                    trainer.step, eval_alpha=0.33, eval_flip=False)
    model, optimizer, registry, meta = load_checkpoint(ckpt)
    assert model.config == TINY_NET
    for name, param in trainer.model.params.items():
        np.testing.assert_array_equal(model.params[name].data, param.data)
        np.testing.assert_array_equal(optimizer.m[name], trainer.optimizer.m[name])
        np.testing.assert_array_equal(optimizer.v[name], trainer.optimizer.v[name])
    assert optimizer.t == trainer.optimizer.t
    assert optimizer.lr == trainer.optimizer.lr
    assert registry.last_refresh_epoch == trainer.registry.last_refresh_epoch
    for ident, center in trainer.registry.centers.items():
        np.testing.assert_array_equal(registry.centers[ident], center)
    assert meta["step"] == "3"
    assert meta["eval.alpha"] == "0.33"
    assert meta["eval.flip"] == "false"


def test_load_checkpoint_rejects_dataset_archive(tmp_path):
    from sirmetric.data import generate, save_dataset
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


def test_resume_takes_every_adam_setting_from_the_run_config(tmp_path):
    """The checkpoint supplies Adam's state (t and the moments), the run
    config its four settings, which the next checkpoint then records."""
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
    resumed.run()
    _, _, _, meta = load_checkpoint(tmp_path / "b" / "run" / "ckpt_final")
    assert [meta[f"adam.{key}"] for key in ("learning_rate", "beta1", "beta2", "epsilon")] == [
        "0.001", "0.5", "0.99", "1e-06"]


def test_trainer_epoch_refresh_schedule(tmp_path):
    config = _tiny_config(tmp_path, epochs=3, refresh_period_epochs=2)
    trainer = Trainer(config)
    trainer.run(save_checkpoints=False)
    # refreshes at epoch 0 (cold start) and epoch 2
    assert trainer.registry.last_refresh_epoch == 2


def test_loss_log_digest_is_frozen(tmp_path):
    """The loss logs and final checkpoint blobs of a 30-step RunConfig() run
    and of the tiny run, and the first run's eval, are pinned to the bit.
    The blob holds the Adam moments, which keep a gradient's last bits that
    the loss log may round away.  The digests were taken before the autodiff fusions (dense layers,
    the triplet / cross-entropy / L1 nodes, the flat Adam), on numpy 2.4.6
    with scipy-openblas 0.3.31 (x86-64, Haswell kernels) and Python 3.11; a
    change that moves one rounding fails here.  Another numpy or BLAS build
    may round the matrix products differently."""
    runs = {
        "runconfig": (RunConfig(epochs=3, steps_per_epoch=10, out_dir=str(tmp_path / "default")),
                      "6732c7f3f82d6cc2986dc4285fb61f1cbd8762b059d78b8ef4739a581dda6459",
                      "dbfcd8eab61634bfbe50e629c8177df39e8fa57449de713fa689c6c76523f5ab"),
        "tiny": (_tiny_config(tmp_path),
                 "4be45b5749b52b5bd887ab67b2568b4d2e3028da12d15ae204d770b83d4b3790",
                 "45f5b16e95f5161c909526bfdf9028c366616e66ccced9734acbe2de89cd234d"),
    }
    for name, (config, log_digest, blob_digest) in runs.items():
        Trainer(config).run()
        out = tmp_path / config.out_dir
        for path, expected in ((out / "loss_log.csv", log_digest),
                               (out / "ckpt_final" / "data.blob", blob_digest)):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, (name, path.name)
    # The eval of the 30-step run on its dataset's query/gallery split: the
    # gallery order, the ranked distances and the metrics document, pinned
    # before the in-place ranking and the hits-only scoring.
    config = runs["runconfig"][0]
    model, _, _, _ = load_checkpoint(tmp_path / "default" / "ckpt_final")
    result, order, distances = evaluate_retrieval(generate(config.data), model)
    digests = [hashlib.sha256(raw).hexdigest() for raw in
               (order.tobytes(), distances.tobytes(), metrics_json(result, 0.55).encode())]
    assert digests == ["bb9f469e561e5dd6b02f1b92c307045e031e8ab2964e9cce006628045dbb707a",
                       "cbe654a17d1433c1abef8685f3d165c2a70861e7f1d4a092d15b74825f65aaa9",
                       "6365456e3c5e6a8da5f214131f4b92f039d265b4a235048c85a09dab2aea3a56"]


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
