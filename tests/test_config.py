"""Config format round-trip and error behavior."""
import pytest

from sirmetric.autodiff import Adam
from sirmetric.checkpoint import save_checkpoint
from sirmetric.clusters import ClusterRegistry
from sirmetric.config import (ConfigError, RunConfig, load_config,
                              parse_config, serialize_config, with_overrides)
from sirmetric.data import DatasetManifest, generate, save_dataset
from sirmetric.losses import LossWeights
from sirmetric.networks import NetworkConfig, ReidModel

# On-disk key text of the defaults, frozen: key names, key order and value
# text are the file formats, so a schema change must not move them.
DEFAULT_CONFIG_TEXT = """\
net.image_shape=1,16,8
net.feature_shape=8,4,2
net.id_dim=16
net.app_dim=4
net.num_identities=10
net.backbone_hidden=64
net.separator_hidden=64
net.generator_hidden=64
net.id_dropout=0.1
loss.id_weight=1.0
loss.recon_weight=1.0
loss.cls_weight=0.05
loss.triplet_weight=1.0
loss.center_weight=0.5
loss.pos_recon_weight=0.0001
loss.neg_recon_weight=0.0001
loss.cam_weight=1.0
loss.margin=0.9
optim.learning_rate=0.0002
optim.beta1=0.9
optim.beta2=0.999
optim.epsilon=1e-08
train.batch_size=8
train.epochs=20
train.steps_per_epoch=100
train.refresh_period_epochs=1
train.grayscale_prob=0.1
train.seed=0
train.swap_negative_appearance=false
data.path=
data.num_identities=10
data.samples_per_identity=20
data.train_per_identity=12
data.query_per_identity=4
data.gallery_per_identity=4
data.seed=0
data.appearance_bands=6
eval.alpha=0.55
eval.flip=true
out.dir=runs/default
"""
DEFAULT_DATASET_META = """\
format=sir-metric/2
kind=dataset
num_identities=10
samples_per_identity=20
train_per_identity=12
query_per_identity=4
gallery_per_identity=4
seed=0
image_shape=1,16,8
appearance_bands=6
blob.sum=551962147905311476
"""
DEFAULT_CHECKPOINT_META = """\
format=sir-metric/2
kind=checkpoint
step=0
adam.t=0
registry.last_refresh_epoch=none
net.image_shape=1,16,8
net.feature_shape=8,4,2
net.id_dim=16
net.app_dim=4
net.num_identities=10
net.backbone_hidden=64
net.separator_hidden=64
net.generator_hidden=64
net.id_dropout=0.1
eval.alpha=0.55
eval.flip=true
blob.sum=8163986409136004393
"""


def test_default_roundtrip():
    config = RunConfig()
    assert parse_config(serialize_config(config)) == config


def _meta_text(archive_dir):
    lines = (archive_dir / "manifest.txt").read_text().splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("tensor."))


def test_on_disk_key_text_is_frozen(tmp_path):
    assert serialize_config(RunConfig()) == DEFAULT_CONFIG_TEXT
    save_dataset(generate(DatasetManifest()), tmp_path / "ds")
    assert _meta_text(tmp_path / "ds") == DEFAULT_DATASET_META
    model = ReidModel(NetworkConfig(), seed=0)
    save_checkpoint(tmp_path / "ckpt", model, Adam(model.params), ClusterRegistry(), 0, RunConfig())
    assert _meta_text(tmp_path / "ckpt") == DEFAULT_CHECKPOINT_META


def test_roundtrip_preserves_every_float_bit():
    config = RunConfig(
        learning_rate=0.00012345000000000007,
        epsilon=3.3333333333333335e-09,
        loss=LossWeights(margin=0.30000000000000004, center_weight=1e-7),
        grayscale_prob=0.1 + 2e-17,
        eval_alpha=0.5499999999999999,
    )
    restored = parse_config(serialize_config(config))
    assert restored == config
    assert restored.learning_rate.hex() == config.learning_rate.hex()
    assert restored.loss.margin.hex() == config.loss.margin.hex()


def test_defaults_match_trained_settings():
    config = RunConfig()
    assert config.learning_rate == 0.0002
    assert (config.beta1, config.beta2) == (0.9, 0.999)
    assert config.loss.cls_weight == 0.05
    assert config.loss.triplet_weight == 1.0
    assert config.loss.center_weight == 0.5
    assert config.loss.pos_recon_weight == 0.0001
    assert config.loss.neg_recon_weight == 0.0001
    assert config.loss.cam_weight == 1.0
    assert config.loss.id_weight == 1.0
    assert config.loss.recon_weight == 1.0
    assert config.loss.margin == 0.9
    assert config.grayscale_prob == 0.1
    assert config.eval_alpha == 0.55


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError):
        parse_config("loss.margim=0.9\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("loss.margin=0.9\nloss.margin=0.8\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config("train.batch_size=eight\n")
    with pytest.raises(ConfigError):
        parse_config("eval.flip=yes\n")
    with pytest.raises(ConfigError):
        parse_config("no equals sign here\n")


def test_comments_and_blanks_skipped():
    config = parse_config("# a comment\n\nloss.margin=0.7\n")
    assert config.loss.margin == 0.7
    assert config.loss.cls_weight == 0.05  # untouched default


def test_partial_config_keeps_defaults():
    config = parse_config("train.seed=9\nnet.id_dim=8\n")
    assert config.seed == 9
    assert config.network.id_dim == 8
    assert config.network.app_dim == 4


def test_dataset_shape_follows_network():
    config = parse_config("net.image_shape=1,8,4\nnet.feature_shape=4,2,2\n")
    assert config.data.image_shape == (1, 8, 4)


def test_inconsistent_manifest_rejected():
    with pytest.raises(ConfigError):
        RunConfig(data=DatasetManifest(image_shape=(1, 8, 4)))


def test_invalid_network_value_surfaces_as_config_error():
    with pytest.raises(ConfigError):
        parse_config("net.num_identities=1\n")


def test_file_roundtrip(tmp_path):
    config = RunConfig(seed=3, out_dir="runs/x")
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(config))
    assert load_config(path) == config


def test_overrides():
    config = RunConfig()
    assert with_overrides(config) is config
    bumped = with_overrides(config, seed=7, out_dir="elsewhere")
    assert bumped.seed == 7
    assert bumped.out_dir == "elsewhere"
    assert bumped.network == config.network


@pytest.mark.parametrize("line", [
    "optim.learning_rate=nan", "optim.learning_rate=inf", "optim.beta1=1.5",
    "optim.beta1=-0.1", "optim.beta2=1.0", "optim.beta2=nan", "optim.epsilon=-1",
    "optim.epsilon=0.0", "optim.epsilon=inf", "loss.cls_weight=nan", "loss.margin=inf",
    "loss.center_weight=-inf", "eval.alpha=nan", "eval.alpha=-inf", "train.batch_size=0",
    "train.steps_per_epoch=0", "train.epochs=-1", "train.grayscale_prob=1.5",
    "train.grayscale_prob=nan", "train.refresh_period_epochs=0"])
def test_out_of_range_optimizer_loss_and_eval_values_name_their_key(line):
    key = line.split("=")[0]
    with pytest.raises(ConfigError, match=rf"^{key} must be "):
        parse_config(line + "\n")


def test_batch_size_is_bounded_by_its_int64_triplet_indices():
    """3 * batch_size triplet indices must fit int64; the check allocates nothing."""
    largest = (2 ** 63 - 1) // 3
    assert RunConfig(batch_size=largest).batch_size == largest
    with pytest.raises(ConfigError, match=r"^train.batch_size must be in \[1, "
                                          rf"{largest}\] .*, got {largest + 1}$"):
        RunConfig(batch_size=largest + 1)
