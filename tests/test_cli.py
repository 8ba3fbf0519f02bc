"""End-to-end command-line tests over a miniature workflow."""
import json
import os

import numpy as np
import pytest

from sirmetric.blobio import read_archive, write_archive
from sirmetric.cli import main
from sirmetric.data import load_dataset

TINY_CONFIG = """\
net.feature_shape=4,2,2
net.id_dim=6
net.app_dim=3
net.num_identities=4
net.backbone_hidden=16
net.separator_hidden=16
net.generator_hidden=16
train.batch_size=4
train.epochs=2
train.steps_per_epoch=3
data.num_identities=4
data.samples_per_identity=5
data.train_per_identity=3
data.query_per_identity=1
data.gallery_per_identity=1
data.seed=1
data.appearance_bands=6
out.dir={out}
"""


def _write_config(tmp_path):
    out_dir = tmp_path / "run"
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG.format(out=out_dir))
    return str(path), str(out_dir)


def test_no_command_is_usage_error(capsys):
    assert _one_error_line(capsys, []) == "error: the following arguments are required: command"


def test_unknown_command_is_usage_error(capsys):
    assert _one_error_line(capsys, ["frobnicate"]).startswith(
        "error: argument command: invalid choice: 'frobnicate'")


def test_missing_required_flag_is_usage_error(capsys):
    assert _one_error_line(capsys, ["train"]) == (
        "error: the following arguments are required: --config")


@pytest.mark.parametrize("argv, message", [
    (["gradcheck", "--tol"], "argument --tol: expected one argument"),
    (["gradcheck", "--tol", "-1x"], "argument --tol: invalid float value: '-1x'"),
], ids=["missing-value", "bad-float"])
def test_bad_option_value_is_one_error_line(capsys, argv, message):
    assert _one_error_line(capsys, argv) == f"error: {message}"


@pytest.mark.parametrize("tol", ["-1e-4", "-1E-4", "-.5e1", "-inf"])
def test_negative_tolerance_in_any_float_spelling_reaches_the_range_check(capsys, tol):
    assert _one_error_line(capsys, ["gradcheck", "--seed", "0", "--tol", tol]).startswith(
        "error: grad_check tol must be finite and > 0")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "train" in capsys.readouterr().out


def test_gradcheck_prints_six_entries(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "max_rel_error" in l]
    assert len(lines) == 6
    assert all("PASS" in l for l in lines)


def test_gradcheck_impossible_tolerance_exits_two(capsys):
    assert main(["gradcheck", "--seed", "0", "--tol", "1e-15"]) == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-4"])
def test_gradcheck_tolerance_must_be_finite_and_positive(capsys, tol):
    assert main(["gradcheck", "--seed", "0", f"--tol={tol}"]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert err.startswith("error: grad_check tol must be finite and > 0") and "\n" not in err
    assert captured.out == ""


def _one_error_line(capsys, argv) -> str:
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    return err


@pytest.mark.parametrize("line, key", [("train.seed=-1", "train.seed"),
                                       ("data.seed=-3", "data.seed")])
def test_negative_seed_in_config_names_its_key(tmp_path, capsys, line, key):
    config_path, _ = _write_config(tmp_path)
    with open(config_path) as handle:
        config = handle.read().replace("data.seed=1\n", "")
    with open(config_path, "w") as handle:
        handle.write(config + line + "\n")
    assert _one_error_line(capsys, ["train", "--config", config_path]) == (
        f"error: {key} must be >= 0, got {line.split('=')[1]}")


@pytest.mark.parametrize("command", ["train", "gradcheck", "synth"])
def test_negative_seed_option_names_the_option(tmp_path, capsys, command):
    config_path, _ = _write_config(tmp_path)
    rest = {"train": ["--config", config_path],
            "gradcheck": [],
            "synth": ["--ids", "4", "--per-id", "5", "--out", str(tmp_path / "data")]}[command]
    assert _one_error_line(capsys, [command, "--seed", "-1"] + rest) == (
        "error: argument --seed: expected an integer >= 0, got '-1'")
    assert not (tmp_path / "data").exists() and not (tmp_path / "run").exists()


def test_train_config_path_naming_a_directory_is_error(tmp_path, capsys):
    assert str(tmp_path) in _one_error_line(capsys, ["train", "--config", str(tmp_path)])


def test_train_out_naming_an_existing_file_is_error(tmp_path, capsys):
    config_path, _ = _write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    err = _one_error_line(capsys, ["train", "--config", config_path, "--out", str(taken)])
    assert str(taken) in err
    assert taken.read_text() == ""


def test_export_out_naming_a_directory_is_error(tmp_path, capsys):
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    err = _one_error_line(capsys, ["export-embeddings", "--ckpt", ckpt, "--data", data_dir,
                                   "--out", str(tmp_path)])
    assert str(tmp_path) in err


def test_synth_writes_loadable_dataset(tmp_path, capsys):
    out = str(tmp_path / "data")
    assert main(["synth", "--ids", "4", "--per-id", "10",
                 "--seed", "3", "--out", out]) == 0
    capsys.readouterr()
    dataset = load_dataset(out)
    assert len(dataset.labels) == 40
    # per-id 10 splits as 2 query, 2 gallery, 6 train per identity
    assert len(dataset.train_idx) == 24
    assert len(dataset.query_idx) == 8
    assert len(dataset.gallery_idx) == 8


def test_synth_over_a_directory_holding_other_files_is_error(tmp_path, capsys):
    """synth would swap a fresh archive in for the directory; one holding
    anything but an archive is refused, and the user's file stays."""
    notes = tmp_path / "notes.txt"
    notes.write_text("keep")
    err = _one_error_line(capsys, ["synth", "--ids", "4", "--per-id", "5", "--seed", "1",
                                   "--out", str(tmp_path)])
    assert f"{tmp_path} is not an archive directory" in err
    assert sorted(os.listdir(tmp_path)) == ["notes.txt"] and notes.read_text() == "keep"


@pytest.mark.parametrize("holding", ["nothing", "an archive"])
@pytest.mark.parametrize("out", [".", ".."])
def test_synth_into_the_working_directory_is_error(tmp_path, capsys, monkeypatch, holding, out):
    """Swapping an archive in for the working directory, or for a directory
    above it, would leave the shell in a deleted directory: refused, and
    nothing is written or deleted."""
    work = tmp_path / "work"
    work.mkdir()
    if holding == "an archive":
        write_archive(work, {"kind": "old"}, {"a": np.arange(3.0)})
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    monkeypatch.chdir(work)
    err = _one_error_line(capsys, ["synth", "--ids", "4", "--per-id", "5", "--seed", "1",
                                   "--out", out])
    assert "is or holds the working directory" in err
    assert {path: path.read_bytes() for path in tmp_path.rglob("*")
            if path.is_file()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["work"]


def test_train_one_step_on_a_thousand_identities(tmp_path, capsys):
    """The triplet sampler's index is linear in the train split, so a
    1,000-identity set (12,000 train samples) trains without a long set-up."""
    data_dir = str(tmp_path / "data")
    assert main(["synth", "--ids", "1000", "--per-id", "20", "--seed", "1",
                 "--out", data_dir]) == 0
    config_path, out_dir = _write_config(tmp_path)
    with open(config_path) as handle:
        config = handle.read()
    for old, new in (("net.num_identities=4", "net.num_identities=1000"),
                     ("train.epochs=2", "train.epochs=1"),
                     ("train.steps_per_epoch=3", "train.steps_per_epoch=1")):
        config = config.replace(old, new)
    with open(config_path, "w") as handle:
        handle.write(config + f"data.path={data_dir}\n")
    assert main(["train", "--config", config_path]) == 0
    capsys.readouterr()
    with open(os.path.join(out_dir, "loss_log.csv")) as handle:
        rows = handle.read().splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("0,")


def test_train_eval_export_roundtrip(tmp_path, capsys):
    config_path, out_dir = _write_config(tmp_path)
    assert main(["train", "--config", config_path]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(out_dir, "loss_log.csv"))
    ckpt = os.path.join(out_dir, "ckpt_final")
    assert os.path.isdir(ckpt)

    data_dir = str(tmp_path / "data")
    assert main(["synth", "--ids", "4", "--per-id", "5",
                 "--seed", "1", "--out", data_dir]) == 0
    capsys.readouterr()

    assert main(["eval", "--ckpt", ckpt, "--data", data_dir]) == 0
    metrics = json.loads(capsys.readouterr().out)
    for key in ("rank1", "rank5", "rank10", "map",
                "num_queries", "num_gallery", "alpha"):
        assert key in metrics
    assert metrics["alpha"] == 0.55

    assert main(["eval", "--ckpt", ckpt, "--data", data_dir,
                 "--alpha", "0.2", "--flip", "false"]) == 0
    metrics2 = json.loads(capsys.readouterr().out)
    assert metrics2["alpha"] == 0.2

    csv_path = str(tmp_path / "emb.csv")
    assert main(["export-embeddings", "--ckpt", ckpt,
                 "--data", data_dir, "--out", csv_path]) == 0
    capsys.readouterr()
    with open(csv_path) as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["sample_id", "label"]
    assert len(lines) == 1 + 20


def test_train_seed_and_out_overrides(tmp_path, capsys):
    config_path, _ = _write_config(tmp_path)
    other = str(tmp_path / "other")
    assert main(["train", "--config", config_path,
                 "--seed", "5", "--out", other]) == 0
    capsys.readouterr()
    assert os.path.isdir(os.path.join(other, "ckpt_final"))


def test_bad_config_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("net.bogus=1\n")
    assert main(["train", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["optim.beta1=1.5", "optim.epsilon=-1", "eval.alpha=nan",
                                  "loss.cls_weight=nan", "optim.learning_rate=inf",
                                  "train.batch_size=0", "train.steps_per_epoch=0",
                                  "train.epochs=-1", "train.grayscale_prob=-0.5",
                                  "train.refresh_period_epochs=0"])
def test_out_of_range_config_value_exits_one_naming_the_key(tmp_path, capsys, line):
    config_path, out_dir = _write_config(tmp_path)
    key = line.split("=")[0]
    with open(config_path) as handle:  # the line replaces the tiny config's own value
        kept = [text for text in handle if not text.startswith(key + "=")]
    with open(config_path, "w") as handle:
        handle.write("".join(kept) + line + "\n")
    assert main(["train", "--config", config_path]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {key} must be ") and "\n" not in err
    assert not os.path.exists(out_dir)  # rejected before any data or training


def test_missing_checkpoint_is_error(tmp_path, capsys):
    assert main(["eval", "--ckpt", str(tmp_path / "nope"),
                 "--data", str(tmp_path / "nope2")]) == 1
    capsys.readouterr()


def _trained_run(tmp_path, capsys):
    """Train the tiny config and synthesize a matching dataset; returns
    (checkpoint dir, dataset dir)."""
    config_path, out_dir = _write_config(tmp_path)
    assert main(["train", "--config", config_path]) == 0
    data_dir = str(tmp_path / "data")
    assert main(["synth", "--ids", "4", "--per-id", "5",
                 "--seed", "1", "--out", data_dir]) == 0
    capsys.readouterr()
    return os.path.join(out_dir, "ckpt_final"), data_dir


def _edit_manifest(archive_dir, key, value=None):
    """Drop the ``key=`` line, or set its value when ``value`` is given."""
    manifest = os.path.join(archive_dir, "manifest.txt")
    with open(manifest) as handle:
        lines = handle.read().splitlines()
    hits = [i for i, line in enumerate(lines) if line.startswith(key + "=")]
    assert len(hits) == 1
    if value is None:
        del lines[hits[0]]
    else:
        lines[hits[0]] = f"{key}={value}"
    with open(manifest, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _manifest_value(archive_dir, key):
    with open(os.path.join(archive_dir, "manifest.txt")) as handle:
        lines = handle.read().splitlines()
    return next(line.split("=", 1)[1] for line in lines if line.startswith(key + "="))


def _eval_error(ckpt, data_dir, capsys, *flags):
    """Run eval, expect exit 1 and return the one-line error message."""
    assert main(["eval", "--ckpt", ckpt, "--data", data_dir, *flags]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    return err


@pytest.mark.parametrize("key", ["adam.t", "eval.alpha", "tensor.adam_v/cam.w"])
def test_checkpoint_missing_key_is_error(tmp_path, capsys, key):
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    _edit_manifest(ckpt, key)
    assert ckpt in _eval_error(ckpt, data_dir, capsys)


@pytest.mark.parametrize("key", ["adam.t", "eval.alpha"])
def test_checkpoint_bad_value_names_key(tmp_path, capsys, key):
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    _edit_manifest(ckpt, key, "x")
    err = _eval_error(ckpt, data_dir, capsys)
    assert ckpt in err and repr(key) in err


@pytest.mark.parametrize("flags, stored", [(("--alpha", "nan"), None),
                                           (("--alpha", "inf"), None), ((), "nan")],
                         ids=["flag-nan", "flag-inf", "stored-nan"])
def test_non_finite_eval_alpha_is_error(tmp_path, capsys, flags, stored):
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    if stored is not None:
        _edit_manifest(ckpt, "eval.alpha", stored)
    assert "alpha must be finite" in _eval_error(ckpt, data_dir, capsys, *flags)


def test_negative_eval_alpha_in_scientific_notation_is_a_value(tmp_path, capsys):
    """-1e-3 is a finite alpha and is used; -1e999 overflows to -inf and
    meets the finiteness check, not argparse's "expected one argument"."""
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    assert main(["eval", "--ckpt", ckpt, "--data", data_dir, "--alpha", "-1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == -1e-3
    assert "alpha must be finite" in _eval_error(ckpt, data_dir, capsys, "--alpha", "-1e999")


def test_checkpoint_param_shape_mismatch_names_tensor(tmp_path, capsys):
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    _edit_manifest(ckpt, "net.id_dim", "5")
    err = _eval_error(ckpt, data_dir, capsys)
    assert ckpt in err and "'param/separator.w_id'" in err and "net.*" in err


def test_checkpoint_adam_moment_shape_mismatch_names_tensor(tmp_path, capsys):
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    meta, tensors = read_archive(ckpt)
    tensors["adam_m/cam.w"] = np.zeros(1)
    write_archive(ckpt, meta, tensors)
    err = _eval_error(ckpt, data_dir, capsys)
    assert ckpt in err and "'adam_m/cam.w'" in err


@pytest.mark.parametrize("edit", ["shape", "missing"])
def test_checkpoint_bad_registry_center_names_tensor(tmp_path, capsys, edit):
    """A centers matrix of the wrong shape (one identity short), or none
    after a refresh."""
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    meta, tensors = read_archive(ckpt)
    if edit == "shape":
        tensors["registry/centers"] = tensors["registry/centers"][:-1]
    else:
        del tensors["registry/centers"]
    write_archive(ckpt, meta, tensors)
    err = _eval_error(ckpt, data_dir, capsys)
    assert ckpt in err and "'registry/centers'" in err


@pytest.mark.parametrize("archive", ["checkpoint", "dataset"])
def test_flipped_blob_bit_is_error(tmp_path, capsys, archive):
    """One bit flipped in the middle of a blob still tiles and parses; the
    manifest's blob.sum catches it."""
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    target = ckpt if archive == "checkpoint" else data_dir
    blob = os.path.join(target, "data.blob")
    with open(blob, "r+b") as handle:
        handle.seek(os.path.getsize(blob) // 2)
        byte = handle.read(1)[0]
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte ^ 0x10]))
    err = _eval_error(ckpt, data_dir, capsys)
    assert target in err and "blob.sum" in err


@pytest.mark.parametrize("archive", ["checkpoint", "dataset"])
def test_repeated_manifest_key_is_error(tmp_path, capsys, archive):
    """A second ``step=7`` line after the checkpoint's own, or the dataset's
    gallery_idx extent renamed to a second query_idx: the extents still tile
    the blob and its words still sum to blob.sum, so only the key check
    catches either."""
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    target, key = (ckpt, "step") if archive == "checkpoint" else (data_dir, "tensor.query_idx")
    manifest = os.path.join(target, "manifest.txt")
    with open(manifest) as handle:
        lines = handle.read().splitlines()
    if archive == "checkpoint":
        at = next(i for i, line in enumerate(lines) if line.startswith("step="))
        lines.insert(at + 1, "step=7")
    else:
        lines = [line.replace("tensor.gallery_idx=", "tensor.query_idx=") for line in lines]
    with open(manifest, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    err = _eval_error(ckpt, data_dir, capsys)
    assert target in err and f"repeats {key!r}" in err


@pytest.mark.parametrize("first", ["format=sir-metric/1", "format=other/9"])
def test_unsupported_format_tag_is_one_line_quoting_it(tmp_path, capsys, first):
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    manifest = os.path.join(ckpt, "manifest.txt")
    with open(manifest) as handle:
        lines = handle.read().splitlines()
    with open(manifest, "w") as handle:
        handle.write("\n".join([first] + lines[1:]) + "\n")
    err = _eval_error(ckpt, data_dir, capsys)
    assert ckpt in err and repr(first.split("=", 1)[1]) in err


def test_train_on_nan_images_stops_at_first_step(tmp_path, capsys):
    config_path, _ = _write_config(tmp_path)
    data_dir = str(tmp_path / "data")
    assert main(["synth", "--ids", "4", "--per-id", "5", "--seed", "1", "--out", data_dir]) == 0
    meta, tensors = read_archive(data_dir)
    tensors["images"][:] = np.nan
    write_archive(data_dir, meta, tensors)
    with open(config_path, "a") as handle:
        handle.write(f"data.path={data_dir}\n")
    capsys.readouterr()
    assert main(["train", "--config", config_path]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: step 0: non-finite cls_loss") and "\n" not in err


@pytest.mark.parametrize("shift", [-8, 8], ids=["overlap", "gap"])
def test_checkpoint_extents_not_tiling_the_blob_is_error(tmp_path, capsys, shift):
    """A tensor in the middle of the blob moved 8 bytes onto its neighbour
    or 8 bytes past it: every extent still lies inside the blob."""
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    shape, offset = _manifest_value(ckpt, "tensor.param/cam.w").split(":")
    _edit_manifest(ckpt, "tensor.param/cam.w", f"{shape}:{int(offset) + shift}")
    err = _eval_error(ckpt, data_dir, capsys)
    assert ckpt in err and "'param/cam.w'" in err


@pytest.mark.parametrize("shape", ["-2,-2", "2,-2", "4,x"])
def test_checkpoint_bad_tensor_dimensions_name_tensor_and_dir(tmp_path, capsys, shape):
    """'param/cam.b' holds 4 floats: negative dimensions that multiply to
    4, a negative count, and a non-integer dimension."""
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    offset = _manifest_value(ckpt, "tensor.param/cam.b").split(":")[1]
    _edit_manifest(ckpt, "tensor.param/cam.b", f"{shape}:{offset}")
    err = _eval_error(ckpt, data_dir, capsys)
    assert ckpt in err and "'param/cam.b'" in err


def test_dataset_malformed_manifest_line_names_dir(tmp_path, capsys):
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    with open(os.path.join(data_dir, "manifest.txt"), "a") as handle:
        handle.write("no equals sign\n")
    assert data_dir in _eval_error(ckpt, data_dir, capsys)


def test_dataset_missing_key_is_error(tmp_path, capsys):
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    _edit_manifest(data_dir, "seed")
    err = _eval_error(ckpt, data_dir, capsys)
    assert data_dir in err and "'seed'" in err


def test_dataset_index_out_of_range_is_error(tmp_path, capsys):
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    meta, tensors = read_archive(data_dir)
    tensors["query_idx"][0] = 10 ** 6
    write_archive(data_dir, meta, tensors)
    err = _eval_error(ckpt, data_dir, capsys)
    assert data_dir in err and "'query_idx'" in err


@pytest.mark.parametrize("name,source", [("query_idx", "gallery_idx"),
                                         ("train_idx", "train_idx")])
def test_dataset_split_repeating_an_image_is_error(tmp_path, capsys, name, source):
    """The first query moved onto the second gallery image, or the first
    train index repeating the second."""
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    meta, tensors = read_archive(data_dir)
    tensors[name][0] = tensors[source][1]
    write_archive(data_dir, meta, tensors)
    err = _eval_error(ckpt, data_dir, capsys)
    assert data_dir in err and repr(name) in err


def test_dataset_trailing_blob_bytes_is_error(tmp_path, capsys):
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    with open(os.path.join(data_dir, "data.blob"), "ab") as blob:
        blob.write(bytes(16))
    assert data_dir in _eval_error(ckpt, data_dir, capsys)


@pytest.mark.parametrize("name", ["images", "labels"])
def test_dataset_disagreeing_with_manifest_is_error(tmp_path, capsys, name):
    """One image too few, or a label equal to the manifest's 4 identities."""
    ckpt, data_dir = _trained_run(tmp_path, capsys)
    meta, tensors = read_archive(data_dir)
    if name == "images":
        tensors["images"] = tensors["images"][:-1]
    else:
        tensors["labels"][0] = 4
    write_archive(data_dir, meta, tensors)
    err = _eval_error(ckpt, data_dir, capsys)
    assert data_dir in err and repr(name) in err


def test_flip_flag_rejects_junk(capsys):
    assert _one_error_line(capsys, ["eval", "--ckpt", "x", "--data", "y", "--flip", "maybe"]) == (
        "error: argument --flip: invalid choice: 'maybe' (choose from 'true', 'false')")
