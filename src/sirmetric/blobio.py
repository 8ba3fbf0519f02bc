"""Directory archive format shared by checkpoints and dataset exports:
a text manifest (key=value lines, then tensor name/shape/offset lines) next
to one flat little-endian float64 blob.

Manifest layout:

    format=sir-metric/2
    <meta key>=<value>            # no '=' in keys
    tensor.<name>=<d0>,<d1>,...:<byte offset>
    blob.sum=<n>

Tensor bytes live in ``data.blob`` at the stated offsets, C-order '<f8'.
The extents tile the blob: sorted by offset, each starts where the previous
one ends, and the last ends at the blob's end.  ``blob.sum``, the uint64 sum
of the blob's 8-byte words modulo 2**64, catches any one flipped bit.

The ``key=value`` value text, shared with run configs: bools are
``true``/``false``, floats their repr (exact round trip), tuples
comma-separated.  ``field_table`` maps a dataclass onto flat keys, each
parsed by its field's declared type, so one declaration fixes both.
"""
from __future__ import annotations

import math
import os
import shutil
from dataclasses import fields
from typing import get_type_hints

import numpy as np

FORMAT_TAG = "sir-metric/2"
SUM_KEY = "blob.sum"
MANIFEST_NAME = "manifest.txt"
BLOB_NAME = "data.blob"


class ArchiveError(ValueError):
    """Malformed or missing archive contents."""


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def parse_shape(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


_PARSERS = {bool: parse_bool, tuple: parse_shape, int: int, float: float, str: str}


def field_table(cls, prefix: str = "", exclude=()) -> list:
    """(flat key, field name, parser) for each field of the dataclass
    ``cls`` in declaration order; the key is ``prefix + name``."""
    hints = get_type_hints(cls)
    return [(prefix + f.name, f.name, _PARSERS[hints[f.name]])
            for f in fields(cls) if f.name not in exclude]


class Entries(dict):
    """Archive meta or tensors.  A missing key or an unparsable value raises
    ArchiveError naming the key and the archive directory."""

    def __init__(self, entries: dict, dir_path):
        super().__init__(entries)
        self.dir_path = dir_path

    def __missing__(self, key):
        raise ArchiveError(f"archive {self.dir_path} is missing {key!r}")

    def parse(self, key: str, parser):
        text = self[key]
        try:
            return parser(text)
        except ValueError:
            raise ArchiveError(f"archive {self.dir_path} has a bad value for "
                               f"{key!r}: {text!r}") from None

    def decode_fields(self, table) -> dict:
        return {name: self.parse(key, parser) for key, name, parser in table}


def _is_archive(path) -> bool:
    """False if nothing is at ``path``, True if an archive directory is;
    anything else, which a swap must not delete, raises ArchiveError."""
    if not os.path.lexists(path):
        return False
    if (os.path.islink(path) or not os.path.isdir(path)
            or not set(os.listdir(path)) <= {MANIFEST_NAME, BLOB_NAME}):
        raise ArchiveError(f"{path} is not an archive directory; not replacing it")
    return True


def write_archive(dir_path, meta: dict, tensors: dict) -> None:
    """Write manifest + blob into a fresh ``<dir>.tmp`` and swap it in via
    ``<dir>.old``: ``dir_path`` holds the old archive, the new one or
    nothing, never a partial one, even if the process is killed (nothing is
    fsynced, so not on power loss).  A write that raises puts the old
    archive back at ``dir_path`` and then removes its ``<dir>.tmp``.  The
    working directory, or a directory holding it, is refused: the swap
    would leave the caller in a deleted directory.  Tensor values are
    converted to float64; meta values go through format_value."""
    lines = [f"format={FORMAT_TAG}"]
    for key, value in meta.items():
        key = str(key)
        if "=" in key or key.startswith("tensor.") or key in ("format", SUM_KEY):
            raise ArchiveError(f"illegal meta key: {key!r}")
        value = format_value(value)
        if "\n" in value:
            raise ArchiveError(f"meta value for {key!r} contains a newline")
        lines.append(f"{key}={value}")
    path = os.path.abspath(dir_path)
    real = os.path.realpath(path)
    if os.path.commonpath([real, os.getcwd()]) == real:
        raise ArchiveError(f"{path} is or holds the working directory; not replacing it")
    tmp, old = path + ".tmp", path + ".old"
    replacing = _is_archive(path)
    for stale in (tmp, old):  # left by an interrupted write
        if _is_archive(stale):
            shutil.rmtree(stale)
    os.makedirs(tmp)
    try:
        offset = total = 0
        with open(os.path.join(tmp, BLOB_NAME), "wb") as handle:
            for name in sorted(tensors):
                array = np.ascontiguousarray(tensors[name], dtype="<f8")
                lines.append(f"tensor.{name}={format_value(array.shape)}:{offset}")
                handle.write(array.data)
                offset += array.nbytes
                total += int(array.view("<u8").sum())
        lines.append(f"{SUM_KEY}={total % 2**64}")
        with open(os.path.join(tmp, MANIFEST_NAME), "w") as handle:
            handle.write("\n".join(lines) + "\n")
        if replacing:
            os.replace(path, old)
        os.replace(tmp, path)
    except BaseException:  # any failure, interrupts included: re-raised
        if replacing and not os.path.lexists(path):  # failed after the old was moved
            os.replace(old, path)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if replacing:
        shutil.rmtree(old)


def read_archive(dir_path):
    """Read manifest + blob back into (meta, tensors), both Entries: meta
    maps keys to value text (the format tag and blob.sum aside), tensors map
    names to float64 views of one array read from the whole blob, whose
    extents must tile it and whose words must sum to blob.sum.  A meta key
    or tensor name given twice is an error, as blob.sum does not cover the
    manifest."""
    manifest_path = os.path.join(dir_path, MANIFEST_NAME)
    blob_path = os.path.join(dir_path, BLOB_NAME)
    if not os.path.isfile(manifest_path):
        raise ArchiveError(f"no manifest at {manifest_path}")
    meta = {}
    entries = []
    keys = set()
    with open(manifest_path) as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines or lines[0] != f"format={FORMAT_TAG}":
        tag = lines[0].removeprefix("format=") if lines else ""
        raise ArchiveError(f"archive {dir_path}: unsupported format tag {tag!r} "
                           f"(this version reads {FORMAT_TAG!r})")
    for line in lines[1:]:
        if "=" not in line:
            raise ArchiveError(f"archive {dir_path}: malformed manifest line: {line!r}")
        key, value = line.split("=", 1)
        if key in keys:
            raise ArchiveError(f"archive {dir_path}: the manifest repeats {key!r}")
        keys.add(key)
        if key.startswith("tensor."):
            name = key[len("tensor."):]
            try:
                shape_part, offset_part = value.rsplit(":", 1)
                shape = tuple(int(d) for d in shape_part.split(",")) if shape_part else ()
                offset = int(offset_part)
                if min(shape, default=0) < 0:
                    raise ValueError("negative dimension")
            except ValueError:
                raise ArchiveError(f"archive {dir_path}: malformed tensor entry for "
                                   f"{name!r}: {line!r}") from None
            entries.append((offset, math.prod(shape), name, shape))
        else:
            meta[key] = value
    with open(blob_path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        blob = np.empty(size // 8, dtype="<f8")
        handle.readinto(blob)
    tensors = {}
    end = 0
    for offset, count, name, shape in sorted(entries, key=lambda entry: entry[:2]):
        if offset != end:
            raise ArchiveError(f"archive {dir_path}: tensor {name!r} starts at byte {offset}, "
                               f"but the previous extent ends at byte {end}")
        end = offset + 8 * count
        if end > size:
            raise ArchiveError(f"archive {dir_path}: tensor {name!r} overruns the blob "
                               f"({end} > {size} bytes)")
        tensors[name] = blob[offset // 8:end // 8].reshape(shape)
    if end != size:
        raise ArchiveError(f"archive {dir_path}: the tensors end at byte {end} "
                           f"of a {size}-byte blob")
    meta = Entries(meta, dir_path)
    if meta.parse(SUM_KEY, int) != int(blob.view("<u8").sum()):
        raise ArchiveError(f"archive {dir_path}: the blob's words do not sum to its {SUM_KEY}")
    del meta[SUM_KEY]
    return meta, Entries(tensors, dir_path)
