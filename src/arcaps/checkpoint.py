"""Binary checkpoint container.

Layout:
  8 bytes   magic "ARCAPS05"
  8 bytes   metadata length, unsigned little-endian
  N bytes   metadata, UTF-8 text (config lines, then state.* lines)
  records until end of file, each:
    8 bytes           name length (LE unsigned)
    name bytes        UTF-8
    8 bytes           rank (LE unsigned)
    rank * 8 bytes    extents (LE unsigned)
    prod(extents)*4   float32 values, little-endian

Round-trips are byte exact: values are written raw from float32 storage,
and arrays of any other dtype are rejected rather than converted. Each
capsule layer stores its transform as one ``<layer>.transform`` record of
shape (M, kw*kh*D_in, N*D_out). ``train.save_model`` writes one record
per ParameterStore entry (parameters and batchnorm running statistics)
and nothing else; a stem block stores no conv bias. A record name that
repeats an earlier one, and metadata or a record name that is not UTF-8,
are rejected. Files of earlier formats are rejected with the reason (see
``_OLD_MAGICS``; "ARCAPS04" files hold the loss.* config keys); there is
no conversion path.

``save`` writes ``<path>.tmp`` next to the target and renames it over the
target only once it is complete and synced, so a crash mid-write leaves
the previous checkpoint intact.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .errors import ConfigurationError, InputDataError

MAGIC = b"ARCAPS05"
_OLD_MAGICS = {
    b"ARCAPS01": "stores one transform record per output channel",
    b"ARCAPS02": ("may hold optimizer state and has a config key this "
                  "version no longer accepts"),
    b"ARCAPS03": "stores stem conv biases that batchnorm cancels",
    b"ARCAPS04": "has loss.* config keys this version no longer accepts",
}


def _write_record(fh, name, array):
    data = np.ascontiguousarray(array, dtype="<f4")
    name_b = name.encode("utf-8")
    fh.write(struct.pack("<Q", len(name_b)))
    fh.write(name_b)
    fh.write(struct.pack("<Q", data.ndim))
    for extent in data.shape:
        fh.write(struct.pack("<Q", extent))
    fh.write(memoryview(data).cast("B"))  # the array's own buffer: no copy of the record


def _check_size(fh, count, path, what):
    """Refuse a declared size larger than what is left of the file, before
    anything of that size is read or allocated."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        raise InputDataError(
            f"{path}: truncated checkpoint: {what} declares {count} bytes at "
            f"offset {fh.tell()}, but only {left} remain")


def _read_exact(fh, count, path, what):
    _check_size(fh, count, path, what)
    buf = fh.read(count)
    if len(buf) != count:
        raise InputDataError(
            f"{path}: truncated checkpoint while reading {what} "
            f"(wanted {count} bytes at offset {fh.tell() - len(buf)})")
    return buf


def _read_text(fh, count, path, what):
    """_read_exact's bytes as UTF-8 text; bytes that are not UTF-8 are an
    InputDataError naming the offset of the first bad one."""
    start = fh.tell()
    try:
        return _read_exact(fh, count, path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputDataError(
            f"{path}: {what} is not UTF-8 (byte at offset {start + exc.start})") from None


def _read_array(fh, shape, path, name):
    """Read float32 values straight into a new array (no second copy)."""
    _check_size(fh, 4 * math.prod(shape), path, f"data of {name!r}")
    array = np.empty(shape, dtype="<f4")
    buf = memoryview(array).cast("B")
    got = fh.readinto(buf)
    if got != len(buf):
        raise InputDataError(
            f"{path}: truncated checkpoint while reading data of {name!r} "
            f"(wanted {len(buf)} bytes at offset {fh.tell() - got})")
    return array


def save(path, metadata_text, arrays):
    """Atomically write metadata plus named float32 arrays (insertion order kept)."""
    for name, arr in arrays.items():
        if arr.dtype != np.float32:
            raise ConfigurationError(
                f"checkpoint array {name!r} is {arr.dtype}; the format stores "
                f"float32 only")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            meta = metadata_text.encode("utf-8")
            fh.write(struct.pack("<Q", len(meta)))
            fh.write(meta)
            for name, arr in arrays.items():
                _write_record(fh, name, arr)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load(path):
    """Read a checkpoint; returns (metadata_text, name -> float32 array).
    Truncation, an earlier format, text that is not UTF-8 and a repeated
    record name are InputDataError."""
    arrays = {}
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic in _OLD_MAGICS:
            raise InputDataError(
                f"{path}: {magic!r} checkpoint {_OLD_MAGICS[magic]}; this "
                f"version reads only {MAGIC!r}")
        if magic != MAGIC:
            raise InputDataError(
                f"{path}: bad magic {magic!r} at offset 0 (expected {MAGIC!r})")
        (meta_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, "metadata length"))
        meta = _read_text(fh, meta_len, path, "metadata")
        while True:
            head = fh.read(8)
            if not head:
                break
            if len(head) != 8:
                raise InputDataError(
                    f"{path}: truncated record header at offset {fh.tell() - len(head)}")
            (name_len,) = struct.unpack("<Q", head)
            name = _read_text(fh, name_len, path, "record name")
            if name in arrays:
                raise InputDataError(f"{path}: duplicate record {name!r} at offset "
                                     f"{fh.tell() - 8 - name_len}")
            (rank,) = struct.unpack("<Q", _read_exact(fh, 8, path, f"rank of {name!r}"))
            shape = struct.unpack(f"<{rank}Q",
                                  _read_exact(fh, 8 * rank, path, f"extents of {name!r}"))
            arrays[name] = _read_array(fh, shape, path, name)
    return meta, arrays
