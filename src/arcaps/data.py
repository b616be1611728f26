"""Dataset loading, preprocessing and batching.

Images are stored as float32 arrays of shape (count, rows, cols, channels)
scaled to [0, 1]; labels as int64 class ids. The horizontal axis of an
image is the column axis, the vertical axis the row axis.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputDataError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD = 3073  # 1 label byte + 32*32*3 channel-planar pixels


@dataclass
class Dataset:
    images: np.ndarray  # (count, rows, cols, channels) float32 in [0, 1]
    labels: np.ndarray  # (count,) int64
    classes: int

    def __len__(self):
        return self.images.shape[0]

    def subset(self, indices):
        return Dataset(self.images[indices], self.labels[indices], self.classes)


@dataclass(frozen=True)
class AugmentPolicy:
    """Random per-sample geometric augmentation.

    translate_fraction: uniform integer pixel shifts up to
        round(fraction * extent) per axis, zero filled.
    rotate_max_degrees: uniform rotation about the image center,
        bilinear resampling, zero filled.
    horizontal_flip: mirror the column axis with probability 0.5.
    pad_to: zero-pad to a (rows, cols) canvas before the other steps
        (the enlarged-canvas translated-digit training mode); None keeps
        the native size.
    """

    translate_fraction: float = 0.0
    rotate_max_degrees: float = 0.0
    horizontal_flip: bool = False
    pad_to: tuple[int, int] | None = None

    def __post_init__(self):
        if not 0.0 <= self.translate_fraction <= 0.5:
            raise InputDataError(
                f"translate_fraction must be in [0, 0.5], got {self.translate_fraction}")
        if self.rotate_max_degrees < 0:
            raise InputDataError("rotate_max_degrees must be >= 0")

    @property
    def is_identity(self):
        return (self.translate_fraction == 0.0 and self.rotate_max_degrees == 0.0
                and not self.horizontal_flip and self.pad_to is None)


# ---------------------------------------------------------------------------
# file formats


def _read_be_u32(fh, path, what):
    buf = fh.read(4)
    if len(buf) != 4:
        raise InputDataError(f"{path}: truncated while reading {what} "
                             f"at offset {fh.tell() - len(buf)}")
    return struct.unpack(">I", buf)[0]


def _read_declared(fh, count, path, what):
    """The ``count`` bytes of ``what`` that the header declares. A count
    larger than what is left of the file is refused, naming the offset,
    before anything of that size is read or allocated."""
    offset = fh.tell()
    left = os.fstat(fh.fileno()).st_size - offset
    if count > left:
        raise InputDataError(
            f"{path}: truncated {what} at offset {offset}: the header declares "
            f"{count} bytes, but only {left} remain")
    buf = fh.read(count)
    if len(buf) != count:
        raise InputDataError(f"{path}: truncated {what} at offset {offset + len(buf)}")
    return buf


def load_idx(images_path, labels_path, classes=10):
    """Parse an IDX image/label file pair into a Dataset.

    Big-endian container: magic, dimension extents, raw bytes. Pixels are
    divided by 255.
    """
    images_path, labels_path = str(images_path), str(labels_path)
    with open(images_path, "rb") as fh:
        magic = _read_be_u32(fh, images_path, "magic")
        if magic != IDX_IMAGES_MAGIC:
            raise InputDataError(
                f"{images_path}: magic 0x{magic:08x} at offset 0 is not an "
                f"IDX image file (expected 0x{IDX_IMAGES_MAGIC:08x})")
        count = _read_be_u32(fh, images_path, "image count")
        rows = _read_be_u32(fh, images_path, "row count")
        cols = _read_be_u32(fh, images_path, "column count")
        raw = _read_declared(fh, count * rows * cols, images_path, "pixel data")
    with open(labels_path, "rb") as fh:
        magic = _read_be_u32(fh, labels_path, "magic")
        if magic != IDX_LABELS_MAGIC:
            raise InputDataError(
                f"{labels_path}: magic 0x{magic:08x} at offset 0 is not an "
                f"IDX label file (expected 0x{IDX_LABELS_MAGIC:08x})")
        label_count = _read_be_u32(fh, labels_path, "label count")
        raw_labels = _read_declared(fh, label_count, labels_path, "label data")
    if label_count != count:
        raise InputDataError(
            f"{images_path} holds {count} images but {labels_path} holds "
            f"{label_count} labels")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols, 1)
    images = images.astype(np.float32) / 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    if count and labels.max() >= classes:
        raise InputDataError(
            f"{labels_path}: label {labels.max()} outside [0, {classes})")
    return Dataset(images, labels, classes)


def load_cifar10(paths):
    """Parse CIFAR-10 binary batch files (one path or a list of paths).

    Each record is a label byte followed by 3072 channel-planar RGB bytes.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    all_images, all_labels = [], []
    for path in paths:
        path = str(path)
        raw = Path(path).read_bytes()
        if len(raw) % CIFAR_RECORD != 0:
            raise InputDataError(
                f"{path}: size {len(raw)} is not a multiple of the "
                f"{CIFAR_RECORD}-byte record")
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        labels = records[:, 0].astype(np.int64)
        if len(labels) and labels.max() > 9:
            bad = int(np.argmax(labels > 9))
            raise InputDataError(
                f"{path}: record {bad} has label {labels[bad]} outside [0, 10)")
        pixels = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
        all_images.append(pixels.astype(np.float32) / 255.0)
        all_labels.append(labels)
    if not all_images:
        raise InputDataError("load_cifar10() got no paths")
    return Dataset(np.concatenate(all_images), np.concatenate(all_labels), 10)


# ---------------------------------------------------------------------------
# geometry


def translate_image(image, dr, dc):
    """Shift by whole pixels with zero fill; +dr moves content down,
    +dc moves it right."""
    out = np.zeros_like(image)
    rows, cols = image.shape[:2]
    src_r = slice(max(0, -dr), min(rows, rows - dr))
    src_c = slice(max(0, -dc), min(cols, cols - dc))
    dst_r = slice(max(0, dr), min(rows, rows + dr))
    dst_c = slice(max(0, dc), min(cols, cols + dc))
    out[dst_r, dst_c] = image[src_r, src_c]
    return out


def rotate_image(image, degrees):
    """Rotate counterclockwise about the center, bilinear, zero fill."""
    if degrees == 0.0:
        return image.copy()
    rows, cols = image.shape[:2]
    theta = np.deg2rad(degrees)
    c, s = np.cos(theta), np.sin(theta)
    cr, cc = (rows - 1) / 2.0, (cols - 1) / 2.0
    rr, cc_grid = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    # inverse map: sample the source at the backward-rotated position
    y = rr - cr
    x = cc_grid - cc
    src_r = c * y + s * x + cr
    src_c = -s * y + c * x + cc
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    fr = (src_r - r0).astype(image.dtype)
    fc = (src_c - c0).astype(image.dtype)

    def sample(ri, ci):
        valid = (ri >= 0) & (ri < rows) & (ci >= 0) & (ci < cols)
        ri_c = np.clip(ri, 0, rows - 1)
        ci_c = np.clip(ci, 0, cols - 1)
        val = image[ri_c, ci_c]
        return val * valid[..., None].astype(image.dtype)

    out = ((1 - fr) * (1 - fc))[..., None] * sample(r0, c0)
    out += ((1 - fr) * fc)[..., None] * sample(r0, c0 + 1)
    out += (fr * (1 - fc))[..., None] * sample(r0 + 1, c0)
    out += (fr * fc)[..., None] * sample(r0 + 1, c0 + 1)
    return out


def pad_image(image, rows, cols):
    """Zero-pad to (rows, cols), centered (extra on the bottom/right)."""
    r, c = image.shape[:2]
    if rows < r or cols < c:
        raise InputDataError(f"pad target ({rows}, {cols}) smaller than image ({r}, {c})")
    top = (rows - r) // 2
    left = (cols - c) // 2
    out = np.zeros((rows, cols) + image.shape[2:], dtype=image.dtype)
    out[top : top + r, left : left + c] = image
    return out


def augment(image, policy: AugmentPolicy, rng):
    """Apply one random draw of the policy to a single image."""
    if policy.pad_to is not None:
        image = pad_image(image, *policy.pad_to)
    if policy.horizontal_flip and rng.random() < 0.5:
        image = image[:, ::-1]
    if policy.rotate_max_degrees > 0.0:
        deg = rng.uniform(-policy.rotate_max_degrees, policy.rotate_max_degrees)
        image = rotate_image(image, deg)
    if policy.translate_fraction > 0.0:
        rows, cols = image.shape[:2]
        max_r = int(round(policy.translate_fraction * rows))
        max_c = int(round(policy.translate_fraction * cols))
        dr = int(rng.integers(-max_r, max_r + 1)) if max_r else 0
        dc = int(rng.integers(-max_c, max_c + 1)) if max_c else 0
        image = translate_image(image, dr, dc)
    return np.ascontiguousarray(image)


# ---------------------------------------------------------------------------
# splitting and batching


def pad_dataset(dataset: Dataset, rows, cols):
    """Deterministically zero-pad every image to a (rows, cols) canvas.

    The evaluation-side counterpart of AugmentPolicy.pad_to: validation and
    test images must match the enlarged training canvas, centered, with no
    random translation.
    """
    if dataset.images.shape[1:3] == (rows, cols):
        return dataset
    images = np.stack([pad_image(img, rows, cols) for img in dataset.images])
    return Dataset(images, dataset.labels, dataset.classes)


def split_train_val(dataset: Dataset, val_fraction=0.1, seed=0):
    """Disjoint, exhaustive, seed-deterministic train/validation split."""
    count = len(dataset)
    perm = np.random.default_rng(np.random.SeedSequence([0x5137, seed])).permutation(count)
    val_count = int(round(val_fraction * count))
    val_idx = np.sort(perm[:val_count])
    train_idx = np.sort(perm[val_count:])
    return dataset.subset(train_idx), dataset.subset(val_idx)


def batches(dataset: Dataset, batch_size, shuffle_seed=None, policy=None):
    """One epoch of (images, labels) batches.

    A seed gives a deterministic shuffle; None keeps dataset order. The
    final short batch is kept. With a non-identity policy every sample is
    augmented independently using the same seeded stream, so a fixed seed
    reproduces the epoch bitwise.
    """
    if batch_size < 1:
        raise InputDataError(f"batch_size must be >= 1, got {batch_size}")
    count = len(dataset)
    if count == 0:
        raise InputDataError("cannot batch an empty dataset")
    if shuffle_seed is None:
        order = np.arange(count)
        rng = np.random.default_rng(0)
    else:
        rng = np.random.default_rng(np.random.SeedSequence([0xBA7C, shuffle_seed]))
        order = rng.permutation(count)
    apply_policy = policy is not None and not policy.is_identity
    for start in range(0, count, batch_size):
        idx = order[start : start + batch_size]
        images = dataset.images[idx]
        if apply_policy:
            images = np.stack([augment(img, policy, rng) for img in images])
        yield images, dataset.labels[idx]
