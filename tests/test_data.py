"""IDX/CIFAR parsing, augmentation geometry, splitting and batching."""

import struct

import numpy as np
import pytest

from arcaps.data import (AugmentPolicy, Dataset, augment, batches, load_cifar10,
                         load_idx, pad_image, rotate_image, split_train_val,
                         translate_image)
from arcaps.errors import InputDataError

import digitgen
from conftest import real_mnist_dir


def write_idx_pair(tmp_path, pixels, labels, tag=""):
    """Hand-built pair of IDX files from explicit byte values."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    count, rows, cols = pixels.shape
    img_path = tmp_path / f"img{tag}"
    lbl_path = tmp_path / f"lbl{tag}"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(pixels.tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, count))
        fh.write(bytes(labels))
    return img_path, lbl_path


class TestLoadIdx:
    def test_hand_built_fixture_exact_values(self, tmp_path):
        pixels = np.array([[[0, 51], [102, 255]],
                           [[255, 0], [10, 20]]], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, pixels, [3, 7])
        ds = load_idx(img, lbl)
        assert ds.images.shape == (2, 2, 2, 1)
        assert np.array_equal(ds.labels, [3, 7])
        expected = pixels.astype(np.float32)[..., None] / 255.0
        assert np.array_equal(ds.images, expected)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_labels_magic_rejected_by_image_parser(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        with pytest.raises(InputDataError, match="magic"):
            load_idx(lbl, img)

    def test_truncated_pixels_named_with_offset(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 3, 3), np.uint8), [0, 1])
        raw = img.read_bytes()
        img.write_bytes(raw[:-4])
        with pytest.raises(InputDataError, match="truncated"):
            load_idx(img, lbl)

    @pytest.mark.parametrize("count, rows, cols", [(0xFFFFFFFF, 0xFFFF, 0xFFFF),
                                                   (1 << 31, 28, 28)])
    def test_oversized_pixel_count_refused_before_reading(self, tmp_path, count, rows, cols):
        # the declared byte count would overflow a read or exhaust memory
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        img.write_bytes(struct.pack(">IIII", 0x00000803, count, rows, cols) + bytes(4))
        with pytest.raises(InputDataError,
                           match=f"truncated pixel data at offset 16: the header declares "
                                 f"{count * rows * cols} bytes, but only 4 remain"):
            load_idx(img, lbl)

    def test_oversized_label_count_refused_before_reading(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        lbl.write_bytes(struct.pack(">II", 0x00000801, 0xFFFFFFFF) + bytes(1))
        with pytest.raises(InputDataError,
                           match=f"truncated label data at offset 8: the header declares "
                                 f"{0xFFFFFFFF} bytes, but only 1 remain"):
            load_idx(img, lbl)

    def test_count_mismatch_rejected(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        _, lbl3 = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8),
                                 [0, 1, 2], tag="3")
        with pytest.raises(InputDataError, match="labels"):
            load_idx(img, lbl3)

    @pytest.mark.skipif(real_mnist_dir() is None,
                        reason="canonical MNIST IDX files not present "
                               "(set ARCAPS_DATA_DIR)")
    def test_canonical_mnist_counts(self):
        root = real_mnist_dir()
        train = load_idx(root / "train-images-idx3-ubyte",
                         root / "train-labels-idx1-ubyte")
        assert len(train) == 60000
        assert train.images.shape[1:] == (28, 28, 1)
        assert train.labels.min() >= 0 and train.labels.max() <= 9


class TestLoadCifar10:
    def _record(self, label, value):
        return bytes([label]) + bytes([value]) * 3072

    def test_two_record_fixture(self, tmp_path):
        p = tmp_path / "batch.bin"
        p.write_bytes(self._record(4, 100) + self._record(9, 200))
        ds = load_cifar10(p)
        assert len(ds) == 2
        assert ds.images.shape == (2, 32, 32, 3)
        assert np.array_equal(ds.labels, [4, 9])
        assert np.allclose(ds.images[0], 100 / 255.0)
        assert np.allclose(ds.images[1], 200 / 255.0)

    def test_empty_file_gives_empty_dataset(self, tmp_path):
        p = tmp_path / "batch.bin"
        p.write_bytes(b"")
        ds = load_cifar10(p)
        assert len(ds) == 0
        with pytest.raises(InputDataError):
            next(batches(ds, 10))

    def test_label_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "batch.bin"
        p.write_bytes(self._record(10, 0))
        with pytest.raises(InputDataError, match="label 10"):
            load_cifar10(p)

    def test_misaligned_file_rejected(self, tmp_path):
        p = tmp_path / "batch.bin"
        p.write_bytes(self._record(1, 0)[:-5])
        with pytest.raises(InputDataError, match="record"):
            load_cifar10(p)


class TestAugment:
    def test_zero_policy_is_identity(self, rng):
        img = rng.random((28, 28, 1)).astype(np.float32)
        out = augment(img, AugmentPolicy(), np.random.default_rng(0))
        assert np.array_equal(out, img)

    def test_translation_offsets_and_bookkeeping(self):
        # shift fraction 0.1 on 28 pixels: offsets within +-round(2.8) = +-3
        policy = AugmentPolicy(translate_fraction=0.1)
        seen = set()
        base = np.zeros((28, 28, 1), dtype=np.float32)
        base[14, 14, 0] = 1.0
        gen = np.random.default_rng(5)
        for _ in range(300):
            out = augment(base, policy, gen)
            r, c, _ = np.unravel_index(np.argmax(out), out.shape)
            dr, dc = r - 14, c - 14
            assert -3 <= dr <= 3 and -3 <= dc <= 3
            assert out[r, c, 0] == 1.0 and out.sum() == 1.0
            seen.add((dr, dc))
        assert (3, 3) in seen and (-3, -3) in seen  # extremes reachable

    def test_flip_is_involution(self, rng):
        img = rng.random((8, 8, 1)).astype(np.float32)
        flipped = img[:, ::-1]
        assert np.array_equal(flipped[:, ::-1], img)

    def test_flip_probability_half(self, rng):
        img = np.zeros((4, 4, 1), dtype=np.float32)
        img[0, 0, 0] = 1.0
        gen = np.random.default_rng(11)
        flips = sum(
            augment(img, AugmentPolicy(horizontal_flip=True), gen)[0, 3, 0] == 1.0
            for _ in range(1000))
        assert 400 < flips < 600

    def test_pad_to_enlarges_canvas(self, rng):
        img = rng.random((28, 28, 1)).astype(np.float32)
        out = augment(img, AugmentPolicy(pad_to=(40, 40)), np.random.default_rng(0))
        assert out.shape == (40, 40, 1)
        assert np.array_equal(out[6:34, 6:34], img)
        assert out.sum() == pytest.approx(img.sum())

    def test_rotation_zero_fill_and_center(self):
        img = np.zeros((9, 9, 1))
        img[4, 4, 0] = 1.0
        out = rotate_image(img, 90.0)
        assert out[4, 4, 0] == pytest.approx(1.0, abs=1e-9)  # center fixed
        corner = np.zeros((9, 9, 1))
        corner[0, 0, 0] = 1.0
        rotated = rotate_image(corner, 45.0)
        assert rotated.sum() < corner.sum() + 1e-9  # mass leaves the canvas

    def test_translate_fraction_bounds(self):
        with pytest.raises(InputDataError):
            AugmentPolicy(translate_fraction=0.6)

    def test_pad_smaller_than_image_rejected(self, rng):
        with pytest.raises(InputDataError):
            pad_image(rng.random((28, 28, 1)), 20, 20)

    def test_translate_image_directions(self):
        img = np.zeros((5, 5, 1))
        img[2, 2, 0] = 1.0
        down = translate_image(img, 1, 0)
        right = translate_image(img, 0, 1)
        assert down[3, 2, 0] == 1.0
        assert right[2, 3, 0] == 1.0
        gone = translate_image(img, 4, 0)
        assert gone.sum() == 0.0  # zero fill, content shifted out


class TestPadDataset:
    def test_centered_and_noop_when_sized(self, rng):
        from arcaps.data import pad_dataset

        ds = Dataset(rng.random((3, 28, 28, 1)).astype(np.float32),
                     np.array([1, 2, 3]), 10)
        padded = pad_dataset(ds, 40, 40)
        assert padded.images.shape == (3, 40, 40, 1)
        assert np.array_equal(padded.images[:, 6:34, 6:34], ds.images)
        assert np.array_equal(padded.labels, ds.labels)
        again = pad_dataset(padded, 40, 40)
        assert again is padded


class TestSplit:
    def test_disjoint_exhaustive_deterministic(self, rng):
        ds = Dataset(rng.random((200, 4, 4, 1)).astype(np.float32),
                     rng.integers(0, 10, 200), 10)
        tr1, va1 = split_train_val(ds, 0.1, seed=3)
        tr2, va2 = split_train_val(ds, 0.1, seed=3)
        assert len(va1) == 20 and len(tr1) == 180
        assert np.array_equal(tr1.images, tr2.images)
        assert np.array_equal(va1.images, va2.images)
        key = lambda imgs: {arr.tobytes() for arr in imgs}
        union = key(tr1.images) | key(va1.images)
        assert union == key(ds.images)
        assert not (key(tr1.images) & key(va1.images))
        tr3, _ = split_train_val(ds, 0.1, seed=4)
        assert not np.array_equal(tr1.images, tr3.images)


class TestBatches:
    def _dataset(self, rng, count=250):
        return Dataset(rng.random((count, 4, 4, 1)).astype(np.float32),
                       rng.integers(0, 10, count), 10)

    def test_batch_sizes_with_short_final(self, rng):
        ds = self._dataset(rng, 250)
        sizes = [img.shape[0] for img, _ in batches(ds, 100, shuffle_seed=0)]
        assert sizes == [100, 100, 50]

    def test_same_seed_identical_stream(self, rng):
        ds = self._dataset(rng)
        a = list(batches(ds, 64, shuffle_seed=9))
        b = list(batches(ds, 64, shuffle_seed=9))
        for (ia, la), (ib, lb) in zip(a, b):
            assert np.array_equal(ia, ib) and np.array_equal(la, lb)

    def test_epoch_is_exact_permutation(self, rng):
        ds = self._dataset(rng, 130)
        seen = []
        for img, lbl in batches(ds, 32, shuffle_seed=1):
            seen.extend(arr.tobytes() for arr in img)
        assert sorted(seen) == sorted(arr.tobytes() for arr in ds.images)

    def test_zero_policy_batches_bitwise_raw(self, rng):
        ds = self._dataset(rng, 40)
        raw = {arr.tobytes() for arr in ds.images}
        for img, _ in batches(ds, 16, shuffle_seed=2, policy=AugmentPolicy()):
            for arr in img:
                assert arr.tobytes() in raw

    def test_augmentation_keeps_labels_and_range(self, rng):
        ds = self._dataset(rng, 60)
        policy = AugmentPolicy(translate_fraction=0.2, rotate_max_degrees=15,
                               horizontal_flip=True)
        labels = []
        for img, lbl in batches(ds, 25, shuffle_seed=3, policy=policy):
            labels.extend(lbl.tolist())
            assert img.min() >= 0.0 and img.max() <= 1.0 + 1e-6
        assert sorted(labels) == sorted(ds.labels.tolist())

    def test_empty_dataset_rejected(self, rng):
        ds = Dataset(np.zeros((0, 4, 4, 1), np.float32), np.zeros(0, np.int64), 10)
        with pytest.raises(InputDataError):
            next(batches(ds, 10))

    def test_generated_digit_fixture_round_trips_loader(self, tmp_path):
        digitgen.write_dataset(tmp_path, train_count=30, test_count=10, seed=1)
        ds = load_idx(tmp_path / "train-images-idx3-ubyte",
                      tmp_path / "train-labels-idx1-ubyte")
        assert len(ds) == 30
        assert ds.images.shape == (30, 28, 28, 1)
        assert set(np.unique(ds.labels)).issubset(set(range(10)))
