"""Shared fixtures: synthetic digit dataset, desk-scale trained model.

The desk-scale training run is expensive (a few minutes) and session-scoped;
everything that needs a trained model shares it.
"""

import os
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import digitgen  # noqa: E402

from arcaps import tensor as T  # noqa: E402
from arcaps.config import RunConfig  # noqa: E402
from arcaps.data import load_idx  # noqa: E402
from arcaps.model import ArCapsNet, ModelConfig  # noqa: E402
from arcaps.selftest import oracle_banks  # noqa: E402
from arcaps.train import load_model, train  # noqa: E402

# reduced configuration for desk-scale training: stem width 32, four primary
# channels, 8-dimensional capsules, one conv caps layer
DESK_KW = dict(stem_width=32, primary_dim=8, primary_channels=4,
               conv_caps=1, caps_dim=8, caps_channels=8,
               epochs=3, batch_size=100, seed=0)

TRAIN_COUNT = 10000
TEST_COUNT = 2000


def layer_banks(layer):
    """A ConvCaps layer's per-output-channel kernels in the loop oracles' layout."""
    return oracle_banks(layer.transform.data, layer.ksize, layer.dim)


def pre_activation(layer, u):
    """A ConvCaps layer's routed capsules before the activation (no dropout)."""
    return T.transform_route(T.leaf(u), layer.transform, layer.attention,
                             layer.ksize, layer.stride, layer.padding).data


def transform_stacks(layer, u):
    """A ConvCaps layer's transformed capsules before routing: a list over
    output channel n of (B, W, H, E, M) arrays. Read through transform_route
    one input channel at a time; routing over one channel has weight 1."""
    per_m = [T.transform_route(T.leaf(u[..., m:m + 1]),
                               T.leaf(layer.transform.data[m:m + 1]),
                               T.leaf(layer.attention.data[..., m:m + 1]),
                               layer.ksize, layer.stride, layer.padding).data
             for m in range(layer.in_channels)]
    stacked = np.stack(per_m, axis=-1)  # (B, W, H, E, N, M)
    return [stacked[..., n, :] for n in range(layer.channels)]


def blocks_of_two(monkeypatch):
    """Shrink the block budget of every blocked op (conv2d, conv_bn_relu,
    transform_route, capsule_activation) to two of its images, so a batch of
    more than two spans several blocks; the weight size that may grow
    transform_route's blocks is ignored. Returns the list that records the
    (lo, hi) blocks of each op call, in call order."""
    walked = []
    image_blocks = T._image_blocks
    monkeypatch.setattr(T, "BLOCK_BYTES", T.BLOCK_BYTES)  # restored on teardown

    def two_images(batch, bytes_per_image, weight_bytes=0):
        T.BLOCK_BYTES = 2 * bytes_per_image
        walked.append(image_blocks(batch, bytes_per_image))
        return walked[-1]

    monkeypatch.setattr(T, "_image_blocks", two_images)
    return walked


def corrupt_headers(raw):
    """Copies of the checkpoint bytes ``raw``, each with one corrupt header,
    as (bytes, pattern of the load error) pairs. Three declare a size far
    beyond the file: a 2^62 metadata length, a 2^62 name length of the first
    record, and the first record made rank 2 with extents (2^40, 2^20). Two
    hold text that is not UTF-8: the metadata b"\\xff\\xfe bad", and the first
    record's name with its first byte made 0xff."""
    meta_len = int.from_bytes(raw[8:16], "little")
    rec = 16 + meta_len
    name_len = int.from_bytes(raw[rec:rec + 8], "little")
    rank_at = rec + 8 + name_len

    def put(data, offset, *values):
        packed = b"".join(v.to_bytes(8, "little") for v in values)
        return data[:offset] + packed + data[offset + len(packed):]

    def beyond(what):
        return f"truncated checkpoint: {what} declares .* at offset"

    bad_meta = b"\xff\xfe bad"
    return [(put(raw, 8, 1 << 62), beyond("metadata")),
            (put(raw, rec, 1 << 62), beyond("record name")),
            (put(raw, rank_at, 2, 1 << 40, 1 << 20), beyond("data of '.*'")),
            (raw[:8] + len(bad_meta).to_bytes(8, "little") + bad_meta + raw[rec:],
             re.escape("metadata is not UTF-8 (byte at offset 16)")),
            (raw[:rec + 8] + b"\xff" + raw[rec + 9:],
             re.escape(f"record name is not UTF-8 (byte at offset {rec + 8})"))]


def routing_logits(x, ref):
    """The routing logits <x[..., :, m], ref[:, m]> with which transform_route
    weighs (B, W, H, D, M) predictions against a (D, M) reference, read back
    from its routing weights. Each input channel predicts x[..., :, m]
    followed by one-hot(m), so the output holds the weights a; an appended
    all-zero channel has logit 0, so logit_m = log(a_m / a_M)."""
    b, w, h, d, m = x.shape
    cols = np.zeros((b, w, h, d + 1, m + 1), dtype=x.dtype)
    cols[..., :d, :m] = x
    cols[..., d, :] = 1.0
    weight = np.zeros((m + 1, d + 1, d + m + 1), dtype=x.dtype)
    weight[:, :d, :d] = np.eye(d)
    weight[np.arange(m + 1), d, d + np.arange(m + 1)] = 1.0
    reference = np.zeros((1, ref.shape[0] + m + 1, m + 1), dtype=x.dtype)
    reference[0, :ref.shape[0], :m] = ref
    out = T.transform_route(T.leaf(cols), T.leaf(weight), T.leaf(reference),
                            (1, 1), 1, "valid").data
    a = out[..., d:, 0]
    return np.log(a[..., :m]) - np.log(a[..., m:])


def real_mnist_dir():
    """Directory holding canonical MNIST IDX files, or None."""
    root = os.environ.get("ARCAPS_DATA_DIR")
    if not root:
        return None
    root = Path(root)
    names = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    if all((root / n).exists() for n in names):
        return root
    return None


@pytest.fixture(scope="session")
def digits_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("digits")
    digitgen.write_dataset(out, TRAIN_COUNT, TEST_COUNT, seed=0)
    return out


@pytest.fixture(scope="session")
def digits_train(digits_dir):
    return load_idx(digits_dir / "train-images-idx3-ubyte",
                    digits_dir / "train-labels-idx1-ubyte")


@pytest.fixture(scope="session")
def digits_test(digits_dir):
    return load_idx(digits_dir / "t10k-images-idx3-ubyte",
                    digits_dir / "t10k-labels-idx1-ubyte")


@pytest.fixture(scope="session")
def desk_config(digits_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_run")
    return RunConfig(data_dir=str(digits_dir), out_dir=str(out), **DESK_KW)


@pytest.fixture(scope="session")
def desk_run(desk_config, digits_train):
    start = time.perf_counter()
    run = train(desk_config, digits_train)
    elapsed = time.perf_counter() - start
    return run, elapsed


@pytest.fixture(scope="session")
def trained_model(desk_run):
    run, _ = desk_run
    model, _, _ = load_model(run.best_path)
    return model


@pytest.fixture(scope="session")
def untrained_model(desk_config):
    return ArCapsNet(desk_config.model_config(), seed=99)


@pytest.fixture
def tiny_config():
    return ModelConfig(input_width=8, input_height=8, stem_width=3, primary_dim=3,
                       primary_channels=2, caps_dim=4, caps_channels=3, classes=3,
                       decoder_widths=(8, 8))


@pytest.fixture
def tiny_run_config(tiny_config):
    """RunConfig whose model_config() is tiny_config: every ModelConfig
    field is the RunConfig field of the same name."""
    return RunConfig(**asdict(tiny_config))


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def node_log(monkeypatch):
    """Every Tensor built while the fixture is active, in build order."""
    built = []
    init = T.Tensor.__init__

    def recording_init(node, *args, **kwargs):
        init(node, *args, **kwargs)
        built.append(node)

    monkeypatch.setattr(T.Tensor, "__init__", recording_init)
    return built
