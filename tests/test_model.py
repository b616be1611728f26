"""Model assembly, losses, parameter counting, checkpoint round-trips."""

import inspect
import re
import tracemalloc
import weakref
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from arcaps import checkpoint, layers, tensor as T
from arcaps.analysis import alignment_experiment
from arcaps.data import Dataset
from arcaps.errors import ConfigurationError, InputDataError
from arcaps.model import (ArCapsNet, ModelConfig, count_parameters, margin_loss,
                          normalized_length, reconstruction_loss)
from arcaps.train import evaluate, load_model, save_model
from arcaps.config import RunConfig
from conftest import blocks_of_two, corrupt_headers, saved_arrays


MNIST_CONFIG = ModelConfig()
CIFAR_CONFIG = ModelConfig(input_width=32, input_height=32, input_channels=3,
                           conv_caps=4)


class TestBuild:
    def test_mnist_forward_shapes(self, rng):
        net = ArCapsNet(MNIST_CONFIG, seed=0)
        images = rng.random((2, 28, 28, 1), dtype=np.float32)
        result = net.forward(images)
        assert result.scores.shape == (2, 10)
        assert result.capsules.shape == (2, 32, 10)
        assert result.reconstruction.shape == (2, 784)

    def test_equal_seeds_build_identical_parameters(self):
        a = ArCapsNet(MNIST_CONFIG, seed=7)
        b = ArCapsNet(MNIST_CONFIG, seed=7)
        for (n1, t1), (n2, t2) in zip(a.store.items(), b.store.items()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)
        c = ArCapsNet(MNIST_CONFIG, seed=8)
        assert not np.array_equal(a.store["stem0.kernel"].data,
                                  c.store["stem0.kernel"].data)

    def test_cifar_residual_config_builds_and_runs(self, rng):
        net = ArCapsNet(CIFAR_CONFIG, seed=0)
        # one stride-2 capsule layer, then residual stride-1 layers
        assert [(layer.stride, layer.residual) for layer in net.caps_layers] == [
            (2, False)] + [(1, True)] * 3
        assert net.fully.ksize == (8, 8)
        images = rng.random((2, 32, 32, 3), dtype=np.float32)
        result = net.forward(images)
        assert result.scores.shape == (2, 10)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError, match="classes"):
            ModelConfig(classes=0).validate()
        with pytest.raises(ConfigurationError, match="stem_width"):
            ModelConfig(stem_width=0).validate()
        with pytest.raises(ConfigurationError, match="conv_caps must be >= 0, got -2"):
            ModelConfig(conv_caps=-2).validate()
        with pytest.raises(ConfigurationError, match="caps_channels must be >= 1, got 0"):
            ModelConfig(caps_channels=0).validate()
        with pytest.raises(ConfigurationError, match=re.escape("decoder_widths must all be "
                                                               ">= 1, got (512, -3)")):
            ModelConfig(decoder_widths=(512, -3)).validate()

    def test_train_mode_requires_labels(self, rng):
        net = ArCapsNet(ModelConfig(input_width=8, input_height=8, stem_width=2,
                                    primary_dim=2, primary_channels=2,
                                    conv_caps=0, caps_dim=3, classes=2,
                                    decoder_widths=(4,)), seed=0)
        with pytest.raises(ConfigurationError):
            net.forward(rng.random((1, 8, 8, 1), dtype=np.float32), train=True)


class TestNormalizedLength:
    def test_maximal_capsule_scores_one(self):
        caps = np.zeros((1, 32, 10), dtype=np.float32)
        caps[0, :, 3] = 1.0
        scores = normalized_length(T.leaf(caps)).data
        assert abs(scores[0, 3] - 1.0) < 1e-6

    def test_zero_capsule_scores_zero(self):
        scores = normalized_length(T.leaf(np.zeros((1, 16, 4), dtype=np.float32))).data
        assert np.all(scores == 0)

    def test_matches_norm_oracle(self, rng):
        caps = rng.standard_normal((3, 8, 5))
        scores = normalized_length(T.leaf(caps)).data
        for b in range(3):
            for n in range(5):
                norm = float(np.sqrt(sum(caps[b, d, n] ** 2 for d in range(8))))
                assert abs(scores[b, n] - norm / np.sqrt(8)) < 1e-6

    def test_scores_in_unit_interval_via_tanh_bound(self, rng):
        net = ArCapsNet(ModelConfig(input_width=8, input_height=8, stem_width=3,
                                    primary_dim=3, primary_channels=2,
                                    conv_caps=0, caps_dim=4, classes=3,
                                    decoder_widths=(4,)), seed=1)
        result = net.forward(rng.random((4, 8, 8, 1), dtype=np.float32))
        assert np.all(result.scores.data >= 0)
        assert np.all(result.scores.data <= 1)

    def test_argmax_invariant_to_positive_scaling(self, rng):
        caps = rng.standard_normal((4, 8, 5))
        a = normalized_length(T.leaf(caps)).data
        b = normalized_length(T.leaf(caps * 3.7)).data
        assert np.array_equal(np.argmax(a, axis=1), np.argmax(b, axis=1))


class TestMarginLoss:
    def _loss(self, scores, labels, classes=4):
        return margin_loss(T.leaf(np.asarray(scores, dtype=np.float64)),
                           np.asarray(labels), classes).item()

    def test_zero_at_margins(self):
        scores = [[0.9, 0.1, 0.1, 0.1]]
        assert self._loss(scores, [0]) == 0.0

    def test_true_class_below_margin(self):
        scores = [[0.4, 0.0, 0.0, 0.0]]
        assert abs(self._loss(scores, [0]) - 0.25) < 1e-12

    def test_all_zero_scores(self):
        scores = [[0.0, 0.0, 0.0, 0.0]]
        assert abs(self._loss(scores, [2]) - 0.81) < 1e-12

    def test_zero_iff_margins_satisfied(self, rng):
        good = rng.uniform(0.9, 1.0, size=(3, 4))
        labels = np.array([0, 1, 2])
        mask = np.ones((3, 4), dtype=bool)
        mask[np.arange(3), labels] = False
        good[mask] = rng.uniform(0.0, 0.1, size=9)
        assert self._loss(good, labels) == 0.0
        bad = good.copy()
        bad[0, 0] = 0.89
        assert self._loss(bad, labels) > 0.0
        bad = good.copy()
        bad[1, 3] = 0.11
        assert self._loss(bad, labels) > 0.0

    def test_label_out_of_range_rejected(self):
        with pytest.raises(InputDataError):
            self._loss([[0.5, 0.5, 0.5, 0.5]], [4])


class TestReconstructionLoss:
    def test_perfect_reconstruction_is_zero(self, rng):
        img = rng.random((2, 16)).astype(np.float32)
        assert reconstruction_loss(T.leaf(img), img).item() == 0.0

    def test_constant_offset(self, rng):
        img = rng.random((2, 16))
        out = np.clip(img + 0.1, 0, 2)  # stay in range, exact +0.1
        out = img + 0.1
        loss = reconstruction_loss(T.leaf(out), img).item()
        assert abs(loss - 0.01) < 1e-9

    def test_scale_conversion_footnote(self):
        # sum-of-squares weighting 0.0005 over 784 pixels equals the
        # mean-of-squares weighting 0.392
        assert 0.392 == 0.0005 * 784

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(InputDataError):
            reconstruction_loss(T.leaf(rng.random((2, 16))), rng.random((2, 15)))


class TestDecode:
    @pytest.fixture
    def small_net(self):
        return ArCapsNet(ModelConfig(input_width=8, input_height=8, stem_width=2,
                                     primary_dim=2, primary_channels=2,
                                     conv_caps=0, caps_dim=4, classes=3,
                                     decoder_widths=(6, 6)), seed=2)

    def test_zero_capsules_give_bias_chain_constant(self, small_net, rng):
        caps = np.zeros((2, 4, 3), dtype=np.float32)
        out = small_net.decode(T.leaf(caps), np.array([0, 1])).data
        assert np.array_equal(out[0], out[1])

    def test_masking_ignores_non_target_capsules(self, small_net, rng):
        caps = rng.random((1, 4, 3)).astype(np.float32)
        other = caps.copy()
        other[0, :, 2] += 0.5  # non-target channel
        a = small_net.decode(T.leaf(caps), np.array([0])).data
        b = small_net.decode(T.leaf(other), np.array([0])).data
        assert np.array_equal(a, b)
        c = small_net.decode(T.leaf(other), np.array([2])).data
        assert not np.array_equal(a, c)

    def test_output_pixels_in_unit_interval(self, small_net, rng):
        caps = rng.standard_normal((3, 4, 3)).astype(np.float32) * 5
        out = small_net.decode(T.leaf(caps), np.array([0, 1, 2])).data
        assert np.all(out > 0) and np.all(out < 1)


class TestCountParameters:
    def test_default_config_hits_expected_total(self):
        total, rows = count_parameters(MNIST_CONFIG)
        assert abs(total - 5.31e6) / 5.31e6 < 0.02
        assert sum(n for _, n in rows) == total

    def test_cifar_grid_rows(self):
        t0, _ = count_parameters(ModelConfig(
            input_width=32, input_height=32, input_channels=3,
            conv_caps=0, caps_dim=16))
        assert abs(t0 - 7.3e6) / 7.3e6 < 0.05
        t4, _ = count_parameters(CIFAR_CONFIG)
        assert abs(t4 - 9.6e6) / 9.6e6 < 0.05

    @pytest.mark.parametrize("cfg", [
        ModelConfig(input_width=8, input_height=8, stem_width=3, primary_dim=3,
                    primary_channels=2, caps_dim=4, caps_channels=3, classes=3,
                    decoder_widths=(8, 8)),
        ModelConfig(input_width=10, input_height=10, stem_width=4, primary_dim=2,
                    primary_channels=3, conv_caps=2, caps_dim=5, caps_channels=3,
                    classes=4, decoder_widths=(8,)),
        MNIST_CONFIG,
    ])
    def test_arithmetic_count_matches_built_store(self, cfg):
        total, _ = count_parameters(cfg)
        net = ArCapsNet(cfg, seed=0)
        assert sum(t.data.size for _, t in net.store.trainable_items()) == total


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, rng, tiny_config, tiny_run_config):
        run_cfg = tiny_run_config
        net = ArCapsNet(tiny_config, seed=0)
        # dirty the running stats so non-trainable state is exercised
        net.loss(rng.random((4, 8, 8, 1), dtype=np.float32), np.array([0, 1, 2, 0]),
                 train=True, rng=np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        save_model(path, net, run_cfg)
        first = Path(path).read_bytes()

        loaded, _, _ = load_model(path)
        assert loaded.store.names() == net.store.names()
        for name, t in net.store.items():
            got = loaded.store[name]
            assert got.dtype == t.dtype and np.array_equal(t.data, got.data), name
            assert got.needs_grad == t.needs_grad, name

        path2 = tmp_path / "again.ckpt"
        save_model(path2, loaded, run_cfg)
        assert first == Path(path2).read_bytes()

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch, tiny_config,
                                       tiny_run_config):
        net = ArCapsNet(tiny_config, seed=0)
        path = tmp_path / "model.ckpt"
        save_model(path, net, tiny_run_config)

        def refuse(*args, **kwargs):
            raise AssertionError("load_model drew random initial weights")

        monkeypatch.setattr(layers, "uniform_init", refuse)
        with pytest.raises(AssertionError, match="drew random"):
            ArCapsNet(tiny_config, seed=0)
        loaded, _, _ = load_model(path)
        for name, t in net.store.items():
            assert np.array_equal(loaded.store[name].data, t.data), name

    def test_mismatched_config_rejected_at_save(self, tmp_path, tiny_config):
        net = ArCapsNet(tiny_config, seed=0)
        with pytest.raises(ConfigurationError, match="does not describe"):
            save_model(tmp_path / "bad.ckpt", net, RunConfig())

    def test_mismatch_error_names_the_differing_fields(self, tmp_path, tiny_config):
        net = ArCapsNet(tiny_config, seed=0)
        run_cfg = RunConfig(**{**asdict(tiny_config), "caps_dim": 5, "residual": False})
        with pytest.raises(ConfigurationError) as err:
            save_model(tmp_path / "bad.ckpt", net, run_cfg)
        assert str(err.value).endswith(
            "(caps_dim: model 4, run_config 5; residual: model True, run_config False)")
        assert not list(tmp_path.iterdir())

    def test_non_default_model_round_trips_bitwise(self, tmp_path, rng):
        # every field off its default, with two capsule layers
        cfg = ModelConfig(input_width=9, input_height=7, input_channels=2, stem_width=3,
                          primary_dim=2, primary_channels=3, conv_caps=2, caps_dim=3,
                          caps_channels=2, residual=False, classes=4, decoder_widths=(5,))
        assert all(getattr(cfg, f.name) != f.default for f in fields(ModelConfig))
        net = ArCapsNet(cfg, seed=5)
        images = rng.random((3, 9, 7, 2), dtype=np.float32)
        labels = np.array([0, 3, 1])
        net.loss(images, labels, train=True, rng=np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        save_model(path, net, RunConfig(**asdict(cfg)))
        loaded, _, _ = load_model(path)
        assert loaded.config == cfg
        assert loaded.store.names() == net.store.names()
        for name, t in net.store.items():
            assert np.array_equal(loaded.store[name].data, t.data), name
        want, got = net.loss(images, labels), loaded.loss(images, labels)
        for a, b in zip(want[:3], got[:3]):
            assert a.item() == b.item()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTACAPS" + b"\x00" * 32)
        with pytest.raises(InputDataError, match="magic"):
            load_model(p)

    def test_truncated_rejected(self, tmp_path, tiny_config, tiny_run_config):
        net = ArCapsNet(tiny_config, seed=0)
        p = tmp_path / "model.ckpt"
        save_model(p, net, tiny_run_config)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(InputDataError, match="truncated"):
            load_model(p)
        # a declared size beyond the file is refused, with its offset, before
        # anything that large is read or allocated; text that is not UTF-8
        # is refused with the offset of its first bad byte
        for corrupt, message in corrupt_headers(raw):
            p.write_bytes(corrupt)
            with pytest.raises(InputDataError, match=message):
                load_model(p)

    def test_forward_identical_after_round_trip(self, tmp_path, rng, tiny_config, tiny_run_config):
        net = ArCapsNet(tiny_config, seed=4)
        images = rng.random((2, 8, 8, 1), dtype=np.float32)
        before = net.forward(images).scores.data
        path = tmp_path / "model.ckpt"
        save_model(path, net, tiny_run_config)
        loaded, _, _ = load_model(path)
        after = loaded.forward(images).scores.data
        assert np.array_equal(before, after)

    def test_one_transform_record_per_caps_layer(self, tmp_path, tiny_config,
                                                 tiny_run_config):
        net = ArCapsNet(tiny_config, seed=0)
        path = tmp_path / "model.ckpt"
        save_model(path, net, tiny_run_config)
        _, arrays = checkpoint.load(path)
        transforms = sorted(n for n in arrays if ".transform" in n)
        assert transforms == ["convcaps0.transform", "fullycaps.transform"]
        # (M, kw*kh*D_in, N*D_out): primary 2x3 -> 3x4 stride 2, then 4x4 -> 3x4
        assert arrays["convcaps0.transform"].shape == (2, 27, 12)
        assert arrays["fullycaps.transform"].shape == (3, 2 * 2 * 4, 3 * 4)

    def test_previous_format_rejected(self, tmp_path, tiny_config, tiny_run_config):
        net = ArCapsNet(tiny_config, seed=0)
        path = tmp_path / "model.ckpt"
        save_model(path, net, tiny_run_config)
        raw = path.read_bytes()
        for old, reason in checkpoint._OLD_MAGICS.items():
            path.write_bytes(old + raw[len(old):])
            expected = f"{old!r} checkpoint {reason}; this version reads only {checkpoint.MAGIC!r}"
            with pytest.raises(InputDataError, match=re.escape(expected)):
                load_model(path)

    def test_duplicate_record_rejected(self, tmp_path, tiny_config, tiny_run_config):
        # a later record of the same name would silently replace the first
        net = ArCapsNet(tiny_config, seed=0)
        path = tmp_path / "model.ckpt"
        save_model(path, net, tiny_run_config)
        raw = path.read_bytes()
        with open(path, "ab") as fh:
            checkpoint._write_record(fh, "stem0.kernel", np.zeros((3, 3, 1, 3), np.float32))
        with pytest.raises(InputDataError,
                           match=f"duplicate record 'stem0.kernel' at offset {len(raw)}"):
            load_model(path)

    def test_failed_write_keeps_previous_file(self, tmp_path, tiny_config,
                                              tiny_run_config, monkeypatch):
        net = ArCapsNet(tiny_config, seed=0)
        path = tmp_path / "model.ckpt"
        save_model(path, net, tiny_run_config)
        before = path.read_bytes()
        written = []

        def failing_record(fh, name, array):
            if written:
                fh.write(b"partial")
                raise OSError("disk full")
            written.append(name)
            fh.write(b"\x00" * 64)

        monkeypatch.setattr(checkpoint, "_write_record", failing_record)
        net2 = ArCapsNet(tiny_config, seed=1)
        with pytest.raises(OSError, match="disk full"):
            save_model(path, net2, tiny_run_config)
        assert written  # the failure came after some bytes were written
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_non_float32_arrays_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        with pytest.raises(ConfigurationError, match="float64"):
            checkpoint.save(path, "", {"a": np.zeros(3, dtype=np.float32),
                                       "b": np.zeros(3, dtype=np.float64)})
        assert not list(tmp_path.iterdir())

    def test_save_writes_records_without_a_copy(self, tmp_path, rng):
        # the size of the default fullycaps.transform record (15.3 MB)
        record = rng.random((8, 1568, 320), dtype=np.float32)
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            checkpoint.save(path, "", {"fullycaps.transform": record})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (peak, record.nbytes)
        _, arrays = checkpoint.load(path)
        assert np.array_equal(arrays["fullycaps.transform"], record)

    def test_float64_model_not_saved(self, tmp_path, tiny_config, tiny_run_config):
        net = ArCapsNet(tiny_config, seed=0, dtype=np.float64)
        with pytest.raises(ConfigurationError, match="float32 only"):
            save_model(tmp_path / "model.ckpt", net, tiny_run_config)


def test_float32_train_step_graph_is_float32(rng, tiny_config):
    net = ArCapsNet(tiny_config, seed=0)
    images = rng.random((3, 8, 8, 1), dtype=np.float32)
    total, *_ = net.loss(images, np.array([0, 1, 2]), train=True,
                         rng=np.random.default_rng(0))
    nodes = T.topo_order(total)
    wrong = [n for n in nodes if n.dtype != np.float32]
    assert not wrong, f"{len(wrong)} of {len(nodes)} nodes are not float32: {wrong[:3]}"


def test_default_train_step_builds_41_nodes(rng, node_log):
    # one conv_bn_relu node per stem block, where conv2d, batchnorm and relu
    # took three, one capsule_activation node per capsule layer, where
    # channel_affine and tanh took two, one matmul node per decoder layer,
    # bias included, and no leaf for the reconstruction target, which
    # affine subtracts as a constant; perfbench's tensor.nodes counts the
    # same nodes
    net = ArCapsNet(ModelConfig(), seed=0)
    images = rng.random((2, 28, 28, 1), dtype=np.float32)
    node_log.clear()
    net.loss(images, np.array([3, 7]), train=True, rng=np.random.default_rng(0))
    assert len(node_log) == 41


def test_default_train_graph_keeps_no_transform_route_u(rng):
    # at B=100 convcaps0's u (M, P, N*E) is 40.1 MB and fullycaps' 1.0 MB:
    # each rule rebuilds its u and routing weights block by block, so it
    # keeps no more than its attention kernel
    net = ArCapsNet(ModelConfig(), seed=0)
    images = rng.random((100, 28, 28, 1), dtype=np.float32)
    total, *_ = net.loss(images, rng.integers(0, 10, 100), train=True,
                         rng=np.random.default_rng(0))
    kept = {}
    for node in T.topo_order(total):
        for layer in ("convcaps0", "fullycaps"):
            if node.parents[1:2] == (net.store[layer + ".transform"],):
                kept[layer] = [a.nbytes for a in saved_arrays(node)]
    assert sorted(kept) == ["convcaps0", "fullycaps"]
    for layer, sizes in kept.items():
        assert sum(sizes) <= net.store[layer + ".attention"].data.nbytes, (layer, sizes)


def test_tensor_exports_exactly_the_ops_the_model_builds(rng, monkeypatch):
    # every public function of arcaps.tensor but leaf, topo_order and
    # backward (the ops perfbench's recorder wraps) must build a node in a
    # default train step, an evaluate batch or an align sample: no op that
    # only tests use, and no public helper that returns no node
    public = {name for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__
              and not name.startswith("_") and name not in ("leaf", "topo_order", "backward")}
    built = set()

    def recording(name, fn):
        def op(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out[0] if isinstance(out, tuple) else out, T.Tensor):
                built.add(name)
            return out
        return op

    for name in public:
        monkeypatch.setattr(T, name, recording(name, getattr(T, name)))
    net = ArCapsNet(ModelConfig(), seed=0)
    images = rng.random((2, 28, 28, 1), dtype=np.float32)
    labels = np.array([3, 7])
    total, *_ = net.loss(images, labels, train=True, rng=np.random.default_rng(0))
    T.backward(total)
    dataset = Dataset(images, labels, 10)
    evaluate(net, dataset)
    alignment_experiment(net, dataset, sample_count=1)
    assert built == public


def test_default_model_routes_fullycaps_in_one_block(rng, monkeypatch):
    # fullycaps' 16 MB weight outweighs its 60 KB per image, so its blocks
    # grow to the weight; convcaps0's 1.2 MB weight keeps the 2 MiB budget
    calls = []
    image_blocks = T._image_blocks

    def recording(batch, bytes_per_image, weight_bytes=0):
        calls.append((bytes_per_image, weight_bytes, image_blocks(batch, bytes_per_image,
                                                                  weight_bytes)))
        return calls[-1][2]

    monkeypatch.setattr(T, "_image_blocks", recording)
    net = ArCapsNet(ModelConfig(), seed=0)
    with T.no_grad():
        net.forward(rng.random((100, 28, 28, 1), dtype=np.float32))
    conv_weight = net.caps_layers[0].transform.data.nbytes
    fully = [blocks for _, wb, blocks in calls if wb == net.fully.transform.data.nbytes]
    conv = [(per_image, blocks) for per_image, wb, blocks in calls if wb == conv_weight]
    assert conv_weight < T.BLOCK_BYTES < net.fully.transform.data.nbytes
    assert fully == [[(0, 100)]]
    [(per_image, blocks)] = conv
    step = T.BLOCK_BYTES // per_image
    assert 1 < step < 100
    assert blocks == [(lo, min(lo + step, 100)) for lo in range(0, 100, step)]


def test_float32_forward_without_graph_is_float32(rng, tiny_config, node_log):
    net = ArCapsNet(tiny_config, seed=0)
    images = rng.random((3, 8, 8, 1), dtype=np.float32)
    node_log.clear()
    with T.no_grad():
        net.loss(images, np.array([0, 1, 2]))
    wrong = [n for n in node_log if n.dtype != np.float32]
    assert node_log and not wrong, f"{len(wrong)} of {len(node_log)} nodes are not float32"
    assert all(n.parents == () and n.backward_rule is None for n in node_log)


def test_no_grad_forward_frees_the_stem_output_before_fullycaps(rng, tiny_config,
                                                               monkeypatch):
    blocks_of_two(monkeypatch)
    net = ArCapsNet(tiny_config, seed=0)
    stem_out, alive = [], []
    stem_forward, fully_forward = net.stem[-1].forward, net.fully.forward

    def record_stem(x, train):
        out = stem_forward(x, train)
        stem_out.append(weakref.ref(out.data))
        return out

    def check_then_route(caps, train, rng=None):
        alive.append([ref() is not None for ref in stem_out])
        return fully_forward(caps, train, rng)

    net.stem[-1].forward, net.fully.forward = record_stem, check_then_route
    with T.no_grad():
        net.forward(rng.random((3, 8, 8, 1), dtype=np.float32))
    # one stem output per block of images, (0, 2) and (2, 3)
    assert alive == [[False, False]]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_no_grad_forward_walks_blocks_equal_to_the_graph_forward(rng, tiny_config,
                                                                monkeypatch, dtype):
    walked = blocks_of_two(monkeypatch)
    net = ArCapsNet(tiny_config, seed=0, dtype=dtype)
    images = rng.random((5, 8, 8, 1)).astype(dtype)
    graph = net.forward(images)
    walked.clear()
    with T.no_grad():
        walk = net.forward(images)
    # the model's walk, then each block through its four stem and primary
    # ops (two conv_bn_relu, conv2d, capsule_activation), then convcaps0 on the
    # whole batch
    whole = [(0, 2), (2, 4), (4, 5)]
    assert walked[:14] == [whole] + [[(0, 2)]] * 8 + [[(0, 1)]] * 4 + [whole]
    for name in ("scores", "capsules", "reconstruction"):
        got, want = getattr(walk, name).data, getattr(graph, name).data
        assert got.dtype == dtype and np.array_equal(got, want), name


def test_train_forward_without_graph_stays_whole_batch(rng, tiny_config, monkeypatch):
    # blocks of two images: a walk over them would normalize each block by
    # its own statistics and fold three updates into the running statistics
    blocks_of_two(monkeypatch)
    images = rng.random((5, 8, 8, 1), dtype=np.float32)
    labels = np.array([0, 1, 2, 0, 1])
    graph_net, walk_net = ArCapsNet(tiny_config, seed=0), ArCapsNet(tiny_config, seed=0)
    graph = graph_net.forward(images, labels, train=True, rng=np.random.default_rng(1))
    with T.no_grad():
        walk = walk_net.forward(images, labels, train=True, rng=np.random.default_rng(1))
    for name in ("scores", "capsules", "reconstruction"):
        assert np.array_equal(getattr(walk, name).data, getattr(graph, name).data), name
    for want, got in zip(graph_net.stem, walk_net.stem):
        assert not np.array_equal(got.running_mean.data, 0)
        assert np.array_equal(got.running_mean.data, want.running_mean.data)
        assert np.array_equal(got.running_var.data, want.running_var.data)


def test_default_no_grad_forward_peak_memory(rng):
    # the whole batch's stem maps (19.1 MB for each 64-channel stem output
    # at B=100) never exist: the stem and primary layer run in blocks of
    # images, and the peak sits in convcaps0
    net = ArCapsNet(ModelConfig(), seed=0)
    images = rng.random((100, 28, 28, 1), dtype=np.float32)
    tracemalloc.start()
    try:
        with T.no_grad():
            result = net.forward(images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.capsules.shape == (100, 32, 10)
    assert peak < 32e6, peak / 1e6


def test_total_loss_nonnegative(rng, tiny_config):
    net = ArCapsNet(tiny_config, seed=0)
    images = rng.random((3, 8, 8, 1), dtype=np.float32)
    total, margin, recon, _ = net.loss(images, np.array([0, 1, 2]))
    assert total.item() >= 0
    assert margin.item() >= 0
    assert recon.item() >= 0
    assert abs(total.item() - (margin.item() + 0.3 * recon.item())) < 1e-6
