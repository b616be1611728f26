"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass. Criterion 6 has two halves: the real-MNIST gate (runs only when
ARCAPS_DATA_DIR points at the canonical IDX files, skips loudly otherwise)
and a synthetic analogue on the rendered digit dataset that always runs.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from arcaps import reference, selftest, tensor as T
from arcaps.analysis import (alignment_experiment, perturb_and_decode,
                             perturbation_offsets, random_baseline)
from arcaps.config import RunConfig
from arcaps.data import load_idx
from arcaps.reference import squash
from arcaps.model import ArCapsNet, ModelConfig, count_parameters
from arcaps.optim import ParameterStore
from arcaps.selftest import routing_weights
from arcaps.train import evaluate, load_model, train

from conftest import (DESK_KW, layer_banks, pre_activation, real_mnist_dir,
                      transform_stacks)
import digitgen


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_parameter_count_oracle():
    start = time.perf_counter()
    total, rows = count_parameters(ModelConfig())
    assert abs(total - 5.31e6) / 5.31e6 < 0.02
    assert sum(n for _, n in rows) == total
    t0, _ = count_parameters(ModelConfig(
        input_width=32, input_height=32, input_channels=3, conv_caps=0,
        caps_dim=16))
    assert abs(t0 - 7.3e6) / 7.3e6 < 0.05
    t4, _ = count_parameters(ModelConfig(
        input_width=32, input_height=32, input_channels=3, conv_caps=4))
    assert abs(t4 - 9.6e6) / 9.6e6 < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"counts {total:,} / {t0:,} / {t4:,} within bands "
              f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_random_alignment_baseline():
    start = time.perf_counter()
    mean, std = random_baseline(dim=32, vectors=5, trials=1000, seed=0)
    elapsed = time.perf_counter() - start
    assert abs(mean - 0.311) <= 0.01, f"mean {mean:.4f} outside 0.311 +- 0.01"
    assert abs(std - 0.262) <= 0.02, f"std {std:.4f} outside 0.262 +- 0.02"
    assert elapsed < 10.0
    report(2, f"mean {mean:.4f}, std {std:.4f} in {elapsed:.2f}s")


def test_criterion_3_gradient_suite():
    start = time.perf_counter()
    lines = []
    failures = selftest.run(report=lines.append)
    elapsed = time.perf_counter() - start
    gradient_lines = [l for l in lines if "gradient" in l]
    assert failures == 0, "\n".join(l for l in lines if l.startswith("FAIL"))
    assert len(gradient_lines) >= 15
    assert elapsed < 300.0
    report(3, f"{len(gradient_lines)} op checks + end-to-end pass in {elapsed:.1f}s")


def test_criterion_4_routing_oracles(rng):
    from arcaps.layers import CapsuleActivation, ConvCaps, FullyConvCaps

    start = time.perf_counter()
    checked = {"conv_transform": 0, "attention_route": 0,
               "capsule_activation": 0, "fully_conv_caps": 0}
    for trial in range(20):
        store = ParameterStore()
        layer = ConvCaps(store, "c", 3, 3, 4, 2, rng, stride=1,
                         dtype=np.float64)
        u = rng.standard_normal((1, 3, 3, 3, 3))
        stacks = transform_stacks(layer, u)
        slow_stacks = reference.conv_transform_loops(u, layer_banks(layer), 1, "same")
        for f, s in zip(stacks, slow_stacks):
            assert np.max(np.abs(f - s)) < 1e-6
        checked["conv_transform"] += 1

        routed = pre_activation(layer, u)
        slow_routed = reference.attention_route_loops(
            slow_stacks, layer.attention.data)
        assert np.max(np.abs(routed - slow_routed)) < 1e-6
        checked["attention_route"] += 1

        act_store = ParameterStore()
        act = CapsuleActivation(act_store, "a", 3, 4, 4, rng, dtype=np.float64)
        s_in = rng.standard_normal((1, 2, 2, 4, 3))
        fast = act.forward(T.leaf(s_in)).data
        slow = reference.capsule_activation_loops(
            s_in, act.weight.data, act.bias.data)
        assert np.max(np.abs(fast - slow)) < 1e-6
        checked["capsule_activation"] += 1

        f_store = ParameterStore()
        full = FullyConvCaps(f_store, "f", 3, 2, 4, 3, (3, 3), rng,
                             dtype=np.float64)
        uf = rng.standard_normal((1, 3, 3, 3, 2))
        fast = full.forward(T.leaf(uf), train=False).data
        st = reference.conv_transform_loops(uf, layer_banks(full), 1, "valid")
        rt = reference.attention_route_loops(st, full.attention.data)
        slow = reference.capsule_activation_loops(
            rt, full.activation.weight.data, full.activation.bias.data)
        assert np.max(np.abs(fast - slow)) < 1e-6
        checked["fully_conv_caps"] += 1
    elapsed = time.perf_counter() - start
    assert all(v >= 20 for v in checked.values())
    assert elapsed < 60.0
    report(4, f"4 ops x 20 instances match loop oracles to 1e-6 in {elapsed:.1f}s")


def test_criterion_5_invariant_suite(rng, tiny_config, tiny_run_config, tmp_path):
    from arcaps.layers import CapsuleActivation, ConvCaps
    from arcaps.model import margin_loss
    from arcaps.train import save_model

    # softmax weight normalization
    store = ParameterStore()
    layer = ConvCaps(store, "c", 3, 4, 4, 3, rng, dtype=np.float64)
    u = rng.standard_normal((2, 4, 4, 3, 4)) * 3
    for n, stack in enumerate(transform_stacks(layer, u)):
        logits = np.einsum("bwhem,em->bwhm", stack, layer.attention.data[n])
        weights = routing_weights(logits)
        assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(weights > 0)

    # tanh capsule bound
    act_store = ParameterStore()
    act = CapsuleActivation(act_store, "a", 3, 5, 5, rng, dtype=np.float64)
    out = act.forward(T.leaf(rng.standard_normal((2, 3, 3, 5, 3)) * 8)).data
    assert np.all(np.linalg.norm(out, axis=3) < np.sqrt(5))

    # squash preserves orientation; capsule activation does not (existence)
    for _ in range(10):
        v = rng.standard_normal(5)
        s = squash(v)
        assert np.dot(v, s) / (np.linalg.norm(v) * np.linalg.norm(s)) > 1 - 1e-6
    lost = False
    for _ in range(50):
        v = rng.standard_normal(5)
        block = np.zeros((1, 1, 1, 5, 3))
        block[0, 0, 0, :, 0] = v
        w = act.forward(T.leaf(block)).data[0, 0, 0, :, 0]
        if np.dot(v, w) / (np.linalg.norm(v) * np.linalg.norm(w)) < 0.99:
            lost = True
            break
    assert lost

    # permutation equivariance
    base = layer.forward(T.leaf(u), train=False).data
    perm = np.array([3, 1, 0, 2])
    layer.transform.data = layer.transform.data[perm]
    layer.attention.data = layer.attention.data[:, :, perm]
    permuted = layer.forward(T.leaf(u[..., perm]), train=False).data
    assert np.max(np.abs(base - permuted)) < 1e-6

    # locality
    loc_store = ParameterStore()
    loc = ConvCaps(loc_store, "l", 3, 3, 4, 2, rng, stride=2, dtype=np.float64)
    point = np.zeros((1, 8, 8, 3, 3))
    point[0, 5, 2] = rng.standard_normal((3, 3))
    pre = pre_activation(loc, point)
    nz = np.nonzero(np.abs(pre) > 1e-12)
    for i, j in zip(nz[1], nz[2]):
        assert 2 * i <= 5 <= 2 * i + 2 and 2 * j <= 2 <= 2 * j + 2

    # margin-loss zero conditions
    good = np.full((2, 4), 0.05)
    good[0, 1] = 0.95
    good[1, 2] = 0.9
    labels = np.array([1, 2])
    assert margin_loss(T.leaf(good), labels, 4).item() == 0.0
    bad = good.copy()
    bad[0, 1] = 0.85
    assert margin_loss(T.leaf(bad), labels, 4).item() > 0.0

    # checkpoint bitwise round-trip
    net = ArCapsNet(tiny_config, seed=0)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(p1, net, tiny_run_config)
    loaded, _, _ = load_model(p1)
    save_model(p2, loaded, tiny_run_config)
    assert p1.read_bytes() == p2.read_bytes()

    report(5, "softmax norm, tanh bound, orientation contrast, permutation "
              "equivariance, locality, margin zeros, checkpoint round-trip")


def test_criterion_6_desk_scale_training_synthetic(desk_run, trained_model,
                                                   digits_test):
    run, elapsed = desk_run
    result = evaluate(trained_model, digits_test, batch_size=100)
    epochs = len(run.history)
    assert epochs <= 10
    assert elapsed < 1800.0, f"training took {elapsed:.0f}s"
    assert result.accuracy >= 0.97, f"accuracy {result.accuracy:.4f} < 0.97"
    report(6, f"synthetic analogue: {result.accuracy:.4f} test accuracy after "
              f"{epochs} epochs on 10,000 rendered digits in {elapsed:.0f}s")


@pytest.mark.skipif(real_mnist_dir() is None,
                    reason="real-MNIST gate skipped: canonical IDX files not "
                           "found under ARCAPS_DATA_DIR (no network in this "
                           "environment; see decisions ledger)")
def test_criterion_6_desk_scale_training_real_mnist(tmp_path):
    root = real_mnist_dir()
    full = load_idx(root / "train-images-idx3-ubyte",
                    root / "train-labels-idx1-ubyte")
    subset = full.subset(np.arange(10000))
    test = load_idx(root / "t10k-images-idx3-ubyte",
                    root / "t10k-labels-idx1-ubyte")
    cfg = RunConfig(data_dir=str(root), out_dir=str(tmp_path / "mnist_run"),
                    **{**DESK_KW, "epochs": 10})
    start = time.perf_counter()
    run = train(cfg, subset)
    elapsed = time.perf_counter() - start
    model, _, _ = load_model(run.best_path)
    result = evaluate(model, test, batch_size=100)
    assert elapsed < 1800.0
    assert result.accuracy >= 0.97, f"accuracy {result.accuracy:.4f} < 0.97"
    report(6, f"real MNIST: {result.accuracy:.4f} test accuracy within "
              f"10 epochs in {elapsed:.0f}s")


def test_criterion_7_equivariance_gap(trained_model, untrained_model,
                                      digits_test):
    d_out = trained_model.config.caps_dim
    base_mean, base_std = random_baseline(dim=d_out, vectors=5, trials=1000,
                                          seed=0)
    rep_t = alignment_experiment(trained_model, digits_test, 150, seed=0)
    rep_u = alignment_experiment(untrained_model, digits_test, 150, seed=0)
    trained_mean = rep_t.overall_mean()
    untrained_mean = rep_u.overall_mean()

    gap = trained_mean - base_mean
    assert gap > 0.2, f"trained gap {gap:.4f} <= 0.2"
    # untrained control, per the criterion's own operationalization: within
    # 3 sigma of the matched baseline band (sigma = its per-ratio std).
    # Smooth random networks align well beyond random vectors, so a stricter
    # gap-free reading is unattainable; see the decisions ledger.
    assert abs(untrained_mean - base_mean) <= 3 * base_std, (
        f"untrained mean {untrained_mean:.4f} outside 3 sigma of "
        f"{base_mean:.4f} +- {base_std:.4f}")
    assert trained_mean > untrained_mean
    report(7, f"trained {trained_mean:.4f} vs baseline {base_mean:.4f} "
              f"(gap {gap:.4f} > 0.2); untrained {untrained_mean:.4f} within "
              f"3 sigma band +-{3 * base_std:.4f}")


def test_criterion_8_perturbation_protocol(trained_model, digits_test):
    d_out = trained_model.config.caps_dim
    offsets = perturbation_offsets(d_out)
    step = 0.05 * np.sqrt(d_out)
    assert len(offsets) == 11
    assert np.allclose(offsets, np.arange(-5, 6) * step, atol=0)
    assert offsets[5] == 0.0

    img = digits_test.images[0]
    label = int(digits_test.labels[0])
    ref = trained_model.forward(img[None], labels=np.array([label]))
    for dim in range(d_out):
        sweep = perturb_and_decode(trained_model, img, dim, label=label)
        assert sweep.reconstructions.shape == (11, trained_model.config.pixels)
        assert np.array_equal(sweep.offsets, offsets)
        assert np.array_equal(sweep.reconstructions[5],
                              ref.reconstruction.data[0])
    report(8, f"11 reconstructions per dimension at offsets "
              f"+-{offsets[-1]:.4f} step {step:.4f}; zero tile bitwise exact")


def test_criterion_9_determinism(tmp_path):
    data_dir = tmp_path / "data"
    digitgen.write_dataset(data_dir, train_count=120, test_count=40, seed=3)
    train_set = load_idx(data_dir / "train-images-idx3-ubyte",
                         data_dir / "train-labels-idx1-ubyte")
    test_set = load_idx(data_dir / "t10k-images-idx3-ubyte",
                        data_dir / "t10k-labels-idx1-ubyte")
    cfg = RunConfig(input_width=28, input_height=28, input_channels=1,
                    stem_width=4, primary_dim=3, primary_channels=2,
                    conv_caps=1, caps_dim=4, caps_channels=3,
                    epochs=2, batch_size=30, seed=11,
                    data_dir=str(data_dir), out_dir=str(tmp_path / "run"))

    run1 = train(cfg, train_set)
    ckpt_bytes = Path(run1.best_path).read_bytes()
    model1, _, _ = load_model(run1.best_path)
    eval1 = evaluate(model1, test_set, cfg.batch_size)
    rep1 = alignment_experiment(model1, test_set, 10, seed=1).to_csv()

    run2 = train(cfg, train_set)
    assert Path(run2.best_path).read_bytes() == ckpt_bytes
    model2, _, _ = load_model(run2.best_path)
    eval2 = evaluate(model2, test_set, cfg.batch_size)
    assert eval1.accuracy == eval2.accuracy
    assert eval1.total_loss == eval2.total_loss
    assert np.array_equal(eval1.confusion, eval2.confusion)
    rep2 = alignment_experiment(model2, test_set, 10, seed=1).to_csv()
    assert rep1 == rep2
    report(9, "train/eval/analyze reruns bitwise identical "
              "(checkpoints, metrics, report tables)")
