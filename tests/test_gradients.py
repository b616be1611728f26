"""Finite-difference verification of every differentiable operation.

Each op is checked on at least five random small shapes in float64 with
h = 1e-3 central differences at relative error < 1e-4, plus the end-to-end
tiny-model loss. The losses weight outputs with fixed random markers so a
wrong-but-symmetric gradient cannot hide in a plain sum.
"""

import itertools

import numpy as np
import pytest

from arcaps import selftest, tensor as T
from arcaps.gradcheck import check_gradients
from arcaps.selftest import batchnorm, softmax_probe, stem_probe
from conftest import blocks_of_two

SEEDS = range(5)

# transform_route geometry under which each position's patch is the input
# itself: the probes below feed hand-built patches
PATCHES_ARE_INPUT = ((1, 1), 1, "valid")


def _frozen_weight(rng, forward, arrays):
    """Fix a random weighting of the op output so the loss is a pure function."""
    probe = forward([T.leaf(a) for a in arrays])
    marker = rng.standard_normal(probe.shape)
    return lambda ts: T.sum_all(T.affine(forward(ts), marker))


CONV_GRADIENT_CASES = [(1, "same", 2), (2, "same", 2), (1, "valid", 2), (2, "valid", 2),
                       # five images in blocks of two, the last one ragged
                       (1, "same", 5), (2, "same", 5), (1, "valid", 5), (2, "valid", 5)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stride,padding,batch", CONV_GRADIENT_CASES, ids=[
    f"{stride}-{padding}" + (f"-b{batch}" if batch > 2 else "")
    for stride, padding, batch in CONV_GRADIENT_CASES])
def test_conv2d_gradients(monkeypatch, seed, stride, padding, batch):
    rng = np.random.default_rng(seed)
    w = int(rng.integers(4, 7))
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    x = rng.standard_normal((batch, w, w, cin))
    k = rng.standard_normal((3, 3, cin, cout)) * 0.5
    b = rng.standard_normal(cout) * 0.1
    arrays = [x, k, b]
    blocks_of_two(monkeypatch)
    check_gradients(
        _frozen_weight(rng, lambda ts: T.conv2d(ts[0], ts[1], ts[2], stride, padding), arrays), arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_channelwise_dot3d_gradients(seed):
    # the routing logits <x[..., :, m], reference[:, m]>: with an identity
    # transform the predictions are the input capsules themselves
    rng = np.random.default_rng(10 + seed)
    d, m = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    x = rng.standard_normal((2, 3, 2, d, m))
    ref = rng.standard_normal((1, d, m))
    identity = T.leaf(np.broadcast_to(np.eye(d), (m, d, d)).copy())
    arrays = [x, ref]
    check_gradients(
        _frozen_weight(rng, lambda ts: T.transform_route(ts[0], identity, ts[1],
                                                         *PATCHES_ARE_INPUT), arrays), arrays)


# (seed, batch): the batch of five runs in blocks of two, the last one ragged
BLOCKED_CASES = [(seed, 0) for seed in SEEDS] + [(seed, 5) for seed in SEEDS]
BLOCKED_IDS = [f"b{batch}-{seed}" if batch else str(seed) for seed, batch in BLOCKED_CASES]


@pytest.mark.parametrize("seed,batch", BLOCKED_CASES, ids=BLOCKED_IDS)
def test_channel_affine_gradients(monkeypatch, seed, batch):
    # the capsule activation: the per-channel affine map and its tanh
    rng = np.random.default_rng(20 + seed)
    k, m, e = int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
    x = rng.standard_normal((batch or 2, 2, 3, k, m))
    if batch:
        blocks_of_two(monkeypatch)
    w = rng.standard_normal((m, k, e)) * 0.5
    b = rng.standard_normal((m, e)) * 0.1
    arrays = [x, w, b]
    check_gradients(
        _frozen_weight(rng, lambda ts: T.capsule_activation(ts[0], ts[1], ts[2]), arrays), arrays)


# (input shape (B, W, H), ksize, stride, padding), one per seed: patches of
# one position, 3x3 "same" at stride 1 and 2 (over an even and an odd
# extent), and a kernel covering the whole extent
TRANSFORM_ROUTE_GEOMETRIES = [((2, 2, 3), (1, 1), 1, "valid"),
                              ((1, 4, 4), (3, 3), 1, "same"),
                              ((1, 4, 4), (3, 3), 2, "same"),
                              ((1, 5, 5), (3, 3), 2, "same"),
                              ((2, 3, 3), (3, 3), 1, "valid")]


@pytest.mark.parametrize("seed,batch", BLOCKED_CASES, ids=BLOCKED_IDS)
def test_transform_route_gradients(monkeypatch, seed, batch):
    # patch extraction, the transform GEMM and routing, with the patch
    # gradient scattered back to the input capsules
    shape, ksize, stride, padding = TRANSFORM_ROUTE_GEOMETRIES[seed]
    rng = np.random.default_rng(30 + seed)
    d, m = int(rng.integers(2, 4)), int(rng.integers(1, 4))
    n, e = int(rng.integers(1, 4)), int(rng.integers(2, 5))
    taps = ksize[0] * ksize[1]
    if batch:
        shape = (batch,) + shape[1:]
        blocks_of_two(monkeypatch)
    caps = rng.standard_normal(shape + (d, m))
    w = rng.standard_normal((m, taps * d, n * e)) * 0.5 / np.sqrt(taps)
    ref = rng.standard_normal((n, e, m))
    arrays = [caps, w, ref]
    check_gradients(
        _frozen_weight(rng, lambda ts: T.transform_route(ts[0], ts[1], ts[2], ksize, stride,
                                                         padding), arrays), arrays)


# (caps shape (B, W, H), padding) of 3x3 windows: "same" ones, 16
# positions per image, and a kernel covering the whole extent, one
FROZEN_ROUTE_GEOMETRIES = {"same": ((5, 4, 4), "same"),
                           "whole-extent": ((5, 3, 3), "valid")}
ROUTE_ARGS = ("caps", "weight", "reference")
FROZEN_SUBSETS = [frozen for size in range(3) for frozen in itertools.combinations(ROUTE_ARGS, size)]


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "two-workers"])
@pytest.mark.parametrize("geometry", FROZEN_ROUTE_GEOMETRIES)
@pytest.mark.parametrize("frozen", FROZEN_SUBSETS,
                         ids=["-".join(f) or "none" for f in FROZEN_SUBSETS])
def test_transform_route_gradients_with_frozen_arguments(monkeypatch, frozen, geometry,
                                                         workers):
    # the arguments in ``frozen`` are constants: the rule must still rebuild
    # u and the routing weights, and take the operand it rebuilds u from
    # when the weight needs no gradient
    shape, padding = FROZEN_ROUTE_GEOMETRIES[geometry]
    rng = np.random.default_rng(170)
    d, m, n, e = 2, 3, 2, 3
    arrays = dict(caps=rng.standard_normal(shape + (d, m)),
                  weight=rng.standard_normal((m, 9 * d, n * e)) / 3,
                  reference=rng.standard_normal((n, e, m)))
    blocks_of_two(monkeypatch)
    monkeypatch.setattr(T, "_WORKERS", workers)
    free = [arg for arg in ROUTE_ARGS if arg not in frozen]

    def route(ts):
        given = dict(zip(free, ts))
        args = [given[arg] if arg in given else T.leaf(arrays[arg]) for arg in ROUTE_ARGS]
        return T.transform_route(*args, (3, 3), 1, padding)

    free_arrays = [arrays[arg] for arg in free]
    check_gradients(_frozen_weight(rng, route, free_arrays), free_arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_route_combine_gradients(seed):
    # the weighted sum over input channels: a zero reference gives every
    # channel weight 1/M, so only the sum carries gradient to the predictions
    rng = np.random.default_rng(130 + seed)
    k, m = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    n, e = int(rng.integers(1, 4)), int(rng.integers(2, 5))
    cols = rng.standard_normal((2, 2, 2, k, m))
    w = rng.standard_normal((m, k, n * e)) * 0.5
    zero_ref = T.leaf(np.zeros((n, e, m)))
    arrays = [cols, w]
    check_gradients(
        _frozen_weight(rng, lambda ts: T.transform_route(ts[0], ts[1], zero_ref,
                                                         *PATCHES_ARE_INPUT), arrays), arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_gradients(seed):
    # the routing softmax alone: the probe makes the op's output its weights
    rng = np.random.default_rng(40 + seed)
    logits = rng.standard_normal((3, 1, 1, int(rng.integers(2, 7)))) * 2
    w, ref = softmax_probe(logits.shape[-1])
    arrays = [np.stack([np.ones_like(logits), logits], axis=3)]
    check_gradients(
        _frozen_weight(rng, lambda ts: T.transform_route(ts[0], T.leaf(w), T.leaf(ref),
                                                         *PATCHES_ARE_INPUT), arrays), arrays)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("op", ["sigmoid", "relu", "square"])
def test_elementwise_gradients(seed, op):
    rng = np.random.default_rng(50 + seed)
    x = rng.standard_normal((3, 4)) * 2
    if op == "relu":
        x = x + np.where(x >= 0, 0.05, -0.05)  # keep clear of the kink
    fn = getattr(T, op)
    arrays = [x]
    check_gradients(
        _frozen_weight(rng, lambda ts: fn(ts[0]), arrays), arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_tanh_gradient_matches_closed_form(seed):
    rng = np.random.default_rng(55 + seed)
    # the capsule activation with an identity map and no shift is tanh
    x = rng.standard_normal((4, 4, 1, 2, 3))
    lf = T.leaf(x, needs_grad=True)
    identity = T.leaf(np.broadcast_to(np.eye(2), (3, 2, 2)).copy())
    T.backward(T.sum_all(T.capsule_activation(lf, identity, T.leaf(np.zeros((3, 2))))))
    assert np.allclose(lf.grad, 1 - np.tanh(x) ** 2, atol=1e-9)


@pytest.mark.parametrize("seed", SEEDS)
def test_add_mul_affine_gradients(seed):
    rng = np.random.default_rng(60 + seed)
    a, b = rng.standard_normal((2, 5)), rng.standard_normal((2, 5))
    # b reaches the loss along two paths, one of them its product with itself
    check_gradients(
        _frozen_weight(rng, lambda ts: T.add(T.add(T.affine(ts[0], 1.3, -0.2), ts[1]),
                                             T.square(ts[1])), [a, b]), [a, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_affine_array_coefficient_gradients(seed):
    rng = np.random.default_rng(65 + seed)
    x = rng.standard_normal((3, 4))
    scale, shift = rng.standard_normal((1, 4)), rng.standard_normal((3, 4))
    check_gradients(_frozen_weight(rng, lambda ts: T.affine(ts[0], scale, shift), [x]), [x])
    # float64 coefficients are taken in the dtype of a float32 graph
    x32 = T.leaf(x.astype(np.float32), needs_grad=True)
    out = T.affine(x32, scale, shift)
    T.backward(T.sum_all(out))
    assert out.dtype == np.float32 and x32.grad.dtype == np.float32


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_gradients(seed, train):
    rng = np.random.default_rng(70 + seed)
    c = int(rng.integers(1, 5))
    x = rng.standard_normal((6, 2, 2, c)) * 2 + 1
    gamma = 1 + 0.2 * rng.standard_normal(c)
    beta = 0.2 * rng.standard_normal(c)
    run_m, run_v = rng.standard_normal(c) * 0.1, 1 + 0.1 * rng.random(c)
    arrays = [x, gamma, beta]
    check_gradients(
        _frozen_weight(rng, lambda ts: batchnorm(ts[0], ts[1], ts[2], run_m, run_v, train)[0], arrays), arrays)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("train", [True, False])
def test_conv_bn_relu_gradients(monkeypatch, seed, train):
    rng = np.random.default_rng(130 + seed)
    w = int(rng.integers(4, 7))
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    arrays, stats = stem_probe(rng, (5, w, w, cin), cout, train)
    blocks_of_two(monkeypatch)
    check_gradients(
        _frozen_weight(rng, lambda ts: T.conv_bn_relu(*ts, *stats, train)[0], arrays), arrays)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("train", [True, False])
def test_conv_bn_relu_gradients_of_an_input_without_gradient(monkeypatch, seed, train):
    # stem0's case: the input needs no gradient, so the rule rebuilds the
    # conv output from the patches for the kernel, gamma and beta gradients
    rng = np.random.default_rng(140 + seed)
    w = int(rng.integers(4, 7))
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    (x, *arrays), stats = stem_probe(rng, (5, w, w, cin), cout, train)
    image = T.leaf(x)
    blocks_of_two(monkeypatch)
    check_gradients(
        _frozen_weight(rng, lambda ts: T.conv_bn_relu(image, *ts, *stats, train)[0], arrays),
        arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_dropout_gradients_fixed_mask(seed):
    rng = np.random.default_rng(80 + seed)
    x = rng.standard_normal((4, 5))
    arrays = [x]
    check_gradients(
        _frozen_weight(rng, lambda ts: T.dropout(ts[0], 0.6, True, np.random.default_rng(seed)), arrays), arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_gradients(seed):
    rng = np.random.default_rng(90 + seed)
    f, g = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    x = rng.standard_normal((3, f))
    w = rng.standard_normal((f, g)) * 0.5
    b = rng.standard_normal(g) * 0.1
    arrays = [x, w, b]
    check_gradients(
        _frozen_weight(rng, lambda ts: T.matmul(ts[0], ts[1], ts[2]), arrays), arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_capsule_norm_gradients(seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.standard_normal((3, 4, 2)) + 0.5  # norms well away from zero
    arrays = [x]
    check_gradients(
        _frozen_weight(rng, lambda ts: T.capsule_norm(ts[0]), arrays), arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_reshape_gradients(seed):
    rng = np.random.default_rng(120 + seed)
    a = rng.standard_normal((2, 6))
    marker = rng.standard_normal((3, 4))
    check_gradients(lambda ts: T.sum_all(T.affine(T.reshape(ts[0], (3, 4)), marker)), [a])


def test_end_to_end_tiny_model():
    worst = selftest._tiny_model_check()
    assert worst < 1e-4


@pytest.mark.parametrize("seed", range(4))
def test_every_trainable_parameter_reaches_the_loss(seed):
    # a parameter the loss cannot reach (a conv bias that a batchnorm
    # cancels) has a gradient of rounding noise, on which RMSprop still steps
    from arcaps.model import ArCapsNet

    tiny, images = selftest._tiny_model()
    net = ArCapsNet(tiny.config, seed=seed, dtype=np.float64)
    total, *_ = net.loss(images, np.array([0, 1]), train=True, rng=np.random.default_rng(seed))
    T.backward(total)
    reach = {name: np.max(np.abs(t.grad)) for name, t in net.store.trainable_items()}
    largest = max(reach.values())
    assert not {name: v / largest for name, v in reach.items() if v <= 1e-10 * largest}


def test_gradients_bitwise_reproducible(rng):
    from arcaps.model import ArCapsNet

    cfg = selftest._tiny_model()[0].config
    images = rng.random((2, 6, 6, 1), dtype=np.float32)
    labels = np.array([0, 1])

    def grads():
        net = ArCapsNet(cfg, seed=5)
        total, *_ = net.loss(images, labels, train=True,
                             rng=np.random.default_rng(3))
        T.backward(total)
        return {n: t.grad.copy() for n, t in net.store.trainable_items()}

    g1, g2 = grads(), grads()
    assert all(np.array_equal(g1[k], g2[k]) for k in g1)
