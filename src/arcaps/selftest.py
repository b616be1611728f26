"""Built-in verification: gradient checks and oracle comparisons.

Runs the same independent checks the test suite relies on, packaged as a
CLI subcommand so a deployed build can prove its numerics in seconds. All
gradient checks run in float64. The graph references that the model
never builds live here too: batchnorm and stem_composition, the
conv2d -> batchnorm -> relu chain that conv_bn_relu fuses.
"""

from __future__ import annotations

import numpy as np

from . import reference, tensor as T
from .analysis import align_vector, relative_ratios
from .errors import ComputationError, ConfigurationError
from .gradcheck import check_gradients, numerical_gradient, relative_error
from .model import ArCapsNet, ModelConfig
from .optim import ParameterStore, RmspropState, rmsprop_step


def _rng(tag):
    return np.random.default_rng(np.random.SeedSequence([0x5E1F, tag]))


def _op_gradient_checks():
    rng = _rng(1)
    checks = []

    x = rng.standard_normal((2, 5, 5, 2))
    k = rng.standard_normal((3, 3, 2, 3)) * 0.5
    b = rng.standard_normal(3) * 0.1
    for stride in (1, 2):
        for padding in ("same", "valid"):
            checks.append((f"conv2d k=3 stride={stride} {padding}", [x, k, b],
                           lambda ts, s=stride, p=padding: _weighted_sum(
                               T.conv2d(ts[0], ts[1], ts[2], s, p))))

    caps = rng.standard_normal((2, 3, 3, 4, 3))
    wgt = rng.standard_normal((3, 4, 5)) * 0.5
    cb = rng.standard_normal((3, 5)) * 0.1
    checks.append(("capsule_activation", [caps, wgt, cb],
                   lambda ts: _weighted_sum(T.capsule_activation(ts[0], ts[1], ts[2]))))

    # (B, W, H, K, M) = (2, 2, 3, 4, 3) patches routed to N=2 channels of E=3
    cols = rng.standard_normal((2, 2, 3, 4, 3))
    tw = rng.standard_normal((3, 4, 6)) * 0.5
    tref = rng.standard_normal((2, 3, 3))
    checks.append(("transform_route 1x1 valid", [cols, tw, tref],
                   lambda ts: _weighted_sum(
                       T.transform_route(ts[0], ts[1], ts[2], (1, 1), 1, "valid"))))

    z = rng.standard_normal((3, 4)) * 2.0
    checks.append(("sigmoid", [z], lambda ts: _weighted_sum(T.sigmoid(ts[0]))))
    zr = z + 3.0  # keep clear of the relu kink for finite differences
    checks.append(("relu", [zr], lambda ts: _weighted_sum(T.relu(ts[0]))))
    # ts[1] reaches the loss along two paths, as the scores do in the margin loss
    checks.append(("add/affine", [z, rng.standard_normal((3, 4))],
                   lambda ts: _weighted_sum(
                       T.add(T.add(T.affine(ts[0], 1.7, 0.3), ts[1]), T.square(ts[1])))))

    xb = rng.standard_normal((6, 3, 3, 4))
    gamma = 1.0 + 0.1 * rng.standard_normal(4)
    beta = 0.1 * rng.standard_normal(4)
    checks.append(("batchnorm train", [xb, gamma, beta],
                   lambda ts: _weighted_sum(batchnorm(ts[0], ts[1], ts[2], None, None, True)[0])))
    checks.append(("batchnorm infer", [xb, gamma, beta],
                   lambda ts: _weighted_sum(batchnorm(ts[0], ts[1], ts[2],
                                                      np.zeros(4), np.ones(4), False)[0])))

    for train in (True, False):
        arrays, stats = stem_probe(rng, (2, 5, 5, 2), 3, train)
        checks.append((f"conv_bn_relu {'train' if train else 'infer'}", arrays,
                       lambda ts, tr=train, st=stats: _weighted_sum(
                           T.conv_bn_relu(*ts, *st, tr)[0])))

    checks.append(("dropout fixed-mask", [rng.standard_normal((4, 5))],
                   lambda ts: _weighted_sum(T.dropout(ts[0], 0.6, True, _rng(77)))))

    m1 = rng.standard_normal((3, 4))
    m2 = rng.standard_normal((4, 2))
    bias = rng.standard_normal(2)
    checks.append(("matmul+bias", [m1, m2, bias],
                   lambda ts: _weighted_sum(T.matmul(ts[0], ts[1], ts[2]))))

    cv = rng.standard_normal((3, 4, 2)) + 0.5
    checks.append(("capsule_norm", [cv], lambda ts: _weighted_sum(T.capsule_norm(ts[0]))))

    # (1, 4, 4, 3, 2) capsules, 3x3 patches at stride 2, to N=2 channels of E=3
    caps5 = rng.standard_normal((1, 4, 4, 3, 2))
    cw = rng.standard_normal((2, 27, 6)) * 0.3
    cref = rng.standard_normal((2, 3, 2))
    checks.append(("transform_route 3x3 stride=2 same", [caps5, cw, cref],
                   lambda ts: _weighted_sum(
                       T.transform_route(ts[0], ts[1], ts[2], (3, 3), 2, "same"))))
    return checks


def _marker(shape):
    """Deterministic weighting so sum-based losses see every output element."""
    rng = np.random.default_rng(np.random.SeedSequence([0x3A6C, *shape]))
    return rng.standard_normal(shape)


def _weighted_sum(out):
    """sum(out * _marker(out.shape)): a scalar loss that weights every output
    element differently."""
    return T.sum_all(T.affine(out, _marker(out.shape)))


def stem_probe(rng, shape, cout, train, eps=1e-5):
    """Float64 inputs of one conv_bn_relu call over a (B, W, H, Cin) input:
    [x, kernel, gamma, beta] and (running_mean, running_var). There is no
    conv bias to draw: the op takes none.

    beta puts each channel's relu threshold mid-way across the widest gap
    between the middle half of its normalized conv outputs, so the relu is
    active on part of every channel but a finite-difference step of 1e-3
    crosses no kink.
    """
    cin = shape[3]
    x = rng.standard_normal(shape)
    kernel = rng.standard_normal((3, 3, cin, cout)) / (3 * np.sqrt(cin))
    gamma = 1 + 0.2 * rng.standard_normal(cout)
    stats = (0.1 * rng.standard_normal(cout), 1 + 0.1 * rng.random(cout))
    z = T.conv2d(T.leaf(x), T.leaf(kernel)).data.reshape(-1, cout)
    mean, var = (z.mean(axis=0), z.var(axis=0)) if train else stats
    xhat = np.sort((z - mean) / np.sqrt(var + eps), axis=0)
    mid = xhat[len(xhat) // 4: len(xhat) - len(xhat) // 4]
    gap = np.argmax(np.diff(mid, axis=0), axis=0)
    cols = np.arange(cout)
    beta = -gamma * (mid[gap, cols] + mid[gap + 1, cols]) / 2
    return [x, kernel, gamma, beta], stats


def batchnorm(x, gamma, beta, running_mean, running_var, train, eps=1e-5):
    """Per-channel batch normalization over the trailing axis, as a graph op:
    the normalization of stem_composition, the reference of conv_bn_relu.

    Train mode normalizes with the batch statistics (and the gradient flows
    through them); infer mode normalizes with the supplied running
    statistics. The caller owns updating the running statistics from the
    returned batch statistics.

    Returns (out, batch_mean, batch_var); the statistics are None in infer
    mode.
    """
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ConfigurationError(
            f"batchnorm() parameter extents {gamma.shape}/{beta.shape} do not "
            f"match channel count {c}"
        )
    axes = tuple(range(x.data.ndim - 1))
    if train:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - mu) * inv_std

        def rule(node):
            g = node.grad
            if gamma.needs_grad:
                gamma.accumulate_grad((g * xhat).sum(axis=axes))
            if beta.needs_grad:
                beta.accumulate_grad(g.sum(axis=axes))
            if x.needs_grad:
                gxhat = g * gamma.data
                # closed-form gradient through the batch statistics
                t1 = gxhat.mean(axis=axes)
                t2 = (gxhat * xhat).mean(axis=axes)
                x.accumulate_grad(inv_std * (gxhat - t1 - xhat * t2))

        out = T.Tensor(gamma.data * xhat + beta.data, (x, gamma, beta), rule)
        return out, mu, var

    # one per-channel scale and shift: out = x * s + t
    inv_std = 1.0 / np.sqrt(running_var + eps)
    s = gamma.data * inv_std
    t = beta.data - running_mean * s

    def rule(node):
        g = node.grad
        if gamma.needs_grad:
            xhat = (x.data - running_mean) * inv_std
            gamma.accumulate_grad((g * xhat).sum(axis=axes))
        if beta.needs_grad:
            beta.accumulate_grad(g.sum(axis=axes))
        if x.needs_grad:
            x.accumulate_grad(g * s)

    out = T.Tensor(x.data * s + t, (x, gamma, beta), rule)
    return out, None, None


def stem_composition(x, kernel, gamma, beta, running_mean, running_var, train):
    """conv2d (no bias) -> batchnorm -> relu: the reference composition of
    conv_bn_relu, with the same (out, batch_mean, batch_var) result."""
    bn, mean, var = batchnorm(T.conv2d(x, kernel, None, 1, "same"), gamma, beta,
                              running_mean, running_var, train)
    return T.relu(bn), mean, var


def stem_oracle_gap(arrays, stats, train, x_grad=True):
    """Worst difference of conv_bn_relu from its reference composition
    (stem_composition: conv2d with no bias, batchnorm, relu) over the
    output, the batch statistics and the gradients of x (when x_grad),
    kernel, gamma and beta, each relative to max(1, max |reference|)."""
    results = []
    for op in (T.conv_bn_relu, stem_composition):
        leaves = [T.leaf(a, needs_grad=x_grad or i > 0) for i, a in enumerate(arrays)]
        out, mean, var = op(*leaves, *stats, train)
        T.backward(_weighted_sum(out))
        results.append([out.data, mean, var] + [t.grad for t in leaves[0 if x_grad else 1:]])
    worst = 0.0
    for got, want in zip(*results):
        if want is None:
            if got is not None:
                raise ComputationError("conv_bn_relu returned infer-mode batch statistics")
            continue
        worst = max(worst, float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))))
    return worst


def _stem_oracle_check():
    # 3 images of 5x5 whose 3x3 patch and 4 product rows each take just
    # under half the block budget: the convolution runs in two blocks, the
    # last one ragged
    wide = T.BLOCK_BYTES // (2 * 25 * 9 * 8)
    worst = 0.0
    for train in (True, False):
        arrays, stats = stem_probe(_rng(24), (3, 5, 5, wide), 4, train)
        # an input that needs no gradient (stem0's image): the rule rebuilds z
        for x_grad in (True, False):
            worst = max(worst, stem_oracle_gap(arrays, stats, train, x_grad))
    if worst > 1e-9:
        raise ComputationError(f"conv_bn_relu differs from conv2d+batchnorm+relu: {worst:.2e}")
    return worst


def _tiny_model():
    cfg = ModelConfig(input_width=6, input_height=6, stem_width=2, primary_dim=2,
                      primary_channels=2, caps_dim=3, caps_channels=2, classes=2,
                      decoder_widths=(4, 4))
    return ArCapsNet(cfg, seed=3, dtype=np.float64), _rng(7).random((2, 6, 6, 1))


def _tiny_model_check():
    net, images = _tiny_model()
    labels = np.array([0, 1])

    def loss_value():
        total, *_ = net.loss(images, labels, train=True, rng=_rng(11))
        return total

    net.store.zero_grads()
    T.backward(loss_value())
    analytic = {n: t.grad.copy() for n, t in net.store.trainable_items()}
    worst = 0.0
    for name, t in net.store.trainable_items():
        numeric = numerical_gradient(lambda _: loss_value().item(), [t.data], 0)
        worst = max(worst, relative_error(analytic[name], numeric))
    if worst > 1e-4:
        raise ComputationError(f"tiny-model gradient check failed: {worst:.2e}")
    return worst


def _no_grad_check():
    """The tiny model's forward under no_grad equals the graph-building
    forward bitwise, and its outputs keep no parents."""
    net, images = _tiny_model()
    with_graph = net.forward(images)
    with T.no_grad():
        without = net.forward(images)
    for name in ("scores", "capsules", "reconstruction"):
        built, bare = getattr(with_graph, name), getattr(without, name)
        if not np.array_equal(built.data, bare.data):
            raise ComputationError(f"no_grad forward changed the {name}")
        if bare.parents or not built.parents:
            raise ComputationError(f"no_grad did not drop the graph of the {name}")


def _conv_oracle_check():
    rng = _rng(21)
    # the last case spans several blocks, the last one ragged: each image's
    # 5x5 rows of 3x3 patches and one product of float64 take just under
    # half the block budget
    wide = T.BLOCK_BYTES // (2 * 25 * 9 * 8)
    worst = 0.0
    for k, stride, padding, shape, cout in (
            (3, 1, "same", (1, 5, 5, 2), 3), (3, 2, "same", (1, 5, 5, 2), 3),
            (3, 1, "valid", (1, 5, 5, 2), 3), (1, 1, "same", (1, 5, 5, 2), 3),
            (5, 1, "valid", (1, 5, 5, 2), 3), (3, 1, "same", (3, 5, 5, wide), 1)):
        x = rng.standard_normal(shape)
        kern = rng.standard_normal((k, k, shape[3], cout))
        bias = rng.standard_normal(cout)
        fast = T.conv2d(T.leaf(x), T.leaf(kern), T.leaf(bias), stride, padding).data
        slow = reference.conv2d_loops(x, kern, bias, stride, padding)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    if worst > 1e-6:
        raise ComputationError(f"conv2d oracle mismatch: {worst:.2e}")
    return worst


def oracle_banks(weight, ksize, out_dim):
    """Per-output-channel (M, kw, kh, D_in, D_out) kernels sliced from a
    fused (M, kw*kh*D_in, N*D_out) transform, as the loop oracles take them."""
    m, patch, ne = weight.shape
    kw, kh = ksize
    return [weight[:, :, n:n + out_dim].reshape(m, kw, kh, patch // (kw * kh), out_dim)
            for n in range(0, ne, out_dim)]


def softmax_probe(m, dtype=np.float64):
    """Weight and reference under which transform_route returns its routing
    weights: with cols[..., 0, :] = 1 and cols[..., 1, :] = logits, the single
    output channel predicts [one-hot(m), logit_m] for input channel m, the
    reference reads only the last component, and out[..., :M, 0] is the
    softmax over m of the logits."""
    weight = np.zeros((m, 2, m + 1), dtype=dtype)
    weight[np.arange(m), 0, np.arange(m)] = 1.0
    weight[:, 1, m] = 1.0
    reference = np.zeros((1, m + 1, m), dtype=dtype)
    reference[0, m] = 1.0
    return weight, reference


def routing_weights(logits):
    """Softmax over the trailing (input-channel) axis of (B, W, H, M) logits,
    as transform_route computes it."""
    logits = np.asarray(logits)
    weight, reference = softmax_probe(logits.shape[-1], logits.dtype)
    cols = np.stack([np.ones_like(logits), logits], axis=3)
    out = T.transform_route(T.leaf(cols), T.leaf(weight), T.leaf(reference),
                            (1, 1), 1, "valid")
    return out.data[..., :-1, 0]


def _routing_oracle_check():
    rng = _rng(22)
    worst = 0.0
    for stride, size in ((1, 2), (2, 5)):
        b, w, h, d, m, n, e = 1, size, size, 4, 3, 2, 4
        u = rng.standard_normal((b, w, h, d, m))
        weight = rng.standard_normal((m, 9 * d, n * e))
        ref = rng.standard_normal((n, e, m))

        fast = T.transform_route(T.leaf(u), T.leaf(weight), T.leaf(ref),
                                 (3, 3), stride, "same").data

        slow_stacks = reference.conv_transform_loops(
            u, oracle_banks(weight, (3, 3), e), stride, "same")
        slow = reference.attention_route_loops(slow_stacks, ref)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    if worst > 1e-6:
        raise ComputationError(f"attention routing oracle mismatch: {worst:.2e}")
    return worst


# relative tolerance of a blocked weight or reference gradient, which sums
# per block, against the sum of the per-image gradients, and of an output
# that is not held bitwise against the one-image runs (float64)
ROUTE_GRAD_SUM_RTOL = 1e-12


def _blocked_op_probes():
    """(name, op, argument names, float64 arguments, one image's output
    shape, whether the output is held bitwise) of conv2d,
    capsule_activation and transform_route (also with a frozen weight) over
    3 images whose block rows (operand plus product) each take just under
    half the real block budget, so each op runs in blocks of two images and
    one."""
    rng = _rng(25)
    half = T.BLOCK_BYTES // (2 * 8)  # float64 values in half a budget
    # 4x4 capsules, 3x3 "same" at stride 2: 4 positions of patch and u rows
    # (N*E = 2 values) of M=2 input channels, routed to N=2 channels of E=1
    d = (half // (4 * 2) - 2) // 9
    route = [rng.standard_normal((3, 4, 4, d, 2)),
             rng.standard_normal((2, 9 * d, 2)) / np.sqrt(9 * d),
             rng.standard_normal((2, 1, 2))]
    # 8x8 images, 3x3 "same" at stride 1 to 2 channels: 64 patch and
    # product rows each
    cin = (half // 64 - 2) // 9
    conv = [rng.standard_normal((3, 8, 8, cin)),
            rng.standard_normal((3, 3, cin, 2)) / np.sqrt(9 * cin), rng.standard_normal(2)]
    # 8x8 images of M=2 channels to E=1: 64 operand and product rows each
    k = half // (64 * 2) - 1
    activation = [rng.standard_normal((3, 8, 8, k, 2)),
                  rng.standard_normal((2, k, 1)) / np.sqrt(k), rng.standard_normal((2, 1))]
    # 8x8 capsules of D=1, 3x3 "same" at stride 1: 64 patch (K=9) and u
    # rows of M=2 input channels, routed to N=2 channels of E; the rule
    # rebuilds u from the operand that it asks the GEMM's backward for.
    # BLAS may sum this GEMM in another order for two images than for one,
    # so the output is held to ROUTE_GRAD_SUM_RTOL, not bitwise
    e = (half // (64 * 2) - 9) // 2
    frozen = T.leaf(rng.standard_normal((2, 9, 2 * e)) / 3)
    frozen_route = [rng.standard_normal((3, 8, 8, 1, 2)),
                    rng.standard_normal((2, e, 2)) / np.sqrt(e)]
    return [
        ("conv2d", lambda *ts: T.conv2d(*ts, 1, "same"), ("input", "kernel", "bias"),
         conv, (8, 8, 2), True),
        ("capsule_activation", T.capsule_activation, ("input", "weight", "bias"),
         activation, (8, 8, 1, 2), True),
        ("transform_route", lambda *ts: T.transform_route(*ts, (3, 3), 2, "same"),
         ("caps", "weight", "reference"), route, (2, 2, 1, 2), True),
        ("transform_route (frozen weight)",
         lambda caps, ref: T.transform_route(caps, frozen, ref, (3, 3), 1, "same"),
         ("caps", "reference"), frozen_route, (8, 8, e, 2), False),
    ]


def _blocked_ops_check():
    """conv2d, capsule_activation and transform_route (also with a frozen
    weight) at the real block budget, in blocks of two images and one,
    against each image run alone (one block each): the output bitwise
    (the frozen weight's reported, and otherwise held to
    ROUTE_GRAD_SUM_RTOL), the input gradient bitwise (reported, and
    otherwise held to ROUTE_GRAD_SUM_RTOL), and every other gradient
    within ROUTE_GRAD_SUM_RTOL of the sum of the per-image ones; the
    blocked transform_route output also against the loop oracle. Then a
    block split by channel (_channel_split_check)."""
    report = []
    for name, op, arg_names, arrays, out_shape, exact in _blocked_op_probes():
        marker = _marker((3,) + out_shape)

        def run(lo, hi):
            """Images lo..hi in one call: the output and the gradients of
            sum(out * marker)."""
            leaves = [T.leaf(arrays[0][lo:hi], True)] + [T.leaf(a, True) for a in arrays[1:]]
            out = op(*leaves)
            T.backward(T.sum_all(T.affine(out, marker[lo:hi])))
            return [out.data] + [t.grad for t in leaves]

        blocked, alone = run(0, 3), [run(i, i + 1) for i in range(3)]
        joined = np.concatenate([r[0] for r in alone])
        same = np.array_equal(blocked[0], joined)
        if exact and not same:
            raise ComputationError(f"{name} blocks differ from one-image runs")
        if not exact:
            gap = float(np.max(np.abs(blocked[0] - joined)) / np.max(np.abs(joined)))
            if gap > ROUTE_GRAD_SUM_RTOL:
                raise ComputationError(
                    f"blocked {name} output is {gap:.2e} (relative) off the one-image "
                    f"runs, over {ROUTE_GRAD_SUM_RTOL:.0e}")
            report.append(f"{name} output {'' if same else 'not '}bitwise")
        x_grad = np.concatenate([r[1] for r in alone])
        wants = [x_grad] + [sum(r[i] for r in alone) for i in range(2, len(blocked))]
        for arg, got, want in zip(arg_names, blocked[1:], wants):
            gap = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            if gap > ROUTE_GRAD_SUM_RTOL:
                raise ComputationError(
                    f"blocked {name} {arg} gradient is {gap:.2e} (relative) off the "
                    f"one-image runs, over {ROUTE_GRAD_SUM_RTOL:.0e}")
        same = np.array_equal(blocked[1], x_grad)
        report.append(f"{name} {arg_names[0]} gradient {'' if same else 'not '}bitwise")
        if name == "transform_route":
            caps, weight, ref = arrays
            stacks = reference.conv_transform_loops(caps, oracle_banks(weight, (3, 3), 1), 2,
                                                    "same")
            worst = float(np.max(np.abs(blocked[0] - reference.attention_route_loops(stacks,
                                                                                      ref))))
            if worst > 1e-6:
                raise ComputationError(f"blocked transform_route oracle mismatch: {worst:.2e}")
    report.append(_channel_split_check())
    return f"transform_route oracle worst {worst:.2e}; " + ", ".join(report)


def _channel_split_check():
    """A transform_route whose float64 weight exceeds the real block budget
    (a whole-extent window, as fullycaps has) walks one block, split into
    one channel group per worker of two whether or not BLAS is pinned: its
    output and gradients bitwise against one group."""
    rng = _rng(29)
    # 6x6 capsules of D=8 in M=3 channels, routed to N=10 channels of E=32:
    # a (3, 288, 320) weight of 2.2 MB, in uneven groups of 1 and 2 channels
    arrays = [rng.standard_normal((2, 6, 6, 8, 3)),
              rng.standard_normal((3, 288, 320)) / np.sqrt(288),
              rng.standard_normal((10, 32, 3))]
    runs, workers = [], T._WORKERS
    try:
        for count in (2, 1):
            T._WORKERS = count
            leaves = [T.leaf(a, True) for a in arrays]
            out = T.transform_route(*leaves, (6, 6), 1, "valid")
            groups = len(T._WindowGemm(leaves[0], leaves[1], None, (6, 6), 1, "valid").groups)
            T.backward(_weighted_sum(out))
            runs.append((groups, [out.data] + [t.grad for t in leaves]))
    finally:
        T._WORKERS = workers
    (split, got), (one, want) = runs
    if (split, one) != (2, 1):
        raise ComputationError(
            f"the channel-split probe ran in {split} and {one} groups, not 2 and 1")
    for name, a, b in zip(("output", "caps", "weight", "reference"), got, want):
        if a.tobytes() != b.tobytes():
            raise ComputationError(f"channel-split transform_route {name} differs from one group")
    return "channel-split transform_route bitwise"


def _scalar_examples():
    s = reference.squash(np.array([3.0, 4.0]))
    if np.max(np.abs(s - np.array([0.57692308, 0.76923077]))) > 1e-5:
        raise ComputationError(f"squash(3,4) = {s}")
    s = reference.squash_exp(np.array([3.0, 4.0]))
    if np.max(np.abs(s - np.array([0.59595654, 0.79460872]))) > 1e-5:
        raise ComputationError(f"squash_exp(3,4) = {s}")
    soft = routing_weights(np.array([[[[1.0, 2.0, 3.0]]]]))[0, 0, 0]
    if np.max(np.abs(soft - np.array([0.09003057, 0.24472847, 0.66524096]))) > 1e-4:
        raise ComputationError(f"softmax(1,2,3) = {soft}")

    store = ParameterStore()
    p = store.add("p", np.full(3, 2.0, dtype=np.float32))
    state = RmspropState(store)
    p.accumulate_grad(np.ones(3, dtype=np.float32))
    rmsprop_step(store, state)
    expected = 2.0 - 0.001 / (np.sqrt(0.1) + 1e-7)
    if abs(float(p.data[0]) - expected) > 1e-6:
        raise ComputationError(f"rmsprop first step gave {p.data[0]!r}")
    state.step_count = 10000
    if abs(state.learning_rate() - 0.0005) > 1e-12:
        raise ComputationError("rmsprop decay schedule is off")


def _align_vector_check():
    rng = _rng(23)
    worst_val, worst_cos = 0.0, 1.0
    for _ in range(20):
        rows = rng.standard_normal((5, 8))
        v, coeffs = align_vector(rows)
        evals, evecs = reference.jacobi_eigh(rows.T @ rows)
        worst_val = max(worst_val, abs(float((coeffs ** 2).sum()) - evals[0]))
        worst_cos = min(worst_cos, abs(float(np.dot(v, evecs[:, 0]))))
        ratios, _ = relative_ratios(rows, v)
        if np.any(ratios < 0) or np.any(ratios > 1 + 1e-12):
            raise ComputationError("relative ratios escaped [0, 1]")
    if worst_val > 1e-8 or worst_cos < 1 - 1e-8:
        raise ComputationError(
            f"align vector disagrees with Jacobi oracle: value err {worst_val:.2e}, "
            f"cosine {worst_cos!r}")


def run(report=print):
    """Run every check; returns the number of failures (0 = clean build)."""
    failures = 0
    for name, arrays, build in _op_gradient_checks():
        try:
            worst = check_gradients(build, arrays)
            report(f"ok   gradient {name} (worst rel err {worst:.2e})")
        except (AssertionError, ComputationError) as exc:
            failures += 1
            report(f"FAIL gradient {name}: {exc}")
    for label, fn in (("conv2d vs loop oracle", _conv_oracle_check),
                      ("conv_bn_relu vs conv2d+batchnorm+relu", _stem_oracle_check),
                      ("attention routing vs loop oracle", _routing_oracle_check),
                      ("blocked ops vs one-image runs", _blocked_ops_check),
                      ("scalar reference values", _scalar_examples),
                      ("align vector vs Jacobi oracle", _align_vector_check),
                      ("no_grad forward equals graph forward", _no_grad_check),
                      ("tiny-model end-to-end gradients", _tiny_model_check)):
        try:
            result = fn()
            if isinstance(result, float):
                result = f"worst {result:.2e}"
            suffix = f" ({result})" if result else ""
            report(f"ok   {label}{suffix}")
        except (AssertionError, ComputationError) as exc:
            failures += 1
            report(f"FAIL {label}: {exc}")
    return failures
