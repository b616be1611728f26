"""Reverse-mode autodiff over dense numpy arrays.

A ``Tensor`` is one node of the computation graph: a value array, a lazily
allocated gradient array of the same shape, references to the parent nodes
and a closure that routes the output gradient back to those parents.
Graphs are built eagerly by the functions in this module. ``backward``
frees each interior node once its rule has run: the node drops its parents
and the arrays its rule saved, so a node nobody holds goes with its data
and gradient while backward is still walking. A node the caller holds
keeps its data and gradient, but a freed graph cannot be walked again.
Parameters are leaf tensors whose ``data`` the optimizer updates in place
between batches; their gradients accumulate across graphs until zeroed.

Inside ``with no_grad():`` ops build no graph: a node made from parents
keeps neither them nor a backward rule, so inference frees each
intermediate array as soon as the next op has consumed it.

Every convolution of the model runs through one blocked GEMM over sliding
windows, ``_WindowGemm``: conv2d and conv_bn_relu (the stem and the
primary capsules), transform_route (the convolutional transform under
attention routing) and channel_affine (the capsule activation, a 1x1
affine per capsule channel). It alone knows the window geometry, checks
the padding, adds the bias and makes its gradient, and sizes the blocks:
it walks the batch in blocks of whole images whose operand and product
rows fit one budget, so no op builds a whole-batch patch matrix or padded
copy, and under no_grad the ops reuse block-sized buffers in place of the
whole-batch arrays only a backward rule would read. Its backward walks
the same blocks and extracts each block's operand again, so a graph keeps
only what costs a GEMM to rebuild: transform_route's u and routing
weights a. Each op adds only its own epilogue and gradient step.

Values are float32 in normal operation. Creating leaves from float64
arrays switches the whole downstream graph to float64, which is how the
finite-difference gradient checks run (32-bit noise would drown the
h=1e-3 central differences).

Axis convention for capsule-valued tensors: (batch, width, height,
capsule-dim, channel).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ComputationError, ConfigurationError

MAX_RANK = 5

# _WindowGemm walks the batch in blocks of whole images whose operand and
# product rows fit in this many bytes (one image per block when a single image exceeds it)
BLOCK_BYTES = 2 << 20

# depth of open no_grad blocks; graphs are built only at depth 0
_no_grad_depth = 0


class no_grad:
    """Context manager under which ops build no graph.

    A node built from parents inside the block keeps no parents and no
    backward rule and has ``needs_grad=False``. Leaves keep the
    ``needs_grad`` they are given, so a parameter made inside stays
    trainable. Blocks nest, and leaving one (by an exception too) restores
    the mode that was in force when it was entered.
    """

    def __enter__(self):
        global _no_grad_depth
        _no_grad_depth += 1
        return self

    def __exit__(self, *exc):
        global _no_grad_depth
        _no_grad_depth -= 1
        return False


def _building_graph():
    """Whether ops build a graph now: no no_grad block is open. Private:
    the module's public functions are the ops and the graph walk."""
    return not _no_grad_depth


class Tensor:
    """A value in the autodiff graph."""

    __slots__ = ("data", "_grad", "parents", "backward_rule", "needs_grad")

    def __init__(self, data, parents=(), backward_rule=None, needs_grad=None):
        data = np.asarray(data)
        if data.ndim > MAX_RANK:
            raise ConfigurationError(
                f"tensor rank {data.ndim} exceeds the supported maximum {MAX_RANK}"
            )
        if data.ndim and min(data.shape) < 1:
            raise ConfigurationError(f"zero-sized extent in shape {data.shape}")
        if _no_grad_depth and parents:
            parents, backward_rule, needs_grad = (), None, False
        self.data = data
        self._grad = None
        self.parents = tuple(parents)
        self.backward_rule = backward_rule
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in self.parents)
        self.needs_grad = needs_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def grad(self):
        """Accumulated gradient; zeros until backward() reaches this node."""
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    def accumulate_grad(self, value):
        if self._grad is None:
            # a copy: rules pass their own gradient (or a view of it) on
            self._grad = np.empty_like(self.data)
            self._grad[...] = value
        else:
            self._grad += value

    def zero_grad(self):
        self._grad = None

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def leaf(data, needs_grad=False, dtype=None):
    """Wrap a raw array as a graph leaf (input, parameter or constant)."""
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return Tensor(arr, needs_grad=needs_grad)


def topo_order(root):
    """Reverse-topological order of the graph below ``root``.

    Iterative DFS; raises on cycles, which cannot arise from the public
    constructors but would make backward() silently wrong.
    """
    order = []
    state = {}  # id -> 1 in progress, 2 done
    stack = [(root, iter(root.parents))]
    state[id(root)] = 1
    while stack:
        node, it = stack[-1]
        advanced = False
        for parent in it:
            s = state.get(id(parent))
            if s == 1:
                raise ComputationError("cycle detected in computation graph")
            if s is None:
                state[id(parent)] = 1
                stack.append((parent, iter(parent.parents)))
                advanced = True
                break
        if not advanced:
            stack.pop()
            state[id(node)] = 2
            order.append(node)
    return order


def _freed(node):
    raise ConfigurationError(
        "this graph was freed by an earlier backward(); rebuild it from the "
        "leaves before calling backward() through it again"
    )


def backward(loss):
    """Populate ``grad`` on every node reachable from ``loss``, freeing the graph.

    ``loss`` must hold a single scalar that depends on a node needing a
    gradient (so not one built under ``no_grad``). Once a node's rule has
    run, the node drops its parents and its rule, and with them the arrays
    the rule saved; an interior node the caller does not hold is freed then,
    with its data and gradient. A node the caller holds keeps its data and
    gradient. Leaf gradients accumulate across graphs, so zero them between
    steps. A freed graph cannot be walked again: a second backward() through
    any of its interior nodes raises ConfigurationError.
    """
    if loss.data.size != 1:
        raise ConfigurationError(
            f"backward() needs a scalar loss, got shape {loss.data.shape}"
        )
    if not loss.needs_grad:
        raise ConfigurationError(
            "backward() needs a loss with needs_grad=True; this one depends on "
            "no trainable leaf or was built under no_grad"
        )
    loss.accumulate_grad(np.ones_like(loss.data))
    order = topo_order(loss)
    while order:
        node = order.pop()
        if node.backward_rule is not None and node.needs_grad:
            node.backward_rule(node)
            node.parents = ()
            node.backward_rule = _freed
        del node  # not held into the next rule


# ---------------------------------------------------------------------------
# elementwise operations


def add(a, b):
    if a.shape != b.shape:
        raise ConfigurationError(f"add() shape mismatch: {a.shape} vs {b.shape}")

    def rule(out):
        if a.needs_grad:
            a.accumulate_grad(out.grad)
        if b.needs_grad:
            b.accumulate_grad(out.grad)

    return Tensor(a.data + b.data, (a, b), rule)


def affine(x, scale=1.0, shift=0.0):
    """scale * x + shift with python-scalar coefficients."""

    def rule(out):
        x.accumulate_grad(out.grad * scale)

    return Tensor(x.data * scale + shift, (x,), rule)


def scale_by(x, factor):
    """Multiply by a constant array broadcastable to ``x`` (not differentiated)."""
    factor = np.asarray(factor, dtype=x.dtype)

    def rule(out):
        x.accumulate_grad(out.grad * factor)

    return Tensor(x.data * factor, (x,), rule)


def relu(x):
    def rule(out):
        x.accumulate_grad(out.grad * (x.data > 0))

    return Tensor(np.maximum(x.data, 0), (x,), rule)


def tanh(x):
    y = np.tanh(x.data)

    def rule(out):
        x.accumulate_grad(out.grad * (1.0 - y * y))

    return Tensor(y, (x,), rule)


def sigmoid(x):
    # computed via tanh for stability at large |x|
    y = 0.5 * (np.tanh(0.5 * x.data) + 1.0)

    def rule(out):
        x.accumulate_grad(out.grad * y * (1.0 - y))

    return Tensor(y, (x,), rule)


def square(x):
    def rule(out):
        x.accumulate_grad(out.grad * (2.0 * x.data))

    return Tensor(x.data * x.data, (x,), rule)


def sum_all(x):
    def rule(out):
        x.accumulate_grad(np.full_like(x.data, out.grad.reshape(-1)[0]))

    return Tensor(x.data.sum(dtype=x.dtype).reshape(()), (x,), rule)


def reshape(x, shape):
    def rule(out):
        x.accumulate_grad(out.grad.reshape(x.data.shape))

    return Tensor(x.data.reshape(shape), (x,), rule)


# ---------------------------------------------------------------------------
# dense / matrix operations


def matmul(x, w, bias=None):
    """x @ w for a (B, F) x and an (F, G) w, plus a (G,) bias row when given
    (added in place to the product; its gradient is the column sum)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ConfigurationError(f"matmul() shapes incompatible: {x.shape} @ {w.shape}")
    if bias is not None and bias.shape != (w.shape[1],):
        raise ConfigurationError(f"matmul() bias shape {bias.shape} != ({w.shape[1]},)")
    out = x.data @ w.data
    if bias is not None:
        out += bias.data

    def rule(node):
        if x.needs_grad:
            x.accumulate_grad(node.grad @ w.data.T)
        if w.needs_grad:
            w.accumulate_grad(x.data.T @ node.grad)
        if bias is not None and bias.needs_grad:
            bias.accumulate_grad(node.grad.sum(axis=0))

    return Tensor(out, (x, w) if bias is None else (x, w, bias), rule)


def capsule_norm(x):
    """Euclidean norm over axis 1 of a (batch, dim, channel) tensor.

    The gradient at an exactly-zero capsule is taken as zero (subgradient
    choice); everywhere else it is x / ||x||.
    """
    if x.data.ndim != 3:
        raise ConfigurationError(f"capsule_norm() expects rank 3, got {x.shape}")
    n = np.sqrt((x.data * x.data).sum(axis=1))

    def rule(out):
        safe = np.where(n > 0, n, 1.0)
        x.accumulate_grad(out.grad[:, None, :] * x.data / safe[:, None, :])

    return Tensor(n, (x,), rule)


# ---------------------------------------------------------------------------
# convolution machinery


def _conv_geometry(size, k, stride, padding):
    """Output extent plus (before, after) zero padding for one spatial axis."""
    if padding == "same":
        out = -(-size // stride)
        total = max((out - 1) * stride + k - size, 0)
        return out, total // 2, total - total // 2
    out = (size - k) // stride + 1
    if out < 1:
        raise ConfigurationError(
            f"valid convolution of kernel {k} over extent {size} has no output"
        )
    return out, 0, 0


def _image_blocks(batch, bytes_per_image, weight_bytes=0):
    """(lo, hi) bounds of consecutive blocks of whole images: as many images
    per block as fit in BLOCK_BYTES, or in ``weight_bytes`` when the weight
    the blocks multiply is larger (so each block's GEMM reads the weight no
    more than it reads the block), and at least one. The first block is the
    largest."""
    step = min(batch, max(1, max(BLOCK_BYTES, weight_bytes) // bytes_per_image))
    return [(lo, min(lo + step, batch)) for lo in range(0, batch, step)]


def _5d(a):
    """A (B, W, H, Cin) array as (B, W, H, Cin, 1); a rank-5 one as it is."""
    return a[..., None] if a.ndim == 4 else a


def _graph(*parents):
    """Whether a node built now from ``parents`` gets a backward rule."""
    return _building_graph() and any(p.needs_grad for p in parents)


class _WindowGemm:
    """The blocked GEMM over sliding windows behind conv2d, conv_bn_relu,
    channel_affine and transform_route: the one place that knows the window
    geometry, the padding, the bias and the block budget.

    It walks the (kw, kh) windows at ``stride`` and ``padding`` ("same" or
    "valid") of a (B, W, H, D, M) input node in blocks of whole images. Each
    block is zero-padded into one reused buffer, and its patches are copied
    channel first into one reused (M, rows, K) operand buffer, K = kw*kh*D,
    and multiplied by the (M, K, C) weight node, one GEMM per input channel
    m, plus the bias node (C values per input channel, or None). A
    (B, W, H, Cin) input reads as M = 1, with its (kw, kh, Cin, Cout) kernel
    as (1, kw*kh*Cin, Cout). Product rows are the flattened (B*Wo*Ho)
    positions, a block's rows contiguous, so neither a padded copy of the
    whole input nor its whole patch matrix ever exists.

    A block holds as many images as _image_blocks fits for their operand
    rows plus their product rows. The backward holds no operand: it
    extracts each block's again. ``parents`` are (x, weight[, bias]).
    """

    def __init__(self, x, weight, bias, ksize, stride, padding):
        if padding not in ("same", "valid"):
            raise ConfigurationError(f"unknown padding {padding!r}")
        self.x, self.weight, self.bias = x, weight, bias
        self.parents = (x, weight) if bias is None else (x, weight, bias)
        b, w, h, d, self.m = _5d(x.data).shape
        self.ksize, self.stride = ksize, stride
        self.wo, pw0, pw1 = _conv_geometry(w, ksize[0], stride, padding)
        self.ho, ph0, ph1 = _conv_geometry(h, ksize[1], stride, padding)
        self.padded = (w + pw0 + pw1, h + ph0 + ph1, d, self.m)
        self.pad = self.padded[:2] != (w, h)
        self.inner = (slice(None), slice(pw0, pw0 + w), slice(ph0, ph0 + h))
        self.rows = self.wo * self.ho
        self.k = ksize[0] * ksize[1] * d
        self.w = weight.data.reshape(self.m, self.k, -1)
        self.c = self.w.shape[2]
        self.dtype = np.result_type(x.data, weight.data)
        self.blocks = _image_blocks(b, self.rows * self.m * (self.k + self.c) * x.data.itemsize,
                                    weight.data.nbytes)
        self.step = self.blocks[0][1] * self.rows

    def span(self, lo, hi):
        """The product rows of images lo..hi (of a block, from its first)."""
        return slice(lo * self.rows, hi * self.rows)

    def operands(self):
        """Yield each block's (M, rows, K) operand, in one reused buffer,
        copied from the (M, hi - lo, Wo, Ho, kw, kh, D) patch view of the
        block (zero-padded first into another reused buffer)."""
        buf = np.empty((self.m, self.step, self.k), dtype=self.x.dtype)
        xd = _5d(self.x.data)
        xp = np.zeros((self.blocks[0][1],) + self.padded, dtype=xd.dtype) if self.pad else None
        for lo, hi in self.blocks:
            src = xd[lo:hi]
            if self.pad:
                xp[: hi - lo][self.inner] = src
                src = xp[: hi - lo]
            s, st = src.strides, self.stride
            view = as_strided(src, shape=(self.m, hi - lo, self.wo, self.ho, *self.ksize,
                                          src.shape[3]),
                              strides=(s[4], s[0], s[1] * st, s[2] * st, s[1], s[2], s[3]),
                              writeable=False)
            op = buf[:, self.span(0, hi - lo)]
            np.copyto(op.reshape(view.shape), view)
            yield op

    def forward(self, each=None, whole=True):
        """The product plus bias, block by block: into its rows of a
        whole-batch (M, B*rows, C) array, or (not ``whole``) into one reused
        (M, rows, C) block buffer. Returns that array; each(lo, hi, block)
        runs while the block is in cache."""
        out = np.empty((self.m, len(self.x.data) * self.rows if whole else self.step, self.c),
                       dtype=self.dtype)
        bias = None if self.bias is None else self.bias.data.reshape(self.m, 1, self.c)
        for (lo, hi), op in zip(self.blocks, self.operands()):
            blk = out[:, self.span(lo, hi) if whole else self.span(0, hi - lo)]
            np.matmul(op, self.w, out=blk)
            if bias is not None:
                blk += bias
            if each is not None:
                each(lo, hi, blk)
        return out

    def backward(self, grad):
        """Accumulate the weight, bias and input gradients, block by block,
        from grad(lo, hi), the (M, rows, C) gradient of a block's product.

        Each block's weight gradient, from its operand extracted again, and
        its bias gradient go to their nodes as they are made. The input
        gradient multiplies into a reused buffer and is scatter-added into
        the block's images of ``x.grad`` (which is taken at the first
        scatter, so it is not held beside the first weight gradient's
        temporaries): one strided add per tap, through one reused padded
        buffer when the windows pad.
        """
        x, weight, bias = self.x, self.weight, self.bias
        ops = self.operands() if weight.needs_grad else None
        gbuf = gxp = None
        st, (kw, kh) = self.stride, self.ksize
        span_w, span_h = st * (self.wo - 1) + 1, st * (self.ho - 1) + 1
        for lo, hi in self.blocks:
            g = grad(lo, hi)
            if weight.needs_grad:
                weight.accumulate_grad((next(ops).transpose(0, 2, 1) @ g).reshape(weight.shape))
            if bias is not None and bias.needs_grad:
                bias.accumulate_grad(g.sum(axis=1).reshape(bias.shape))
            if not x.needs_grad:
                continue
            if gbuf is None:
                gbuf = np.empty((self.m, self.step, self.k), dtype=np.result_type(g, self.w))
                if self.pad:
                    gxp = np.empty((hi - lo,) + self.padded, dtype=gbuf.dtype)
            gx = gbuf[:, self.span(0, hi - lo)]
            np.matmul(g, self.w.transpose(0, 2, 1), out=gx)
            gcols = np.moveaxis(gx.reshape(self.m, hi - lo, self.wo, self.ho, kw, kh, -1), 0, -1)
            if (kw, kh) != (1, 1):
                # the scatter runs faster from the patch layout than from
                # a view that reads m at a large stride
                gcols = np.ascontiguousarray(gcols)
            dst = _5d(x.grad)[lo:hi]
            acc = gxp[: hi - lo] if self.pad else dst
            if self.pad:
                acc.fill(0)
            for i in range(kw):
                for j in range(kh):
                    acc[:, i:i + span_w:st, j:j + span_h:st] += gcols[:, :, :, i, j]
            if self.pad:
                dst += acc[self.inner]


def _check_conv(op, x, kernel, bias):
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ConfigurationError(
            f"{op}() expects rank-4 input and kernel, got {x.shape} and {kernel.shape}"
        )
    cin, cout = kernel.shape[2:]
    if x.shape[3] != cin:
        raise ConfigurationError(
            f"{op}() channel mismatch: input {x.shape} has {x.shape[3]} channels, "
            f"kernel {kernel.shape} expects {cin}"
        )
    if bias is not None and bias.shape != (cout,):
        raise ConfigurationError(f"{op}() bias shape {bias.shape} != ({cout},)")


def conv2d(x, kernel, bias=None, stride=1, padding="same"):
    """Cross-correlation of (B, W, H, Cin) with a (kw, kh, Cin, Cout) kernel.

    A _WindowGemm with M = 1: each block's patches are multiplied straight
    into its rows of the output, plus the bias. The backward rule holds no
    patches.
    """
    _check_conv("conv2d", x, kernel, bias)
    gemm = _WindowGemm(x, kernel, bias, kernel.shape[:2], stride, padding)
    out = gemm.forward()

    def rule(node):
        g = node.grad.reshape(1, -1, gemm.c)
        gemm.backward(lambda lo, hi: g[:, gemm.span(lo, hi)])

    return Tensor(out.reshape(x.shape[0], gemm.wo, gemm.ho, gemm.c), gemm.parents, rule)


def conv_bn_relu(x, kernel, gamma, beta, running_mean, running_var, train, eps=1e-5):
    """relu(batchnorm(conv2d(x, kernel, None, 1, "same"))) as one op, with
    the semantics of that reference composition (selftest.stem_composition).

    The convolution has no bias: the batchnorm would subtract it again, and
    beta is the shift. It runs block by block as in conv2d (a _WindowGemm).
    Train mode folds each block's mean and centred sum of squares into the
    batch statistics while the block is in cache (Chan's parallel update),
    then writes out = max(z * s + t, 0) with s = gamma / sqrt(var + eps) and
    t = beta - mean * s. Infer mode applies the running statistics' s and t
    to each block in cache, the composition's arithmetic, so its outputs
    equal the composition's bitwise.

    With a graph, the node holds only its output and the conv output z; the
    rule rebuilds the normalized z block by block, takes the relu mask from
    out > 0 and feeds each block's gradient of z straight into the conv
    backward. Returns (out, batch_mean, batch_var): the statistics are None
    in infer mode, and the caller updates the running statistics.
    """
    _check_conv("conv_bn_relu", x, kernel, None)
    c = kernel.shape[3]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ConfigurationError(
            f"conv_bn_relu() parameter extents {gamma.shape}/{beta.shape} do not "
            f"match channel count {c}"
        )
    gemm = _WindowGemm(x, kernel, None, kernel.shape[:2], 1, "same")
    b, span = x.shape[0], gemm.span
    n = b * gemm.rows
    parents = gemm.parents + (gamma, beta)
    # without a graph the output overwrites the conv output z
    y = np.empty((n, c), dtype=gemm.dtype) if _graph(*parents) else None

    def scale_shift_relu(lo, hi, blk):
        out = blk if y is None else y[span(lo, hi)]
        np.multiply(blk, s, out=out)
        out += t
        np.maximum(out, 0, out=out)

    if train:
        seen, mu, m2 = 0, 0, 0

        def fold(lo, hi, blk):
            nonlocal seen, mu, m2
            blk = blk[0]
            k = blk.shape[0]
            blk_mu = blk.mean(axis=0)
            d = blk - blk_mu
            delta = blk_mu - mu
            mu = mu + delta * (k / (seen + k))
            m2 = m2 + np.einsum("ij,ij->j", d, d) + delta * delta * (seen * k / (seen + k))
            seen += k

        z = gemm.forward(fold)[0]
        var = m2 / n
        inv_std = 1.0 / np.sqrt(var + eps)
        s = gamma.data * inv_std
        t = beta.data - mu * s
        for lo, hi in gemm.blocks:
            scale_shift_relu(lo, hi, z[span(lo, hi)])
    else:
        mu = running_mean
        inv_std = 1.0 / np.sqrt(running_var + eps)
        s = gamma.data * inv_std
        t = beta.data - running_mean * s
        z = gemm.forward(lambda lo, hi, blk: scale_shift_relu(lo, hi, blk[0]))[0]
    if y is None:
        y = z

    def rule(node):
        g = node.grad.reshape(n, c)

        def relu_grad(rows):
            gy = g[rows] * (y[rows] > 0)
            return gy, (z[rows] - mu) * inv_std

        sum_gy = np.zeros(c, dtype=z.dtype)
        sum_gy_xhat = np.zeros(c, dtype=z.dtype)
        for lo, hi in gemm.blocks:
            gy, xhat = relu_grad(span(lo, hi))
            sum_gy += gy.sum(axis=0)
            sum_gy_xhat += np.einsum("ij,ij->j", gy, xhat)
        if gamma.needs_grad:
            gamma.accumulate_grad(sum_gy_xhat)
        if beta.needs_grad:
            beta.accumulate_grad(sum_gy)

        def conv_grad(lo, hi):
            gz, xhat = relu_grad(span(lo, hi))
            if train:
                # closed-form gradient through the batch statistics
                gz -= sum_gy / n
                gz -= xhat * (sum_gy_xhat / n)
            gz *= s
            return gz[None]

        gemm.backward(conv_grad)

    out = Tensor(y.reshape(b, gemm.wo, gemm.ho, c), parents, rule)
    return (out, mu, var) if train else (out, None, None)


def channel_affine(x, weight, bias=None):
    """Independent affine map per trailing channel.

    x: (B, W, H, K, M), weight: (M, K, E), bias: (M, E) or None
    out[..., e, m] = sum_k x[..., k, m] * weight[m, k, e] (+ bias[m, e])

    This is the per-channel 1x1 affine of the capsule activation (K = D):
    the (1, 1) "valid" windows of a _WindowGemm. Each block's product plus
    bias goes through a reused block buffer into its images of the output,
    so the output is the only whole-batch array.
    """
    if x.data.ndim != 5 or weight.data.ndim != 3:
        raise ConfigurationError(
            f"channel_affine() expects rank-5 input and rank-3 weight, "
            f"got {x.shape} and {weight.shape}"
        )
    b, w, h, k, m = x.shape
    if weight.shape[0] != m or weight.shape[1] != k:
        raise ConfigurationError(
            f"channel_affine() weight {weight.shape} does not match input {x.shape}: "
            f"need ({m}, {k}, E)"
        )
    e = weight.shape[2]
    if bias is not None and bias.shape != (m, e):
        raise ConfigurationError(f"channel_affine() bias shape {bias.shape} != ({m}, {e})")

    gemm = _WindowGemm(x, weight, bias, (1, 1), 1, "valid")
    out = np.empty((b, w, h, e, m), dtype=gemm.dtype)

    def write(lo, hi, blk):
        np.copyto(out[lo:hi], np.moveaxis(blk.reshape(m, hi - lo, w, h, e), 0, -1))

    gemm.forward(write, whole=False)

    def rule(node):
        gemm.backward(lambda lo, hi: np.ascontiguousarray(
            np.moveaxis(node.grad[lo:hi], -1, 0)).reshape(m, -1, e))

    return Tensor(out, gemm.parents, rule)


def transform_route(caps, weight, reference, ksize, stride, padding):
    """Patch extraction, convolutional transform and one-pass attention
    routing of a capsule layer, as one op.

    caps: (B, W, H, D, M), with receptive fields of ksize = (kw, kh) at
    ``stride`` and ``padding``; weight: (M, K, N*E) with K = kw*kh*D, whose
    columns n*E .. n*E+E-1 hold the transform from input channel m to
    output channel n; reference: (N, E, M) attention kernel.

    For each position p, with x[p, :, m] the flattened patch of channel m,
    and each output channel n:
      u[m, p, n]     = x[p, :, m] @ weight[m, :, n*E:(n+1)*E]  (one GEMM)
      logit[m, p, n] = <u[m, p, n], reference[n, :, m]>
      a[:, p, n]     = softmax over m of the logits
      out[p, :, n]   = sum_m a[m, p, n] * u[m, p, n]

    u is the product of a _WindowGemm, whose blocks may grow to the size of
    the weight, so a small layer's GEMMs do not re-read a large weight once
    per block. u stays in the (M, rows, N, E) layout, so every sum over
    input channels reduces the leading axis; the weighted sum goes through a
    block-sized buffer into the block's rows of the output. With a graph the
    blocks fill the whole-batch u (M, P, N, E) and a (M, P, N), with
    P = B*Wo*Ho, which the rule keeps, because rebuilding u costs a GEMM;
    without one they reuse block-sized buffers, so the output is the only
    whole-batch array.

    The rule walks the same blocks. Per block it takes the softmax
    backward and hands the GEMM's backward the gradient of u,
    gu = a*g + gl*reference (the weighted sum's term and the logits').

    Returns the pre-activation capsules (B, Wo, Ho, E, N).
    """
    if caps.data.ndim != 5 or weight.data.ndim != 3 or reference.data.ndim != 3:
        raise ConfigurationError(
            f"transform_route() expects rank-5 input, rank-3 weight and rank-3 "
            f"reference, got {caps.shape}, {weight.shape} and {reference.shape}"
        )
    b, _, _, d, m = caps.shape
    k = ksize[0] * ksize[1] * d
    n, e = reference.shape[:2]
    if weight.shape != (m, k, n * e) or reference.shape[2] != m:
        raise ConfigurationError(
            f"transform_route() weight {weight.shape} and reference {reference.shape} do "
            f"not match {ksize} patches of {caps.shape}: need ({m}, {k}, N*E) and (N, E, {m})"
        )
    gemm = _WindowGemm(caps, weight, None, ksize, stride, padding)
    p = b * gemm.rows
    parents = gemm.parents + (reference,)
    graph = _graph(*parents)
    ref = reference.data.transpose(2, 0, 1)  # (m, n, e)
    routed = np.result_type(gemm.dtype, ref)
    a = np.empty((m, p, n), dtype=routed) if graph else None
    # einsum writes the (rows, N, E) weighted sum about 4x faster into a
    # contiguous buffer than into the output's transposed view
    wsum = np.empty((gemm.step, n, e), dtype=routed)
    out = np.empty((p, e, n), dtype=routed)

    def route(lo, hi, bu):
        r = gemm.span(lo, hi)
        bu = bu.reshape(m, -1, n, e)
        logits = np.einsum("mpne,mne->mpn", bu, ref)
        if not np.all(np.isfinite(logits)):
            raise ComputationError("transform_route() produced non-finite routing logits")
        ba = logits if a is None else a[:, r]
        np.subtract(logits, logits.max(axis=0), out=ba)
        np.exp(ba, out=ba)
        ba /= ba.sum(axis=0)
        bsum = wsum[: bu.shape[1]]
        np.einsum("mpn,mpne->pne", ba, bu, out=bsum)
        np.copyto(out[r], bsum.transpose(0, 2, 1))

    u = gemm.forward(each=route, whole=graph).reshape(m, -1, n, e)

    def rule(node):
        def grad(lo, hi):
            r = gemm.span(lo, hi)
            g = np.ascontiguousarray(node.grad.reshape(p, e, n)[r].transpose(0, 2, 1))
            bu, ba = u[:, r], a[:, r]
            # softmax backward: d logit = a * (d a - sum_m a * d a)
            ga = np.einsum("pne,mpne->mpn", g, bu)
            gl = ba * (ga - (ba * ga).sum(axis=0))
            if reference.needs_grad:
                reference.accumulate_grad(np.einsum("mpn,mpne->nem", gl, bu))
            # u feeds both the weighted sum and the logits
            return (ba[..., None] * g + gl[..., None] * ref[:, None]).reshape(m, -1, n * e)

        gemm.backward(grad)

    return Tensor(out.reshape(b, gemm.wo, gemm.ho, e, n), parents, rule)


# ---------------------------------------------------------------------------
# regularization


def dropout(x, keep_prob, train, rng=None):
    """Inverted dropout: zero with probability 1-keep_prob, scale survivors."""
    if not 0.0 < keep_prob <= 1.0:
        raise ConfigurationError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if not train or keep_prob == 1.0:
        return x
    if rng is None:
        raise ConfigurationError("dropout() in train mode needs an rng")
    keep = rng.random(x.shape) < keep_prob  # one byte per element
    scale = x.dtype.type(1) / keep_prob

    def rule(node):
        gx = node.grad * keep
        gx *= scale
        x.accumulate_grad(gx)

    out = x.data * keep
    out *= scale
    return Tensor(out, (x,), rule)
