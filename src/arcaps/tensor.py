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
intermediate array as soon as the next op has consumed it. The ops that
walk the batch in blocks of images then reuse block-sized buffers in
place of the whole-batch arrays only a backward rule would read. Their
rules walk the same blocks and extract each block's patch operand again,
scattering patch gradients back one block at a time
(``_Windows.scatter_add``), so a graph keeps only what costs a GEMM to
rebuild: ``transform_route``'s u and routing weights a.

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

# conv2d, conv_bn_relu, transform_route and channel_affine walk the batch in
# blocks of whole images whose working arrays fit in this many bytes (one
# image per block when a single image exceeds it)
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


def mul(a, b):
    if a.shape != b.shape:
        raise ConfigurationError(f"mul() shape mismatch: {a.shape} vs {b.shape}")

    def rule(out):
        if a.needs_grad:
            a.accumulate_grad(out.grad * b.data)
        if b.needs_grad:
            b.accumulate_grad(out.grad * a.data)

    return Tensor(a.data * b.data, (a, b), rule)


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


def mean_all(x):
    inv = 1.0 / x.data.size

    def rule(out):
        x.accumulate_grad(np.full_like(x.data, out.grad.reshape(-1)[0] * inv))

    return Tensor((x.data.sum(dtype=x.dtype) * inv).reshape(()).astype(x.dtype), (x,), rule)


def reshape(x, shape):
    def rule(out):
        x.accumulate_grad(out.grad.reshape(x.data.shape))

    return Tensor(x.data.reshape(shape), (x,), rule)


# ---------------------------------------------------------------------------
# dense / matrix operations


def matmul(x, w):
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ConfigurationError(f"matmul() shapes incompatible: {x.shape} @ {w.shape}")

    def rule(out):
        if x.needs_grad:
            x.accumulate_grad(out.grad @ w.data.T)
        if w.needs_grad:
            w.accumulate_grad(x.data.T @ out.grad)

    return Tensor(x.data @ w.data, (x, w), rule)


def add_rowvec(x, b):
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ConfigurationError(f"add_rowvec() shapes incompatible: {x.shape} + {b.shape}")

    def rule(out):
        if x.needs_grad:
            x.accumulate_grad(out.grad)
        if b.needs_grad:
            b.accumulate_grad(out.grad.sum(axis=0))

    return Tensor(x.data + b.data, (x, b), rule)


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

_PADDINGS = ("same", "valid")


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


def _patches(xp, wo, ho, kw, kh, stride):
    """(B, Wo, Ho, kw, kh, *tail) patch view of an already padded
    (B, Wp, Hp, *tail) array."""
    s = xp.strides
    return as_strided(
        xp,
        shape=(xp.shape[0], wo, ho, kw, kh) + xp.shape[3:],
        strides=(s[0], s[1] * stride, s[2] * stride, s[1], s[2]) + s[3:],
        writeable=False,
    )


class _Windows:
    """The (kw, kh) windows at ``stride`` and ``padding`` over a
    (B, W, H, *tail) input: output extents (wo, ho), the padded per-image
    shape and the slice of a padded array that holds the input."""

    def __init__(self, shape, ksize, stride, padding):
        w, h = shape[1:3]
        self.ksize, self.stride = ksize, stride
        self.wo, pw0, pw1 = _conv_geometry(w, ksize[0], stride, padding)
        self.ho, ph0, ph1 = _conv_geometry(h, ksize[1], stride, padding)
        self.padded = (w + pw0 + pw1, h + ph0 + ph1) + tuple(shape[3:])
        self.inner = (slice(None), slice(pw0, pw0 + w), slice(ph0, ph0 + h))
        self.grad_buf = None

    def patches(self, x, blocks):
        """Yield the (hi - lo, Wo, Ho, kw, kh, *tail) patch view of each
        (lo, hi) block of images of x. A block is zero-padded into one reused
        buffer, so no padded copy of the whole input exists."""
        pad = self.padded != x.shape[1:]
        xp = np.zeros((blocks[0][1],) + self.padded, dtype=x.dtype) if pad else None
        for lo, hi in blocks:
            src = x[lo:hi]
            if pad:
                xp[: hi - lo][self.inner] = src
                src = xp[: hi - lo]
            yield _patches(src, self.wo, self.ho, *self.ksize, self.stride)

    def scatter_add(self, gx, lo, hi, gcols):
        """Scatter-add the (hi - lo, Wo, Ho, kw, kh, *tail) patch gradients of
        images lo..hi into gx[lo:hi], through one padded buffer that every
        block reuses (the first block is the largest)."""
        if self.grad_buf is None:
            self.grad_buf = np.empty((hi - lo,) + self.padded, dtype=gcols.dtype)
        gxp, s = self.grad_buf[: hi - lo], self.stride
        gxp.fill(0)
        span_w, span_h = s * (self.wo - 1) + 1, s * (self.ho - 1) + 1
        for i in range(self.ksize[0]):
            for j in range(self.ksize[1]):
                gxp[:, i:i + span_w:s, j:j + span_h:s] += gcols[:, :, :, i, j]
        gx[lo:hi] += gxp[self.inner]


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


class _ConvBlocks:
    """The convolution of a (B, W, H, Cin) input node with a
    (kw, kh, Cin, Cout) kernel node, walked in blocks of whole images.

    A block's patches fit in BLOCK_BYTES (see _image_blocks). Each block is
    zero-padded into one reused buffer and its patches copied into another,
    so neither a padded copy of the whole input nor its
    (B*Wo*Ho, kw*kh*Cin) patch matrix ever exists. Output rows are the
    flattened (B*Wo*Ho) positions, a block's rows contiguous.
    """

    def __init__(self, x, kernel, stride, padding):
        kw, kh, cin, self.cout = kernel.shape
        self.win = _Windows(x.shape, (kw, kh), stride, padding)
        self.wo, self.ho = self.win.wo, self.win.ho
        self.x, self.kernel = x, kernel
        self.rows, self.patch = self.wo * self.ho, kw * kh * cin
        self.kmat = kernel.data.reshape(self.patch, self.cout)
        self.dtype = np.result_type(x.data, kernel.data)
        self.blocks = _image_blocks(len(x.data), self.rows * self.patch * x.data.itemsize)
        self.patch_block = (self.blocks[0][1], self.wo, self.ho, kw, kh, cin)

    def row_blocks(self):
        """The output rows of each block, as slices."""
        return [slice(lo * self.rows, hi * self.rows) for lo, hi in self.blocks]

    def patches(self):
        """Yield (rows, cols): each block's output rows and its
        (len(rows), kw*kh*Cin) patch matrix, in one reused buffer."""
        buf = np.empty(self.patch_block, dtype=self.x.data.dtype)
        views = self.win.patches(self.x.data, self.blocks)
        for (lo, hi), rows, view in zip(self.blocks, self.row_blocks(), views):
            cols = buf[: hi - lo]
            np.copyto(cols, view)
            yield rows, cols.reshape(-1, self.patch)

    def forward(self, bias, each=None):
        """The (B*Wo*Ho, Cout) output, patches @ kernel (+ bias), computed
        block by block; each(rows, block) runs while the block is in cache."""
        out = np.empty((len(self.x.data) * self.rows, self.cout), dtype=self.dtype)
        for rows, cols in self.patches():
            blk = out[rows]
            np.matmul(cols, self.kmat, out=blk)
            if bias is not None:
                blk += bias.data
            if each is not None:
                each(rows, blk)
        return out

    def backward(self, grad_rows):
        """Accumulate the kernel and input gradients, block by block.

        ``grad_rows(rows)`` returns the output gradient of one block's rows,
        (len(rows), Cout). The kernel gradient re-extracts each block's
        patches. The input gradient multiplies each block's patch gradient
        into a reused buffer and scatters it into its images of ``x.grad``
        (_Windows.scatter_add).
        """
        x, kernel = self.x, self.kernel
        if kernel.needs_grad:
            blocks = self.patches()
            gk = np.zeros((self.patch, self.cout), dtype=self.dtype)
        else:
            blocks = ((rows, None) for rows in self.row_blocks())
        if x.needs_grad:
            gcols_buf = np.empty(self.patch_block, dtype=self.dtype)
        for (lo, hi), (rows, cols) in zip(self.blocks, blocks):
            g = grad_rows(rows)
            if kernel.needs_grad:
                gk += cols.T @ g
            if x.needs_grad:
                gcols = gcols_buf[: hi - lo]
                np.matmul(g, self.kmat.T, out=gcols.reshape(-1, self.patch))
                self.win.scatter_add(x.grad, lo, hi, gcols)
        if kernel.needs_grad:
            kernel.accumulate_grad(gk.reshape(kernel.shape))


def conv2d(x, kernel, bias=None, stride=1, padding="same"):
    """Cross-correlation of (B, W, H, Cin) with a (kw, kh, Cin, Cout) kernel.

    The batch is walked in blocks of whole images (see _ConvBlocks): each
    block's patches are multiplied straight into its rows of the output. The
    backward rule holds no patches; it extracts them again block by block.
    """
    if padding not in _PADDINGS:
        raise ConfigurationError(f"unknown padding {padding!r}")
    _check_conv("conv2d", x, kernel, bias)
    conv = _ConvBlocks(x, kernel, stride, padding)
    out = conv.forward(bias)
    b = x.shape[0]

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def rule(node):
        g = node.grad.reshape(b * conv.rows, conv.cout)
        if bias is not None and bias.needs_grad:
            bias.accumulate_grad(g.sum(axis=0))
        conv.backward(lambda rows: g[rows])

    return Tensor(out.reshape(b, conv.wo, conv.ho, conv.cout), parents, rule)


def conv_bn_relu(x, kernel, bias, gamma, beta, running_mean, running_var, train, eps=1e-5):
    """relu(batchnorm(conv2d(x, kernel, bias, 1, "same"))) as one op, with
    the semantics of that reference composition.

    The convolution runs block by block as in conv2d (see _ConvBlocks).
    Train mode folds each block's mean and centred sum of squares into the
    batch statistics while the block is in cache (Chan's parallel update),
    then writes out = max(z * s + t, 0) with s = gamma / sqrt(var + eps) and
    t = beta - mean * s. Infer mode applies the running statistics' s and t
    to each block in cache, the composition's arithmetic, so its outputs
    equal the composition's bitwise.

    With a graph, the node holds only its output and the conv output z; the
    rule rebuilds the normalized z block by block, takes the relu mask from
    out > 0 and feeds each block's gradient of z straight into the conv
    backward. Returns (out, batch_mean, batch_var) like batchnorm: the
    statistics are None in infer mode, and the caller updates the running
    statistics.
    """
    _check_conv("conv_bn_relu", x, kernel, bias)
    c = kernel.shape[3]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ConfigurationError(
            f"conv_bn_relu() parameter extents {gamma.shape}/{beta.shape} do not "
            f"match channel count {c}"
        )
    conv = _ConvBlocks(x, kernel, 1, "same")
    b = x.shape[0]
    n = b * conv.rows
    parents = (x, kernel, gamma, beta) + (() if bias is None else (bias,))
    graph = not _no_grad_depth and any(p.needs_grad for p in parents)
    # without a graph the output overwrites the conv output z
    y = np.empty((n, c), dtype=conv.dtype) if graph else None

    def scale_shift_relu(rows, blk):
        out = blk if y is None else y[rows]
        np.multiply(blk, s, out=out)
        out += t
        np.maximum(out, 0, out=out)

    if train:
        seen, mu, m2 = 0, 0, 0

        def fold(rows, blk):
            nonlocal seen, mu, m2
            k = blk.shape[0]
            blk_mu = blk.mean(axis=0)
            d = blk - blk_mu
            delta = blk_mu - mu
            mu = mu + delta * (k / (seen + k))
            m2 = m2 + np.einsum("ij,ij->j", d, d) + delta * delta * (seen * k / (seen + k))
            seen += k

        z = conv.forward(bias, fold)
        var = m2 / n
        inv_std = 1.0 / np.sqrt(var + eps)
        s = gamma.data * inv_std
        t = beta.data - mu * s
        for rows in conv.row_blocks():
            scale_shift_relu(rows, z[rows])
    else:
        mu = running_mean
        inv_std = 1.0 / np.sqrt(running_var + eps)
        s = gamma.data * inv_std
        t = beta.data - running_mean * s
        z = conv.forward(bias, scale_shift_relu)
    if y is None:
        y = z

    def rule(node):
        g = node.grad.reshape(n, c)

        def relu_grad(rows):
            gy = g[rows] * (y[rows] > 0)
            return gy, (z[rows] - mu) * inv_std

        sum_gy = np.zeros(c, dtype=z.dtype)
        sum_gy_xhat = np.zeros(c, dtype=z.dtype)
        for rows in conv.row_blocks():
            gy, xhat = relu_grad(rows)
            sum_gy += gy.sum(axis=0)
            sum_gy_xhat += np.einsum("ij,ij->j", gy, xhat)
        if gamma.needs_grad:
            gamma.accumulate_grad(sum_gy_xhat)
        if beta.needs_grad:
            beta.accumulate_grad(sum_gy)
        gbias = np.zeros(c, dtype=z.dtype)

        def conv_grad(rows):
            gz, xhat = relu_grad(rows)
            if train:
                # closed-form gradient through the batch statistics
                gz -= sum_gy / n
                gz -= xhat * (sum_gy_xhat / n)
            gz *= s
            gbias[...] += gz.sum(axis=0)
            return gz

        conv.backward(conv_grad)
        if bias is not None and bias.needs_grad:
            bias.accumulate_grad(gbias)

    out = Tensor(y.reshape(b, conv.wo, conv.ho, c), parents, rule)
    return (out, mu, var) if train else (out, None, None)


def channel_affine(x, weight, bias=None):
    """Independent affine map per trailing channel.

    x: (B, W, H, K, M), weight: (M, K, E), bias: (M, E) or None
    out[..., e, m] = sum_k x[..., k, m] * weight[m, k, e] (+ bias[m, e])

    This is the per-channel 1x1 affine of the capsule activation (K = D).
    The batch is walked in blocks of whole images (see _image_blocks): each
    block is copied channel first into a block-sized (M, rows, K) GEMM
    operand, multiplied into a block-sized buffer, shifted by the bias and
    written into its images of the output, so the output is the only
    whole-batch array. The rule keeps no operand: it walks the same blocks,
    copying each block's input channel first again for the weight gradient.
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

    rows = w * h
    blocks = _image_blocks(b, rows * m * (k + e) * x.data.itemsize)
    step = blocks[0][1] * rows

    def channel_first(buf, lo, hi):
        """Images lo..hi of x, copied into buf as the (M, rows, K) operand."""
        bxt = buf[:, : (hi - lo) * rows]
        np.copyto(bxt.reshape(m, hi - lo, w, h, k), np.moveaxis(x.data[lo:hi], -1, 0))
        return bxt

    xt = np.empty((m, step, k), dtype=x.dtype)
    y = np.empty((m, step, e), dtype=np.result_type(x.data, weight.data))
    out = np.empty((b, w, h, e, m), dtype=y.dtype)
    for lo, hi in blocks:
        by = y[:, : (hi - lo) * rows]
        np.matmul(channel_first(xt, lo, hi), weight.data, out=by)
        if bias is not None:
            by += bias.data[:, None, :]
        np.copyto(out[lo:hi], np.moveaxis(by.reshape(m, hi - lo, w, h, e), 0, -1))

    def rule(node):
        buf = np.empty((m, step, k), dtype=x.dtype) if weight.needs_grad else None
        for lo, hi in blocks:
            nb = hi - lo
            gt = np.ascontiguousarray(np.moveaxis(node.grad[lo:hi], -1, 0)).reshape(m, -1, e)
            if weight.needs_grad:
                weight.accumulate_grad(channel_first(buf, lo, hi).transpose(0, 2, 1) @ gt)
            if bias is not None and bias.needs_grad:
                bias.accumulate_grad(gt.sum(axis=1))
            if x.needs_grad:
                gx = gt @ weight.data.transpose(0, 2, 1)  # (m, rows, k)
                x.grad[lo:hi] += np.moveaxis(gx.reshape(m, nb, w, h, k), 0, -1)

    return Tensor(out, (x, weight) if bias is None else (x, weight, bias), rule)


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

    The batch is walked in blocks of whole images (see _image_blocks); a
    block may grow to the size of the weight, so a small layer's GEMMs do
    not re-read a large weight once per block. Each block is zero-padded
    into one reused buffer, its patches are copied once, channel first,
    into a block-sized (M, rows, K) GEMM operand, and its u stays in the
    (M, rows, N, E) layout, so every sum over input channels reduces the
    leading axis; the weighted sum goes through a block-sized buffer into
    the block's rows of the output. With a graph the blocks fill the
    whole-batch u (M, P, N, E) and a (M, P, N), with P = B*Wo*Ho, which the
    rule keeps, because rebuilding u costs a GEMM; without one they reuse
    block-sized buffers, so the output is the only whole-batch array.

    The rule walks the same blocks. Per block it takes the softmax
    backward, builds the gradient of u, gu = a*g + gl*reference (the
    weighted sum's term and the logits'), copies the block's patches
    channel first again for the weight gradient, and multiplies gu into
    the block's patch gradient, which _Windows.scatter_add adds into its
    images of the caps gradient.

    Returns the pre-activation capsules (B, Wo, Ho, E, N).
    """
    if padding not in _PADDINGS:
        raise ConfigurationError(f"unknown padding {padding!r}")
    if caps.data.ndim != 5 or weight.data.ndim != 3 or reference.data.ndim != 3:
        raise ConfigurationError(
            f"transform_route() expects rank-5 input, rank-3 weight and rank-3 "
            f"reference, got {caps.shape}, {weight.shape} and {reference.shape}"
        )
    kw, kh = ksize
    b, _, _, d, m = caps.shape
    k = kw * kh * d
    n, e = reference.shape[:2]
    if weight.shape != (m, k, n * e) or reference.shape[2] != m:
        raise ConfigurationError(
            f"transform_route() weight {weight.shape} and reference {reference.shape} do "
            f"not match {ksize} patches of {caps.shape}: need ({m}, {k}, N*E) and (N, E, {m})"
        )
    win = _Windows(caps.shape, ksize, stride, padding)
    wo, ho = win.wo, win.ho
    rows = wo * ho
    p = b * rows
    parents = (caps, weight, reference)
    graph = not _no_grad_depth and any(t.needs_grad for t in parents)
    blocks = _image_blocks(b, rows * m * (k + n * e) * caps.data.itemsize, weight.data.nbytes)
    step = blocks[0][1] * rows
    span = p if graph else step
    ref = reference.data.transpose(2, 0, 1)  # (m, n, e)

    def channel_first(buf, nb, view):
        """A block's (nb, Wo, Ho, kw, kh, D, M) patch view, copied into buf
        as the (M, nb*rows, K) operand."""
        bxt = buf[:, : nb * rows]
        np.copyto(bxt.reshape(m, nb, wo, ho, kw, kh, d), np.moveaxis(view, -1, 0))
        return bxt

    xt = np.empty((m, step, k), dtype=caps.dtype)
    u = np.empty((m, span, n * e), dtype=np.result_type(caps.data, weight.data))
    routed = np.result_type(u, ref)
    a = np.empty((m, p, n), dtype=routed) if graph else None
    # einsum writes the (rows, N, E) weighted sum about 4x faster into a
    # contiguous buffer than into the output's transposed view
    wsum = np.empty((step, n, e), dtype=routed)
    out = np.empty((p, e, n), dtype=routed)
    for (lo, hi), view in zip(blocks, win.patches(caps.data, blocks)):
        nb = hi - lo
        off = lo * rows if graph else 0
        bu = u[:, off:off + nb * rows]
        np.matmul(channel_first(xt, nb, view), weight.data, out=bu)
        bu = bu.reshape(m, nb * rows, n, e)
        logits = np.einsum("mpne,mne->mpn", bu, ref)
        if not np.all(np.isfinite(logits)):
            raise ComputationError("transform_route() produced non-finite routing logits")
        ba = logits if a is None else a[:, lo * rows:hi * rows]
        np.subtract(logits, logits.max(axis=0), out=ba)
        np.exp(ba, out=ba)
        ba /= ba.sum(axis=0)
        bsum = wsum[: nb * rows]
        np.einsum("mpn,mpne->pne", ba, bu, out=bsum)
        np.copyto(out[lo * rows:hi * rows], bsum.transpose(0, 2, 1))
    u = u.reshape(m, span, n, e)

    def rule(node):
        buf = np.empty((m, step, k), dtype=caps.dtype) if weight.needs_grad else None
        views = win.patches(caps.data, blocks) if weight.needs_grad else [None] * len(blocks)
        for (lo, hi), view in zip(blocks, views):
            nb, r = hi - lo, slice(lo * rows, hi * rows)
            g = np.ascontiguousarray(node.grad.reshape(p, e, n)[r].transpose(0, 2, 1))
            bu, ba = u[:, r], a[:, r]
            # softmax backward: d logit = a * (d a - sum_m a * d a)
            ga = np.einsum("pne,mpne->mpn", g, bu)
            gl = ba * (ga - (ba * ga).sum(axis=0))
            if reference.needs_grad:
                reference.accumulate_grad(np.einsum("mpn,mpne->nem", gl, bu))
            # u feeds both the weighted sum and the logits
            gu = (ba[..., None] * g + gl[..., None] * ref[:, None]).reshape(m, nb * rows, n * e)
            if weight.needs_grad:
                weight.accumulate_grad(channel_first(buf, nb, view).transpose(0, 2, 1) @ gu)
            if caps.needs_grad:
                gx = gu @ weight.data.transpose(0, 2, 1)  # (m, rows, k)
                # the scatter runs faster from the patch layout than from a
                # view that reads m at a large stride
                gcols = np.moveaxis(gx.reshape(m, nb, wo, ho, kw, kh, d), 0, -1)
                win.scatter_add(caps.grad, lo, hi, np.ascontiguousarray(gcols))

    return Tensor(out.reshape(b, wo, ho, e, n), parents, rule)


# ---------------------------------------------------------------------------
# normalization / regularization


def batchnorm(x, gamma, beta, running_mean, running_var, train, eps=1e-5):
    """Per-channel batch normalization over the trailing axis.

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

        out = Tensor(gamma.data * xhat + beta.data, (x, gamma, beta), rule)
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

    out = Tensor(x.data * s + t, (x, gamma, beta), rule)
    return out, None, None


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
