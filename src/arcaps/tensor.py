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

# conv2d walks the batch in blocks of whole images whose patch matrix fits
# in this many bytes (one image per block when a single image exceeds it)
CONV_BLOCK_BYTES = 2 << 20

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


def _patch_view(x, kw, kh, stride, padding):
    """Patch view of a (B, W, H, *tail) array, copying nothing but the padding.

    Returns (view, geometry) where view has shape (B, Wo, Ho, kw, kh, *tail)
    over the zero-padded input and geometry carries the padding bookkeeping
    that _col2im needs to reverse the layout.
    """
    b, w, h = x.shape[:3]
    tail = x.shape[3:]
    wo, pw0, pw1 = _conv_geometry(w, kw, stride, padding)
    ho, ph0, ph1 = _conv_geometry(h, kh, stride, padding)
    if pw0 or pw1 or ph0 or ph1:
        pad = [(0, 0), (pw0, pw1), (ph0, ph1)] + [(0, 0)] * len(tail)
        xp = np.pad(x, pad)
    else:
        xp = x
    s = xp.strides
    view = as_strided(
        xp,
        shape=(b, wo, ho, kw, kh) + tail,
        strides=(s[0], s[1] * stride, s[2] * stride, s[1], s[2]) + s[3:],
        writeable=False,
    )
    geom = (xp.shape, (pw0, ph0), (w, h), stride)
    return view, geom


def _col2im_add(gx, gcols, stride):
    """Scatter-add (B, Wo, Ho, kw, kh, *tail) patch gradients into the padded
    (B, Wp, Hp, *tail) input gradient ``gx``."""
    wo, ho, kw, kh = gcols.shape[1:5]
    for i in range(kw):
        wstop = i + stride * (wo - 1) + 1
        for j in range(kh):
            hstop = j + stride * (ho - 1) + 1
            gx[:, i:wstop:stride, j:hstop:stride] += gcols[:, :, :, i, j]


def _col2im(gcols, geom):
    """Scatter-add patch gradients back to the (unpadded) input layout."""
    padded_shape, (pw0, ph0), (w, h), stride = geom
    gx = np.zeros(padded_shape, dtype=gcols.dtype)
    _col2im_add(gx, gcols, stride)
    return gx[:, pw0 : pw0 + w, ph0 : ph0 + h]


def conv2d(x, kernel, bias=None, stride=1, padding="same"):
    """Cross-correlation of (B, W, H, Cin) with a (kw, kh, Cin, Cout) kernel.

    The batch is walked in blocks of whole images: a block's patches are
    copied into one reused buffer of at most CONV_BLOCK_BYTES and multiplied
    straight into the block's rows of the output, so the full
    (B*Wo*Ho, kw*kh*Cin) patch matrix never exists. The backward rule holds
    no patches; it extracts them again block by block.
    """
    if padding not in _PADDINGS:
        raise ConfigurationError(f"unknown padding {padding!r}")
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ConfigurationError(
            f"conv2d() expects rank-4 input and kernel, got {x.shape} and {kernel.shape}"
        )
    kw, kh, cin, cout = kernel.shape
    if x.shape[3] != cin:
        raise ConfigurationError(
            f"conv2d() channel mismatch: input {x.shape} has {x.shape[3]} channels, "
            f"kernel {kernel.shape} expects {cin}"
        )
    if bias is not None and bias.shape != (cout,):
        raise ConfigurationError(f"conv2d() bias shape {bias.shape} != ({cout},)")

    view, geom = _patch_view(x.data, kw, kh, stride, padding)
    b, wo, ho = view.shape[:3]
    rows, patch = wo * ho, kw * kh * cin
    step = min(b, max(1, CONV_BLOCK_BYTES // view[0].nbytes))
    blocks = [(lo, min(lo + step, b)) for lo in range(0, b, step)]
    block_shape = (step,) + view.shape[1:]
    kmat = kernel.data.reshape(patch, cout)
    buf = np.empty(block_shape, dtype=view.dtype)
    out = np.empty((b * rows, cout), dtype=np.result_type(view, kmat))
    for lo, hi in blocks:
        cols = buf[: hi - lo]
        np.copyto(cols, view[lo:hi])
        blk = out[lo * rows : hi * rows]
        np.matmul(cols.reshape(-1, patch), kmat, out=blk)
        if bias is not None:
            blk += bias.data
    out = out.reshape(b, wo, ho, cout)

    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def rule(node):
        g = node.grad.reshape(b * rows, cout)
        if bias is not None and bias.needs_grad:
            bias.accumulate_grad(g.sum(axis=0))
        if kernel.needs_grad:
            patches = _patch_view(x.data, kw, kh, stride, padding)[0]
            cols_buf = np.empty(block_shape, dtype=patches.dtype)
            gk = np.zeros((patch, cout), dtype=np.result_type(patches, g))
        if x.needs_grad:
            gcols_buf = np.empty(block_shape, dtype=np.result_type(g, kmat))
            gxp = np.zeros(geom[0], dtype=gcols_buf.dtype)
        for lo, hi in blocks:
            g_blk = g[lo * rows : hi * rows]
            if kernel.needs_grad:
                cols = cols_buf[: hi - lo]
                np.copyto(cols, patches[lo:hi])
                gk += cols.reshape(-1, patch).T @ g_blk
            if x.needs_grad:
                gcols = gcols_buf[: hi - lo]
                np.matmul(g_blk, kmat.T, out=gcols.reshape(-1, patch))
                _col2im_add(gxp[lo:hi], gcols, stride)
        if kernel.needs_grad:
            kernel.accumulate_grad(gk.reshape(kernel.shape))
        if x.needs_grad:
            (pw0, ph0), (w, h) = geom[1:3]
            x.accumulate_grad(gxp[:, pw0 : pw0 + w, ph0 : ph0 + h])

    return Tensor(out, parents, rule)


def channel_affine(x, weight, bias=None):
    """Independent affine map per trailing channel.

    x: (B, W, H, K, M), weight: (M, K, E), bias: (M, E) or None
    out[..., e, m] = sum_k x[..., k, m] * weight[m, k, e] (+ bias[m, e])

    This is the per-channel 1x1 affine of the capsule activation (K = D).
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

    xt = np.ascontiguousarray(np.moveaxis(x.data, -1, 0)).reshape(m, b * w * h, k)
    out = xt @ weight.data  # (m, bwh, e)
    if bias is not None:
        out += bias.data[:, None, :]
    out = np.moveaxis(out.reshape(m, b, w, h, e), 0, -1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def rule(node):
        gt = np.ascontiguousarray(np.moveaxis(node.grad, -1, 0)).reshape(m, b * w * h, e)
        if weight.needs_grad:
            weight.accumulate_grad(xt.transpose(0, 2, 1) @ gt)
        if bias is not None and bias.needs_grad:
            bias.accumulate_grad(gt.sum(axis=1))
        if x.needs_grad:
            gx = gt @ weight.data.transpose(0, 2, 1)  # (m, bwh, k)
            x.accumulate_grad(np.moveaxis(gx.reshape(m, b, w, h, k), 0, -1))

    return Tensor(np.ascontiguousarray(out), parents, rule)


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

    The patches are copied once, into the GEMM's (M, P, K) operand with
    P = B*Wo*Ho, and u stays in its (M, P, N, E) layout, so every sum over
    input channels reduces the leading axis. Returns the pre-activation
    capsules (B, Wo, Ho, E, N).
    """
    if padding not in _PADDINGS:
        raise ConfigurationError(f"unknown padding {padding!r}")
    if caps.data.ndim != 5 or weight.data.ndim != 3 or reference.data.ndim != 3:
        raise ConfigurationError(
            f"transform_route() expects rank-5 input, rank-3 weight and rank-3 "
            f"reference, got {caps.shape}, {weight.shape} and {reference.shape}"
        )
    kw, kh = ksize
    d, m = caps.shape[3:]
    k = kw * kh * d
    n, e = reference.shape[:2]
    if weight.shape != (m, k, n * e) or reference.shape[2] != m:
        raise ConfigurationError(
            f"transform_route() weight {weight.shape} and reference {reference.shape} do "
            f"not match {ksize} patches of {caps.shape}: need ({m}, {k}, N*E) and (N, E, {m})"
        )
    view, geom = _patch_view(caps.data, kw, kh, stride, padding)
    b, wo, ho = view.shape[:3]
    p = b * wo * ho
    xt = np.ascontiguousarray(np.moveaxis(view, -1, 0)).reshape(m, p, k)
    u = (xt @ weight.data).reshape(m, p, n, e)
    ref = reference.data.transpose(2, 0, 1)  # (m, n, e)
    logits = np.einsum("mpne,mne->mpn", u, ref)
    if not np.all(np.isfinite(logits)):
        raise ComputationError("transform_route() produced non-finite routing logits")
    a = np.exp(logits - logits.max(axis=0))
    a /= a.sum(axis=0)
    out = np.einsum("mpn,mpne->pne", a, u)

    def rule(node):
        g = np.ascontiguousarray(node.grad.reshape(p, e, n).transpose(0, 2, 1))
        # softmax backward: d logit = a * (d a - sum_m a * d a)
        ga = np.einsum("pne,mpne->mpn", g, u)
        gl = a * (ga - (a * ga).sum(axis=0))
        if reference.needs_grad:
            reference.accumulate_grad(np.einsum("mpn,mpne->nem", gl, u))
        # u feeds both the weighted sum and the logits
        gu = a[..., None] * g
        gu += gl[..., None] * ref[:, None]
        gu = gu.reshape(m, p, n * e)
        if weight.needs_grad:
            weight.accumulate_grad(xt.transpose(0, 2, 1) @ gu)
        if caps.needs_grad:
            gx = gu @ weight.data.transpose(0, 2, 1)  # (m, p, k)
            del gu  # not held through the copy and the scatter
            # the scatter runs faster from the patch layout than from a view
            # that reads m at a large stride
            gcols = np.ascontiguousarray(np.moveaxis(gx.reshape(m, b, wo, ho, kw, kh, d), 0, -1))
            del gx
            caps.accumulate_grad(_col2im(gcols, geom))

    pre = out.reshape(b, wo, ho, n, e).transpose(0, 1, 2, 4, 3)
    return Tensor(np.ascontiguousarray(pre), (caps, weight, reference), rule)


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
    mask = (rng.random(x.shape) < keep_prob).astype(x.dtype) / keep_prob

    def rule(node):
        x.accumulate_grad(node.grad * mask)

    return Tensor(x.data * mask, (x,), rule)
