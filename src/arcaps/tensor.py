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

The blocks of a walk may run on worker threads (``_walk``), one per CPU
that BLAS leaves idle: the usable CPUs over the BLAS threads that
OPENBLAS_NUM_THREADS (else OMP_NUM_THREADS) sets. With neither set, BLAS
already uses every CPU and the blocks run inline on the calling thread;
so does a walk of one block. A worker copies its block's patches, runs
its GEMMs, its op's block-local epilogue and its input-gradient scatter,
into buffers that the calling thread allocated, one set per worker. The
calling thread takes the blocks' results in block order and does every
step that depends on it (batchnorm's statistics, each weight, bias and
reference gradient), so outputs and gradients are the same bits however
many workers run. The pool starts with the first walk that uses it; a
forked child starts its own.

Values are float32 in normal operation. Creating leaves from float64
arrays switches the whole downstream graph to float64, which is how the
finite-difference gradient checks run (32-bit noise would drown the
h=1e-3 central differences).

Axis convention for capsule-valued tensors: (batch, width, height,
capsule-dim, channel).
"""

from __future__ import annotations

import math
import os
import threading

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

    def accumulate_grad(self, value, owned=False):
        """Add ``value`` to the gradient. The first gradient is copied, as
        rules pass their own gradient (or a view of it) on, unless the caller
        says ``owned``: ``value`` is a fresh array that nothing else holds,
        kept as it is when it has this node's shape and dtype."""
        if self._grad is None:
            if owned and value.shape == self.data.shape and value.dtype == self.data.dtype:
                self._grad = value
            else:
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


def _idle_cpus():
    """The CPUs that BLAS leaves idle, as worker threads for a blocked walk:
    the usable CPUs over the BLAS threads that the environment sets
    (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS), and at least 1. With
    neither set, BLAS spreads each GEMM over every CPU, so it is 1."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        blas = max(int(blas), 1)
    except (TypeError, ValueError):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max((cpus or 1) // blas, 1)


# worker threads of a blocked walk, and the pool that runs them: it starts
# with the first walk that has blocks for two workers
_WORKERS = _idle_cpus()
_pool = None


def _executor():
    """The walks' thread pool, started on first use."""
    global _pool
    if _pool is None:
        # imported here: at module load it would add to every start-up
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="arcaps-walk")
    return _pool


def _forget_pool():
    """In a forked child: the pool's threads stayed in the parent, so the
    child's first threaded walk starts a pool of its own."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _slots(blocks):
    """How many of ``blocks`` a walk runs at once, each with its own set of
    buffers: one per worker, and 1 (inline, no pool) for one worker or one
    block."""
    return min(_WORKERS, len(blocks))


def _walk(blocks, work, fold=None):
    """Run work(slot, lo, hi) for each (lo, hi) of ``blocks`` and hand what
    it returns to fold, when given, on the calling thread in block order.

    With one slot (see _slots) the blocks run inline. With more, each slot
    is one pool task that takes the next block in block order until none is
    left, so a slot runs one block at a time, in the buffers that the
    caller allocated for it before the walk. The tasks run at most
    2 * slots blocks ahead of the folds, and a fold may not read a slot's
    buffers: the slot may be running its next block. The folds keep the
    block order, so every sum that a fold takes keeps the order of the
    sequential walk, and its bits. ``work`` builds no node and touches no
    node state. If a block raises, no further block starts; the walk waits
    for the blocks still in flight and re-raises the error of the first
    failing block.
    """
    slots = _slots(blocks)
    if slots == 1:
        for lo, hi in blocks:
            part = work(0, lo, hi)
            if fold is not None:
                fold(part)
        return
    order, lock = iter(range(len(blocks))), threading.Lock()
    room = threading.Semaphore(2 * slots)  # blocks taken and not yet folded
    done = [threading.Event() for _ in blocks]
    results = [None] * len(blocks)
    stop = False

    def drain(slot):
        nonlocal stop
        while True:
            room.acquire()
            with lock:
                i = None if stop else next(order, None)
            if i is None:
                return
            try:
                results[i] = work(slot, *blocks[i]), None
            except BaseException as exc:
                results[i] = None, exc
                stop = True
            done[i].set()

    pool = _executor()
    tasks = [pool.submit(drain, slot) for slot in range(slots)]
    try:
        for i in range(len(blocks)):
            done[i].wait()
            part, exc = results[i]
            results[i] = None
            if exc is not None:
                raise exc
            if fold is not None:
                fold(part)
            room.release()
    finally:
        stop = True
        room.release(slots)  # a task that waits for room wakes and stops
        for task in tasks:
            task.exception()


def _head(buf, shape):
    """The first entries of the flat reused buffer ``buf`` as a contiguous
    array of ``shape``, laid out as a fresh array would be."""
    return buf[: math.prod(shape)].reshape(shape)


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
    block is zero-padded into a reused buffer, and its patches are copied
    channel first into a reused (M, rows, K) operand buffer, K = kw*kh*D,
    and multiplied by the (M, K, C) weight node, one GEMM per input channel
    m, plus the bias node (C values per input channel, or None). A
    (B, W, H, Cin) input reads as M = 1, with its (kw, kh, Cin, Cout) kernel
    as (1, kw*kh*Cin, Cout). Product rows are the flattened (B*Wo*Ho)
    positions, a block's rows contiguous, so neither a padded copy of the
    whole input nor its whole patch matrix ever exists.

    A block holds as many images as _image_blocks fits for their operand
    rows plus their product rows. The backward holds no operand: it
    extracts each block's again. ``parents`` are (x, weight[, bias]).

    Both directions are a _walk: when BLAS leaves CPUs idle, the blocks run
    on worker threads, each slot with its own set of the reused buffers,
    and the calling thread adds every sum over blocks in block order, so
    the bits do not depend on the worker count.
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

    def operand_buffers(self, slots):
        """Per slot, the reused buffers of operand(): the (M, rows, K)
        operand and, when the windows pad, the zero-bordered block."""
        dtype = self.x.data.dtype
        return [(np.empty((self.m, self.step, self.k), dtype=dtype),
                 np.zeros((self.blocks[0][1],) + self.padded, dtype=dtype) if self.pad else None)
                for _ in range(slots)]

    def operand(self, bufs, lo, hi):
        """The (M, rows, K) operand of images lo..hi in a slot's buffers
        ``bufs``, copied from the (M, hi - lo, Wo, Ho, kw, kh, D) patch view
        of the block (zero-padded first into the other buffer)."""
        buf, xp = bufs
        src = _5d(self.x.data)[lo:hi]
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
        return op

    def forward(self, each=None, fold=None, whole=True):
        """The product plus bias, block by block in a _walk: into its rows of
        a whole-batch (M, B*rows, C) array, which it returns, or (not
        ``whole``) into the slot's reused (M, rows, C) block buffer.
        each(slot, lo, hi, block) runs on the block's worker while the block
        is in cache, and ``fold`` takes what it returns."""
        slots = _slots(self.blocks)
        ops = self.operand_buffers(slots)
        rows = len(self.x.data) * self.rows if whole else self.step
        outs = [np.empty((self.m, rows, self.c), dtype=self.dtype)
                for _ in range(1 if whole else slots)]
        bias = None if self.bias is None else self.bias.data.reshape(self.m, 1, self.c)

        def work(slot, lo, hi):
            blk = outs[0][:, self.span(lo, hi)] if whole else outs[slot][:, self.span(0, hi - lo)]
            np.matmul(self.operand(ops[slot], lo, hi), self.w, out=blk)
            if bias is not None:
                blk += bias
            return None if each is None else each(slot, lo, hi, blk)

        _walk(self.blocks, work, fold)
        return outs[0] if whole else None

    def backward(self, grad, dtype, fold=None):
        """Accumulate the weight, bias and input gradients, block by block in
        a _walk, from grad(slot, lo, hi): the (M, rows, C) gradient, of
        ``dtype``, of a block's product, or with ``fold`` a pair (gradient,
        part) whose part ``fold`` takes.

        A block's worker extracts its operand again for its weight gradient
        and sums its bias gradient; the calling thread adds both to their
        nodes in block order. The worker multiplies the input gradient into
        the slot's operand buffer and scatter-adds it into the block's images
        of ``x.grad`` (taken before the walk), which no other block touches:
        one strided add per tap, through the slot's padded buffer when the
        windows pad.
        """
        x, weight, bias = self.x, self.weight, self.bias
        slots = _slots(self.blocks)
        ops = self.operand_buffers(slots) if weight.needs_grad else None
        bias_grad = bias is not None and bias.needs_grad
        gxd = _5d(x.grad) if x.needs_grad else None
        if gxd is not None:
            gx_dtype = np.result_type(dtype, self.w)
            # the patch gradient goes into the slot's operand buffer, which
            # the weight gradient has read by then, when the dtypes agree
            gbufs = ([buf for buf, _ in ops] if ops is not None and ops[0][0].dtype == gx_dtype
                     else [np.empty((self.m, self.step, self.k), dtype=gx_dtype)
                           for _ in range(slots)])
            gxps = [np.empty((self.blocks[0][1],) + self.padded, dtype=gx_dtype)
                    if self.pad else None for _ in range(slots)]
        st, (kw, kh) = self.stride, self.ksize
        span_w, span_h = st * (self.wo - 1) + 1, st * (self.ho - 1) + 1

        def work(slot, lo, hi):
            g, part = grad(slot, lo, hi) if fold is not None else (grad(slot, lo, hi), None)
            wg = None if ops is None else self.operand(ops[slot], lo, hi).transpose(0, 2, 1) @ g
            bg = g.sum(axis=1) if bias_grad else None
            if gxd is None:
                return wg, bg, part
            gx = gbufs[slot][:, self.span(0, hi - lo)]
            np.matmul(g, self.w.transpose(0, 2, 1), out=gx)
            gcols = np.moveaxis(gx.reshape(self.m, hi - lo, self.wo, self.ho, kw, kh, -1), 0, -1)
            if (kw, kh) != (1, 1):
                # the scatter runs faster from the patch layout than from
                # a view that reads m at a large stride
                gcols = np.ascontiguousarray(gcols)
            dst = gxd[lo:hi]
            acc = gxps[slot][: hi - lo] if self.pad else dst
            if self.pad:
                acc.fill(0)
            for i in range(kw):
                for j in range(kh):
                    acc[:, i:i + span_w:st, j:j + span_h:st] += gcols[:, :, :, i, j]
            if self.pad:
                dst += acc[self.inner]
            return wg, bg, part

        def take(parts):
            wg, bg, part = parts
            if wg is not None:
                # each block's product is a fresh array that nothing else
                # holds: the first becomes the weight's gradient uncopied
                weight.accumulate_grad(wg.reshape(weight.shape), owned=True)
            if bg is not None:
                bias.accumulate_grad(bg.reshape(bias.shape))
            if fold is not None:
                fold(part)

        _walk(self.blocks, work, take)


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
        gemm.backward(lambda slot, lo, hi: g[:, gemm.span(lo, hi)], node.dtype)

    return Tensor(out.reshape(x.shape[0], gemm.wo, gemm.ho, gemm.c), gemm.parents, rule)


def conv_bn_relu(x, kernel, gamma, beta, running_mean, running_var, train, eps=1e-5):
    """relu(batchnorm(conv2d(x, kernel, None, 1, "same"))) as one op, with
    the semantics of that reference composition (selftest.stem_composition).

    The convolution has no bias: the batchnorm would subtract it again, and
    beta is the shift. It runs block by block as in conv2d (a _WindowGemm).
    Train mode takes each block's mean and centred sum of squares while the
    block is in cache and folds them into the batch statistics in block
    order (Chan's parallel update), then writes out = max(z * s + t, 0) with
    s = gamma / sqrt(var + eps) and t = beta - mean * s. Infer mode applies
    the running statistics' s and t to each block in cache, the
    composition's arithmetic, so its outputs equal the composition's
    bitwise.

    With a graph, the node holds only its output and the conv output z; the
    rule rebuilds the normalized z block by block, takes the relu mask from
    out > 0, sums the blocks' gradient terms in block order and feeds each
    block's gradient of z straight into the conv backward. Returns (out,
    batch_mean, batch_var): the statistics are None in infer mode, and the
    caller updates the running statistics.
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
    slots = _slots(gemm.blocks)
    # without a graph the output overwrites the conv output z
    y = np.empty((n, c), dtype=gemm.dtype) if _graph(*parents) else None

    def scale_shift_relu(lo, hi, blk):
        out = blk if y is None else y[span(lo, hi)]
        np.multiply(blk, s, out=out)
        out += t
        np.maximum(out, 0, out=out)

    if train:
        seen, mu, m2 = 0, 0, 0
        centred = [np.empty(gemm.step * c, dtype=gemm.dtype) for _ in range(slots)]

        def moments(slot, lo, hi, blk):
            blk = blk[0]
            blk_mu = blk.mean(axis=0)
            d = np.subtract(blk, blk_mu, out=_head(centred[slot], blk.shape))
            return blk.shape[0], blk_mu, np.einsum("ij,ij->j", d, d)

        def fold(block_moments):
            nonlocal seen, mu, m2
            k, blk_mu, blk_m2 = block_moments
            delta = blk_mu - mu
            mu = mu + delta * (k / (seen + k))
            m2 = m2 + blk_m2 + delta * delta * (seen * k / (seen + k))
            seen += k

        z = gemm.forward(moments, fold)[0]
        var = m2 / n
        inv_std = 1.0 / np.sqrt(var + eps)
        s = gamma.data * inv_std
        t = beta.data - mu * s
        _walk(gemm.blocks, lambda slot, lo, hi: scale_shift_relu(lo, hi, z[span(lo, hi)]))
    else:
        mu = running_mean
        inv_std = 1.0 / np.sqrt(running_var + eps)
        s = gamma.data * inv_std
        t = beta.data - running_mean * s
        z = gemm.forward(lambda slot, lo, hi, blk: scale_shift_relu(lo, hi, blk[0]))[0]
    if y is None:
        y = z

    def rule(node):
        g = node.grad.reshape(n, c)
        size, xhat_dtype = gemm.step * c, np.result_type(z, mu, inv_std)
        bufs = [(np.empty(size, dtype=bool), np.empty(size, dtype=g.dtype),
                 np.empty(size, dtype=xhat_dtype)) for _ in range(slots)]

        def relu_grad(slot, lo, hi):
            """The block's g * (out > 0) and normalized z, in the slot's buffers."""
            rows, (mask, gy, xhat) = span(lo, hi), bufs[slot]
            shape = (rows.stop - rows.start, c)
            mask = np.greater(y[rows], 0, out=_head(mask, shape))
            gy = np.multiply(g[rows], mask, out=_head(gy, shape))
            xhat = np.subtract(z[rows], mu, out=_head(xhat, shape))
            xhat *= inv_std
            return gy, xhat

        def block_sums(slot, lo, hi):
            gy, xhat = relu_grad(slot, lo, hi)
            return gy.sum(axis=0), np.einsum("ij,ij->j", gy, xhat)

        sum_gy = np.zeros(c, dtype=z.dtype)
        sum_gy_xhat = np.zeros(c, dtype=z.dtype)

        def add_sums(sums):
            nonlocal sum_gy, sum_gy_xhat
            sum_gy += sums[0]
            sum_gy_xhat += sums[1]

        _walk(gemm.blocks, block_sums, add_sums)
        if gamma.needs_grad:
            gamma.accumulate_grad(sum_gy_xhat)
        if beta.needs_grad:
            beta.accumulate_grad(sum_gy)
        mean_gy, mean_gy_xhat = sum_gy / n, sum_gy_xhat / n

        def conv_grad(slot, lo, hi):
            gz, xhat = relu_grad(slot, lo, hi)
            if train:
                # closed-form gradient through the batch statistics
                gz -= mean_gy
                xhat *= mean_gy_xhat
                gz -= xhat
            gz *= s
            return gz[None]

        gemm.backward(conv_grad, node.dtype)

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

    def write(slot, lo, hi, blk):
        np.copyto(out[lo:hi], np.moveaxis(blk.reshape(m, hi - lo, w, h, e), 0, -1))

    gemm.forward(write, whole=False)

    def rule(node):
        gy = node.grad
        bufs = [np.empty(m * gemm.step * e, dtype=node.dtype) for _ in range(_slots(gemm.blocks))]

        def grad(slot, lo, hi):
            g = _head(bufs[slot], (m, hi - lo, w, h, e))
            np.copyto(g, np.moveaxis(gy[lo:hi], -1, 0))
            return g.reshape(m, -1, e)

        gemm.backward(grad, node.dtype)

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
    input channels reduces the leading axis; the logits and the weighted sum
    go through block-sized buffers, the latter into the block's rows of the
    output. With a graph the blocks fill the whole-batch u (M, P, N, E) and
    a (M, P, N), with P = B*Wo*Ho, which the rule keeps, because rebuilding
    u costs a GEMM; without one they reuse block-sized buffers, so the
    output is the only whole-batch array.

    The rule walks the same blocks. Per block it takes the softmax backward
    and the block's part of the reference gradient, which the calling thread
    adds in block order, and hands the GEMM's backward the gradient of u,
    gu = a*g + gl*reference (the weighted sum's term and the logits'), built
    into a block buffer.

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
    p, step, slots = b * gemm.rows, gemm.step, _slots(gemm.blocks)
    parents = gemm.parents + (reference,)
    graph = _graph(*parents)
    ref = reference.data.transpose(2, 0, 1)  # (m, n, e)
    routed = np.result_type(gemm.dtype, ref)
    a = np.empty((m, p, n), dtype=routed) if graph else None
    # einsum writes the (rows, N, E) weighted sum about 4x faster into a
    # contiguous buffer than into the output's transposed view
    bufs = [(np.empty(m * step * n, dtype=routed), np.empty((step, n, e), dtype=routed))
            for _ in range(slots)]
    out = np.empty((p, e, n), dtype=routed)

    def route(slot, lo, hi, bu):
        r = gemm.span(lo, hi)
        bu = bu.reshape(m, -1, n, e)
        logit_buf, wsum = bufs[slot]
        logits = np.einsum("mpne,mne->mpn", bu, ref, out=_head(logit_buf, (m, bu.shape[1], n)))
        if not np.all(np.isfinite(logits)):
            raise ComputationError("transform_route() produced non-finite routing logits")
        ba = logits if a is None else a[:, r]
        np.subtract(logits, logits.max(axis=0), out=ba)
        np.exp(ba, out=ba)
        ba /= ba.sum(axis=0)
        bsum = wsum[: bu.shape[1]]
        np.einsum("mpn,mpne->pne", ba, bu, out=bsum)
        np.copyto(out[r], bsum.transpose(0, 2, 1))

    u = gemm.forward(route, whole=graph)

    def rule(node):
        gout, uu = node.grad.reshape(p, e, n), u.reshape(m, -1, n, e)
        ref_grad = reference.needs_grad
        block_bufs = [[np.empty(size, dtype=routed)
                       for size in (step * n * e, m * step * n, m * step * n, m * step * n * e)]
                      for _ in range(slots)]

        def grad(slot, lo, hi):
            r = gemm.span(lo, hi)
            rows = r.stop - r.start
            g_buf, ga_buf, gl_buf, gu_buf = block_bufs[slot]
            g = _head(g_buf, (rows, n, e))
            np.copyto(g, gout[r].transpose(0, 2, 1))
            bu, ba = uu[:, r], a[:, r]
            # softmax backward: d logit = a * (d a - sum_m a * d a)
            ga = np.einsum("pne,mpne->mpn", g, bu, out=_head(ga_buf, (m, rows, n)))
            gl = np.multiply(ba, ga, out=_head(gl_buf, (m, rows, n)))
            ga -= gl.sum(axis=0)
            np.multiply(ba, ga, out=gl)
            part = np.einsum("mpn,mpne->nem", gl, bu) if ref_grad else None
            # u feeds both the weighted sum and the logits
            gu = np.multiply(ba[..., None], g, out=_head(gu_buf, (m, rows, n, e)))
            gu += gl[..., None] * ref[:, None]
            return gu.reshape(m, rows, n * e), part

        def add_ref_grad(part):
            if part is not None:
                reference.accumulate_grad(part)

        gemm.backward(grad, node.dtype, add_ref_grad)

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
