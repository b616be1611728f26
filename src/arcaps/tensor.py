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

The 14 ops are the ones the model builds: add, affine, relu, sigmoid,
square, sum_all, reshape, matmul, capsule_norm, dropout and the four
blocked ops below, conv2d, conv_bn_relu, capsule_activation and
transform_route. Each node is numbered as it is created, after its
parents, so creation order is a topological order: backward runs the
rules in reverse creation order.

Inside ``with no_grad():`` ops build no graph: a node made from parents
keeps neither them nor a backward rule, so inference frees each
intermediate array as soon as the next op has consumed it.

Every convolution of the model runs through one blocked GEMM over sliding
windows, ``_WindowGemm``: conv2d and conv_bn_relu (the stem and the
primary capsules), transform_route (the convolutional transform under
attention routing) and capsule_activation (a 1x1 affine per capsule
channel, then tanh). It alone knows the window geometry, checks the
padding, adds the bias and makes its gradient, and sizes the blocks: it
walks the batch in blocks of whole images whose operand and product rows
fit one budget, so no op builds a whole-batch patch matrix or padded
copy, and under no_grad the ops reuse block-sized buffers in place of the
whole-batch arrays only a backward rule would read. Its backward walks
the same blocks and extracts each block's operand again, so besides each
node's output a graph keeps only what backward reads and a GEMM would not
cheaply rebuild: conv_bn_relu's conv output z when its input needs a
gradient (stem0's z, over the image, is rebuilt per block with a GEMM of
K = 9). transform_route's rule rebuilds each block's u and routing
weights. Each op adds only its own epilogue and gradient step.

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
many workers run. One exception splits a walk of one block: a block that
grew to a weight larger than the block budget (fullycaps) runs its patch
copy, its GEMMs and its input-gradient scatter on the workers in groups
of input channels, each writing its own channel slices, while its epilogue
and gradient step stay on the calling thread; numpy runs one GEMM per
channel either way, so the bits do not move. The pool starts with the
first walk that uses it; a forked child starts its own.

Values are float32 in normal operation. Creating leaves from float64
arrays switches the whole downstream graph to float64, which is how the
finite-difference gradient checks run (32-bit noise would drown the
h=1e-3 central differences).

Axis convention for capsule-valued tensors: (batch, width, height,
capsule-dim, channel).
"""

from __future__ import annotations

import itertools
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

# creation numbers of the nodes: a node's parents have smaller ones
_creation = itertools.count()


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

    __slots__ = ("data", "_grad", "parents", "backward_rule", "needs_grad", "_created")

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
        self._created = next(_creation)

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
    """The nodes of the graph below ``root``, ``root`` included, in creation
    order, a topological order with ``root`` last.

    Raises ComputationError when a node's parent is not older than the
    node, the only shape a cycle can take; the public constructors cannot
    make one, but it would make backward() silently wrong.
    """
    seen, stack = {root}, [root]
    while stack:
        node = stack.pop()
        for parent in node.parents:
            if parent._created >= node._created:
                raise ComputationError("cycle detected in computation graph")
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return sorted(seen, key=lambda node: node._created)


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


def affine(x, scale, shift=None):
    """scale * x + shift for constants (not differentiated): python scalars
    or arrays broadcastable to ``x``, taken in its dtype. Without a shift it
    adds nothing."""
    scale = np.asarray(scale, dtype=x.dtype)
    out = x.data * scale
    if shift is not None:
        out += np.asarray(shift, dtype=x.dtype)

    def rule(node):
        x.accumulate_grad(node.grad * scale, owned=True)

    return Tensor(out, (x,), rule)


def relu(x):
    def rule(out):
        x.accumulate_grad(out.grad * (x.data > 0), owned=True)

    return Tensor(np.maximum(x.data, 0), (x,), rule)


def sigmoid(x):
    # computed via tanh for stability at large |x|
    y = 0.5 * (np.tanh(0.5 * x.data) + 1.0)

    def rule(out):
        x.accumulate_grad(out.grad * y * (1.0 - y), owned=True)

    return Tensor(y, (x,), rule)


def square(x):
    def rule(out):
        x.accumulate_grad(out.grad * (2.0 * x.data), owned=True)

    return Tensor(x.data * x.data, (x,), rule)


def sum_all(x):
    def rule(out):
        x.accumulate_grad(np.full_like(x.data, out.grad.reshape(-1)[0]), owned=True)

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
    out = np.matmul(x.data, w.data)
    if bias is not None:
        out += bias.data

    def rule(node):
        if x.needs_grad:
            x.accumulate_grad(np.matmul(node.grad, w.data.T), owned=True)
        if w.needs_grad:
            w.accumulate_grad(np.matmul(x.data.T, node.grad), owned=True)
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
        x.accumulate_grad(out.grad[:, None, :] * x.data / safe[:, None, :], owned=True)

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
    capsule_activation and transform_route: the one place that knows the
    window geometry, the padding, the bias and the block budget.

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
    extracts each block's again, for the weight gradient and for an op
    whose rule rebuilds the block's product from it with product(), the
    forward's own GEMM. ``parents`` are (x, weight[, bias]).

    Both directions are a _walk: when BLAS leaves CPUs idle, the blocks run
    on worker threads, each slot with its own set of the reused buffers,
    and the calling thread adds every sum over blocks in block order, so
    the bits do not depend on the worker count. A block's patch copy, its
    GEMMs and its input-gradient scatter each run over a range m0..m1 of
    input channels (by_channel): the whole range, except in a walk of one
    block whose weight exceeds BLOCK_BYTES, which runs one channel group
    per worker while its epilogue stays on the calling thread.
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
        # a walk of one block that grew to its weight runs on one thread:
        # its work splits into one channel group per worker instead
        groups = (min(_WORKERS, self.m)
                  if len(self.blocks) == 1 and weight.data.nbytes > BLOCK_BYTES else 1)
        self.groups = [(self.m * i // groups, self.m * (i + 1) // groups) for i in range(groups)]

    def span(self, lo, hi):
        """The product rows of images lo..hi (of a block, from its first)."""
        return slice(lo * self.rows, hi * self.rows)

    def by_channel(self, part):
        """Run part(m0, m1) over the input channels m0..m1 of each group:
        inline for one group, else as a _walk of one group per worker. Each
        group writes its own channel slices of buffers that the calling
        thread allocated; numpy's stacked matmul runs one GEMM per channel,
        so the bits do not depend on the grouping."""
        if len(self.groups) == 1:
            part(0, self.m)
        else:
            _walk(self.groups, lambda slot, m0, m1: part(m0, m1))

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
        of the block (zero-padded first into the other buffer), by channel
        group."""
        buf, xp = bufs
        src = _5d(self.x.data)[lo:hi]
        op = buf[:, self.span(0, hi - lo)]

        def part(m0, m1):
            block = src[..., m0:m1]
            if self.pad:
                xp[: hi - lo][self.inner][..., m0:m1] = block
                block = xp[: hi - lo, ..., m0:m1]
            s, st = block.strides, self.stride
            view = as_strided(block, shape=(m1 - m0, hi - lo, self.wo, self.ho, *self.ksize,
                                            block.shape[3]),
                              strides=(s[4], s[0], s[1] * st, s[2] * st, s[1], s[2], s[3]),
                              writeable=False)
            np.copyto(op[m0:m1].reshape(view.shape), view)

        self.by_channel(part)
        return op

    def product(self, op, out):
        """The product of a block's operand ``op`` with the weight, plus the
        bias, into ``out``, which it returns, by channel group: the
        forward's GEMM, which a rule that rebuilds a block's product calls
        for the same bits."""
        def part(m0, m1):
            np.matmul(op[m0:m1], self.w[m0:m1], out=out[m0:m1])
            if self.bias is not None:
                out[m0:m1] += self.bias.data.reshape(self.m, 1, self.c)[m0:m1]

        self.by_channel(part)
        return out

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

        def work(slot, lo, hi):
            blk = outs[0][:, self.span(lo, hi)] if whole else outs[slot][:, self.span(0, hi - lo)]
            self.product(self.operand(ops[slot], lo, hi), blk)
            return None if each is None else each(slot, lo, hi, blk)

        _walk(self.blocks, work, fold)
        return outs[0] if whole else None

    def backward(self, grad, dtype, fold=None, operand=False):
        """Accumulate the weight, bias and input gradients, block by block in
        a _walk, from grad(slot, lo, hi, op): the (M, rows, C) gradient, of
        ``dtype``, of a block's product, or with ``fold`` a pair (gradient,
        part) whose part ``fold`` takes. ``op`` is the block's operand when
        the walk extracts it, else None: it does when the weight needs a
        gradient or the op asks for it (``operand``), to rebuild the block's
        product from it.

        A block's worker extracts its operand again for its weight gradient
        and sums its bias gradient; the calling thread adds both to their
        nodes in block order. The worker multiplies the input gradient into
        the slot's operand buffer and scatter-adds it into the block's images
        of ``x.grad`` (taken before the walk), which no other block touches:
        one strided add per tap, through the slot's padded buffer when the
        windows pad. The weight gradient, the input-gradient GEMM, the copy
        of the patch gradient and the scatter run by channel group, into a
        (M, K, C) weight gradient that the block's thread allocates and the
        channel slices of the other buffers, so a split block's workers
        allocate nothing: the weight gradient becomes the weight's
        gradient uncopied.
        """
        x, weight, bias = self.x, self.weight, self.bias
        slots = _slots(self.blocks)
        ops = self.operand_buffers(slots) if weight.needs_grad or operand else None
        bias_grad = bias is not None and bias.needs_grad
        gxd = _5d(x.grad) if x.needs_grad else None
        st, (kw, kh) = self.stride, self.ksize
        span_w, span_h = st * (self.wo - 1) + 1, st * (self.ho - 1) + 1
        if gxd is not None:
            gx_dtype = np.result_type(dtype, self.w)
            # the patch gradient goes into the slot's operand buffer, which
            # grad and the weight gradient have read by then, when the
            # dtypes agree
            gbufs = ([buf for buf, _ in ops] if ops is not None and ops[0][0].dtype == gx_dtype
                     else [np.empty((self.m, self.step, self.k), dtype=gx_dtype)
                           for _ in range(slots)])
            gxps = [np.empty((self.blocks[0][1],) + self.padded, dtype=gx_dtype)
                    if self.pad else None for _ in range(slots)]
            # the scatter of several taps runs faster from the patch layout
            # than from a view that reads m at a large stride: with M > 1
            # the patch gradient is copied into it first
            dense = ([np.empty(self.m * self.step * self.k, dtype=gx_dtype) for _ in range(slots)]
                     if self.m > 1 and (kw, kh) != (1, 1) else None)

        def work(slot, lo, hi):
            op = None if ops is None else self.operand(ops[slot], lo, hi)
            g = grad(slot, lo, hi, op)
            g, part = g if fold is not None else (g, None)
            wg = (np.empty((self.m, self.k, self.c), dtype=np.result_type(op, g))
                  if weight.needs_grad else None)
            bg = g.sum(axis=1) if bias_grad else None
            if gxd is not None:
                gx = gbufs[slot][:, self.span(0, hi - lo)]
                gcols = np.moveaxis(gx.reshape(self.m, hi - lo, self.wo, self.ho, kw, kh, -1),
                                    0, -1)
                cols = gcols if dense is None else _head(dense[slot], gcols.shape)
                dst = gxd[lo:hi]
                acc = gxps[slot][: hi - lo] if self.pad else dst

            def channels(m0, m1):
                if wg is not None:
                    np.matmul(op[m0:m1].transpose(0, 2, 1), g[m0:m1], out=wg[m0:m1])
                if gxd is None:
                    return
                np.matmul(g[m0:m1], self.w[m0:m1].transpose(0, 2, 1), out=gx[m0:m1])
                src, into = cols[..., m0:m1], acc[..., m0:m1]
                if dense is not None:
                    np.copyto(src, gcols[..., m0:m1])
                if self.pad:
                    into.fill(0)
                for i in range(kw):
                    for j in range(kh):
                        into[:, i:i + span_w:st, j:j + span_h:st] += src[:, :, :, i, j]
                if self.pad:
                    dst[..., m0:m1] += into[self.inner]

            self.by_channel(channels)
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
        gemm.backward(lambda slot, lo, hi, op: g[:, gemm.span(lo, hi)], node.dtype)

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

    With a graph, the node holds its output and, when x needs a gradient,
    the conv output z. When x needs none (stem0, whose input is the image),
    the output overwrites z, as without a graph, and the rule rebuilds each
    block's z from the block's patches with the forward's GEMM
    (``product``) and so its bits: its statistics walk extracts them itself, and the conv
    backward's walk hands them over on request. The rule normalizes z
    block by block, takes the relu mask from out > 0, sums the blocks'
    gradient terms in block order and feeds each block's gradient of z
    straight into the conv backward. Returns (out, batch_mean, batch_var):
    the statistics are None in infer mode, and the caller updates the
    running statistics.
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
    # the output overwrites the conv output z unless the rule keeps z
    y = np.empty((n, c), dtype=gemm.dtype) if _graph(*parents) and x.needs_grad else None

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
        y, z = z, None

    def rule(node):
        g = node.grad.reshape(n, c)
        size, xhat_dtype = gemm.step * c, np.result_type(gemm.dtype, mu, inv_std)
        bufs = [(np.empty(size, dtype=bool), np.empty(size, dtype=g.dtype),
                 np.empty(size, dtype=xhat_dtype)) for _ in range(slots)]
        if z is None:
            ops = gemm.operand_buffers(slots)
            zbufs = [np.empty(size, dtype=gemm.dtype) for _ in range(slots)]

        def conv_out(slot, lo, hi, op):
            """The block's z: kept, or rebuilt from its operand ``op``."""
            if z is not None:
                return z[span(lo, hi)]
            return gemm.product(op, _head(zbufs[slot], (1, op.shape[1], c)))[0]

        def relu_grad(slot, lo, hi, op):
            """The block's g * (out > 0) and normalized z, in the slot's buffers."""
            rows, (mask, gy, xhat) = span(lo, hi), bufs[slot]
            shape = (rows.stop - rows.start, c)
            mask = np.greater(y[rows], 0, out=_head(mask, shape))
            gy = np.multiply(g[rows], mask, out=_head(gy, shape))
            xhat = np.subtract(conv_out(slot, lo, hi, op), mu, out=_head(xhat, shape))
            xhat *= inv_std
            return gy, xhat

        def block_sums(slot, lo, hi):
            op = None if z is not None else gemm.operand(ops[slot], lo, hi)
            gy, xhat = relu_grad(slot, lo, hi, op)
            return gy.sum(axis=0), np.einsum("ij,ij->j", gy, xhat)

        sum_gy = np.zeros(c, dtype=gemm.dtype)
        sum_gy_xhat = np.zeros(c, dtype=gemm.dtype)

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

        def conv_grad(slot, lo, hi, op):
            gz, xhat = relu_grad(slot, lo, hi, op)
            if train:
                # closed-form gradient through the batch statistics
                gz -= mean_gy
                xhat *= mean_gy_xhat
                gz -= xhat
            gz *= s
            return gz[None]

        gemm.backward(conv_grad, node.dtype, operand=z is None)

    out = Tensor(y.reshape(b, gemm.wo, gemm.ho, c), parents, rule)
    return (out, mu, var) if train else (out, None, None)


def capsule_activation(x, weight, bias):
    """The capsule activation: an independent affine map per capsule
    channel, then tanh, as one op.

    x: (B, W, H, D, M), weight: (M, D, E), bias: (M, E)
    out[..., e, m] = tanh(sum_d x[..., d, m] * weight[m, d, e] + bias[m, e])

    The affine map is the (1, 1) "valid" windows of a _WindowGemm. Each
    block's product plus bias goes through tanh in the slot's block buffer,
    on the block's worker, and then into its images of the output, so the
    output is the only whole-batch array. The node keeps only that output
    y: tanh's derivative is 1 - y*y, so the rule forms each block's
    g * (1 - y*y) in block buffers, copies it channel first and hands it to
    the GEMM's backward.
    """
    if x.data.ndim != 5 or weight.data.ndim != 3:
        raise ConfigurationError(
            f"capsule_activation() expects rank-5 input and rank-3 weight, "
            f"got {x.shape} and {weight.shape}"
        )
    b, w, h, d, m = x.shape
    if weight.shape[0] != m or weight.shape[1] != d:
        raise ConfigurationError(
            f"capsule_activation() weight {weight.shape} does not match input {x.shape}: "
            f"need ({m}, {d}, E)"
        )
    e = weight.shape[2]
    if bias.shape != (m, e):
        raise ConfigurationError(f"capsule_activation() bias shape {bias.shape} != ({m}, {e})")

    gemm = _WindowGemm(x, weight, bias, (1, 1), 1, "valid")
    out = np.empty((b, w, h, e, m), dtype=gemm.dtype)

    def write(slot, lo, hi, blk):
        np.tanh(blk, out=blk)
        np.copyto(out[lo:hi], np.moveaxis(blk.reshape(m, hi - lo, w, h, e), 0, -1))

    gemm.forward(write, whole=False)

    def rule(node):
        gy, y = node.grad, node.data
        size = m * gemm.step * e
        bufs = [(np.empty(size, dtype=node.dtype), np.empty(size, dtype=node.dtype))
                for _ in range(_slots(gemm.blocks))]

        def grad(slot, lo, hi, op):
            # contiguous passes over the block, then one copy channel first
            d_buf, g_buf = bufs[slot]
            d = np.multiply(y[lo:hi], y[lo:hi], out=_head(d_buf, y[lo:hi].shape))
            np.subtract(1.0, d, out=d)
            d *= gy[lo:hi]
            g = _head(g_buf, (m, hi - lo, w, h, e))
            np.copyto(g, np.moveaxis(d, -1, 0))
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
    input channels reduces the leading axis; u, the logits and the weighted
    sum go through block-sized buffers, the last into the block's rows of
    the output. A graph keeps only the output: no whole-batch u
    (M, P, N, E), P = B*Wo*Ho, and no routing weights a, which the rule
    rebuilds at the cost of one GEMM per block.

    The rule walks the same blocks. Per block it rebuilds u with the
    forward's GEMM (``product``) from the operand that the GEMM's backward extracts on
    request, and a from u with the forward's own ``weights``, so both have
    the forward's bits. It takes the softmax backward and the block's part
    of the reference gradient, which the calling thread adds in block
    order, and hands the GEMM's backward the gradient of u,
    gu = a*g + gl*reference (the weighted sum's term and the logits'), each
    term built in a block buffer of its own; u shares the buffer of
    gl*reference, which it no longer needs by then.

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
    ref = reference.data.transpose(2, 0, 1)  # (m, n, e)
    routed = np.result_type(gemm.dtype, ref)
    # einsum writes the (rows, N, E) weighted sum about 4x faster into a
    # contiguous buffer than into the output's transposed view
    bufs = [(np.empty(m * step * n, dtype=routed), np.empty((step, n, e), dtype=routed))
            for _ in range(slots)]
    out = np.empty((p, e, n), dtype=routed)

    def weights(bu, buf):
        """The routing weights a (M, rows, N) of a block's u (M, rows, N, E),
        in the block buffer ``buf``: softmax over m of the logits."""
        logits = np.einsum("mpne,mne->mpn", bu, ref, out=_head(buf, bu.shape[:3]))
        if not np.all(np.isfinite(logits)):
            raise ComputationError("transform_route() produced non-finite routing logits")
        np.subtract(logits, logits.max(axis=0), out=logits)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=0)
        return logits

    def route(slot, lo, hi, bu):
        bu = bu.reshape(m, -1, n, e)
        a_buf, wsum = bufs[slot]
        ba = weights(bu, a_buf)
        bsum = wsum[: bu.shape[1]]
        np.einsum("mpn,mpne->pne", ba, bu, out=bsum)
        np.copyto(out[gemm.span(lo, hi)], bsum.transpose(0, 2, 1))

    gemm.forward(route, whole=False)

    def rule(node):
        gout = node.grad.reshape(p, e, n)
        ref_grad = reference.needs_grad
        block_bufs = [[np.empty(size, dtype=routed)
                       for size in (step * n * e, m * step * n, m * step * n, m * step * n,
                                    m * step * n * e, m * step * n * e)]
                      for _ in range(slots)]

        def grad(slot, lo, hi, op):
            r = gemm.span(lo, hi)
            rows = r.stop - r.start
            g_buf, a_buf, ga_buf, gl_buf, gu_buf, gr_buf = block_bufs[slot]
            # u, in the buffer of gl*reference: matmul computes in u's
            # dtype, which the routed dtype holds exactly
            bu = gemm.product(op, _head(gr_buf, (m, rows, n * e))).reshape(m, rows, n, e)
            ba = weights(bu, a_buf)
            g = _head(g_buf, (rows, n, e))
            np.copyto(g, gout[r].transpose(0, 2, 1))
            # softmax backward: d logit = a * (d a - sum_m a * d a)
            ga = np.einsum("pne,mpne->mpn", g, bu, out=_head(ga_buf, (m, rows, n)))
            gl = np.multiply(ba, ga, out=_head(gl_buf, (m, rows, n)))
            ga -= gl.sum(axis=0)
            np.multiply(ba, ga, out=gl)
            part = np.einsum("mpn,mpne->nem", gl, bu) if ref_grad else None
            # u feeds both the weighted sum and the logits; its last read
            # is above, so gl*reference may overwrite it
            gu = np.multiply(ba[..., None], g, out=_head(gu_buf, (m, rows, n, e)))
            gu += np.multiply(gl[..., None], ref[:, None], out=_head(gr_buf, gu.shape))
            return gu.reshape(m, rows, n * e), part

        def add_ref_grad(part):
            if part is not None:
                reference.accumulate_grad(part)

        gemm.backward(grad, node.dtype, add_ref_grad, operand=True)

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
        x.accumulate_grad(gx, owned=True)

    out = x.data * keep
    out *= scale
    return Tensor(out, (x,), rule)
