"""Span recorder and the wrappers that feed it.

Everything here works from outside the ``arcaps`` package: it replaces
names in the package's modules (and attributes of single objects) with
timing wrappers and puts the originals back when the run ends. Nothing
under ``src/`` knows it is being measured.

A span is ``[name, start, end, parent, unit, pass, layer, value]`` with
perf_counter times in seconds. ``unit`` is the span index of the innermost
open unit of work (a train step, an eval batch or an align sample) and
``pass`` the index of the open pass (one public call over the workload's
input set); both are recorded when the span opens, so a metric "per step"
is a sum over the spans of the timed units divided by their number.
"""

from __future__ import annotations

import inspect
import json
import os
import time
import tracemalloc

import numpy as np

NAME, START, END, PARENT, UNIT, PASS, LAYER, VALUE = range(8)

# tensor ops reported by name; every other op of arcaps.tensor goes into "other"
NAMED_OPS = ("conv2d", "batchnorm", "relu", "im2col_capsules", "channel_affine",
             "channelwise_dot3d", "softmax_axis", "route_combine", "slice_axis0",
             "stack_last", "tanh", "dropout", "matmul")
LAYERS = ("stem0", "stem1", "primary", "convcaps0", "fullycaps", "decoder", "loss")
# functions of arcaps.tensor that build no node of their own
NOT_OPS = ("leaf", "topo_order", "backward")


class Recorder:
    """Spans kept in memory, plus node counters per unit of work."""

    def __init__(self):
        self.spans = []
        self.stack = []          # indices of open spans, innermost last
        self.layers = []         # names of open layer spans, innermost last
        self.unit = None         # index of the innermost open unit span
        self.pass_ = None
        self.units = []          # (span index, kind) in start order
        self.nodes = {}          # unit -> [node count, bytes created]

    def open(self, name, start=None, layer=None):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter() if start is None else start,
                           None, parent, self.unit, self.pass_, layer, None])
        self.stack.append(idx)
        return idx

    def close(self, idx, end=None):
        """Close span ``idx`` and any span left open above it."""
        end = time.perf_counter() if end is None else end
        while self.stack:
            top = self.stack.pop()
            self.spans[top][END] = end
            if self.spans[top][NAME].startswith("layers."):
                self.layers.pop()
            if top == self.unit:
                self.unit = self._outer_unit()
            if top == self.pass_:
                self.pass_ = None
            if top == idx:
                return
        raise RuntimeError(f"span {idx} was not open")

    def _outer_unit(self):
        for idx in reversed(self.stack):
            if self.spans[idx][NAME].startswith("unit."):
                return idx
        return None

    def begin_pass(self, warmup):
        self.pass_ = self.open("pass.warmup" if warmup else "pass.timed")
        return self.pass_

    def begin_unit(self, kind):
        """Close the open unit (the next one starts where it ends) and open one."""
        start = time.perf_counter()
        if self.unit is not None:
            self.close(self.unit, start)
        idx = self.open("unit." + kind, start)
        self.unit = idx
        self.units.append((idx, kind))
        self.nodes[idx] = [0, 0]
        return idx

    def drop_unit(self, idx):
        """Forget an empty unit (a batch iterator that turned out exhausted)."""
        self.close(idx)
        self.units = [u for u in self.units if u[0] != idx]

    def begin_layer(self, name):
        self.layers.append(name)
        return self.open("layers." + name, layer=name)

    def count_node(self, node):
        counts = self.nodes.get(self.unit)
        if counts is None:
            return
        data = node.data
        counts[0] += 1
        if not any(np.may_share_memory(data, p.data) for p in node.parents):
            counts[1] += data.nbytes

    def timed(self, name, fn):
        """``fn`` wrapped in a span called ``name``."""
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def duration(self, idx):
        span = self.spans[idx]
        return span[END] - span[START]

    def write(self, path):
        """Dump every span as a JSON line, with its self time."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None and span[END] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span[END] is None:
                    continue
                dur = span[END] - span[START]
                fh.write(json.dumps({
                    "id": i, "parent": span[PARENT], "name": span[NAME],
                    "start": span[START], "end": span[END],
                    "self": dur - child_time[i], "unit": span[UNIT],
                    "pass": span[PASS], "layer": span[LAYER], "value": span[VALUE],
                }) + "\n")


class Patcher:
    """Replace names of modules and classes; ``restore`` puts the originals back."""

    def __init__(self):
        self._saved = []

    def set(self, obj, name, value):
        self._saved.append((obj, name, vars(obj)[name]))
        setattr(obj, name, value)

    def restore(self):
        for obj, name, old in reversed(self._saved):
            setattr(obj, name, old)
        self._saved.clear()


class UnitBatches:
    """Iterator over ``batches(...)`` that makes each batch one unit.

    A unit runs from one ``next()`` call to the following one, so it holds
    the wait for the batch (augmentation included) and all the work the
    caller does on it.
    """

    def __init__(self, rec, inner, kind):
        self.rec = rec
        self.inner = inner
        self.kind = kind

    def __iter__(self):
        return self

    def __next__(self):
        rec = self.rec
        unit = rec.begin_unit(self.kind)
        wait = rec.open("data.batch_wait")
        try:
            item = next(self.inner)
        except StopIteration:
            rec.drop_unit(unit)
            raise
        rec.close(wait)
        return item


def patch_batches(rec, patcher, train_mod):
    """Units from the ``batches`` name that ``arcaps.train`` looks up.

    Batches drawn with a shuffle seed are train steps; the rest (those of
    ``evaluate``) are eval batches.
    """
    original = train_mod.batches

    def batches(dataset, batch_size, shuffle_seed=None, policy=None):
        kind = "eval_batch" if shuffle_seed is None else "train_step"
        return UnitBatches(rec, original(dataset, batch_size, shuffle_seed, policy), kind)

    patcher.set(train_mod, "batches", batches)


def patch_samples(rec, patcher, analysis_mod, first_family, traced):
    """Units from ``difference_vectors``: each sample starts with its first family."""
    original = analysis_mod.difference_vectors
    inner = rec.timed("analysis.difference_vectors", original) if traced else original

    def difference_vectors(model, image, family, label=None):
        if family == first_family:
            rec.begin_unit("align_sample")
        return inner(model, image, family, label)

    patcher.set(analysis_mod, "difference_vectors", difference_vectors)


def layer_objects(model):
    """(name, object) of every network layer, named by its ParameterStore prefix."""
    prefix = {id(t): n.split(".")[0] for n, t in model.store.items()}
    out = []
    for obj in [*model.stem, model.primary, *model.caps_layers, model.fully, model.decoder]:
        held = [v for value in vars(obj).values()
                for v in (value if isinstance(value, list) else [value])]
        prefixes = {prefix[id(v)] for v in held if id(v) in prefix}
        if len(prefixes) != 1:
            raise RuntimeError(f"cannot name layer {type(obj).__name__}: {prefixes}")
        out.append((prefixes.pop(), obj))
    return out


def instrument_model(rec, model):
    """Per-instance wrappers: one layer span per network layer, one for the
    loss, and one for ``ParameterStore.zero_grads``.

    Wrapping instances, not classes, keeps ``FullyConvCaps.forward`` (which
    reaches ``ConvCaps.forward`` through ``super()``) out of ``convcaps0``.
    The wrappers die with the model, so nothing restores them.
    """
    for name, obj in layer_objects(model):
        obj.forward = _layer(rec, name, obj.forward)
    model.loss = _layer(rec, "loss", model.loss)
    model.store.zero_grads = rec.timed("optim.zero_grads", model.store.zero_grads)


def _layer(rec, name, fn):
    def wrapper(*args, **kwargs):
        idx = rec.begin_layer(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
    return wrapper


def _op(rec, name, fn):
    """Time an op's forward, and its backward by wrapping the node's rule."""
    span = "tensor." + name
    bwd = span + ".bwd"

    def op(*args, **kwargs):
        layer = rec.layers[-1] if rec.layers else None
        idx = rec.open(span, layer=layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        node = out[0] if isinstance(out, tuple) else out
        rule = node.backward_rule
        if rule is not None:
            def timed_rule(n):
                i = rec.open(bwd, layer=layer)
                try:
                    rule(n)
                finally:
                    rec.close(i)
            node.backward_rule = timed_rule
        return out
    return op


def tensor_ops(tensor_mod):
    """Names of the graph-building functions of ``arcaps.tensor``."""
    return [name for name, fn in vars(tensor_mod).items()
            if inspect.isfunction(fn) and fn.__module__ == tensor_mod.__name__
            and not name.startswith("_") and name not in NOT_OPS]


def install_tracing(rec, patcher, arcaps_mods):
    """Every module-level wrapper of the traced run.

    Each name is patched in the module that looks it up: ``train.py`` binds
    ``rmsprop_step`` and ``evaluate`` itself, and ``analysis.py`` binds
    ``rotate_image`` and ``translate_image``.
    """
    tensor = arcaps_mods["tensor"]
    for name in tensor_ops(tensor):
        patcher.set(tensor, name, _op(rec, name, getattr(tensor, name)))
    patcher.set(tensor, "backward", rec.timed("tensor.backward", tensor.backward))
    patcher.set(tensor, "topo_order", rec.timed("tensor.topo_order", tensor.topo_order))

    init = tensor.Tensor.__init__

    def counted_init(node, *args, **kwargs):
        init(node, *args, **kwargs)
        rec.count_node(node)

    patcher.set(tensor.Tensor, "__init__", counted_init)

    train = arcaps_mods["train"]
    patcher.set(train, "rmsprop_step", rec.timed("optim.rmsprop_step", train.rmsprop_step))
    patcher.set(train, "evaluate", rec.timed("train.val", train.evaluate))

    for mod in (arcaps_mods["data"], arcaps_mods["analysis"]):
        for name in ("rotate_image", "translate_image"):
            patcher.set(mod, name, rec.timed("data.transform", getattr(mod, name)))

    ckpt = arcaps_mods["checkpoint"]
    save = ckpt.save

    def timed_save(path, metadata_text, arrays):
        idx = rec.open("checkpoint.save")
        try:
            save(path, metadata_text, arrays)
        finally:
            rec.close(idx)
        rec.spans[idx][VALUE] = os.path.getsize(path)

    patcher.set(ckpt, "save", timed_save)
    patcher.set(ckpt, "load", rec.timed("checkpoint.load", ckpt.load))

    analysis = arcaps_mods["analysis"]
    for name in ("align_vector", "relative_ratios"):
        patcher.set(analysis, name, rec.timed("analysis." + name, getattr(analysis, name)))


class PeakMemory:
    """tracemalloc peak over one block (numpy reports its buffers to it)."""

    def __init__(self):
        self.peak_mb = None

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        return False


def per_layer_metrics(rec, unit_kind, peak_traced_mb):
    """Every per-layer metric, from the spans of the timed passes.

    ``_ms`` values and counts are per unit of ``unit_kind`` (per train
    step, eval batch or align sample) except the checkpoint ones (per
    save or load) and ``train.val_ms`` (per pass). A layer that does not
    run on the workload reads 0.
    """
    spans = rec.spans
    timed_passes = {i for i, s in enumerate(spans) if s[NAME] == "pass.timed"}
    units = [i for i, kind in rec.units
             if kind == unit_kind and spans[i][PASS] in timed_passes]
    unit_set = set(units)
    n_units = max(len(units), 1)
    n_passes = max(len(timed_passes), 1)

    per_unit = {}
    calls = {}
    saves = []
    loads = []
    val = 0.0
    child_layer_time = {}
    for s in spans:
        name = s[NAME]
        if name == "checkpoint.load":
            loads.append(s[END] - s[START])
            continue
        if s[PASS] not in timed_passes:
            continue
        dur = s[END] - s[START]
        if name == "checkpoint.save":
            saves.append((dur, s[VALUE]))
        elif name == "train.val":
            val += dur
        if s[UNIT] not in unit_set:
            continue
        if name.startswith("tensor.") and name not in ("tensor.backward", "tensor.topo_order"):
            op, _, phase = name[len("tensor."):].partition(".")
            op = op if op in NAMED_OPS else "other"
            key = f"tensor.{op}.{phase or 'fwd'}"
            per_unit[key] = per_unit.get(key, 0.0) + dur
            if not phase:
                calls[op] = calls.get(op, 0) + 1
            if phase == "bwd" and s[LAYER] is not None:
                key = f"layers.{s[LAYER]}.bwd"
                per_unit[key] = per_unit.get(key, 0.0) + dur
            continue
        if name.startswith("layers."):
            per_unit[name + ".fwd"] = per_unit.get(name + ".fwd", 0.0) + dur
            outer = _enclosing_layer(spans, s[PARENT])
            if outer is not None:
                child_layer_time[outer] = child_layer_time.get(outer, 0.0) + dur
            continue
        per_unit[name] = per_unit.get(name, 0.0) + dur
    for outer, dur in child_layer_time.items():
        per_unit[spans[outer][NAME] + ".fwd"] -= dur

    def ms(key):
        return per_unit.get(key, 0.0) * 1e3 / n_units

    out = {}
    for op in (*NAMED_OPS, "other"):
        out[f"tensor.{op}.fwd_ms"] = (ms(f"tensor.{op}.fwd"), "ms")
        out[f"tensor.{op}.bwd_ms"] = (ms(f"tensor.{op}.bwd"), "ms")
        out[f"tensor.{op}.calls"] = (calls.get(op, 0) / n_units, "count")
    out["tensor.backward_ms"] = (ms("tensor.backward"), "ms")
    out["tensor.topo_order_ms"] = (ms("tensor.topo_order"), "ms")
    nodes = [rec.nodes[u] for u in units]
    out["tensor.nodes"] = (sum(c for c, _ in nodes) / n_units, "count")
    out["tensor.node_mb"] = (sum(b for _, b in nodes) / n_units / 2**20, "MB")
    out["tensor.peak_traced_mb"] = (peak_traced_mb, "MB")
    for layer in LAYERS:
        out[f"layers.{layer}.fwd_ms"] = (ms(f"layers.{layer}.fwd"), "ms")
        out[f"layers.{layer}.bwd_ms"] = (ms(f"layers.{layer}.bwd"), "ms")
    out["optim.rmsprop_step_ms"] = (ms("optim.rmsprop_step"), "ms")
    out["optim.zero_grads_ms"] = (ms("optim.zero_grads"), "ms")
    out["data.batch_wait_ms"] = (ms("data.batch_wait"), "ms")
    out["data.transform_ms"] = (ms("data.transform"), "ms")
    out["checkpoint.save_ms"] = (_mean([d for d, _ in saves]) * 1e3, "ms")
    out["checkpoint.mb"] = (_mean([b for _, b in saves]) / 2**20, "MB")
    out["checkpoint.load_ms"] = (_mean(loads) * 1e3, "ms")
    out["train.step_ms"] = (_mean([rec.duration(u) for u in units]) * 1e3
                            if unit_kind == "train_step" else 0.0, "ms")
    out["train.val_ms"] = (val * 1e3 / n_passes, "ms")
    for name in ("difference_vectors", "align_vector", "relative_ratios"):
        out[f"analysis.{name}_ms"] = (ms(f"analysis.{name}"), "ms")
    return out


def _enclosing_layer(spans, idx):
    while idx is not None:
        if spans[idx][NAME].startswith("layers."):
            return idx
        idx = spans[idx][PARENT]
    return None


def _mean(values):
    return sum(values) / len(values) if values else 0.0
