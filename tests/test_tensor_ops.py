"""Forward semantics of the autodiff primitives against oracles and trivia."""

import contextlib
import hashlib
import itertools
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from arcaps import reference, tensor as T
from arcaps.analysis import alignment_experiment
from arcaps.config import RunConfig
from arcaps.data import Dataset
from arcaps.errors import ComputationError, ConfigurationError
from arcaps.model import ArCapsNet
from arcaps.optim import RmspropState, rmsprop_step
from arcaps.selftest import (batchnorm, oracle_banks, routing_weights, stem_composition,
                             stem_oracle_gap, stem_probe)
from conftest import blocks_of_two, routing_logits, saved_arrays


CONV_ORACLE_CASES = [
    (3, 1, "same", 1), (3, 2, "same", 1), (3, 1, "valid", 1),
    (1, 1, "same", 1), (5, 1, "valid", 1), (5, 2, "same", 1),
    # five images in blocks of two: the block loop and a ragged last block
    (3, 1, "same", 5), (3, 2, "same", 5), (3, 1, "valid", 5), (3, 2, "valid", 5),
]


class TestConv2d:
    def test_zero_input_gives_zero_output(self, rng):
        x = T.leaf(np.zeros((1, 3, 3, 1), dtype=np.float32))
        k = T.leaf(rng.standard_normal((3, 3, 1, 2)).astype(np.float32))
        b = T.leaf(np.zeros(2, dtype=np.float32))
        out = T.conv2d(x, k, b, 1, "same")
        assert np.all(out.data == 0)

    def test_identity_kernel_reproduces_input(self, rng):
        x = rng.random((2, 6, 6, 1)).astype(np.float32)
        k = np.zeros((3, 3, 1, 1), dtype=np.float32)
        k[1, 1, 0, 0] = 1.0
        out = T.conv2d(T.leaf(x), T.leaf(k), None, 1, "same")
        assert np.allclose(out.data, x, atol=0)

    @pytest.mark.parametrize("k,stride,padding,batch", CONV_ORACLE_CASES, ids=[
        f"{k}-{stride}-{padding}" + (f"-b{batch}" if batch > 1 else "")
        for k, stride, padding, batch in CONV_ORACLE_CASES])
    def test_matches_loop_oracle(self, rng, monkeypatch, k, stride, padding, batch):
        x = rng.standard_normal((batch, 5, 5, 2))
        kern = rng.standard_normal((k, k, 2, 3))
        bias = rng.standard_normal(3)
        blocks_of_two(monkeypatch)
        fast = T.conv2d(T.leaf(x), T.leaf(kern), T.leaf(bias), stride, padding).data
        slow = reference.conv2d_loops(x, kern, bias, stride, padding)
        assert np.max(np.abs(fast - slow)) < 1e-6

    def test_forward_and_backward_hold_no_patch_matrix(self, rng):
        # 5x5 taps over 16 channels: one image's patches are 25x its input
        w, k, cin, cout = 32, 5, 16, 4
        per_image = w * w * k * k * cin * 4
        batch = -(-8 * T.BLOCK_BYTES // per_image) + 1
        patch_matrix = batch * per_image  # at least 8 block budgets
        x = T.leaf(rng.standard_normal((batch, w, w, cin)).astype(np.float32), needs_grad=True)
        kern = T.leaf(rng.standard_normal((k, k, cin, cout)).astype(np.float32), needs_grad=True)
        bias = T.leaf(np.zeros(cout, dtype=np.float32), needs_grad=True)
        marker = rng.standard_normal((batch, w, w, cout)).astype(np.float32)
        tracemalloc.start()
        try:
            T.backward(T.sum_all(T.affine(T.conv2d(x, kern, bias, 1, "same"), marker)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape and np.any(kern.grad != 0)
        assert peak < patch_matrix, (peak, patch_matrix)

    def test_output_extents(self):
        x = T.leaf(np.zeros((1, 28, 28, 1), dtype=np.float32))
        k = T.leaf(np.zeros((3, 3, 1, 4), dtype=np.float32))
        assert T.conv2d(x, k, None, 2, "same").shape == (1, 14, 14, 4)
        assert T.conv2d(x, k, None, 1, "same").shape == (1, 28, 28, 4)
        assert T.conv2d(x, k, None, 1, "valid").shape == (1, 26, 26, 4)

    def test_unknown_padding_rejected(self):
        x = T.leaf(np.zeros((1, 4, 4, 2)))
        k = T.leaf(np.zeros((3, 3, 2, 4)))
        with pytest.raises(ConfigurationError, match="unknown padding 'full'"):
            T.conv2d(x, k, None, 1, "full")

    def test_channel_mismatch_names_both_shapes(self):
        x = T.leaf(np.zeros((1, 4, 4, 3), dtype=np.float32))
        k = T.leaf(np.zeros((3, 3, 2, 4), dtype=np.float32))
        with pytest.raises(ConfigurationError) as err:
            T.conv2d(x, k)
        assert "(1, 4, 4, 3)" in str(err.value) and "(3, 3, 2, 4)" in str(err.value)


class TestChannelwiseDot:
    """The routing logits inside transform_route."""

    def test_all_ones_reference_sums_dims(self, rng):
        x = rng.standard_normal((2, 3, 3, 4, 3))
        out = routing_logits(x, np.ones((4, 3)))
        assert np.allclose(out, x.sum(axis=3), atol=1e-6)

    def test_unit_self_inner_product(self):
        ref = np.zeros((4, 3))
        ref[:, 1] = np.array([0.5, 0.5, 0.5, 0.5])  # unit norm column
        x = np.zeros((1, 2, 2, 4, 3))
        x[..., 1] = ref[:, 1]
        out = routing_logits(x, ref)
        assert np.allclose(out[..., 1], 1.0, atol=1e-6)

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((1, 2, 2, 4, 3))
        ref = rng.standard_normal((4, 3))
        fast = routing_logits(x, ref)
        slow = reference.channelwise_dot3d_loops(x, ref)
        assert np.max(np.abs(fast - slow)) < 1e-6

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            routing_logits(np.zeros((1, 2, 2, 4, 3)), np.zeros((5, 3)))


class TestTransformRoute:
    def test_shape_mismatch_rejected(self):
        caps = T.leaf(np.zeros((1, 2, 2, 4, 3)))
        with pytest.raises(ConfigurationError):
            T.transform_route(caps, T.leaf(np.zeros((3, 4, 6))), T.leaf(np.zeros((2, 3, 2))),
                              (1, 1), 1, "valid")
        with pytest.raises(ConfigurationError):
            T.transform_route(caps, T.leaf(np.zeros((3, 5, 6))), T.leaf(np.zeros((2, 3, 3))),
                              (1, 1), 1, "valid")
        with pytest.raises(ConfigurationError):
            T.transform_route(caps, T.leaf(np.zeros((3, 4, 8))), T.leaf(np.zeros((2, 3, 3))),
                              (1, 1), 1, "valid")

    def test_unknown_padding_and_rank_4_input_rejected(self):
        w, ref = T.leaf(np.zeros((3, 36, 6))), T.leaf(np.zeros((2, 3, 3)))
        with pytest.raises(ConfigurationError, match="unknown padding 'full'"):
            T.transform_route(T.leaf(np.zeros((1, 4, 4, 4, 3))), w, ref, (3, 3), 1, "full")
        with pytest.raises(ConfigurationError, match="rank-5 input"):
            T.transform_route(T.leaf(np.zeros((1, 4, 4, 12))), w, ref, (3, 3), 1, "same")

    def test_float32_stays_float32(self, rng):
        caps = T.leaf(rng.standard_normal((2, 3, 3, 4, 3)).astype(np.float32), needs_grad=True)
        w = T.leaf(rng.standard_normal((3, 36, 6)).astype(np.float32), needs_grad=True)
        ref = T.leaf(rng.standard_normal((2, 3, 3)).astype(np.float32), needs_grad=True)
        out = T.transform_route(caps, w, ref, (3, 3), 2, "same")
        T.backward(T.sum_all(out))
        assert out.dtype == np.float32
        assert all(t.grad.dtype == np.float32 for t in (caps, w, ref))


def _forward(graph, op, *arrays):
    """op's output data over leaves of ``arrays``: built with a graph (the
    leaves need gradients) or under no_grad."""
    leaves = [T.leaf(a, needs_grad=graph) for a in arrays]
    with contextlib.ExitStack() as stack:
        if not graph:
            stack.enter_context(T.no_grad())
        return op(*leaves).data


BLOCKED_ROUTE_CASES = [(geometry, graph)
                       for geometry in (((3, 3), 1, "same"), ((3, 3), 2, "same"),
                                        ((5, 5), 1, "valid"))
                       for graph in (True, False)]


def _input_gradient_case(case, rng):
    """(x, op) of a test_input_gradient_adds_to_an_existing_one case: five
    images and the op as a function of its input node."""
    if case.startswith("conv2d"):
        stride, padding = (2, "same") if case == "conv2d-stride2-same" else (1, "valid")
        kern = T.leaf(rng.standard_normal((3, 3, 2, 3)))
        return (rng.standard_normal((5, 5, 5, 2)),
                lambda x: T.conv2d(x, kern, None, stride, padding))
    if case == "capsule_activation":
        weight = T.leaf(rng.standard_normal((3, 4, 5)))
        bias = T.leaf(rng.standard_normal((3, 5)))
        return (rng.standard_normal((5, 3, 2, 4, 3)),
                lambda x: T.capsule_activation(x, weight, bias))
    # 3x3 "valid" windows over 3x3 capsules: one position per image
    weight = T.leaf(rng.standard_normal((3, 9 * 2, 2 * 4)) * 0.3)
    ref = T.leaf(rng.standard_normal((2, 4, 3)))
    return (rng.standard_normal((5, 3, 3, 2, 3)),
            lambda x: T.transform_route(x, weight, ref, (3, 3), 1, "valid"))


class TestBlockedOps:
    """conv2d, transform_route and capsule_activation walk five images in
    blocks of two, the last one ragged."""

    @pytest.mark.parametrize("case", ["conv2d-stride2-same", "conv2d-stride1-valid",
                                      "capsule_activation", "transform_route-whole-extent-valid"])
    def test_input_gradient_adds_to_an_existing_one(self, rng, monkeypatch, case):
        # x feeds the op and square: both gradients add up, whether the op's
        # patch gradient goes through the padded scatter buffer ("same") or
        # straight into x's gradient (unpadded windows, overlapping in the
        # stride-1 "valid" conv)
        x, op = _input_gradient_case(case, rng)
        marker = rng.standard_normal(op(T.leaf(x)).shape)
        walked = blocks_of_two(monkeypatch)

        def x_grad(*terms):
            xt = T.leaf(x, needs_grad=True)
            losses = [T.sum_all(T.affine(op(xt), marker)) if term == "op" else
                      T.sum_all(T.square(xt)) for term in terms]
            T.backward(T.add(*losses) if len(losses) == 2 else losses[0])
            return xt.grad

        op_only = x_grad("op")
        assert walked == [[(0, 2), (2, 4), (4, 5)]]
        for terms in (("op", "square"), ("square", "op")):
            assert np.allclose(x_grad(*terms), op_only + 2 * x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("geometry,graph", BLOCKED_ROUTE_CASES, ids=[
        f"{g[0][0]}x{g[0][1]}-{g[1]}-{g[2]}-{'graph' if graph else 'no-grad'}"
        for g, graph in BLOCKED_ROUTE_CASES])
    def test_transform_route_blocks(self, rng, monkeypatch, geometry, graph):
        ksize, stride, padding = geometry
        caps = rng.standard_normal((5, 5, 5, 3, 3))
        weight = rng.standard_normal((3, ksize[0] * ksize[1] * 3, 2 * 4)) * 0.3
        ref = rng.standard_normal((2, 4, 3))

        def route(*ts):
            return T.transform_route(*ts, ksize, stride, padding)

        one_block = _forward(False, route, caps, weight, ref)
        walked = blocks_of_two(monkeypatch)
        blocked = _forward(graph, route, caps, weight, ref)
        assert walked == [[(0, 2), (2, 4), (4, 5)]]
        if padding == "valid":
            # one position per image: numpy hands the GEMM of the ragged
            # one-row block to BLAS as a matrix-vector product, which sums
            # in another order
            assert np.allclose(blocked, one_block, rtol=1e-14, atol=1e-15)
            assert np.array_equal(blocked[:4], one_block[:4])
        else:
            assert np.array_equal(blocked, one_block)
        stacks = reference.conv_transform_loops(caps, oracle_banks(weight, ksize, 4),
                                                stride, padding)
        slow = reference.attention_route_loops(stacks, ref)
        assert np.max(np.abs(blocked - slow)) < 1e-6

    @pytest.mark.parametrize("graph", [True, False], ids=["graph", "no-grad"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_capsule_activation_blocks(self, rng, monkeypatch, graph, dtype):
        x = rng.standard_normal((5, 3, 2, 4, 3)).astype(dtype)
        weight = rng.standard_normal((3, 4, 5)).astype(dtype)
        bias = rng.standard_normal((3, 5)).astype(dtype)
        one_block = _forward(False, T.capsule_activation, x, weight, bias)
        walked = blocks_of_two(monkeypatch)
        blocked = _forward(graph, T.capsule_activation, x, weight, bias)
        assert walked == [[(0, 2), (2, 4), (4, 5)]]
        assert blocked.dtype == dtype
        assert np.array_equal(blocked, one_block)
        slow = reference.capsule_activation_loops(x, weight, bias)
        assert np.max(np.abs(blocked - slow)) < 1e-6

    def test_transform_route_without_graph_holds_no_whole_batch_u(self, rng):
        # 3x3 "same" over 8x8 capsules of 8 channels, routed to 8 channels
        # of 16: u = (M, P, N*E) spans at least 8 block budgets
        w, d, m, n, e = 8, 8, 8, 8, 16
        u_per_image = w * w * m * n * e * 4
        batch = -(-8 * T.BLOCK_BYTES // u_per_image) + 1
        caps = T.leaf(rng.standard_normal((batch, w, w, d, m)).astype(np.float32))
        weight = T.leaf(rng.standard_normal((m, 9 * d, n * e)).astype(np.float32) * 0.1)
        ref = T.leaf(rng.standard_normal((n, e, m)).astype(np.float32))
        tracemalloc.start()
        try:
            with T.no_grad():
                out = T.transform_route(caps, weight, ref, (3, 3), 1, "same")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (batch, w, w, e, n)
        assert peak < batch * u_per_image, (peak, batch * u_per_image)

    def test_capsule_activation_without_graph_holds_one_output(self, rng):
        # an output of at least 4 block budgets; the block buffers add at
        # most about one budget
        w, k, m, e = 8, 16, 8, 16
        out_per_image = w * w * e * m * 4
        batch = -(-4 * T.BLOCK_BYTES // out_per_image) + 1
        x = T.leaf(rng.standard_normal((batch, w, w, k, m)).astype(np.float32))
        weight = T.leaf(rng.standard_normal((m, k, e)).astype(np.float32))
        bias = T.leaf(rng.standard_normal((m, e)).astype(np.float32))
        tracemalloc.start()
        try:
            with T.no_grad():
                out = T.capsule_activation(x, weight, bias)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.data.nbytes, (peak, out.data.nbytes)

    def test_transform_route_graph_holds_no_patch_operand(self, rng):
        # 3x3 "same" over 8x8 capsules of 8 channels: the (M, P, K) patch
        # operand, like the patch gradient, spans at least 5 block budgets
        w, d, m, n, e = 8, 8, 8, 4, 8
        k = 9 * d
        batch = -(-8 * T.BLOCK_BYTES // (w * w * m * (k + n * e) * 4)) + 1
        patches = batch * w * w * m * k * 4
        caps = T.leaf(rng.standard_normal((batch, w, w, d, m)).astype(np.float32), True)
        weight = T.leaf(rng.standard_normal((m, k, n * e)).astype(np.float32) * 0.1, True)
        ref = T.leaf(rng.standard_normal((n, e, m)).astype(np.float32), True)
        marker = rng.standard_normal((batch, w, w, e, n)).astype(np.float32)
        tracemalloc.start()
        try:
            out = T.transform_route(caps, weight, ref, (3, 3), 1, "same")
            kept = tracemalloc.get_traced_memory()[0]
            loss = T.sum_all(T.affine(out, marker))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the node keeps its output, u and a, and no patch operand
        u_and_a = batch * w * w * m * (n * e + n) * 4
        assert kept < out.data.nbytes + u_and_a + T.BLOCK_BYTES, (kept, patches)
        assert np.any(caps.grad != 0) and np.any(weight.grad != 0)
        assert peak - held < patches, (peak - held, patches)

    def test_transform_route_graph_holds_no_u(self, rng):
        # 3x3 "same" over 8x8 capsules of 8 channels, routed to 8 channels
        # of 16: u = (M, P, N*E) spans at least 8 block budgets and is
        # larger than the weight; the rule rebuilds each block's u and
        # routing weights, so the node keeps only its output
        w, d, m, n, e = 8, 8, 8, 8, 16
        u_per_image = w * w * m * n * e * 4
        batch = -(-8 * T.BLOCK_BYTES // u_per_image) + 1
        caps = T.leaf(rng.standard_normal((batch, w, w, d, m)).astype(np.float32), True)
        weight = T.leaf(rng.standard_normal((m, 9 * d, n * e)).astype(np.float32) * 0.1, True)
        ref = T.leaf(rng.standard_normal((n, e, m)).astype(np.float32), True)
        tracemalloc.start()
        try:
            out = T.transform_route(caps, weight, ref, (3, 3), 1, "same")
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.parents == (caps, weight, ref)
        assert kept < out.data.nbytes + T.BLOCK_BYTES, (kept, out.data.nbytes)

    def test_capsule_activation_graph_holds_one_output(self, rng):
        # an output of at least 8 block budgets: the node keeps it and
        # neither the affine map's output before tanh nor a channel-first
        # copy of the input
        w, k, m, e = 8, 16, 8, 16
        batch = -(-8 * T.BLOCK_BYTES // (w * w * e * m * 4)) + 1
        x = T.leaf(rng.standard_normal((batch, w, w, k, m)).astype(np.float32), True)
        weight = T.leaf(rng.standard_normal((m, k, e)).astype(np.float32), True)
        bias = T.leaf(rng.standard_normal((m, e)).astype(np.float32), True)
        tracemalloc.start()
        try:
            out = T.capsule_activation(x, weight, bias)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.parents == (x, weight, bias)
        assert kept < out.data.nbytes + T.BLOCK_BYTES, (kept, out.data.nbytes)

    def test_stem0_blocks_count_operand_and_product_rows(self, monkeypatch):
        # stem0's shape, 100 28x28x1 images through a 3x3 conv to 64
        # channels in float32: a block holds as many images as fit their
        # 784 rows of 9 operand and 64 product values
        walked = []
        image_blocks = T._image_blocks

        def recording(batch, bytes_per_image, weight_bytes=0):
            walked.append(image_blocks(batch, bytes_per_image, weight_bytes))
            return walked[-1]

        monkeypatch.setattr(T, "_image_blocks", recording)
        x = T.leaf(np.zeros((100, 28, 28, 1), dtype=np.float32))
        kernel = T.leaf(np.zeros((3, 3, 1, 64), dtype=np.float32))
        bias, gamma, beta = (T.leaf(np.full(64, v, dtype=np.float32)) for v in (0, 1, 0))
        T.conv2d(x, kernel, bias, 1, "same")
        T.conv_bn_relu(x, kernel, gamma, beta, None, None, True)
        step = T.BLOCK_BYTES // (784 * (9 + 64) * 4)
        assert step == 9
        assert walked == 2 * [[(lo, min(lo + step, 100)) for lo in range(0, 100, step)]]

    @pytest.mark.parametrize("batch,per_image,weight_bytes,step", [
        (10, T.BLOCK_BYTES // 4, 0, 4), (10, T.BLOCK_BYTES // 4, T.BLOCK_BYTES // 2, 4),
        (10, T.BLOCK_BYTES // 4, 2 * T.BLOCK_BYTES, 8),
        (10, T.BLOCK_BYTES // 4, 64 * T.BLOCK_BYTES, 10),
        (3, 4 * T.BLOCK_BYTES, 2 * T.BLOCK_BYTES, 1)],
        ids=["no-weight", "smaller-weight", "larger-weight", "weight-beyond-the-batch",
             "image-larger-than-the-weight"])
    def test_image_blocks_grow_to_a_larger_weight(self, batch, per_image, weight_bytes, step):
        # a block holds as many images as fit in BLOCK_BYTES, or in the
        # weight's bytes when the weight is larger, and at least one
        blocks = T._image_blocks(batch, per_image, weight_bytes)
        assert blocks == [(lo, min(lo + step, batch)) for lo in range(0, batch, step)]


class TestSoftmax:
    """The softmax over input channels inside transform_route."""

    def test_equal_logits_uniform(self):
        out = routing_weights(np.zeros((2, 1, 1, 8)))
        assert np.allclose(out, 0.125, atol=1e-7)

    def test_extreme_logits_stable(self):
        out = routing_weights(np.array([[[[1000.0, 0.0]]]]))[0, 0, 0]
        assert np.isfinite(out).all()
        assert abs(out[0] - 1.0) < 1e-30
        assert out[1] < 1e-30

    def test_hand_computed_values(self):
        out = routing_weights(np.array([[[[1.0, 2.0, 3.0]]]]))[0, 0, 0]
        assert np.allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-4)

    def test_sums_to_one_and_shift_invariant(self, rng):
        for _ in range(5):
            x = rng.standard_normal((3, 1, 1, 7)) * 5
            a = routing_weights(x)
            b = routing_weights(x + 13.7)
            assert np.allclose(a.sum(axis=-1), 1.0, atol=1e-6)
            assert np.all(a > 0) and np.all(a < 1)
            assert np.allclose(a, b, atol=1e-6)

    def test_nonfinite_rejected(self):
        with pytest.raises(ComputationError), np.errstate(invalid="ignore"):
            routing_weights(np.array([[[[np.inf, 1.0]]]]))


def _tanh(values):
    """tanh of a 1-D array through the capsule activation: each value is
    a capsule of one dimension, mapped by the identity with no shift."""
    caps = T.leaf(values.reshape(-1, 1, 1, 1, 1))
    one, zero = T.leaf(np.ones((1, 1, 1))), T.leaf(np.zeros((1, 1)))
    return T.capsule_activation(caps, one, zero).data.reshape(-1)


class TestElementwise:
    def test_tanh_relu_basics(self):
        assert _tanh(np.zeros(1))[0] == 0.0
        assert T.relu(T.leaf(np.array([-1.0]))).data[0] == 0.0

    def test_tanh_stays_inside_unit_interval(self, rng):
        # strictly interior at representable magnitudes; beyond ~19 the
        # float64 value rounds to exactly 1, never past it
        x = rng.standard_normal(1000) * 3
        y = _tanh(x)
        assert np.all(y > -1) and np.all(y < 1)
        extreme = _tanh(np.array([-1e6, 1e6]))
        assert np.all(np.abs(extreme) <= 1.0)

    def test_add_requires_identical_shapes(self):
        with pytest.raises(ConfigurationError):
            T.add(T.leaf(np.zeros((2, 3))), T.leaf(np.zeros((3, 2))))


class TestMatmul:
    def test_bias_row_added_to_every_product_row(self, rng):
        x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)
        out = T.matmul(T.leaf(x), T.leaf(w), T.leaf(b)).data
        assert np.array_equal(out, x @ w + b)

    @pytest.mark.parametrize("shape", [(3,), (1, 2), (2, 1)])
    def test_bias_must_be_one_value_per_output_column(self, shape):
        x, w = T.leaf(np.zeros((3, 4))), T.leaf(np.zeros((4, 2)))
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"matmul() bias shape {shape} != (2,)")):
            T.matmul(x, w, T.leaf(np.zeros(shape)))


class TestBatchnorm:
    def test_idempotent_on_normalized_batch(self, rng):
        x = rng.standard_normal((64, 4))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out, _, _ = batchnorm(T.leaf(x), T.leaf(np.ones(4)), T.leaf(np.zeros(4)),
                              None, None, True)
        assert np.allclose(out.data, x, atol=1e-3)

    def test_zero_gamma_gives_constant_beta(self, rng):
        x = rng.standard_normal((8, 3, 3, 2))
        out, _, _ = batchnorm(T.leaf(x), T.leaf(np.zeros(2)),
                              T.leaf(np.full(2, 5.0)), None, None, True)
        assert np.allclose(out.data, 5.0, atol=0)

    def test_train_mode_normalizes(self, rng):
        for _ in range(3):
            x = rng.standard_normal((32, 4, 4, 3)) * 3 + 1.5
            out, mu, var = batchnorm(T.leaf(x), T.leaf(np.ones(3)),
                                     T.leaf(np.zeros(3)), None, None, True)
            got = out.data.reshape(-1, 3)
            assert np.allclose(got.mean(axis=0), 0.0, atol=1e-5)
            assert np.allclose(got.var(axis=0), 1.0, atol=1e-3)
            assert np.allclose(mu, x.reshape(-1, 3).mean(axis=0), atol=1e-7)

    def test_infer_uses_running_stats(self, rng):
        x = rng.standard_normal((4, 2))
        out, mu, var = batchnorm(T.leaf(x), T.leaf(np.ones(2)), T.leaf(np.zeros(2)),
                                 np.zeros(2), np.ones(2), False)
        assert mu is None and var is None
        assert np.allclose(out.data, x / np.sqrt(1 + 1e-5), atol=1e-7)


STEM_ORACLE_CASES = [(train, blocks, x_grad) for train in (True, False)
                     for blocks in (1, 3) for x_grad in (True, False)]


class TestConvBnRelu:
    @pytest.mark.parametrize("train,blocks,x_grad", STEM_ORACLE_CASES, ids=[
        f"{'train' if train else 'infer'}-{blocks}block{'s' if blocks > 1 else ''}"
        f"{'' if x_grad else '-no-x-grad'}" for train, blocks, x_grad in STEM_ORACLE_CASES])
    def test_matches_composition(self, monkeypatch, train, blocks, x_grad):
        # output, batch statistics and the gradients of x, kernel, gamma
        # and beta against conv2d -> batchnorm -> relu, in float64
        arrays, stats = stem_probe(np.random.default_rng(40), (5, 6, 5, 3), 4, train)
        if blocks > 1:  # five images in blocks of two, the last one ragged
            blocks_of_two(monkeypatch)
        assert stem_oracle_gap(arrays, stats, train, x_grad) < 1e-12

    @pytest.mark.parametrize("graph", [True, False])
    def test_infer_forward_is_the_composition_bitwise(self, rng, monkeypatch, graph):
        arrays, stats = stem_probe(rng, (5, 6, 6, 3), 4, False)
        arrays = [a.astype(np.float32) for a in arrays]
        stats = [a.astype(np.float32) for a in stats]
        blocks_of_two(monkeypatch)
        leaves = [T.leaf(a, needs_grad=graph) for a in arrays]
        with contextlib.ExitStack() as stack:
            if not graph:
                stack.enter_context(T.no_grad())
            fused = T.conv_bn_relu(*leaves, *stats, False)[0].data
            composed = stem_composition(*leaves, *stats, False)[0].data
        assert fused.dtype == np.float32
        assert np.array_equal(fused, composed)

    def test_train_statistics_of_many_blocks(self, rng, monkeypatch):
        # a small spread far from zero, over blocks of different means: a
        # variance taken as E[z^2] - mean^2 would lose every digit here
        x = 1e6 + 1e-3 * (rng.standard_normal((6, 4, 4, 1)) + np.arange(6)[:, None, None, None])
        kernel = np.zeros((3, 3, 1, 1))
        kernel[1, 1] = 1.0
        blocks_of_two(monkeypatch)
        ones = T.leaf(np.ones(1))
        _, mean, var = T.conv_bn_relu(T.leaf(x), T.leaf(kernel), ones,
                                      T.leaf(np.zeros(1)), None, None, True)
        assert np.allclose(mean, x.mean(), rtol=1e-12, atol=0)
        assert np.allclose(var, x.var(), rtol=1e-6, atol=0)

    @pytest.mark.parametrize("train", [True, False], ids=["train", "infer"])
    def test_graph_on_an_input_without_gradient_holds_one_output(self, rng, train):
        # stem0's case: the output overwrites the conv output z, which the
        # rule rebuilds from the input; with an input that needs a gradient
        # the node keeps z as well
        x = rng.standard_normal((4, 24, 24, 8)).astype(np.float32)
        kernel = T.leaf(rng.standard_normal((3, 3, 8, 16)).astype(np.float32), True)
        gamma, beta = (T.leaf(np.full(16, v, dtype=np.float32), True) for v in (1, 0))
        stats = (np.zeros(16, dtype=np.float32), np.ones(16, dtype=np.float32))
        held = {}
        for x_grad in (False, True):
            xt = T.leaf(x, x_grad)
            tracemalloc.start()
            try:
                out = T.conv_bn_relu(xt, kernel, gamma, beta, *stats, train)[0]
                held[x_grad] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert out.needs_grad
        size = out.data.nbytes  # one (B*W*H, C) array
        assert held[False] < 1.5 * size < held[True], (held, size)

    def test_parameter_mismatch_rejected(self):
        x = T.leaf(np.zeros((1, 4, 4, 2)))
        k = T.leaf(np.zeros((3, 3, 2, 3)))
        with pytest.raises(ConfigurationError, match="conv_bn_relu"):
            T.conv_bn_relu(x, k, T.leaf(np.ones(2)), T.leaf(np.zeros(3)),
                           None, None, True)
        with pytest.raises(ConfigurationError, match="channel mismatch"):
            T.conv_bn_relu(x, T.leaf(np.zeros((3, 3, 1, 3))), T.leaf(np.ones(3)),
                           T.leaf(np.zeros(3)), None, None, True)


class TestDropout:
    def test_keep_prob_one_is_identity(self, rng):
        x = rng.standard_normal((5, 5))
        for train in (True, False):
            xt = T.leaf(x)
            out = T.dropout(xt, 1.0, train, rng)
            assert out is xt
            assert np.array_equal(out.data, x)

    def test_infer_mode_is_identity(self, rng):
        x = rng.standard_normal((5, 5))
        xt = T.leaf(x)
        out = T.dropout(xt, 0.3, False)
        assert out is xt
        assert np.array_equal(out.data, x)

    def test_survivor_statistics(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.5, 1.5, size=10**6)
        out = T.dropout(T.leaf(x), 0.5, True, np.random.default_rng(1)).data
        survivors = np.count_nonzero(out) / x.size
        assert abs(survivors - 0.5) < 0.01
        assert abs(out.mean() - x.mean()) / x.mean() < 0.01

    def test_rule_holds_a_boolean_mask(self, rng):
        x = T.leaf(rng.standard_normal((4, 5)).astype(np.float32), needs_grad=True)
        out = T.dropout(x, 0.6, True, np.random.default_rng(2))
        assert [a.dtype for a in saved_arrays(out)] == [np.bool_]

    def test_backward_hands_its_gradient_over(self, rng):
        # the rule's g * mask * scale is a fresh array: it becomes x's first
        # gradient as it is, with no second gradient-sized copy
        x = T.leaf(rng.standard_normal(1 << 18).astype(np.float32), needs_grad=True)
        out = T.dropout(x, 0.5, True, np.random.default_rng(3))
        g = rng.standard_normal(x.shape).astype(np.float32)
        out.accumulate_grad(g)
        tracemalloc.start()
        try:
            out.backward_rule(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.data.nbytes, (peak, x.data.nbytes)
        assert np.array_equal(x.grad, np.where(out.data != 0, g * np.float32(2), 0))

    def test_invalid_keep_prob(self):
        with pytest.raises(ConfigurationError):
            T.dropout(T.leaf(np.zeros(3)), 0.0, True, np.random.default_rng(0))


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        p = T.leaf(rng.standard_normal((3, 4)), needs_grad=True)
        T.backward(T.sum_all(p))
        assert np.array_equal(p.grad, np.ones((3, 4)))

    def test_scalar_loss_required(self, rng):
        p = T.leaf(rng.standard_normal(3), needs_grad=True)
        with pytest.raises(ConfigurationError):
            T.backward(T.affine(p, 2.0))

    def test_repeat_after_reset_is_deterministic(self, rng):
        pv = rng.standard_normal((4, 4))

        def one_pass():
            p = T.leaf(pv, needs_grad=True)
            loss = T.sum_all(T.square(T.sigmoid(p)))
            T.backward(loss)
            return p.grad.copy()

        g1, g2 = one_pass(), one_pass()
        assert np.array_equal(g1, g2)

    def test_second_backward_of_one_loss_raises(self, rng):
        p = T.leaf(rng.standard_normal(4), needs_grad=True)
        loss = T.sum_all(p)
        T.backward(loss)
        with pytest.raises(ConfigurationError, match="freed"):
            T.backward(loss)

    def test_second_loss_through_a_freed_node_raises(self, rng):
        p = T.leaf(rng.standard_normal(4), needs_grad=True)
        h = T.sigmoid(p)
        T.backward(T.sum_all(h))
        with pytest.raises(ConfigurationError, match="freed"):
            T.backward(T.sum_all(T.square(h)))

    def test_leaf_gradients_accumulate_across_graphs(self, rng):
        p = T.leaf(rng.standard_normal(4), needs_grad=True)
        T.backward(T.sum_all(p))
        T.backward(T.sum_all(p))
        assert np.array_equal(p.grad, np.full(4, 2.0))

    def test_unheld_interior_node_is_freed(self, rng):
        q = T.leaf(rng.standard_normal((4, 5)), needs_grad=True)
        mid = T.sigmoid(q)
        mid_data = weakref.ref(mid.data)
        loss = T.sum_all(T.square(mid))
        del mid
        T.backward(loss)
        assert mid_data() is None

    def test_backward_peak_stays_near_forward_storage(self):
        n = 1 << 18
        size = n * 8  # bytes of one float64 value (and of its gradient)
        tracemalloc.start()
        try:
            h = p = T.leaf(np.linspace(-1.0, 1.0, n), needs_grad=True)
            for op in (T.sigmoid, T.square, T.sigmoid, T.relu,
                       T.sigmoid, T.square, T.sigmoid, T.sigmoid):
                h = op(h)
            loss = T.sum_all(h)
            del h
            forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # kept gradients would add one value's size per node of the chain
        assert peak < forward + 4 * size, (peak, forward)
        assert p.grad.shape == (n,)

    def test_topo_order_is_creation_order(self, rng):
        # the root's first parent is its newer branch, which a depth-first
        # walk would list before the older one
        a = T.leaf(rng.standard_normal(3), needs_grad=True)
        b = T.sigmoid(a)
        c = T.square(a)
        root = T.add(c, b)
        assert T.topo_order(root) == [a, b, c, root]

    def test_parent_newer_than_its_node_raises(self, rng):
        # creation order is a topological order only while every parent is
        # older than its node; a cycle breaks that too
        old = T.leaf(rng.standard_normal(3), needs_grad=True)
        new = T.sigmoid(T.leaf(rng.standard_normal(3), needs_grad=True))
        old.parents = (new,)
        with pytest.raises(ComputationError, match="cycle"):
            T.topo_order(T.sum_all(old))
        new.parents = (old,)
        with pytest.raises(ComputationError, match="cycle"):
            T.backward(T.sum_all(new))

    def test_rank_limit_enforced(self):
        with pytest.raises(ConfigurationError):
            T.leaf(np.zeros((1, 1, 1, 1, 1, 1)))


class TestReshapeStackSlice:
    def test_reshape_round_trip_gradient(self, rng):
        p = T.leaf(rng.standard_normal((2, 6)), needs_grad=True)
        out = T.reshape(p, (3, 4))
        T.backward(T.sum_all(T.square(out)))
        assert p.grad.shape == (2, 6)
        assert np.allclose(p.grad, 2 * p.data, atol=1e-7)


class TestAccumulateGrad:
    def test_add_parents_get_their_own_gradients(self, rng):
        a = T.leaf(rng.standard_normal((3, 4)), needs_grad=True)
        b = T.leaf(rng.standard_normal((3, 4)), needs_grad=True)
        out = T.add(a, b)
        T.backward(T.sum_all(T.affine(out, rng.standard_normal((3, 4)))))
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, out.grad)
        assert not np.shares_memory(b.grad, out.grad)
        assert np.array_equal(a.grad, out.grad) and np.array_equal(b.grad, out.grad)

    def test_reshape_first_gradient_is_a_copy(self, rng):
        p = T.leaf(rng.standard_normal((2, 6)), needs_grad=True)
        out = T.reshape(p, (3, 4))
        T.backward(T.sum_all(T.affine(out, rng.standard_normal((3, 4)))))
        assert not np.shares_memory(p.grad, out.grad)
        assert np.array_equal(p.grad, out.grad.reshape(2, 6))

    def test_first_gradient_cast_to_node_dtype(self):
        p = T.leaf(np.zeros(3, dtype=np.float32), needs_grad=True)
        value = np.full(3, 1.0 / 3.0)
        p.accumulate_grad(value)
        assert p.grad.dtype == np.float32
        assert np.array_equal(p.grad, value.astype(np.float32))
        p.accumulate_grad(value)
        assert p.grad.dtype == np.float32
        value[:] = 0.0  # the stored gradient does not alias the argument
        assert np.all(p.grad > 0)


class TestNoGrad:
    def test_nodes_keep_no_parents_and_no_rule(self, rng):
        p = T.leaf(rng.standard_normal((3, 4)), needs_grad=True)
        with T.no_grad():
            hidden = T.sigmoid(T.square(p))
            out = T.sum_all(hidden)
        for node in (hidden, out):
            assert node.parents == ()
            assert node.backward_rule is None
            assert not node.needs_grad
        want = 0.5 * (np.tanh(0.5 * (p.data * p.data)) + 1.0)
        assert np.array_equal(out.data, want.sum().reshape(()))

    def test_leaves_keep_needs_grad(self, rng):
        with T.no_grad():
            p = T.leaf(rng.standard_normal(3), needs_grad=True)
            c = T.leaf(rng.standard_normal(3))
        assert p.needs_grad and not c.needs_grad
        T.backward(T.sum_all(T.square(p)))
        assert np.allclose(p.grad, 2 * p.data, atol=1e-12)

    def test_mode_restored_after_exception(self, rng):
        p = T.leaf(rng.standard_normal(3), needs_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with T.no_grad():
                raise RuntimeError("inside")
        out = T.sigmoid(p)
        assert out.parents == (p,) and out.needs_grad

    def test_nesting_restores_the_outer_mode(self, rng):
        p = T.leaf(rng.standard_normal(3), needs_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert T.sigmoid(p).parents == ()
            assert T.sigmoid(p).parents == ()
        assert T.sigmoid(p).parents == (p,)
        mode = T.no_grad()
        with mode:
            with mode:
                assert T.sigmoid(p).parents == ()
            assert T.sigmoid(p).parents == ()
        assert T.sigmoid(p).parents == (p,)

    def test_backward_rejects_a_loss_built_without_graph(self, rng):
        p = T.leaf(rng.standard_normal(3), needs_grad=True)
        with T.no_grad():
            loss = T.sum_all(T.square(p))
        with pytest.raises(ConfigurationError, match="needs_grad"):
            T.backward(loss)
        assert p._grad is None

    def test_backward_rejects_a_loss_of_constants(self, rng):
        loss = T.sum_all(T.leaf(rng.standard_normal(3)))
        with pytest.raises(ConfigurationError, match="needs_grad"):
            T.backward(loss)


def _tiny_model_arrays(config):
    """A tiny model's train step on five images (loss, capsules, every
    gradient, the BN running statistics), its no_grad forward and one align
    sample, as a list of arrays. Its walks include capsule_activation's and
    stem0's conv_bn_relu, whose rule rebuilds z from the image."""
    net = ArCapsNet(config, seed=0)
    images = np.random.default_rng(1).random((5, 8, 8, 1), dtype=np.float32)
    labels = np.array([0, 1, 2, 0, 1])
    total, _, _, result = net.loss(images, labels, train=True, rng=np.random.default_rng(2))
    T.backward(total)
    arrays = [total.data, result.capsules.data]
    arrays += [t.grad for _, t in net.store.trainable_items()]
    arrays += [t.data for name, t in net.store.items() if ".bn.running_" in name]
    with T.no_grad():
        arrays.append(net.capsule_forward(images).data)
    report = alignment_experiment(net, Dataset(images, labels, config.classes), 1)
    arrays += [r.ratios for r in report.records] + [r.align for r in report.records]
    return arrays


def _conv_case(rng):
    """Five 6x6 images of two channels and a 3x3 kernel to four channels."""
    return rng.standard_normal((5, 6, 6, 2)), rng.standard_normal((3, 3, 2, 4))


class TestThreadedWalk:
    """With more than one worker, _WindowGemm's blocks run on a thread pool
    and the calling thread folds their results in block order."""

    def test_threaded_walk_equals_inline_walk_bitwise(self, monkeypatch, tiny_config):
        walked = blocks_of_two(monkeypatch)
        runs = []
        for workers in (2, 1):
            monkeypatch.setattr(T, "_WORKERS", workers)
            runs.append(_tiny_model_arrays(tiny_config))
        assert [(0, 2), (2, 4), (4, 5)] in walked
        assert len(runs[0]) == len(runs[1])
        for threaded, inline in zip(*runs):
            assert threaded.dtype == inline.dtype and threaded.shape == inline.shape
            assert threaded.tobytes() == inline.tobytes()

    def test_blocks_run_on_two_worker_threads(self, rng, monkeypatch):
        blocks_of_two(monkeypatch)
        monkeypatch.setattr(T, "_WORKERS", 2)
        threads = []
        operand = T._WindowGemm.operand

        def recording(gemm, bufs, lo, hi):
            threads.append(threading.get_ident())
            time.sleep(0.05)  # the next block starts on the other worker meanwhile
            return operand(gemm, bufs, lo, hi)

        monkeypatch.setattr(T._WindowGemm, "operand", recording)
        x, kernel = (T.leaf(a, True) for a in _conv_case(rng))
        T.backward(T.sum_all(T.square(T.conv2d(x, kernel))))
        assert len(threads) == 6  # three blocks forward, three for the kernel gradient
        assert len(set(threads)) == 2 and threading.get_ident() not in threads

    def test_error_in_a_block_leaves_no_block_running(self, monkeypatch):
        monkeypatch.setattr(T, "_WORKERS", 2)
        lock, running, finished = threading.Lock(), [], []

        def work(slot, lo, hi):
            with lock:
                running.append(lo)
            try:
                time.sleep(0.05 if lo == 0 else 0.3)
                if lo == 0:
                    raise ComputationError("block 0 failed")
            finally:
                with lock:
                    running.remove(lo)
                    finished.append(lo)

        start = time.monotonic()
        with pytest.raises(ComputationError, match="^block 0 failed$"):
            T._walk([(0, 1), (1, 2), (2, 3), (3, 4)], work, lambda part: None)
        # block 1 was in flight and ran to its end; blocks 2 and 3 never started
        assert running == [] and sorted(finished) == [0, 1]
        assert time.monotonic() - start > 0.3

    def test_walk_under_stress_runs_each_block_once_and_folds_in_order(self, monkeypatch):
        # more workers than cores and a short switch interval: a lost update
        # of the shared block order would run a block twice or skip one
        monkeypatch.setattr(T, "_WORKERS", 8)
        monkeypatch.setattr(T, "_pool", None)  # a pool of 8 for this test alone
        blocks = [(i, i + 1) for i in range(400)]
        lock, runs, folded = threading.Lock(), [0] * len(blocks), []

        def work(slot, lo, hi):
            with lock:
                runs[lo] += 1
            return lo, float(np.sum(np.arange(50.0) * lo))

        interval = sys.getswitchinterval()
        walker = threading.Thread(target=T._walk, args=(blocks, work, folded.append))
        try:
            sys.setswitchinterval(1e-6)
            walker.start()
            walker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            if T._pool is not None:
                T._pool.shutdown(wait=False)
        assert not walker.is_alive()
        assert runs == [1] * len(blocks)
        assert [lo for lo, _ in folded] == list(range(len(blocks)))

    def test_routing_error_of_a_worker_keeps_its_message(self, rng, monkeypatch):
        blocks_of_two(monkeypatch)
        monkeypatch.setattr(T, "_WORKERS", 2)
        caps = rng.standard_normal((5, 3, 3, 2, 3))
        caps[2, 1, 1, 0, 0] = np.nan  # in the second of three blocks
        weight = T.leaf(rng.standard_normal((3, 9 * 2, 2 * 4)) * 0.3)
        ref = T.leaf(rng.standard_normal((2, 4, 3)))
        with pytest.raises(ComputationError, match="^transform_route\\(\\) produced non-finite "
                           "routing logits$"), np.errstate(invalid="ignore"):
            T.transform_route(T.leaf(caps), weight, ref, (3, 3), 1, "same")

    @pytest.mark.skipif(sys.platform != "linux", reason="os.fork is tested on Linux")
    def test_forked_child_runs_a_threaded_walk(self, rng, monkeypatch):
        blocks_of_two(monkeypatch)
        monkeypatch.setattr(T, "_WORKERS", 2)
        operand = T._WindowGemm.operand

        def slow(gemm, bufs, lo, hi):
            time.sleep(0.05)  # both workers of the pool take a block
            return operand(gemm, bufs, lo, hi)

        monkeypatch.setattr(T._WindowGemm, "operand", slow)
        x, kernel = _conv_case(rng)
        # leaves this process's pool with two idle threads, which the child
        # does not have
        want = T.conv2d(T.leaf(x), T.leaf(kernel)).data
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(T.conv2d(T.leaf(x), T.leaf(kernel)).data, want) else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's threaded walk did not finish in 60 s")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_import_build_and_load_start_no_thread(self, tmp_path, tiny_run_config):
        script = f"""
import sys, threading
before = threading.active_count()
from arcaps import tensor as T
from arcaps.config import RunConfig
from arcaps.model import ArCapsNet
from arcaps.train import load_model, save_model
run_config = RunConfig(**{asdict(tiny_run_config)!r})
save_model({str(tmp_path / "m.ckpt")!r}, ArCapsNet(run_config.model_config(), seed=0), run_config)
load_model({str(tmp_path / "m.ckpt")!r})
print(T._WORKERS, threading.active_count() - before, "concurrent.futures" in sys.modules)
"""
        src = str(Path(T.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout.split()
        workers, started, imported = out
        assert int(workers) >= 1 and int(started) == 0 and imported == "False", out


# a whole-extent "valid" window (one position per image) and padded 3x3
# "same" windows (nine) over 3x3 capsules of M = 3 channels, so two
# workers take uneven channel groups
SPLIT_GEOMETRIES = [((3, 3), 1, "valid"), ((3, 3), 1, "same")]


def _split_case(rng, dtype, e=12):
    """Two images of 3x3 capsules (D = 4, M = 3), a (3, 36, 3 * E) weight to
    N = 3 channels of E and its reference: one block whose weight outweighs
    its operand and product rows."""
    return [rng.standard_normal((2, 3, 3, 4, 3)).astype(dtype),
            (rng.standard_normal((3, 36, 3 * e)) * 0.2).astype(dtype),
            rng.standard_normal((3, e, 3)).astype(dtype)]


def _split_run(geometry, arrays, frozen=(), graph=True):
    """transform_route's output and the gradients of a weighted sum of it
    for each leaf not in ``frozen`` (by index), or under no_grad."""
    leaves = [T.leaf(a, needs_grad=graph and i not in frozen) for i, a in enumerate(arrays)]
    with contextlib.ExitStack() as stack:
        if not graph:
            stack.enter_context(T.no_grad())
        out = T.transform_route(*leaves, *geometry)
    if out.needs_grad:
        marker = np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape)
        T.backward(T.sum_all(T.affine(out, marker)))
    return [out.data] + [t.grad for t in leaves if t.needs_grad]


@pytest.fixture
def split_budget(monkeypatch):
    """A block budget below the split case's weight, so its walk is one
    block that grew to the weight, and two workers."""
    monkeypatch.setattr(T, "BLOCK_BYTES", 1024)
    monkeypatch.setattr(T, "_WORKERS", 2)


class TestChannelSplit:
    """A walk of one block that grew to a weight over the block budget runs
    its patch copy, GEMMs and scatter in one channel group per worker."""

    @pytest.mark.parametrize("geometry", SPLIT_GEOMETRIES, ids=["valid", "same"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_split_equals_one_group_bitwise(self, rng, monkeypatch, split_budget, geometry,
                                            dtype):
        arrays = _split_case(rng, dtype)
        gemm = T._WindowGemm(T.leaf(arrays[0]), T.leaf(arrays[1]), None, *geometry)
        assert gemm.blocks == [(0, 2)] and gemm.groups == [(0, 1), (1, 3)]
        # with a graph for every subset of frozen leaves, and under no_grad
        modes = [(frozen, True)
                 for r in range(4) for frozen in itertools.combinations(range(3), r)]
        for frozen, graph in modes + [((), False)]:
            runs = []
            for workers in (2, 1):
                monkeypatch.setattr(T, "_WORKERS", workers)
                runs.append(_split_run(geometry, arrays, frozen, graph))
            assert len(runs[0]) == len(runs[1]) == 1 + (graph and 3 - len(frozen))
            for split, inline in zip(*runs):
                assert split.dtype == inline.dtype == dtype, (frozen, graph)
                assert split.tobytes() == inline.tobytes(), (frozen, graph)

    def test_channel_groups_run_on_two_worker_threads(self, rng, monkeypatch, split_budget):
        groups = []
        by_channel = T._WindowGemm.by_channel

        def recording(gemm, part):
            def recorded(m0, m1):
                groups.append((threading.get_ident(), m0, m1))
                time.sleep(0.02)  # the other group starts on the other worker meanwhile
                part(m0, m1)
            by_channel(gemm, recorded)

        monkeypatch.setattr(T._WindowGemm, "by_channel", recording)
        _split_run(SPLIT_GEOMETRIES[1], _split_case(rng, np.float64))
        # forward: the operand and the product; backward: the operand, the
        # rebuilt product and the gradients
        assert sorted((m0, m1) for _, m0, m1 in groups) == [(0, 1)] * 5 + [(1, 3)] * 5
        threads = {thread for thread, _, _ in groups}
        assert len(threads) == 2 and threading.get_ident() not in threads

    def test_routing_error_of_a_split_layer_keeps_its_message(self, rng, split_budget):
        caps, weight, ref = _split_case(rng, np.float64)
        caps[1, 1, 1, 0, 2] = np.nan  # in the second channel group
        with pytest.raises(ComputationError, match="^transform_route\\(\\) produced non-finite "
                           "routing logits$"), np.errstate(invalid="ignore"):
            _split_run(SPLIT_GEOMETRIES[1], [caps, weight, ref])

    @pytest.mark.parametrize("geometry", SPLIT_GEOMETRIES, ids=["valid", "same"])
    def test_split_backward_peak_is_no_larger(self, rng, monkeypatch, split_budget, geometry):
        # a worker that kept a weight gradient of its own would add the
        # weight's 311 KB to the peak; the walks' own bookkeeping (Python
        # objects) adds about 7 KB
        arrays = _split_case(rng, np.float64, e=120)
        peaks = []
        for workers in (2, 1, 2, 1):  # the first pair starts the pool
            monkeypatch.setattr(T, "_WORKERS", workers)
            leaves = [T.leaf(a, needs_grad=True) for a in arrays]
            loss = T.sum_all(T.transform_route(*leaves, *geometry))
            tracemalloc.start()
            try:
                T.backward(loss)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] <= peaks[3] + 16 * 1024, peaks

    def test_default_model_step_at_batch_3_splits_fullycaps_with_the_same_bits(self, monkeypatch):
        config = RunConfig().model_config()
        data = np.random.default_rng(4)
        images = data.random((3, 28, 28, 1), dtype=np.float32)
        labels = np.array([3, 1, 4])
        split, digests = [], []
        by_channel = T._WindowGemm.by_channel

        def recording(gemm, part):
            split.append(len(gemm.groups))
            by_channel(gemm, part)

        monkeypatch.setattr(T._WindowGemm, "by_channel", recording)
        for workers in (2, 1):
            monkeypatch.setattr(T, "_WORKERS", workers)
            net = ArCapsNet(config, seed=0)
            total, _, _, _ = net.loss(images, labels, train=True, rng=np.random.default_rng(5))
            T.backward(total)
            digest = hashlib.sha256(total.data.tobytes())
            for _, t in net.store.trainable_items():
                digest.update(t.grad.tobytes())
            rmsprop_step(net.store, RmspropState(net.store))
            for _, t in net.store.items():
                digest.update(t.data.tobytes())
            digests.append(digest.hexdigest())
        # fullycaps' operand, product, rebuilt product and gradients
        assert split.count(2) == 5
        assert digests[0] == digests[1]
