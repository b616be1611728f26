"""Capsule layer semantics: oracles, trivial identities, structural invariants."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from arcaps import reference, tensor as T
from arcaps.errors import ComputationError, ConfigurationError
from arcaps.layers import (CapsuleActivation, ConvBlock, ConvCaps, FullyConvCaps,
                           PrimaryCaps, uniform_init)
from arcaps.model import ArCapsNet
from arcaps.optim import ParameterStore
from arcaps.reference import squash, squash_exp
from arcaps.selftest import routing_weights

from conftest import blocks_of_two, layer_banks, pre_activation, transform_stacks


def make_conv_caps(rng, in_dim=3, in_ch=3, dim=4, channels=2, stride=1,
                   residual=False, dtype=np.float64):
    store = ParameterStore()
    layer = ConvCaps(store, "caps", in_dim, in_ch, dim, channels, rng,
                     stride=stride, residual=residual, dtype=dtype)
    return layer, store


class TestSquash:
    def test_zero_vector_guard(self):
        assert np.array_equal(squash(np.zeros(4)), np.zeros(4))
        assert np.array_equal(squash_exp(np.zeros(4)), np.zeros(4))

    def test_orientation_preserved(self, rng):
        for _ in range(20):
            v = rng.standard_normal(6)
            s = squash(v)
            cos = np.dot(v, s) / (np.linalg.norm(v) * np.linalg.norm(s))
            assert cos > 1 - 1e-6

    def test_hand_computed_value(self):
        out = squash(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.57692308, 0.76923077], atol=1e-5)

    def test_exp_variant_hand_computed(self):
        out = squash_exp(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.59595723, 0.79460964], atol=1e-5)

    def test_norms_strictly_below_one(self, rng):
        for scale in (0.01, 1.0, 8.0):
            v = rng.standard_normal(5) * scale
            assert np.linalg.norm(squash(v)) < 1
            assert np.linalg.norm(squash_exp(v)) < 1
        # at extreme norms 1 - exp(-||v||) rounds to exactly 1, never past
        huge = rng.standard_normal(5) * 1e4
        assert np.linalg.norm(squash(huge)) <= 1
        assert np.linalg.norm(squash_exp(huge)) <= 1


class TestConvBlock:
    def test_train_forward_builds_one_node_holding_two_output_sized_arrays(self, rng, node_log):
        # conv, batchnorm and relu as one node that keeps its output and the
        # conv output; a conv2d -> batchnorm -> relu chain keeps four
        block = ConvBlock(ParameterStore(), "stem", 8, 16, rng)
        x = T.leaf(rng.standard_normal((4, 24, 24, 8)).astype(np.float32), needs_grad=True)
        node_log.clear()
        tracemalloc.start()
        try:
            out = block.forward(x, train=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert node_log == [out]
        assert held < 2.5 * out.data.nbytes, (held, out.data.nbytes)

    def test_train_forward_updates_running_statistics(self, rng):
        block = ConvBlock(ParameterStore(), "stem", 2, 3, rng)
        x = T.leaf(rng.standard_normal((4, 5, 5, 2)).astype(np.float32) + 1)
        _, mean, var = T.conv_bn_relu(x, block.kernel, block.gamma, block.beta,
                                      None, None, True)
        block.forward(x, train=True)
        assert block.running_mean.dtype == np.float32
        assert np.allclose(block.running_mean.data, 0.1 * mean, rtol=1e-6)
        assert np.allclose(block.running_var.data, 0.9 + 0.1 * var, rtol=1e-6)


class TestCapsuleActivation:
    def _layer(self, rng, channels=3, dim=4):
        store = ParameterStore()
        return CapsuleActivation(store, "act", channels, dim, dim, rng,
                                 dtype=np.float64), store

    def test_identity_affine_is_tanh(self, rng):
        layer, _ = self._layer(rng)
        eye = np.stack([np.eye(4)] * 3)
        layer.weight.data = eye
        layer.bias.data = np.zeros((3, 4))
        s = rng.standard_normal((2, 3, 3, 4, 3))
        out = layer.forward(T.leaf(s))
        assert np.allclose(out.data, np.tanh(s), atol=1e-12)

    def test_zero_input_zero_bias_gives_zero(self, rng):
        layer, _ = self._layer(rng)
        layer.bias.data = np.zeros((3, 4))
        out = layer.forward(T.leaf(np.zeros((1, 2, 2, 4, 3))))
        assert np.all(out.data == 0)

    def test_matches_loop_oracle(self, rng):
        for _ in range(20):
            layer, _ = self._layer(rng)
            s = rng.standard_normal((1, 2, 2, 4, 3))
            fast = layer.forward(T.leaf(s)).data
            slow = reference.capsule_activation_loops(
                s, layer.weight.data, layer.bias.data)
            assert np.max(np.abs(fast - slow)) < 1e-6

    def test_capsule_wise_locality(self, rng):
        layer, _ = self._layer(rng)
        s = rng.standard_normal((1, 3, 3, 4, 3))
        base = layer.forward(T.leaf(s)).data
        bumped = s.copy()
        bumped[0, 1, 2, :, 1] += 0.37
        out = layer.forward(T.leaf(bumped)).data
        changed = np.abs(out - base) > 1e-12
        assert changed[0, 1, 2, :, 1].any()
        changed[0, 1, 2, :, 1] = False
        assert not changed.any()

    def test_not_orientation_preserving(self, rng):
        # existence: some input loses alignment through a random affine
        layer, _ = self._layer(rng)
        found = False
        for _ in range(50):
            v = rng.standard_normal(4)
            s = np.zeros((1, 1, 1, 4, 3))
            s[0, 0, 0, :, 0] = v
            out = layer.forward(T.leaf(s)).data[0, 0, 0, :, 0]
            cos = np.dot(v, out) / (np.linalg.norm(v) * np.linalg.norm(out))
            if cos < 0.99:
                found = True
                break
        assert found

    def test_output_capsule_norm_below_sqrt_dim(self, rng):
        layer, _ = self._layer(rng)
        s = rng.standard_normal((2, 3, 3, 4, 3)) * 10
        out = layer.forward(T.leaf(s)).data
        norms = np.linalg.norm(out, axis=3)
        assert np.all(norms < np.sqrt(4) + 1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        layer, _ = self._layer(rng)
        with pytest.raises(ConfigurationError):
            layer.forward(T.leaf(np.zeros((1, 2, 2, 5, 3))))


class TestPrimaryCaps:
    def _layer(self, rng, cin=5, dim=4, channels=3):
        store = ParameterStore()
        return PrimaryCaps(store, "primary", cin, dim, channels, rng,
                           dtype=np.float64), store

    def test_zero_features_zero_bias_gives_zero(self, rng):
        layer, _ = self._layer(rng)
        layer.activation.bias.data = np.zeros_like(layer.activation.bias.data)
        out = layer.forward(T.leaf(np.zeros((1, 8, 8, 5))), train=False)
        assert np.all(out.data == 0)

    def test_equivalent_to_independent_convolutions(self, rng):
        layer, _ = self._layer(rng)
        feats = rng.standard_normal((2, 8, 8, 5))
        merged = layer.forward(T.leaf(feats), train=False).data

        # per-channel kernels live at filter indices d*N + n
        per_channel = []
        for n in range(layer.channels):
            kern = layer.kernel.data[:, :, :, n::layer.channels]
            bias = layer.bias.data[n::layer.channels]
            y = T.relu(T.conv2d(T.leaf(feats), T.leaf(kern), T.leaf(bias),
                                2, "same"))
            per_channel.append(y.data)
        stacked = np.stack(per_channel, axis=-1)
        expected = layer.activation.forward(T.leaf(stacked)).data
        assert np.max(np.abs(merged - expected)) < 1e-6

    def test_output_shape_halves_spatial(self, rng):
        store = ParameterStore()
        layer = PrimaryCaps(store, "p", 64, 16, 8, rng)
        out = layer.forward(T.leaf(np.zeros((2, 28, 28, 64), dtype=np.float32)),
                            train=False)
        assert out.shape == (2, 14, 14, 16, 8)


class TestConvTransform:
    def test_zero_kernels_give_zero_stacks(self, rng):
        layer, _ = make_conv_caps(rng)
        layer.transform.data = np.zeros_like(layer.transform.data)
        u = rng.standard_normal((1, 4, 4, 3, 3))
        assert all(np.all(s == 0) for s in transform_stacks(layer, u))
        assert np.all(pre_activation(layer, u) == 0)

    def test_stride_two_halves_spatial(self, rng):
        layer, _ = make_conv_caps(rng, stride=2)
        u = rng.standard_normal((1, 14, 14, 3, 3))
        assert transform_stacks(layer, u)[0].shape == (1, 7, 7, 4, 3)
        assert pre_activation(layer, u).shape == (1, 7, 7, 4, 2)

    def test_matches_loop_oracle(self, rng):
        for _ in range(20):
            layer, _ = make_conv_caps(rng)
            u = rng.standard_normal((1, 3, 3, 3, 3))
            fast = transform_stacks(layer, u)
            slow = reference.conv_transform_loops(u, layer_banks(layer), 1, "same")
            for f, s in zip(fast, slow):
                assert np.max(np.abs(f - s)) < 1e-6

    def test_translation_equivariance_interior(self, rng):
        layer, _ = make_conv_caps(rng, stride=2)
        u = rng.standard_normal((1, 8, 8, 3, 3))
        shifted = np.zeros_like(u)
        shifted[:, 2:] = u[:, :-2]  # shift content two cells along width
        base = transform_stacks(layer, u)[0]
        moved = transform_stacks(layer, shifted)[0]
        # stride-2 shift of the input moves the output by one cell; edge
        # rows touch padding, so compare the overlapping interior only
        assert np.max(np.abs(moved[:, 1:3] - base[:, 0:2])) < 1e-6

    def test_transform_filled_bank_by_bank_in_rng_order(self):
        # the fused weight holds the values that separate per-output-channel
        # (M, kw, kh, D, E) kernels drawn one after another would hold
        layer, _ = make_conv_caps(np.random.default_rng(5), in_dim=3, in_ch=2,
                                  dim=4, channels=3, dtype=np.float32)
        rng = np.random.default_rng(5)
        for n in range(3):
            bank = uniform_init(rng, (2, 3, 3, 3, 4), 27, 36, np.float32)
            assert np.array_equal(layer.transform.data[:, :, 4 * n:4 * n + 4],
                                  bank.reshape(2, 27, 4))
        assert layer.transform.shape == (2, 27, 12)


class TestAttentionRoute:
    def test_single_input_channel_passes_through(self, rng):
        layer, _ = make_conv_caps(rng, in_ch=1, channels=2)
        u = rng.standard_normal((1, 3, 3, 3, 1))
        routed = pre_activation(layer, u)
        stacks = reference.conv_transform_loops(u, layer_banks(layer), 1, "same")
        for n, stack in enumerate(stacks):
            assert np.allclose(routed[..., n], stack[..., 0], atol=1e-12)
        # and the attention weights are irrelevant for a single channel
        layer.attention.data = rng.standard_normal(layer.attention.shape)
        assert np.allclose(routed, pre_activation(layer, u), atol=1e-12)

    def test_zero_reference_gives_channel_mean(self, rng):
        layer, _ = make_conv_caps(rng)
        layer.attention.data = np.zeros_like(layer.attention.data)
        u = rng.standard_normal((1, 3, 3, 3, 3))
        routed = pre_activation(layer, u)
        for n, stack in enumerate(transform_stacks(layer, u)):
            assert np.allclose(routed[..., n], stack.mean(axis=-1), atol=1e-9)

    def test_matches_loop_oracle(self, rng):
        # stride 2 as convcaps0 of the default model routes, over an odd
        # extent so the padding falls on both sides
        for stride, size in ((1, 2), (2, 5)):
            for _ in range(20):
                layer, _ = make_conv_caps(rng, in_dim=4, in_ch=3, dim=4, channels=3,
                                          stride=stride)
                u = rng.standard_normal((1, size, size, 4, 3))
                fast = pre_activation(layer, u)
                stacks = reference.conv_transform_loops(u, layer_banks(layer), stride, "same")
                slow = reference.attention_route_loops(stacks, layer.attention.data)
                assert np.max(np.abs(fast - slow)) < 1e-6

    def test_routing_weights_normalized_and_positive(self, rng):
        layer, _ = make_conv_caps(rng)
        u = rng.standard_normal((2, 4, 4, 3, 3)) * 3
        for n, stack in enumerate(transform_stacks(layer, u)):
            logits = np.einsum("bwhem,em->bwhm", stack, layer.attention.data[n])
            weights = routing_weights(logits)
            assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-6)
            assert np.all(weights > 0)


class TestConvCaps:
    def test_uniform_routing_identity_activation_composition(self, rng):
        layer, _ = make_conv_caps(rng, in_dim=3, in_ch=3, dim=4, channels=2)
        layer.attention.data = np.zeros_like(layer.attention.data)
        layer.activation.weight.data = np.stack([np.eye(4)] * 2)
        layer.activation.bias.data = np.zeros((2, 4))
        u = rng.standard_normal((1, 3, 3, 3, 3))
        out = layer.forward(T.leaf(u), train=False).data
        stacks = transform_stacks(layer, u)
        for n in range(2):
            assert np.allclose(out[..., n], np.tanh(stacks[n].mean(axis=-1)),
                               atol=1e-9)

    def test_output_inside_unit_interval(self, rng):
        layer, _ = make_conv_caps(rng)
        u = rng.standard_normal((2, 4, 4, 3, 3)) * 4
        out = layer.forward(T.leaf(u), train=False).data
        assert np.all(out > -1) and np.all(out < 1)

    def test_residual_legal_on_matching_shapes(self, rng):
        layer, _ = make_conv_caps(rng, in_dim=4, in_ch=3, dim=4, channels=3,
                                  residual=True)
        u = rng.standard_normal((1, 4, 4, 4, 3))
        out = layer.forward(T.leaf(u), train=False)
        assert out.shape == (1, 4, 4, 4, 3)

    def test_residual_shape_mismatch_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            make_conv_caps(rng, in_dim=3, dim=4, residual=True)
        with pytest.raises(ConfigurationError):
            make_conv_caps(rng, in_dim=4, dim=4, stride=2, residual=True)

    def test_residual_adds_pre_activation(self, rng):
        layer, _ = make_conv_caps(rng, in_dim=4, in_ch=3, dim=4, channels=3,
                                  residual=True)
        u = rng.standard_normal((1, 3, 3, 4, 3))
        with_res = layer.forward(T.leaf(u), train=False).data
        pre = pre_activation(layer, u)
        expected = layer.activation.forward(T.leaf(pre + u)).data
        assert np.allclose(with_res, expected, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        layer, _ = make_conv_caps(rng, in_dim=3, in_ch=4, dim=4, channels=3)
        u = rng.standard_normal((1, 4, 4, 3, 4))
        base = layer.forward(T.leaf(u), train=False).data
        perm = np.array([2, 0, 3, 1])
        layer.transform.data = layer.transform.data[perm]
        layer.attention.data = layer.attention.data[:, :, perm]
        permuted = layer.forward(T.leaf(u[..., perm]), train=False).data
        assert np.max(np.abs(base - permuted)) < 1e-6

    def test_locality_of_transform_and_routing(self, rng):
        layer, _ = make_conv_caps(rng, stride=2)
        u = np.zeros((1, 8, 8, 3, 3))
        w0, h0 = 4, 5
        u[0, w0, h0] = rng.standard_normal((3, 3))
        pre = pre_activation(layer, u)
        # stride-2 same padding: output (i, j) sees input rows 2i..2i+2
        nz = np.nonzero(np.abs(pre) > 1e-12)
        for i, j in zip(nz[1], nz[2]):
            assert 2 * i <= w0 <= 2 * i + 2
            assert 2 * j <= h0 <= 2 * j + 2

    def test_dropout_active_in_train_mode_only(self, rng):
        layer, _ = make_conv_caps(rng)
        u = rng.standard_normal((1, 4, 4, 3, 3))
        a = layer.forward(T.leaf(u), train=False).data
        b = layer.forward(T.leaf(u), train=False).data
        assert np.array_equal(a, b)
        c = layer.forward(T.leaf(u), train=True, rng=np.random.default_rng(0)).data
        assert not np.array_equal(a, c)

    def test_train_forward_builds_one_node_per_step_and_no_patch_array(self, rng, node_log):
        # dropout, transform_route (patches, transform and routing),
        # capsule_activation
        layer, _ = make_conv_caps(rng, stride=2)
        u = T.leaf(rng.standard_normal((2, 6, 6, 3, 3)), needs_grad=True)
        node_log.clear()
        out = layer.forward(u, train=True, rng=np.random.default_rng(0))
        assert len(node_log) == 3 and node_log[-1] is out
        patches = (2, 3, 3, 27, 3)  # (B, Wo, Ho, kw*kh*D, M)
        assert all(n.shape != patches for n in node_log)

    @pytest.mark.parametrize("layer", ["convcaps0", "fullycaps"])
    def test_routing_failure_names_the_layer(self, rng, tiny_config, layer):
        net = ArCapsNet(tiny_config, seed=0)
        net.store[layer + ".attention"].data[0, 0, 0] = np.nan
        with pytest.raises(ComputationError,
                           match=f"^{layer}: transform_route\\(\\) produced non-finite"), \
                np.errstate(invalid="ignore"):
            net.forward(rng.random((2, 8, 8, 1), dtype=np.float32))

    @pytest.mark.parametrize("graph", [True, False])
    def test_routing_failure_in_the_last_block_names_the_layer(self, rng, monkeypatch,
                                                               tiny_config, graph):
        # five images in blocks of two: only the last image, alone in the
        # ragged last block, has non-finite routing logits
        net = ArCapsNet(tiny_config, seed=0)
        images = rng.random((5, 8, 8, 1), dtype=np.float32)
        images[-1, 3, 3, 0] = np.nan
        walked = blocks_of_two(monkeypatch)
        with contextlib.ExitStack() as stack:
            if not graph:
                stack.enter_context(T.no_grad())
            with pytest.raises(ComputationError, match="^convcaps0: transform_route\\(\\) "
                               "produced non-finite routing logits$"), \
                    np.errstate(invalid="ignore"):
                net.forward(images)
        assert walked[-1] == [(0, 2), (2, 4), (4, 5)]


class TestFullyConvCaps:
    def _layer(self, rng, spatial=(3, 3), in_dim=3, in_ch=2, dim=4, channels=3):
        store = ParameterStore()
        return FullyConvCaps(store, "full", in_dim, in_ch, dim, channels,
                             spatial, rng, dtype=np.float64), store

    def test_valid_full_kernel_gives_1x1(self, rng):
        layer, _ = self._layer(rng, spatial=(7, 7))
        out = layer.forward(T.leaf(rng.standard_normal((2, 7, 7, 3, 2))),
                            train=False)
        assert out.shape == (2, 1, 1, 4, 3)

    def test_spatial_mismatch_rejected(self, rng):
        layer, _ = self._layer(rng, spatial=(7, 7))
        with pytest.raises(ConfigurationError):
            layer.forward(T.leaf(np.zeros((1, 6, 6, 3, 2))), train=False)

    def test_matches_loop_oracle(self, rng):
        for _ in range(20):
            layer, _ = self._layer(rng)
            u = rng.standard_normal((1, 3, 3, 3, 2))
            fast = layer.forward(T.leaf(u), train=False).data
            stacks = reference.conv_transform_loops(u, layer_banks(layer), 1, "valid")
            routed = reference.attention_route_loops(stacks, layer.attention.data)
            slow = reference.capsule_activation_loops(
                routed, layer.activation.weight.data, layer.activation.bias.data)
            assert np.max(np.abs(fast - slow)) < 1e-6


def test_end_to_end_conv_caps_gradient(rng):
    from arcaps.gradcheck import numerical_gradient, relative_error

    layer, store = make_conv_caps(rng, in_dim=2, in_ch=2, dim=3, channels=2)
    u = rng.standard_normal((1, 3, 3, 2, 2))
    marker = rng.standard_normal((1, 3, 3, 3, 2))

    def loss_from(arrays):
        for (name, t), arr in zip(store.items(), arrays):
            t.data = arr
        out = layer.forward(T.leaf(u), train=False)
        return T.sum_all(T.affine(out, marker))

    arrays = [t.data.copy() for _, t in store.items()]
    store.zero_grads()
    T.backward(loss_from(arrays))
    analytic = [t.grad.copy() for _, t in store.items()]
    for i in range(len(arrays)):
        numeric = numerical_gradient(
            lambda arrs: loss_from(arrs).item(), [a.copy() for a in arrays], i)
        assert relative_error(analytic[i], numeric) < 1e-4
