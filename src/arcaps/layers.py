"""Capsule layer algebra: primary caps, convolutional transform, attention
routing, capsule activation and their composites.

Capsule tensors are laid out (batch, width, height, capsule-dim, channel).
A layer owns its parameters by registering them in a shared
:class:`~arcaps.optim.ParameterStore` under a dotted name prefix, so the
optimizer and the checkpoint writer see one flat namespace.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ComputationError, ConfigurationError

# decay of the stem's batchnorm running statistics per train-mode forward
BN_MOMENTUM = 0.9
# probability that dropout keeps a capsule entry before each capsule layer
KEEP_PROB = 0.5


def uniform_init(rng, shape, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _weight(rng, shape, fan_in, fan_out, dtype):
    """A uniform_init draw, or uninitialised storage when ``rng`` is None
    (a model built to have every value loaded from a checkpoint)."""
    if rng is None:
        return np.empty(shape, dtype=dtype)
    return uniform_init(rng, shape, fan_in, fan_out, dtype)


class ConvBlock:
    """3x3 stride-1 same-padding convolution + batchnorm + relu (stem unit),
    one :func:`~arcaps.tensor.conv_bn_relu` op. The convolution has no bias:
    the batchnorm cancels it, and ``bn.beta`` is the shift."""

    def __init__(self, store, name, cin, cout, rng, dtype=np.float32):
        self.kernel = store.add(
            name + ".kernel",
            _weight(rng, (3, 3, cin, cout), 9 * cin, 9 * cout, dtype),
        )
        self.gamma = store.add(name + ".bn.gamma", np.ones(cout, dtype=dtype))
        self.beta = store.add(name + ".bn.beta", np.zeros(cout, dtype=dtype))
        self.running_mean = store.add(
            name + ".bn.running_mean", np.zeros(cout, dtype=dtype), trainable=False
        )
        self.running_var = store.add(
            name + ".bn.running_var", np.ones(cout, dtype=dtype), trainable=False
        )

    def forward(self, x, train):
        y, mu, var = T.conv_bn_relu(
            x, self.kernel, self.gamma, self.beta,
            self.running_mean.data, self.running_var.data, train,
        )
        if train:
            m = BN_MOMENTUM
            for stat, batch in ((self.running_mean, mu), (self.running_var, var)):
                stat.data = (m * stat.data + (1 - m) * batch).astype(stat.dtype)
        return y


class CapsuleActivation:
    """Shared per-channel affine map followed by tanh, one
    :func:`~arcaps.tensor.capsule_activation` op.

    Equivalent to a 1x1 convolution per capsule channel: every capsule of
    channel n is multiplied by the same (D x E) matrix and shifted by the
    same bias, then squeezed elementwise through tanh. Capsule-wise, but
    not orientation preserving.
    """

    def __init__(self, store, name, channels, dim_in, dim_out, rng, dtype=np.float32):
        self.weight = store.add(
            name + ".weight",
            _weight(rng, (channels, dim_in, dim_out), dim_in, dim_out, dtype),
        )
        self.bias = store.add(name + ".bias", np.zeros((channels, dim_out), dtype=dtype))

    def forward(self, s):
        return T.capsule_activation(s, self.weight, self.bias)


class PrimaryCaps:
    """First capsule layer: N independent strided convolutions over features.

    Implemented as one 3x3 stride-2 convolution of N*D filters followed by a
    reshape to (B, W', H', D, N); filter f maps to (dim, channel) =
    divmod(f, N), i.e. the N capsule channels are interleaved across the
    filter axis.
    """

    def __init__(self, store, name, cin, dim, channels, rng, dtype=np.float32):
        self.dim = dim
        self.channels = channels
        self.kernel = store.add(
            name + ".kernel",
            _weight(rng, (3, 3, cin, dim * channels), 9 * cin, 9 * dim, dtype),
        )
        self.bias = store.add(name + ".bias", np.zeros(dim * channels, dtype=dtype))
        self.activation = CapsuleActivation(
            store, name + ".activation", channels, dim, dim, rng, dtype
        )

    def forward(self, features, train):
        y = T.conv2d(features, self.kernel, self.bias, stride=2, padding="same")
        y = T.relu(y)
        b, wo, ho, _ = y.shape
        caps = T.reshape(y, (b, wo, ho, self.dim, self.channels))
        return self.activation.forward(caps)


class ConvCaps:
    """Capsule layer: dropout -> one op of patch extraction, convolutional
    transform and attention routing -> optional residual -> activation.

    The convolutional transform holds one (kw, kh, D_in, D_out) kernel per
    (output channel n, input channel m) pair, shared across space and
    applied without bias. All of them live in one (M, kw*kh*D_in,
    N*D_out) parameter ``transform``: columns n*D_out .. n*D_out+D_out-1
    hold output channel n, and its slice [m, :, those columns] is the
    (kw, kh, D_in, D_out) kernel flattened in C order. One
    :func:`~arcaps.tensor.transform_route` call then extracts the patches,
    transforms them and routes every output channel at once.
    """

    def __init__(self, store, name, in_dim, in_channels, dim, channels, rng,
                 stride=1, residual=False, ksize=(3, 3), padding="same",
                 dtype=np.float32):
        self.name = name
        self.stride = stride
        self.residual = residual
        self.ksize = ksize
        self.padding = padding
        self.in_channels = in_channels
        self.dim = dim
        self.channels = channels
        kw, kh = ksize
        patch = kw * kh * in_dim
        if residual and (stride != 1 or dim != in_dim or channels != in_channels):
            raise ConfigurationError(
                f"{name}: residual connection needs matching shapes, got "
                f"stride={stride}, dims {in_dim}->{dim}, channels "
                f"{in_channels}->{channels}"
            )
        # filled one output channel at a time, in the RNG order of separate
        # per-channel kernels, without a second full-size copy
        transform = np.empty((in_channels, patch, channels * dim), dtype=dtype)
        if rng is not None:
            for n in range(channels):
                transform[:, :, n * dim:(n + 1) * dim] = uniform_init(
                    rng, (in_channels, patch, dim), patch, kw * kh * dim, dtype)
        self.transform = store.add(name + ".transform", transform)
        self.attention = store.add(
            name + ".attention",
            _weight(rng, (channels, dim, in_channels), dim, 1, dtype),
        )
        self.activation = CapsuleActivation(
            store, name + ".activation", channels, dim, dim, rng, dtype
        )

    def forward(self, caps, train, rng=None):
        dropped = T.dropout(caps, KEEP_PROB, train, rng)
        try:
            pre = T.transform_route(dropped, self.transform, self.attention,
                                    self.ksize, self.stride, self.padding)
        except ComputationError as exc:
            raise ComputationError(f"{self.name}: {exc}") from exc
        if self.residual:
            pre = T.add(pre, caps)
        return self.activation.forward(pre)


class FullyConvCaps(ConvCaps):
    """Output capsule layer: the transform kernel covers the whole spatial
    extent with valid padding, so routing sees a single position."""

    def __init__(self, store, name, in_dim, in_channels, dim, channels,
                 spatial, rng, dtype=np.float32):
        super().__init__(
            store, name, in_dim, in_channels, dim, channels, rng,
            stride=1, residual=False, ksize=spatial, padding="valid", dtype=dtype,
        )

    def forward(self, caps, train, rng=None):
        kw, kh = self.ksize
        if caps.shape[1] != kw or caps.shape[2] != kh:
            raise ConfigurationError(
                f"fully conv caps kernel {self.ksize} does not cover input "
                f"spatial extent {caps.shape[1:3]}"
            )
        return super().forward(caps, train, rng)


class Decoder:
    """Reconstruction decoder: one relu dense layer per entry of ``widths``,
    then a sigmoid dense layer out to the pixels."""

    def __init__(self, store, name, in_width, widths, pixels, rng, dtype=np.float32):
        dims = [in_width, *widths, pixels]
        self.weights = []
        self.biases = []
        for i in range(len(dims) - 1):
            self.weights.append(store.add(
                f"{name}.dense{i}.weight",
                _weight(rng, (dims[i], dims[i + 1]), dims[i], dims[i + 1], dtype),
            ))
            self.biases.append(store.add(
                f"{name}.dense{i}.bias", np.zeros(dims[i + 1], dtype=dtype)
            ))

    def forward(self, x):
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = T.matmul(x, w, b)
            x = T.sigmoid(x) if i == len(self.weights) - 1 else T.relu(x)
        return x
