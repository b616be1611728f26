"""Full network assembly, loss functions and the parameter-count breakdown."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, InputDataError
from .layers import ConvBlock, Decoder, FullyConvCaps, PrimaryCaps, ConvCaps
from .optim import ParameterStore

# the CapsNet margin loss (Sabour et al. 2017): the present and absent
# class margins and the weight of the absent classes' term
M_PLUS = 0.9
M_MINUS = 0.1
LOSS_LAMBDA = 0.5
# weight of the mean squared reconstruction error in the total loss
RECON_SCALE = 0.3


@dataclass(frozen=True)
class ModelConfig:
    """Declarative architecture description.

    The fields are the RunConfig fields of the ``model.*`` keys, with the
    same names and defaults, save that RunConfig derives the input shape
    from the data. The loss takes no field: its constants are M_PLUS,
    M_MINUS, LOSS_LAMBDA and RECON_SCALE. The default values build the 28x28
    grayscale 10-class network: a two convolution stem of width 64, a
    primary layer of eight 16-dimensional capsule channels, one stride-2
    capsule layer and a ten-channel 32-dimensional output layer with a
    (512, 512) reconstruction decoder. Capsule layers after the first keep
    the spatial extent and, when ``residual`` is set, add their input.
    """

    input_width: int = 28
    input_height: int = 28
    input_channels: int = 1
    stem_width: int = 64
    primary_dim: int = 16
    primary_channels: int = 8
    conv_caps: int = 1
    caps_dim: int = 32
    caps_channels: int = 8
    residual: bool = True
    classes: int = 10
    decoder_widths: tuple[int, ...] = (512, 512)

    @property
    def pixels(self):
        return self.input_width * self.input_height * self.input_channels

    def spatial_chain(self):
        """(W, H) entering each capsule layer: primary output, then each
        conv caps output, ending with the fully conv caps input. Only the
        first conv caps layer has stride 2."""
        chain = [(-(-self.input_width // 2), -(-self.input_height // 2))]
        for i in range(self.conv_caps):
            w, h = chain[-1]
            chain.append((w, h) if i else (-(-w // 2), -(-h // 2)))
        return chain

    def validate(self):
        for name in ("input_width", "input_height", "input_channels", "stem_width",
                     "primary_dim", "primary_channels", "caps_dim", "caps_channels",
                     "classes"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.conv_caps < 0:
            raise ConfigurationError(f"conv_caps must be >= 0, got {self.conv_caps}")
        if any(w < 1 for w in self.decoder_widths):
            raise ConfigurationError(f"decoder_widths must all be >= 1, got {self.decoder_widths}")
        return self


class ForwardResult:
    """Outputs of one forward pass (graph tensors)."""

    __slots__ = ("scores", "capsules", "reconstruction", "predictions")

    def __init__(self, scores, capsules, reconstruction, predictions):
        self.scores = scores
        self.capsules = capsules
        self.reconstruction = reconstruction
        self.predictions = predictions


class ArCapsNet:
    """The assembled network: stem, capsule stack, decoder."""

    def __init__(self, config: ModelConfig, seed=0, dtype=np.float32, *, init=True):
        """``init=False`` draws nothing: the weights are left uninitialised
        for a caller that loads every parameter (``train.load_model``)."""
        config.validate()
        if seed < 0:
            # it seeds a SeedSequence, which takes no negative
            raise ConfigurationError(f"seed must be >= 0, got {seed}")
        self.config = config
        self.dtype = dtype
        self.store = ParameterStore()
        rng = np.random.default_rng(np.random.SeedSequence([0x_A2C, seed])) if init else None

        c = config.input_channels
        self.stem = []
        for i in range(2):
            self.stem.append(ConvBlock(
                self.store, f"stem{i}", c, config.stem_width, rng, dtype))
            c = config.stem_width

        self.primary = PrimaryCaps(
            self.store, "primary", c, config.primary_dim, config.primary_channels,
            rng, dtype)

        chain = config.spatial_chain()
        dim, ch = config.primary_dim, config.primary_channels
        self.caps_layers = []
        for i in range(config.conv_caps):
            self.caps_layers.append(ConvCaps(
                self.store, f"convcaps{i}", dim, ch, config.caps_dim, config.caps_channels,
                rng, stride=1 if i else 2, residual=config.residual and i > 0, dtype=dtype))
            dim, ch = config.caps_dim, config.caps_channels

        self.fully = FullyConvCaps(
            self.store, "fullycaps", dim, ch, config.caps_dim, config.classes,
            chain[-1], rng, dtype=dtype)

        self.decoder = Decoder(
            self.store, "decoder", config.caps_dim * config.classes,
            config.decoder_widths, config.pixels, rng, dtype)

    # -- forward -----------------------------------------------------------

    def capsule_forward(self, images, train=False, rng=None):
        """Images (B, W, H, C) through to output capsules (B, D, N).

        In infer mode without a graph each image's primary capsules depend
        on that image alone (batchnorm reads its running statistics), so
        the stem and the primary layer run over blocks of images, as many
        as ``T._image_blocks`` fits their stem outputs in, and write into
        one whole-batch primary capsule array: the whole batch's stem maps
        never exist. Train mode (batch statistics) and a forward that
        builds a graph run them once over the whole batch. The capsule
        layers take the whole batch either way, and the values are the
        same bits.
        """
        if images.ndim == 3:
            images = images[..., None]
        cfg = self.config
        expect = (cfg.input_width, cfg.input_height, cfg.input_channels)
        if images.shape[1:] != expect:
            raise ConfigurationError(
                f"input images {images.shape[1:]} do not match configured {expect}")
        images = images.astype(self.dtype, copy=False)
        if train or T._building_graph():
            caps = self._primary_capsules(images, train)
        else:
            b = images.shape[0]
            w, h = cfg.spatial_chain()[0]
            out = np.empty((b, w, h, cfg.primary_dim, cfg.primary_channels), dtype=self.dtype)
            stem_bytes = cfg.input_width * cfg.input_height * cfg.stem_width * images.itemsize
            for lo, hi in T._image_blocks(b, stem_bytes):
                out[lo:hi] = self._primary_capsules(images[lo:hi], train).data
            caps = T.leaf(out)
        for layer in self.caps_layers:
            caps = layer.forward(caps, train, rng)
        caps = self.fully.forward(caps, train, rng)
        b = caps.shape[0]
        return T.reshape(caps, (b, self.config.caps_dim, self.config.classes))

    def _primary_capsules(self, images, train):
        """Stem and primary layer: a (B, W, H, C) array of images to the
        (B, W', H', D, N) primary capsule node."""
        x = T.leaf(images)
        for block in self.stem:
            x = block.forward(x, train)
        return self.primary.forward(x, train)

    def forward(self, images, labels=None, train=False, rng=None):
        """Full pass: scores, output capsules, reconstruction.

        Train mode masks the decoder input with the true labels (required);
        otherwise with ``labels`` when given, else with the predictions.
        """
        capsules = self.capsule_forward(images, train, rng)
        scores = normalized_length(capsules)
        predictions = np.argmax(scores.data, axis=1)
        if train:
            if labels is None:
                raise ConfigurationError("train-mode forward needs labels for masking")
            mask_labels = labels
        else:
            mask_labels = labels if labels is not None else predictions
        recon = self.decode(capsules, mask_labels)
        return ForwardResult(scores, capsules, recon, predictions)

    def decode(self, capsules, labels):
        """Zero every non-target class capsule, flatten, run the decoder."""
        b, d, n = capsules.shape
        labels = np.asarray(labels)
        if labels.shape != (b,):
            raise InputDataError(f"labels shape {labels.shape} != ({b},)")
        if labels.min() < 0 or labels.max() >= n:
            raise InputDataError(
                f"label out of range [0, {n}): {labels.min()}..{labels.max()}")
        mask = np.zeros((b, 1, n), dtype=capsules.dtype)
        mask[np.arange(b), 0, labels] = 1.0
        masked = T.affine(capsules, mask)
        return self.decoder.forward(T.reshape(masked, (b, d * n)))

    def loss(self, images, labels, train=False, rng=None):
        """Total, margin and reconstruction loss tensors plus the result."""
        result = self.forward(images, labels, train=train, rng=rng)
        margin = margin_loss(result.scores, labels, self.config.classes)
        flat = images.reshape(images.shape[0], -1).astype(self.dtype, copy=False)
        recon = reconstruction_loss(result.reconstruction, flat)
        total = T.add(margin, T.affine(recon, RECON_SCALE))
        return total, margin, recon, result


def normalized_length(capsules):
    """Class scores in [0, 1]: capsule norm over sqrt(D)."""
    d = capsules.shape[1]
    return T.affine(T.capsule_norm(capsules), 1.0 / math.sqrt(d))


def margin_loss(scores, labels, classes):
    """Two-sided hinge-squared loss on class scores, averaged over the batch.

    Present classes are pushed above M_PLUS, absent ones below M_MINUS
    (down-weighted by LOSS_LAMBDA).
    """
    b = scores.shape[0]
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= classes:
        raise InputDataError(
            f"label out of range [0, {classes}): {labels.min()}..{labels.max()}")
    present = np.zeros((b, classes), dtype=scores.dtype)
    present[np.arange(b), labels] = 1.0
    pos = T.square(T.relu(T.affine(scores, -1.0, M_PLUS)))
    neg = T.square(T.relu(T.affine(scores, 1.0, -M_MINUS)))
    per_class = T.add(T.affine(pos, present), T.affine(neg, LOSS_LAMBDA * (1.0 - present)))
    return T.affine(T.sum_all(per_class), 1.0 / b)


def reconstruction_loss(decoded, target_pixels):
    """Mean squared error over every pixel of the batch."""
    if decoded.shape != target_pixels.shape:
        raise InputDataError(
            f"reconstruction shape {decoded.shape} != target {target_pixels.shape}")
    diff = T.affine(decoded, 1.0, -target_pixels)
    return T.affine(T.sum_all(T.square(diff)), 1.0 / diff.data.size)


# ---------------------------------------------------------------------------
# parameter counting


def count_parameters(config: ModelConfig):
    """Exact trainable-parameter count with a per-layer breakdown.

    Batchnorm scale/shift count as trainable; running statistics do not.
    Computed arithmetically from the configuration, independently of model
    construction (the test suite cross-checks both routes).
    """
    config.validate()
    rows = []

    cin = config.input_channels
    for i in range(2):
        w = config.stem_width
        rows.append((f"stem{i}", 9 * cin * w + 2 * w))
        cin = w

    d0, n0 = config.primary_dim, config.primary_channels
    conv = (9 * cin * d0 + d0) * n0
    act = n0 * (d0 * d0 + d0)
    rows.append(("primary", conv + act))

    chain = config.spatial_chain()
    dim, ch = d0, n0
    e, n = config.caps_dim, config.caps_channels
    for i in range(config.conv_caps):
        transform = n * ch * 9 * dim * e
        attention = n * e * ch
        act = n * (e * e + e)
        rows.append((f"convcaps{i}", transform + attention + act))
        dim, ch = e, n

    w, h = chain[-1]
    transform = config.classes * ch * w * h * dim * e
    attention = config.classes * e * ch
    act = config.classes * (e * e + e)
    rows.append(("fullycaps", transform + attention + act))

    dims = [e * config.classes, *config.decoder_widths, config.pixels]
    dec = sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))
    rows.append(("decoder", dec))

    return sum(n for _, n in rows), rows
