"""Line-oriented run configuration.

Format: one ``section.key = value`` per line, ``#`` starts a comment,
blank lines ignored. Unknown keys are rejected with their line number so
typos never pass silently. An empty file resolves to the default
architecture (28x28 grayscale, ten classes).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import ConfigurationError
from .model import ModelConfig, standard_stack

DATA_DIR_ENV = "ARCAPS_DATA_DIR"

# key -> (attribute, type tag); defaults live in RunConfig
_SCHEMA = {
    "model.input_width": ("input_width", "int"),
    "model.input_height": ("input_height", "int"),
    "model.input_channels": ("input_channels", "int"),
    "model.stem_width": ("stem_width", "int"),
    "model.primary_dim": ("primary_dim", "int"),
    "model.primary_channels": ("primary_channels", "int"),
    "model.conv_caps": ("conv_caps", "int"),
    "model.caps_dim": ("caps_dim", "int"),
    "model.caps_channels": ("caps_channels", "int"),
    "model.residual": ("residual", "bool"),
    "model.classes": ("classes", "int"),
    "model.decoder_widths": ("decoder_widths", "ints"),
    "loss.m_plus": ("m_plus", "float"),
    "loss.m_minus": ("m_minus", "float"),
    "loss.lambda": ("loss_lambda", "float"),
    "loss.recon_scale": ("recon_scale", "float"),
    "data.kind": ("kind", "str"),
    "data.dir": ("data_dir", "str"),
    "data.train_images": ("train_images", "str"),
    "data.train_labels": ("train_labels", "str"),
    "data.test_images": ("test_images", "str"),
    "data.test_labels": ("test_labels", "str"),
    "data.translate": ("translate", "float"),
    "data.rotate": ("rotate", "float"),
    "data.flip": ("flip", "bool"),
    "data.pad_to": ("pad_to", "int"),
    "train.epochs": ("epochs", "int"),
    "train.batch_size": ("batch_size", "int"),
    "train.seed": ("seed", "int"),
    "train.out_dir": ("out_dir", "str"),
    "analyze.samples": ("samples", "int"),
    "analyze.families": ("families", "strs"),
    "analyze.dimensions": ("dimensions", "ints"),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in _SCHEMA.items()}

_INPUT_SHAPES = {"mnist": (28, 28, 1), "cifar10": (32, 32, 3)}


@dataclass
class RunConfig:
    input_width: int = 0   # 0 = derive from data.kind / data.pad_to
    input_height: int = 0
    input_channels: int = 0
    stem_width: int = 64
    primary_dim: int = 16
    primary_channels: int = 8
    conv_caps: int = 1
    caps_dim: int = 32
    caps_channels: int = 8
    residual: bool = True
    classes: int = 10
    decoder_widths: tuple = (512, 512)
    m_plus: float = 0.9
    m_minus: float = 0.1
    loss_lambda: float = 0.5
    recon_scale: float = 0.3
    kind: str = "mnist"
    data_dir: str = ""
    train_images: str = "train-images-idx3-ubyte"
    train_labels: str = "train-labels-idx1-ubyte"
    test_images: str = "t10k-images-idx3-ubyte"
    test_labels: str = "t10k-labels-idx1-ubyte"
    translate: float = 0.0
    rotate: float = 0.0
    flip: bool = False
    pad_to: int = 0
    epochs: int = 20
    batch_size: int = 100
    seed: int = 0
    out_dir: str = "out"
    samples: int = 10000
    families: tuple = ("Rot+", "x+", "y+", "Rot-", "x-", "y-")
    dimensions: tuple = ()

    def resolved_data_dir(self):
        if self.data_dir:
            return self.data_dir
        return os.environ.get(DATA_DIR_ENV, ".")

    def input_shape(self):
        if self.kind not in _INPUT_SHAPES:
            raise ConfigurationError(
                f"data.kind must be one of {sorted(_INPUT_SHAPES)}, got {self.kind!r}")
        w, h, c = _INPUT_SHAPES[self.kind]
        if self.pad_to:
            if self.pad_to < max(w, h):
                raise ConfigurationError(
                    f"data.pad_to = {self.pad_to} is smaller than the native "
                    f"image extent {max(w, h)}")
            w = h = self.pad_to
        # explicit geometry overrides (checkpoints of non-standard models)
        w = self.input_width or w
        h = self.input_height or h
        c = self.input_channels or c
        return w, h, c

    def model_config(self) -> ModelConfig:
        w, h, c = self.input_shape()
        return ModelConfig(
            input_width=w, input_height=h, input_channels=c,
            stem_width=self.stem_width,
            primary_dim=self.primary_dim,
            primary_channels=self.primary_channels,
            conv_caps=standard_stack(self.conv_caps, self.caps_dim,
                                     self.caps_channels, self.residual),
            out_dim=self.caps_dim,
            classes=self.classes,
            decoder_widths=tuple(self.decoder_widths),
            m_plus=self.m_plus, m_minus=self.m_minus,
            loss_lambda=self.loss_lambda, recon_scale=self.recon_scale,
        ).validate()

    def augment_policy(self):
        from .data import AugmentPolicy

        return AugmentPolicy(
            translate_fraction=self.translate,
            rotate_max_degrees=self.rotate,
            horizontal_flip=self.flip,
            pad_to=(self.pad_to, self.pad_to) if self.pad_to else None,
        )


def _parse_value(tag, raw, key, lineno):
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if tag == "ints":
            return tuple(int(p) for p in raw.split(",") if p.strip()) if raw else ()
        if tag == "strs":
            return tuple(p.strip() for p in raw.split(",") if p.strip()) if raw else ()
        return raw
    except ValueError:
        raise ConfigurationError(
            f"line {lineno}: cannot parse {key} value {raw!r} as {tag}") from None


def _format_value(tag, value):
    if tag == "bool":
        return "true" if value else "false"
    if tag in ("ints", "strs"):
        return ",".join(str(v) for v in value)
    return str(value)


def parse_lines(lines, base=None, source="<config>"):
    """Apply ``section.key = value`` lines on top of a base RunConfig."""
    cfg = base if base is not None else RunConfig()
    values = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"{source} line {lineno}: expected 'section.key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigurationError(f"{source} line {lineno}: unknown key {key!r}")
        attr, tag = _SCHEMA[key]
        values[attr] = _parse_value(tag, raw, key, lineno)
    return RunConfig(**values)


def parse_file(path, base=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_lines(fh.read().splitlines(), base=base, source=str(path))


def serialize(cfg: RunConfig):
    """Full key = value text; parse_lines() of the result reproduces cfg."""
    out = []
    for key, (attr, tag) in _SCHEMA.items():
        out.append(f"{key} = {_format_value(tag, getattr(cfg, attr))}")
    return "\n".join(out) + "\n"
