"""Line-oriented run configuration.

Format: one ``section.key = value`` per line, ``#`` starts a comment,
blank lines ignored. Unknown keys are rejected with their line number so
typos never pass silently. An empty file resolves to the default
architecture (28x28 grayscale, ten classes).

Each ``RunConfig`` field declares its own key and type tag; the parser,
the serializer and the CLI flags all read them from ``fields(RunConfig)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from .analysis import FAMILY_NAMES
from .errors import ConfigurationError
from .model import ModelConfig

DATA_DIR_ENV = "ARCAPS_DATA_DIR"

_INPUT_SHAPES = {"mnist": (28, 28, 1), "cifar10": (32, 32, 3)}


def _setting(key, tag, default):
    return field(default=default, metadata={"key": key, "tag": tag})


@dataclass
class RunConfig:
    # 0 = derive from data.kind / data.pad_to
    input_width: int = _setting("model.input_width", "int", 0)
    input_height: int = _setting("model.input_height", "int", 0)
    input_channels: int = _setting("model.input_channels", "int", 0)
    stem_width: int = _setting("model.stem_width", "int", ModelConfig.stem_width)
    primary_dim: int = _setting("model.primary_dim", "int", ModelConfig.primary_dim)
    primary_channels: int = _setting("model.primary_channels", "int", ModelConfig.primary_channels)
    conv_caps: int = _setting("model.conv_caps", "int", ModelConfig.conv_caps)
    caps_dim: int = _setting("model.caps_dim", "int", ModelConfig.caps_dim)
    caps_channels: int = _setting("model.caps_channels", "int", ModelConfig.caps_channels)
    residual: bool = _setting("model.residual", "bool", ModelConfig.residual)
    classes: int = _setting("model.classes", "int", ModelConfig.classes)
    decoder_widths: tuple = _setting("model.decoder_widths", "ints", ModelConfig.decoder_widths)
    kind: str = _setting("data.kind", "str", "mnist")
    data_dir: str = _setting("data.dir", "str", "")
    train_images: str = _setting("data.train_images", "str", "train-images-idx3-ubyte")
    train_labels: str = _setting("data.train_labels", "str", "train-labels-idx1-ubyte")
    test_images: str = _setting("data.test_images", "str", "t10k-images-idx3-ubyte")
    test_labels: str = _setting("data.test_labels", "str", "t10k-labels-idx1-ubyte")
    translate: float = _setting("data.translate", "float", 0.0)
    rotate: float = _setting("data.rotate", "float", 0.0)
    flip: bool = _setting("data.flip", "bool", False)
    pad_to: int = _setting("data.pad_to", "int", 0)
    epochs: int = _setting("train.epochs", "int", 20)
    batch_size: int = _setting("train.batch_size", "int", 100)
    seed: int = _setting("train.seed", "int", 0)
    out_dir: str = _setting("train.out_dir", "str", "out")
    samples: int = _setting("analyze.samples", "int", 10000)
    families: tuple = _setting("analyze.families", "strs", FAMILY_NAMES)
    dimensions: tuple = _setting("analyze.dimensions", "ints", ())

    def __post_init__(self):
        # every RNG stream is a SeedSequence of the seed, which takes no negative
        if self.seed < 0:
            raise ConfigurationError(f"train.seed must be >= 0, got {self.seed}")

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
        """The ModelConfig of the same-named fields, with the input shape
        derived by input_shape()."""
        w, h, c = self.input_shape()
        values = {f.name: getattr(self, f.name) for f in fields(ModelConfig)}
        values.update(input_width=w, input_height=h, input_channels=c)
        return ModelConfig(**values).validate()

    def augment_policy(self):
        from .data import AugmentPolicy

        return AugmentPolicy(
            translate_fraction=self.translate,
            rotate_max_degrees=self.rotate,
            horizontal_flip=self.flip,
            pad_to=(self.pad_to, self.pad_to) if self.pad_to else None,
        )


def _parse_bool(raw):
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(raw)


def _items(raw):
    return [p.strip() for p in raw.split(",") if p.strip()]


# type tag -> parser of a stripped value; raises ValueError
PARSERS = {
    "int": int, "float": float, "str": str, "bool": _parse_bool,
    "ints": lambda raw: tuple(int(p) for p in _items(raw)),
    "strs": lambda raw: tuple(_items(raw)),
}


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
    by_key = {f.metadata["key"]: f for f in fields(RunConfig)}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"{source} line {lineno}: expected 'section.key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in by_key:
            raise ConfigurationError(f"{source} line {lineno}: unknown key {key!r}")
        tag = by_key[key].metadata["tag"]
        try:
            values[by_key[key].name] = PARSERS[tag](raw)
        except ValueError:
            raise ConfigurationError(
                f"{source} line {lineno}: cannot parse {key} value {raw!r} as {tag}") from None
    return RunConfig(**values)


def parse_file(path, base=None):
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigurationError(
                f"{path}: not UTF-8 text (byte at offset {exc.start})") from None
    return parse_lines(text.splitlines(), base=base, source=str(path))


def serialize(cfg: RunConfig):
    """Full key = value text; parse_lines() of the result reproduces cfg."""
    return "".join(f"{f.metadata['key']} = "
                   f"{_format_value(f.metadata['tag'], getattr(cfg, f.name))}\n"
                   for f in fields(RunConfig))
