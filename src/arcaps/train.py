"""Training loop with validation-based model selection and checkpointing."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import config as cfgmod
from . import tensor as T
from .data import Dataset, batches, pad_dataset, split_train_val
from .errors import ComputationError, ConfigurationError, InputDataError
from .model import ArCapsNet
from .optim import RmspropState, rmsprop_step

METRICS_HEADER = "epoch,train_loss,margin_loss,recon_loss,val_accuracy,seconds"


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    margin_loss: float
    recon_loss: float
    val_accuracy: float
    seconds: float


@dataclass
class EvalResult:
    accuracy: float
    total_loss: float
    margin_loss: float
    recon_loss: float
    confusion: np.ndarray  # (classes, classes), rows = true class

    @property
    def error(self):
        return 1.0 - self.accuracy


@dataclass
class TrainRun:
    run_config: cfgmod.RunConfig
    history: list[EpochStats] = field(default_factory=list)
    best_val_error: float = float("inf")
    best_epoch: int = 0
    best_path: str = ""
    last_path: str = ""
    metrics_path: str = ""


def _epoch_seed(seed, epoch):
    return int(np.random.SeedSequence([0xE60C, seed, epoch]).generate_state(1)[0])


def _batch_rng(seed, epoch, batch_index):
    return np.random.default_rng(np.random.SeedSequence([0xD120, seed, epoch, batch_index]))


def save_model(path, model: ArCapsNet, run_config, best_val_error=float("inf")):
    """Write the store's arrays, the run config and a finite best_val_error."""
    ours, theirs = asdict(model.config), asdict(run_config.model_config())
    if ours != theirs:
        differ = "; ".join(f"{k}: model {ours[k]!r}, run_config {theirs[k]!r}"
                           for k in ours if ours[k] != theirs[k])
        raise ConfigurationError(
            "run_config does not describe this model; the checkpoint would "
            f"not rebuild it ({differ})")
    meta = cfgmod.serialize(run_config)
    if np.isfinite(best_val_error):
        meta += f"state.best_val_error = {best_val_error!r}\n"
    ckpt.save(path, meta, model.store.state_arrays())


def load_model(path):
    """Rebuild a model from a checkpoint.

    Returns (model, run_config, state_lines) where state_lines maps the
    ``state.*`` metadata keys to their raw string values. Records that do
    not fit the file's own model config are an InputDataError naming the
    file.
    """
    meta, arrays = ckpt.load(path)
    cfg_lines, state_lines = [], {}
    for line in meta.splitlines():
        stripped = line.strip()
        if stripped.startswith("state."):
            key, _, value = stripped.partition("=")
            state_lines[key.strip()] = value.strip()
        else:
            cfg_lines.append(line)
    run_config = cfgmod.parse_lines(cfg_lines, source=str(path))
    model = ArCapsNet(run_config.model_config(), init=False)
    try:
        model.store.load_state(arrays)
    except ConfigurationError as exc:
        raise InputDataError(f"{path}: records do not fit the file's config: {exc}") from exc
    return model, run_config, state_lines


def _check_finite(loss_value, model, batch_index):
    if not np.isfinite(loss_value):
        raise ComputationError(
            f"non-finite loss {loss_value!r} at batch {batch_index}")
    for name, t in model.store.trainable_items():
        if not np.all(np.isfinite(t.grad)):
            raise ComputationError(
                f"non-finite gradient at batch {batch_index}: "
                f"first offending parameter {name!r}")


def _train_one_batch(model, images, labels, rng, batch_index):
    """Forward and backward over the whole batch; returns loss components."""
    try:
        total, margin, recon, _ = model.loss(images, labels, train=True, rng=rng)
        T.backward(total)
    except ComputationError as exc:
        raise ComputationError(f"batch {batch_index}: {exc}") from exc
    total_v = total.item()
    _check_finite(total_v, model, batch_index)
    return total_v, margin.item(), recon.item()


def evaluate(model: ArCapsNet, dataset: Dataset, batch_size=100) -> EvalResult:
    """Deterministic inference-mode evaluation with a confusion matrix.

    Builds no graph (``tensor.no_grad``), so each batch holds only the
    arrays its forward is using, and the model runs its stem and primary
    layer over blocks of images (``ArCapsNet.capsule_forward``).
    """
    if len(dataset) == 0:
        raise InputDataError("cannot evaluate on an empty dataset")
    classes = model.config.classes
    confusion = np.zeros((classes, classes), dtype=np.int64)
    sums = np.zeros(3)
    correct = 0
    with T.no_grad():
        for images, labels in batches(dataset, batch_size):
            total, margin, recon, result = model.loss(images, labels, train=False)
            n = images.shape[0]
            sums += np.array([total.item(), margin.item(), recon.item()]) * n
            correct += int((result.predictions == labels).sum())
            np.add.at(confusion, (labels, result.predictions), 1)
    count = len(dataset)
    return EvalResult(
        accuracy=correct / count,
        total_loss=sums[0] / count,
        margin_loss=sums[1] / count,
        recon_loss=sums[2] / count,
        confusion=confusion,
    )


def train(run_config: cfgmod.RunConfig, dataset: Dataset, out_dir=None,
          epochs=None, seed=None, progress=None) -> TrainRun:
    """Run the training protocol and leave artifacts in ``out_dir``.

    Per epoch: shuffled augmented batches, forward in train mode, backward,
    RMSprop update; then validation accuracy in infer mode, a metrics row,
    and a checkpoint whenever the validation error improves (ties keep the
    earlier epoch). ``progress`` is an optional callable fed one line per
    epoch.
    """
    epochs = run_config.epochs if epochs is None else epochs
    seed = run_config.seed if seed is None else seed
    if epochs < 0:
        raise ConfigurationError(f"epochs must be >= 0, got {epochs}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    out = Path(out_dir if out_dir is not None else run_config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    model = ArCapsNet(run_config.model_config(), seed=seed)
    state = RmspropState(model.store)
    policy = run_config.augment_policy()
    train_set, val_set = split_train_val(dataset, 0.1, seed)
    if len(train_set) == 0 or len(val_set) == 0:
        raise InputDataError(
            f"dataset of {len(dataset)} samples leaves an empty train or "
            f"validation split")
    if policy.pad_to is not None:
        # train batches are padded by the augmentation; the validation
        # split must be padded deterministically to the same canvas
        val_set = pad_dataset(val_set, *policy.pad_to)

    run = TrainRun(run_config=run_config)
    run.best_path = str(out / "best.ckpt")
    run.last_path = str(out / "last.ckpt")
    run.metrics_path = str(out / "metrics.csv")

    start = time.perf_counter()
    metrics_rows = []
    for epoch in range(1, epochs + 1):
        loss_sums = np.zeros(3)
        seen = 0
        for b, (images, labels) in enumerate(
                batches(train_set, run_config.batch_size,
                        _epoch_seed(seed, epoch), policy)):
            model.store.zero_grads()
            rng = _batch_rng(seed, epoch, b)
            total_v, margin_v, recon_v = _train_one_batch(
                model, images, labels, rng, b)
            rmsprop_step(model.store, state)
            n = images.shape[0]
            loss_sums += np.array([total_v, margin_v, recon_v]) * n
            seen += n
        val = evaluate(model, val_set, run_config.batch_size)
        stats = EpochStats(
            epoch=epoch,
            train_loss=float(loss_sums[0] / seen),
            margin_loss=float(loss_sums[1] / seen),
            recon_loss=float(loss_sums[2] / seen),
            val_accuracy=float(val.accuracy),
            seconds=time.perf_counter() - start,
        )
        run.history.append(stats)
        metrics_rows.append(
            f"{stats.epoch},{float(stats.train_loss)!r},{float(stats.margin_loss)!r},"
            f"{float(stats.recon_loss)!r},{float(stats.val_accuracy)!r},"
            f"{float(stats.seconds)!r}")
        if val.error < run.best_val_error:
            run.best_val_error = val.error
            run.best_epoch = epoch
            save_model(run.best_path, model, run_config, run.best_val_error)
        if progress is not None:
            progress(
                f"epoch {epoch}/{epochs}: loss {stats.train_loss:.4f} "
                f"(margin {stats.margin_loss:.4f} recon {stats.recon_loss:.4f}) "
                f"val acc {val.accuracy:.4f} [{stats.seconds:.1f}s]")

    save_model(run.last_path, model, run_config, run.best_val_error)
    if epochs == 0:
        # initialized model is both first and best
        save_model(run.best_path, model, run_config, run.best_val_error)
    (out / "metrics.csv").write_text(
        "\n".join([METRICS_HEADER, *metrics_rows]) + "\n", encoding="utf-8")
    return run
