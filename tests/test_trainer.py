"""Training loop behavior: progress, checkpointing, determinism, evaluation."""

import contextlib
from pathlib import Path

import numpy as np
import pytest

from arcaps import checkpoint, tensor as T
from arcaps.config import RunConfig
from arcaps.data import Dataset, split_train_val
from arcaps.errors import ComputationError, ConfigurationError
from arcaps.model import ArCapsNet
from arcaps.train import (METRICS_HEADER, _train_one_batch, evaluate, load_model,
                          train)

import digitgen


def micro_run_config(out_dir, **kw):
    base = dict(input_width=12, input_height=12, input_channels=1,
                stem_width=4, primary_dim=3, primary_channels=2,
                conv_caps=1, caps_dim=4, caps_channels=3, classes=10,
                decoder_widths=(16,), epochs=2, batch_size=16, seed=0,
                out_dir=str(out_dir))
    base.update(kw)
    return RunConfig(**base)


def micro_dataset(count=64, seed=0, size=12):
    images, labels = digitgen.make_arrays(count, seed=seed, size=size)
    return Dataset(images[..., None].astype(np.float32) / 255.0,
                   labels.astype(np.int64), 10)


class TestTrainLoop:
    def test_smoke_loss_decreases(self, tmp_path):
        cfg = micro_run_config(tmp_path, epochs=2)
        run = train(cfg, micro_dataset(64))
        assert len(run.history) == 2
        assert run.history[1].train_loss < run.history[0].train_loss

    def test_zero_epochs_writes_initial_checkpoint(self, tmp_path):
        cfg = micro_run_config(tmp_path, epochs=0)
        run = train(cfg, micro_dataset(64))
        assert run.history == []
        assert Path(run.best_path).exists()
        assert Path(run.last_path).exists()
        metrics = Path(run.metrics_path).read_text().strip()
        assert metrics == METRICS_HEADER
        model, _, _ = load_model(run.best_path)
        meta, arrays = checkpoint.load(run.best_path)
        assert list(arrays) == model.store.names()  # no optimizer records
        assert not any(line.startswith("state.step_count")
                       for line in meta.splitlines())
        fresh = ArCapsNet(cfg.model_config(), seed=cfg.seed)
        for name, t in fresh.store.items():
            assert np.array_equal(t.data, model.store[name].data)

    def test_negative_epochs_rejected_before_out_dir_is_made(self, tmp_path):
        cfg = micro_run_config(tmp_path)
        with pytest.raises(ConfigurationError, match="epochs must be >= 0"):
            train(cfg, micro_dataset(64), out_dir=tmp_path / "x", epochs=-1)
        assert not (tmp_path / "x").exists()

    def test_negative_seed_rejected_before_out_dir_is_made(self, tmp_path):
        cfg = micro_run_config(tmp_path)
        with pytest.raises(ConfigurationError, match="^seed must be >= 0, got -1$"):
            train(cfg, micro_dataset(64), out_dir=tmp_path / "x", seed=-1)
        assert not (tmp_path / "x").exists()

    def test_identical_seeds_give_bitwise_identical_checkpoints(self, tmp_path):
        # same command, same seed, same out-dir: rerun and compare bytes
        cfg = micro_run_config(tmp_path, epochs=2)
        run1 = train(cfg, micro_dataset(64))
        best_1 = Path(run1.best_path).read_bytes()
        last_1 = Path(run1.last_path).read_bytes()
        run2 = train(cfg, micro_dataset(64))
        assert Path(run2.best_path).read_bytes() == best_1
        assert Path(run2.last_path).read_bytes() == last_1

    def test_different_seed_changes_training(self, tmp_path):
        run_a = train(micro_run_config(tmp_path / "a", epochs=1),
                      micro_dataset(64))
        run_b = train(micro_run_config(tmp_path / "b", epochs=1, seed=1),
                      micro_dataset(64))
        assert (Path(run_a.last_path).read_bytes()
                != Path(run_b.last_path).read_bytes())

    def test_metrics_rows_and_monotone_walltime(self, tmp_path):
        cfg = micro_run_config(tmp_path, epochs=3)
        run = train(cfg, micro_dataset(64))
        lines = Path(run.metrics_path).read_text().strip().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + 3
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        for row, stats in zip(rows, run.history):
            assert row[0] == stats.epoch
            assert row[1] == stats.train_loss  # plain parseable numbers
        seconds = [row[-1] for row in rows]
        assert all(b > a for a, b in zip(seconds, seconds[1:]))

    def test_best_checkpoint_tracks_min_val_error(self, tmp_path):
        cfg = micro_run_config(tmp_path, epochs=3)
        run = train(cfg, micro_dataset(96))
        errors = [1.0 - s.val_accuracy for s in run.history]
        assert run.best_val_error == min(errors)
        assert run.best_epoch == 1 + int(np.argmin(errors))  # ties keep earliest

    def test_nonfinite_gradient_aborts_with_diagnostic(self, tmp_path):
        cfg = micro_run_config(tmp_path)
        model = ArCapsNet(cfg.model_config(), seed=0)
        model.store["stem0.kernel"].data[0, 0, 0, 0] = np.nan
        ds = micro_dataset(16)
        with pytest.raises(ComputationError, match="batch 0"):
            _train_one_batch(model, ds.images, ds.labels,
                             np.random.default_rng(0), 0)


class TestSmokeConfigs:
    def test_deep_residual_config_smoke_trains(self, tmp_path, rng):
        # full-size 32x32x3 architecture with four residual capsule layers:
        # one short epoch must run and update every trainable parameter
        cfg = RunConfig(kind="cifar10", conv_caps=4, caps_dim=32,
                        epochs=1, batch_size=10, seed=0,
                        out_dir=str(tmp_path / "run"))
        images = rng.random((30, 32, 32, 3)).astype(np.float32)
        labels = rng.integers(0, 10, 30).astype(np.int64)
        ds = Dataset(images, labels, 10)
        before = {n: t.data.copy() for n, t in
                  ArCapsNet(cfg.model_config(), seed=0).store.trainable_items()}
        run = train(cfg, ds)
        assert len(run.history) == 1
        assert np.isfinite(run.history[0].train_loss)
        model, _, _ = load_model(run.last_path)
        moved = [n for n, t in model.store.trainable_items()
                 if not np.array_equal(t.data, before[n])]
        assert len(moved) == len(before)

    def test_padded_canvas_translated_training_mode(self, tmp_path):
        # native 28x28 digits trained on a 40x40 canvas with 0.2 shifts
        cfg = RunConfig(input_width=0, input_height=0,  # derive 40 from pad_to
                        stem_width=4, primary_dim=3, primary_channels=2,
                        conv_caps=1, caps_dim=4, caps_channels=3,
                        pad_to=40, translate=0.2,
                        epochs=1, batch_size=20, seed=0,
                        out_dir=str(tmp_path / "run"))
        assert cfg.model_config().input_width == 40
        images, labels = digitgen.make_arrays(60, seed=4, size=28)
        ds = Dataset(images[..., None].astype(np.float32) / 255.0,
                     labels.astype(np.int64), 10)
        run = train(cfg, ds)
        assert np.isfinite(run.history[0].train_loss)
        model, _, _ = load_model(run.best_path)
        assert model.config.input_width == 40


class TestEvaluate:
    def test_random_model_near_chance(self):
        cfg = micro_run_config("unused")
        model = ArCapsNet(cfg.model_config(), seed=13)
        ds = micro_dataset(1000, seed=5)
        result = evaluate(model, ds, batch_size=100)
        assert abs(result.accuracy - 0.1) < 0.03 + 0.06  # chance with slack

    def test_confusion_rows_sum_to_class_counts(self):
        cfg = micro_run_config("unused")
        model = ArCapsNet(cfg.model_config(), seed=1)
        ds = micro_dataset(200, seed=2)
        result = evaluate(model, ds, batch_size=64)
        for cls in range(10):
            assert result.confusion[cls].sum() == int((ds.labels == cls).sum())
        assert result.confusion.sum() == len(ds)

    def test_evaluate_is_bitwise_deterministic(self):
        cfg = micro_run_config("unused")
        model = ArCapsNet(cfg.model_config(), seed=3)
        ds = micro_dataset(128, seed=7)
        a = evaluate(model, ds, batch_size=50)
        b = evaluate(model, ds, batch_size=50)
        assert a.accuracy == b.accuracy
        assert a.total_loss == b.total_loss
        assert np.array_equal(a.confusion, b.confusion)

    def test_evaluate_builds_no_graph_and_matches_graph_evaluation(self, monkeypatch):
        cfg = micro_run_config("unused")
        model = ArCapsNet(cfg.model_config(), seed=3)
        ds = micro_dataset(96, seed=7)
        outputs = []
        loss = model.loss

        def recording_loss(*args, **kwargs):
            out = loss(*args, **kwargs)
            outputs.append(out)
            return out

        model.loss = recording_loss
        without = evaluate(model, ds, batch_size=40)
        assert len(outputs) == 3
        assert all(total.parents == () and result.capsules.parents == ()
                   for total, _, _, result in outputs)
        outputs.clear()
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        with_graph = evaluate(model, ds, batch_size=40)
        assert all(total.parents for total, _, _, _ in outputs)
        for name in ("accuracy", "total_loss", "margin_loss", "recon_loss"):
            assert getattr(without, name) == getattr(with_graph, name)
        assert np.array_equal(without.confusion, with_graph.confusion)

    def test_best_val_error_reproduced_from_checkpoint(self, tmp_path):
        cfg = micro_run_config(tmp_path, epochs=2)
        ds = micro_dataset(96)
        run = train(cfg, ds)
        model, _, state = load_model(run.best_path)
        _, val_set = split_train_val(ds, 0.1, cfg.seed)
        result = evaluate(model, val_set, cfg.batch_size)
        assert result.error == run.best_val_error
        assert float(state["state.best_val_error"]) == run.best_val_error
