"""Config file parsing and the command-line surface."""

import re
from dataclasses import fields

import numpy as np
import pytest

import arcaps.analysis
import arcaps.cli
from arcaps import checkpoint, config as cfgmod
from arcaps.cli import main
from arcaps.errors import ConfigurationError
from arcaps.model import ArCapsNet, ModelConfig
from arcaps.train import save_model

import digitgen
from conftest import corrupt_headers


class TestConfigParsing:
    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        cfg = cfgmod.parse_file(p)
        assert cfg == cfgmod.RunConfig()
        model = cfg.model_config()
        assert (model.input_width, model.input_height) == (28, 28)
        assert model.stem_width == 64 and model.classes == 10

    def test_model_config_fields_are_run_config_fields(self):
        # one declaration of the architecture: each ModelConfig field is the
        # model.* setting of the same name and default, except the input
        # shape, whose settings default to 0 (derive from data.kind)
        run = {f.name: f.default for f in fields(cfgmod.RunConfig)
               if f.metadata["key"].startswith("model.")}
        assert list(run) == [f.name for f in fields(ModelConfig)]
        derived = ("input_width", "input_height", "input_channels")
        for f in fields(ModelConfig):
            assert run[f.name] == (0 if f.name in derived else f.default), f.name
        assert cfgmod.RunConfig().model_config() == ModelConfig()

    def test_round_trip_law(self):
        cfg = cfgmod.RunConfig(stem_width=32, caps_dim=16, translate=0.1,
                               flip=True, decoder_widths=(64, 32),
                               families=("Rot+", "Rot-"), dimensions=(0, 3),
                               out_dir="runs/x")
        text = cfgmod.serialize(cfg)
        assert cfgmod.parse_lines(text.splitlines()) == cfg

    def test_unknown_key_names_line_number(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("model.stem_width = 32\nmodel.stemwidth = 9\n")
        with pytest.raises(ConfigurationError, match="line 2"):
            cfgmod.parse_file(p)

    @pytest.mark.parametrize("key", ["loss.m_plus", "loss.m_minus", "loss.lambda",
                                     "loss.recon_scale"])
    def test_loss_keys_are_unknown(self, tmp_path, key):
        # the loss constants are module constants (model.M_PLUS etc.), not settings
        p = tmp_path / "loss.cfg"
        p.write_text(f"model.stem_width = 32\n{key} = 0.5\n")
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"{p} line 2: unknown key {key!r}")):
            cfgmod.parse_file(p)

    def test_type_error_names_line_number(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("train.epochs = soon\n")
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"{p} line 1: cannot parse")):
            cfgmod.parse_file(p)

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# a comment\n\nmodel.classes = 7  # trailing\n")
        assert cfgmod.parse_file(p).classes == 7

    def test_padded_canvas_training_mode(self, tmp_path):
        # enlarged-canvas translated-digit training: 40x40 input, 0.2 shifts
        p = tmp_path / "pad.cfg"
        p.write_text("data.pad_to = 40\ndata.translate = 0.2\n")
        cfg = cfgmod.parse_file(p)
        model = cfg.model_config()
        assert (model.input_width, model.input_height) == (40, 40)
        policy = cfg.augment_policy()
        img = np.zeros((28, 28, 1), dtype=np.float32)
        img[14, 14, 0] = 1.0
        from arcaps.data import augment

        out = augment(img, policy, np.random.default_rng(0))
        assert out.shape == (40, 40, 1)
        assert out.sum() == 1.0  # translated within the padded canvas
        r, c, _ = np.unravel_index(np.argmax(out), out.shape)
        assert abs(r - 20) <= 8 and abs(c - 20) <= 8  # +-round(0.2*40)

    def test_pad_smaller_than_native_rejected(self, tmp_path):
        p = tmp_path / "pad.cfg"
        p.write_text("data.pad_to = 20\n")
        with pytest.raises(ConfigurationError, match="pad_to"):
            cfgmod.parse_file(p).model_config()

    def test_deep_residual_architecture_row(self, tmp_path):
        p = tmp_path / "t2.cfg"
        p.write_text("data.kind = cifar10\nmodel.conv_caps = 4\nmodel.caps_dim = 32\n")
        cfg = cfgmod.parse_file(p)
        model = cfg.model_config()
        assert (model.conv_caps, model.caps_dim, model.caps_channels) == (4, 32, 8)
        assert model.residual
        # only the first capsule layer halves the extent
        assert model.spatial_chain() == [(16, 16)] + [(8, 8)] * 4
        assert model.input_channels == 3
        from arcaps.model import count_parameters

        total, _ = count_parameters(model)
        assert abs(total - 9.6e6) / 9.6e6 < 0.05


def _earlier_format(path):
    path.write_bytes(b"ARCAPS04" + path.read_bytes()[8:])


def _wider_stem_in_config(path):
    meta, arrays = checkpoint.load(path)
    checkpoint.save(path, meta.replace("model.stem_width = 3", "model.stem_width = 4"), arrays)


class TestCli:
    def test_count_params_default_config(self, capsys):
        assert main(["count-params"]) == 0
        out = capsys.readouterr().out
        assert "total" in out
        total = int(out.strip().splitlines()[-1].split()[-1].replace(",", ""))
        assert abs(total - 5.31e6) / 5.31e6 < 0.02

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_usage_error_on_bad_flag(self, capsys):
        assert main(["count-params", "--bogus"]) == 1

    def test_missing_config_file_is_usage_or_data_error(self, capsys):
        code = main(["count-params", "--config", "/nonexistent/x.cfg"])
        assert code == 2

    def test_missing_data_maps_to_exit_2(self, tmp_path, capsys):
        code = main(["train", "--out-dir", str(tmp_path), "--epochs", "0"])
        # no dataset in cwd/env: data error
        assert code == 2

    def test_corrupt_checkpoint_header_maps_to_exit_2(self, tmp_path, capsys, tiny_config,
                                                      tiny_run_config):
        ckpt = tmp_path / "model.ckpt"
        save_model(ckpt, ArCapsNet(tiny_config, seed=0), tiny_run_config)
        for corrupt, message in corrupt_headers(ckpt.read_bytes()):
            ckpt.write_bytes(corrupt)
            assert main(["eval", "--checkpoint", str(ckpt)]) == 2
            assert re.search(f"data error: {re.escape(str(ckpt))}: {message}",
                             capsys.readouterr().err)

    def test_config_file_not_utf8_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        raw = b"model.stem_width = 32\n# caf\xff\n"
        p.write_bytes(raw)
        assert main(["count-params", "--config", str(p)]) == 1
        assert (f"error: {p}: not UTF-8 text (byte at offset {raw.index(0xff)})"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("corrupt,reason", [
        (_earlier_format, "b'ARCAPS04' checkpoint has loss.* config keys this version "
                          "no longer accepts; this version reads only b'ARCAPS05'"),
        (_wider_stem_in_config, "records do not fit the file's config: parameter "
                                "'stem0.kernel' shape (3, 3, 1, 3) != expected (3, 3, 1, 4)"),
    ], ids=["earlier-format", "records-not-fitting-config"])
    def test_rejected_checkpoint_maps_to_exit_2_naming_the_file(
            self, tmp_path, capsys, tiny_config, tiny_run_config, corrupt, reason):
        ckpt = tmp_path / "model.ckpt"
        save_model(ckpt, ArCapsNet(tiny_config, seed=0), tiny_run_config)
        corrupt(ckpt)
        assert main(["eval", "--checkpoint", str(ckpt)]) == 2
        assert f"data error: {ckpt}: {reason}" in capsys.readouterr().err

    def test_train_epochs_zero_writes_checkpoint(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        digitgen.write_dataset(data_dir, train_count=40, test_count=10, seed=0)
        out_dir = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model.stem_width = 4\nmodel.primary_dim = 2\n"
            "model.primary_channels = 2\nmodel.conv_caps = 0\n"
            "model.caps_dim = 3\nmodel.decoder_widths = 8\n"
            f"data.dir = {data_dir}\ntrain.batch_size = 10\n"
            f"train.out_dir = {out_dir}\n")
        code = main(["train", "--config", str(cfg), "--epochs", "0"])
        assert code == 0
        assert (out_dir / "best.ckpt").exists()
        assert (out_dir / "last.ckpt").exists()
        assert (out_dir / "metrics.csv").exists()
        echoed = cfgmod.parse_file(out_dir / "resolved.cfg")
        assert echoed.epochs == 0
        assert echoed.stem_width == 4

    def test_eval_and_analysis_round_trip(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        digitgen.write_dataset(data_dir, train_count=60, test_count=30, seed=0)
        out_dir = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model.stem_width = 4\nmodel.primary_dim = 2\n"
            "model.primary_channels = 2\nmodel.conv_caps = 1\n"
            "model.caps_dim = 4\nmodel.caps_channels = 2\n"
            "model.decoder_widths = 8\n"
            f"data.dir = {data_dir}\ntrain.batch_size = 20\n"
            f"train.out_dir = {out_dir}\nanalyze.samples = 4\n"
            "analyze.dimensions = 0,1\n")
        assert main(["train", "--config", str(cfg), "--epochs", "1"]) == 0
        ckpt = str(out_dir / "best.ckpt")

        assert main(["eval", "--config", str(cfg), "--checkpoint", ckpt]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "confusion" in out

        assert main(["analyze-align", "--config", str(cfg),
                     "--checkpoint", ckpt]) == 0
        assert (out_dir / "alignment_ratios.csv").exists()
        assert (out_dir / "cosine_Rot.csv").exists()
        assert (out_dir / "random_baseline.csv").exists()
        table = (out_dir / "alignment_ratios.csv").read_text().splitlines()
        assert table[0] == "digit,Rot+,x+,y+,Rot-,x-,y-"

        assert main(["analyze-perturb", "--config", str(cfg),
                     "--checkpoint", ckpt]) == 0
        grids = sorted(out_dir.glob("perturb_class*_dim*.pgm"))
        assert grids, "no perturbation grids written"
        header = grids[0].read_bytes()[:15]
        assert header.startswith(b"P5\n308 28\n255\n")  # 11 tiles of 28 px

    def test_everything_lands_under_out_dir(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        digitgen.write_dataset(data_dir, train_count=40, test_count=10, seed=0)
        out_dir = tmp_path / "only_here"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model.stem_width = 3\nmodel.primary_dim = 2\n"
            "model.primary_channels = 2\nmodel.conv_caps = 0\n"
            "model.caps_dim = 3\nmodel.decoder_widths = 6\n"
            f"data.dir = {data_dir}\ntrain.batch_size = 10\n"
            f"train.out_dir = {out_dir}\n")
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["train", "--config", str(cfg), "--epochs", "1"]) == 0
        assert list(workdir.iterdir()) == []
        assert (out_dir / "metrics.csv").exists()


class TestFlagResolution:
    """Without --config the checkpoint's run config is the base, and the
    flags apply on top of it."""

    @pytest.fixture
    def checkpoint(self, tmp_path):
        data_dir = tmp_path / "data"
        digitgen.write_dataset(data_dir, train_count=10, test_count=12, seed=0)
        cfg = cfgmod.RunConfig(stem_width=3, primary_dim=2, primary_channels=2,
                               conv_caps=0, caps_dim=3, decoder_widths=(6,),
                               data_dir=str(data_dir), batch_size=10, seed=0,
                               samples=2, out_dir=str(tmp_path / "run"))
        path = tmp_path / "model.ckpt"
        save_model(path, ArCapsNet(cfg.model_config(), seed=0), cfg)
        return str(path)

    @staticmethod
    def _spy(monkeypatch, module, name):
        calls, real = [], getattr(module, name)

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        return calls

    def test_eval_batch_size_flag_overrides_checkpoint(self, checkpoint, monkeypatch,
                                                       capsys):
        calls = self._spy(monkeypatch, arcaps.cli, "evaluate")
        assert main(["eval", "--checkpoint", checkpoint, "--batch-size", "7"]) == 0
        (args, kwargs), = calls
        assert args[2] == 7

    def test_analyze_align_seed_flag_overrides_checkpoint(self, checkpoint, monkeypatch,
                                                          capsys):
        calls = self._spy(monkeypatch, arcaps.analysis, "alignment_experiment")
        assert main(["analyze-align", "--checkpoint", checkpoint, "--seed", "5"]) == 0
        (args, kwargs), = calls
        assert kwargs["seed"] == 5

    def test_analyze_align_reports_the_clamped_sample_count(self, checkpoint, capsys):
        # the test set holds 12 images; the experiment clamps 50 to them
        with pytest.warns(UserWarning, match="clamping"):
            assert main(["analyze-align", "--checkpoint", checkpoint, "--samples", "50"]) == 0
        assert "mean alignment ratio over 12 samples:" in capsys.readouterr().out

    def test_negative_seed_is_usage_error(self, checkpoint, tmp_path, capsys):
        # np.random.SeedSequence takes no negative seed: the flag and the
        # config key are refused as the key, before any RNG is seeded
        assert main(["analyze-align", "--checkpoint", checkpoint, "--seed", "-1"]) == 1
        assert "error: train.seed must be >= 0, got -1" in capsys.readouterr().err
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("train.seed = -1\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "error: train.seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_analyze_align_samples_below_one_is_data_error(self, checkpoint, capsys, samples):
        assert main(["analyze-align", "--checkpoint", checkpoint, "--samples", samples]) == 2
        assert (f"data error: sample_count must be >= 1, got {samples}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["selftest", "--config", "x"],
        ["selftest", "--epochs", "1"],
        ["count-params", "--seed", "1"],
        ["eval", "--checkpoint", "c", "--out-dir", "d"],
        ["analyze-perturb", "--checkpoint", "c", "--samples", "2"],
        ["train", "--samples", "2"],
    ])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, argv, capsys):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
