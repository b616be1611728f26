"""Command-line entry point.

Subcommands: train, eval, analyze-align, analyze-perturb, count-params,
selftest. The run config is the --config file, else the --checkpoint's
run config, else the defaults; a subcommand's flags apply on top. Exit
codes: 0 success, 1 usage/configuration error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import analysis, config as cfgmod, netpbm, selftest
from .data import load_cifar10, load_idx, pad_dataset
from .errors import ComputationError, ConfigurationError, InputDataError
from .model import count_parameters
from .train import evaluate, load_model, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigurationError(message)


def _build_parser():
    parser = _Parser(prog="arcaps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    settings = {f.name: f.metadata for f in fields(cfgmod.RunConfig)}
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if flags is None:
            continue
        p.add_argument("--config", help="path to a section.key = value config file")
        if name in _CHECKPOINT_COMMANDS:
            p.add_argument("--checkpoint", required=True,
                           help="model checkpoint to load")
        for attr in flags:
            key, tag = settings[attr]["key"], settings[attr]["tag"]
            p.add_argument("--" + attr.replace("_", "-"), dest=attr,
                           type=cfgmod.PARSERS[tag], help=f"override {key}")
    return parser


def _run_config(args, base=None):
    """The --config file, else ``base``, else the defaults; then the flags."""
    if args.config:
        base = cfgmod.parse_file(args.config)
    elif base is None:
        base = cfgmod.RunConfig()
    flags = {attr: getattr(args, attr) for attr in _COMMANDS[args.command][2]}
    return replace(base, **{a: v for a, v in flags.items() if v is not None})


def _checkpoint_run(args):
    """Model, resolved run config and test set (padded to the checkpoint's
    canvas) of a command that reads --checkpoint."""
    model, ckpt_cfg, _ = load_model(args.checkpoint)
    cfg = _run_config(args, base=ckpt_cfg)
    dataset = _dataset(cfg, "test")
    if ckpt_cfg.pad_to:
        dataset = pad_dataset(dataset, ckpt_cfg.pad_to, ckpt_cfg.pad_to)
    return model, cfg, dataset


def _dataset(cfg: cfgmod.RunConfig, split):
    root = Path(cfg.resolved_data_dir())
    if cfg.kind == "mnist":
        if split == "train":
            return load_idx(root / cfg.train_images, root / cfg.train_labels)
        return load_idx(root / cfg.test_images, root / cfg.test_labels)
    if split == "train":
        paths = [root / f"data_batch_{i}.bin" for i in range(1, 6)]
        paths = [p for p in paths if p.exists()] or [root / "data_batch_1.bin"]
        return load_cifar10(paths)
    return load_cifar10(root / "test_batch.bin")


def _echo_config(cfg, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved.cfg").write_text(cfgmod.serialize(cfg), encoding="utf-8")


def _cmd_train(args):
    cfg = _run_config(args)
    _echo_config(cfg, cfg.out_dir)
    dataset = _dataset(cfg, "train")
    run = train(cfg, dataset, progress=print)
    print(f"best validation error {run.best_val_error:.4f} "
          f"(epoch {run.best_epoch}); checkpoints in {cfg.out_dir}")
    return EXIT_OK


def _cmd_eval(args):
    model, cfg, dataset = _checkpoint_run(args)
    result = evaluate(model, dataset, cfg.batch_size)
    print(f"accuracy {result.accuracy:.4f}")
    print(f"loss total {result.total_loss:.6f} margin {result.margin_loss:.6f} "
          f"recon {result.recon_loss:.6f}")
    print("confusion rows=true cols=predicted:")
    for row in result.confusion:
        print(" ".join(f"{v:6d}" for v in row))
    return EXIT_OK


def _cmd_analyze_align(args):
    model, cfg, dataset = _checkpoint_run(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    report = analysis.alignment_experiment(
        model, dataset, cfg.samples, cfg.families, seed=cfg.seed)
    (out / "alignment_ratios.csv").write_text(report.to_csv(), encoding="utf-8")

    hists = analysis.cosine_histogram(report)
    for pair, (centers, counts, _) in hists.items():
        lines = ["bin_center,count"]
        lines += [f"{c:.4f},{n}" for c, n in zip(centers, counts)]
        (out / f"cosine_{pair}.csv").write_text("\n".join(lines) + "\n",
                                                encoding="utf-8")

    d = model.config.caps_dim
    mean, std = analysis.random_baseline(dim=d, vectors=5, trials=1000,
                                         seed=cfg.seed)
    fit_mean, fit_std = analysis.random_baseline_fitted(
        dim=d, vectors=5, trials=1000, seed=cfg.seed)
    (out / "random_baseline.csv").write_text(
        "baseline,mean,std\n"
        f"reference_recipe,{mean:.6f},{std:.6f}\n"
        f"fitted_procedure,{fit_mean:.6f},{fit_std:.6f}\n",
        encoding="utf-8")

    overall = report.overall_mean()
    print(f"mean alignment ratio over {len(report.sample_indices)} samples: {overall:.4f}")
    print(f"random baseline (reference recipe, D={d}): {mean:.4f} +- {std:.4f}")
    print(f"random baseline (fitted procedure, D={d}): {fit_mean:.4f} +- {fit_std:.4f}")
    print(f"tables in {out}")
    return EXIT_OK


def _cmd_analyze_perturb(args):
    model, cfg, dataset = _checkpoint_run(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dims = cfg.dimensions or tuple(range(model.config.caps_dim))
    mc = model.config
    written = 0
    for class_id in range(mc.classes):
        hits = np.nonzero(dataset.labels == class_id)[0]
        if hits.size == 0:
            continue
        image = dataset.images[int(hits[0])]
        for dim in dims:
            sweep = analysis.perturb_and_decode(model, image, dim, label=class_id)
            strip = analysis.sweep_strip(
                sweep, mc.input_width, mc.input_height, mc.input_channels)
            netpbm.write_image(out / f"perturb_class{class_id}_dim{dim}.pgm"
                               if mc.input_channels == 1
                               else out / f"perturb_class{class_id}_dim{dim}.ppm",
                               strip)
            written += 1
    print(f"wrote {written} perturbation grids to {out}")
    return EXIT_OK


def _cmd_count_params(args):
    cfg = _run_config(args)
    total, rows = count_parameters(cfg.model_config())
    width = max(len(name) for name, _ in rows)
    for name, n in rows:
        print(f"{name:<{width}}  {n:>12,d}")
    print(f"{'total':<{width}}  {total:>12,d}")
    return EXIT_OK


def _cmd_selftest(args):
    failures = selftest.run(report=print)
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


# subcommand -> (handler, help, RunConfig attributes it takes as flags);
# None = no --config either
_COMMANDS = {
    "train": (_cmd_train, "train a model and checkpoint the best epoch",
              ("seed", "epochs", "batch_size", "out_dir")),
    "eval": (_cmd_eval, "evaluate a checkpoint on the test set", ("batch_size",)),
    "analyze-align": (_cmd_analyze_align,
                      "alignment-ratio tables, cosine histograms, baselines",
                      ("seed", "out_dir", "samples")),
    "analyze-perturb": (_cmd_analyze_perturb,
                        "per-dimension perturbation reconstruction grids", ("out_dir",)),
    "count-params": (_cmd_count_params, "print the parameter-count breakdown", ()),
    "selftest": (_cmd_selftest, "gradient checks and oracle comparisons", None),
}
_CHECKPOINT_COMMANDS = ("eval", "analyze-align", "analyze-perturb")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputDataError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ComputationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry():
    raise SystemExit(main())
