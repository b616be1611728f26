"""The three workloads: seeded inputs, one pass, and the output checks.

A pass is one call of a public ``arcaps`` function over the workload's
input set; the run repeats passes until its time is up, and the first
pass is warm-up. A unit is the work the throughput is counted in: one
train step, one eval batch or one align sample. Units are delimited by
wrappers on the names ``arcaps.train.batches`` and
``arcaps.analysis.difference_vectors`` (see ``recorder.py``), in traced
and untraced runs alike; they add one Python call per unit.
"""

from __future__ import annotations

import numpy as np

import recorder

BATCH = 100
# 333 images split 300 train / 33 validation: three full train steps, one
# short validation batch and two checkpoint writes per epoch
TRAIN_IMAGES = 333
EVAL_IMAGES = 3 * BATCH
ALIGN_SAMPLES = 10
# a float64 align vector is unit-norm to about 1e-15; ratios are |cos|
NORM_TOL = 1e-9
CONSISTENCY_IMAGES = 4


def digit_dataset(arcaps, digitgen, count, seed):
    """Seeded digit images as arcaps reads them: float32 in [0, 1], NHWC."""
    images, labels = digitgen.make_arrays(count, seed)
    return arcaps.data.Dataset(images[..., None].astype(np.float32) / 255.0,
                               labels.astype(np.int64), 10)


class Workload:
    """Common bookkeeping; subclasses fill in inputs, the pass and checks."""

    name = ""
    unit_kind = ""
    images_per_unit = 0

    def __init__(self, arcaps, digitgen, seed, workdir):
        self.arcaps = arcaps
        self.seed = seed
        self.workdir = workdir
        self.checkpoint = None   # path the setup probes load, if any
        self.bad_units = set()   # units that raised or failed a check
        self.cut_units = set()   # units an exception cut short: not timed
        self.checks = {}         # check name -> [attempted, failed]

    def check(self, name, ok):
        entry = self.checks.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += 0 if ok else 1

    def watch_loss(self, rec, model):
        """Wrap this model's ``loss`` so each call's output is checked."""
        inner = model.loss

        def loss(images, labels, train=False, rng=None):
            out = inner(images, labels, train=train, rng=rng)
            if not self.loss_ok(rec.unit, out, train):
                self.bad_units.add(rec.unit)
            return out

        model.loss = loss

    def loss_ok(self, unit, out, train):
        return True

    def setup(self, rec, patcher, traced):
        """In-process set-up after the wrappers are in (so loads are traced)."""

    def after_pass(self, rec, pass_idx, result):
        """Output checks on a finished pass."""

    def final_checks(self):
        """Checks made once after the last pass."""

    def details(self, unit_ms, pass_s):
        return {}


class TrainB100(Workload):
    """``arcaps.train.train`` for one epoch on the default model."""

    name = "train-b100"
    unit_kind = "train_step"
    images_per_unit = BATCH

    def __init__(self, arcaps, digitgen, seed, workdir):
        super().__init__(arcaps, digitgen, seed, workdir)
        self.dataset = digit_dataset(arcaps, digitgen, TRAIN_IMAGES, seed)
        self.run_config = arcaps.config.RunConfig(
            translate=0.1, rotate=15.0, batch_size=BATCH, seed=seed, epochs=1)
        self.losses = {}          # unit -> total loss of its train step
        self.epoch_losses = []    # mean train loss of each timed pass

    def setup(self, rec, patcher, traced):
        train = self.arcaps.train
        net_class = train.ArCapsNet

        def build(*args, **kwargs):
            model = net_class(*args, **kwargs)
            if traced:
                recorder.instrument_model(rec, model)
            self.watch_loss(rec, model)
            return model

        patcher.set(train, "ArCapsNet", build)

    def run_pass(self):
        run = self.arcaps.train.train(self.run_config, self.dataset,
                                      out_dir=self.workdir, epochs=1, seed=self.seed)
        return run.history[0].train_loss

    def loss_ok(self, unit, out, train):
        if not train:
            return True
        value = out[0].item()
        self.losses[unit] = value
        return bool(np.isfinite(value))

    def after_pass(self, rec, pass_idx, result):
        steps = [self.losses.get(u) for u in pass_units(rec, pass_idx, self.unit_kind)]
        self.check("last_step_loss_below_first",
                   len(steps) >= 2 and None not in steps and steps[-1] < steps[0])
        if rec.spans[pass_idx][recorder.NAME] == "pass.timed":
            self.epoch_losses.append(result)

    def details(self, unit_ms, pass_s):
        return {"train_img_per_s": BATCH / np.median(unit_ms) * 1e3,
                "epoch_s": pass_s,
                "train_loss": float(np.median(self.epoch_losses))}


class LoadedModelWorkload(Workload):
    """A workload on a model that ``train.load_model`` reads from a
    checkpoint the benchmark writes from a seeded, untrained model."""

    def __init__(self, arcaps, digitgen, seed, workdir):
        super().__init__(arcaps, digitgen, seed, workdir)
        run_config = arcaps.config.RunConfig(seed=seed)
        model = arcaps.ArCapsNet(run_config.model_config(), seed=seed)
        self.checkpoint = str(workdir / "seeded.ckpt")
        arcaps.train.save_model(self.checkpoint, model, run_config)
        self.model = None

    def setup(self, rec, patcher, traced):
        self.model, _, _ = self.arcaps.train.load_model(self.checkpoint)
        if traced:
            recorder.instrument_model(rec, self.model)
        self.watch_loss(rec, self.model)


class EvalB100(LoadedModelWorkload):
    """``arcaps.train.evaluate`` at batch size 100."""

    name = "eval-b100"
    unit_kind = "eval_batch"
    images_per_unit = BATCH

    def __init__(self, arcaps, digitgen, seed, workdir):
        super().__init__(arcaps, digitgen, seed, workdir)
        self.dataset = digit_dataset(arcaps, digitgen, EVAL_IMAGES, seed)
        self.evaluate = arcaps.train.evaluate

    def run_pass(self):
        return self.evaluate(self.model, self.dataset, BATCH)

    def loss_ok(self, unit, out, train):
        scores = out[3].scores.data
        return bool(np.all(np.isfinite(scores)) and scores.min() >= 0.0
                    and scores.max() <= 1.0)

    def final_checks(self):
        """Batched and one-at-a-time inference agree on a few images."""
        images = self.dataset.images[:CONSISTENCY_IMAGES]
        batched = self.model.forward(images)
        single = [self.model.forward(images[i:i + 1]) for i in range(len(images))]
        same_pred = all(batched.predictions[i] == s.predictions[0]
                        for i, s in enumerate(single))
        scores = np.concatenate([s.scores.data for s in single])
        self.check("batched_equals_single",
                   same_pred and np.allclose(batched.scores.data, scores,
                                             rtol=1e-4, atol=1e-6))

    def details(self, unit_ms, pass_s):
        return {"eval_img_per_s": BATCH / np.median(unit_ms) * 1e3}


class AlignB6(LoadedModelWorkload):
    """``arcaps.analysis.alignment_experiment`` over all six families."""

    name = "align-b6"
    unit_kind = "align_sample"

    def __init__(self, arcaps, digitgen, seed, workdir):
        super().__init__(arcaps, digitgen, seed, workdir)
        self.dataset = digit_dataset(arcaps, digitgen, ALIGN_SAMPLES, seed)
        analysis = arcaps.analysis
        self.families = analysis.FAMILY_NAMES
        # each family forwards one batch: the image and its five transforms
        self.images_per_unit = len(self.families) * (
            1 + len(analysis.family_transforms(self.families[0])))

    def setup(self, rec, patcher, traced):
        super().setup(rec, patcher, traced)
        recorder.patch_samples(rec, patcher, self.arcaps.analysis,
                               self.families[0], traced)

    def run_pass(self):
        return self.arcaps.analysis.alignment_experiment(
            self.model, self.dataset, ALIGN_SAMPLES, self.families, self.seed)

    def after_pass(self, rec, pass_idx, report):
        units = pass_units(rec, pass_idx, self.unit_kind)
        by_index = {}
        for record in report.records:
            by_index.setdefault(record.index, []).append(record)
        for unit, idx in zip(units, report.sample_indices):
            for record in by_index.get(int(idx), []):
                ratios_ok = bool(np.all((record.ratios >= 0.0)
                                        & (record.ratios <= 1.0 + NORM_TOL)))
                norm_ok = abs(np.linalg.norm(record.align) - 1.0) <= NORM_TOL
                if not (ratios_ok and norm_ok):
                    self.bad_units.add(unit)
        self.check("one_unit_per_sample", len(units) == len(report.sample_indices))

    def details(self, unit_ms, pass_s):
        out = {"align_samples_per_s": 1e3 / np.median(unit_ms),
               "align_sample_ms_p50": float(np.median(unit_ms))}
        if len(unit_ms) >= 100:
            out["align_sample_ms_p90"] = float(np.percentile(unit_ms, 90))
        return out


def pass_units(rec, pass_idx, kind):
    return [u for u, k in rec.units
            if k == kind and rec.spans[u][recorder.PASS] == pass_idx]


WORKLOADS = {w.name: w for w in (TrainB100, EvalB100, AlignB6)}
