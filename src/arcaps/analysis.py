"""Transformation-equivariance analysis suite.

Given a trained model, these tools measure how input-space transformations
move the output capsules: per-dimension perturbation sweeps decoded back to
images, difference vectors under transform families, their dominant
direction (the align vector, the top right-singular vector of the stacked
differences), and the relative ratio of each difference captured by that
direction. Random-vector references calibrate what "aligned" means.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import rotate_image, translate_image
from .errors import InputDataError
from .model import ArCapsNet

FAMILY_NAMES = ("Rot+", "x+", "y+", "Rot-", "x-", "y-")

ROTATION_DEGREES = (5, 10, 15, 20, 25)
TRANSLATION_PIXELS = (1, 2, 3, 4, 5)


def family_transforms(name):
    """The five image transforms of one family.

    Rot+/- rotate by +-{5..25} degrees; x+/- translate horizontally by
    +-{1..5} pixels; y+/- vertically. Resampling matches the training
    augmentation: integer shifts and bilinear rotation, zero fill.
    """
    if name not in FAMILY_NAMES:
        raise InputDataError(f"unknown transform family {name!r}; "
                             f"expected one of {FAMILY_NAMES}")
    sign = 1 if name.endswith("+") else -1
    kind = name[:-1]
    if kind == "Rot":
        return [lambda img, d=deg: rotate_image(img, sign * d)
                for deg in ROTATION_DEGREES]
    if kind == "x":
        return [lambda img, p=px: translate_image(img, 0, sign * p)
                for px in TRANSLATION_PIXELS]
    return [lambda img, p=px: translate_image(img, sign * p, 0)
            for px in TRANSLATION_PIXELS]


# ---------------------------------------------------------------------------
# align vector machinery


def align_vector(diffs):
    """Dominant direction of a stack of difference vectors.

    Returns (v, coeffs): the unit top right-singular vector of the (N, D)
    matrix, taken from one SVD, oriented so the coefficient sum is
    non-negative; coeffs[i] is the projection of row i.
    """
    v_rows = np.asarray(diffs, dtype=np.float64)
    if v_rows.ndim != 2:
        raise InputDataError(f"align_vector() needs a matrix, got shape {v_rows.shape}")
    if not np.any(np.linalg.norm(v_rows, axis=1) > 0):
        raise InputDataError("align_vector() needs at least one nonzero row")
    w = np.linalg.svd(v_rows, full_matrices=False)[2][0]
    coeffs = v_rows @ w
    if coeffs.sum() < 0:
        w = -w
        coeffs = -coeffs
    return w, coeffs


def relative_ratios(diffs, align, eps=1e-12):
    """|v_i . align| / ||v_i|| per row.

    Rows with norm below ``eps`` carry no direction and are excluded;
    returns (ratios, excluded_row_indices).
    """
    v_rows = np.asarray(diffs, dtype=np.float64)
    norms = np.linalg.norm(v_rows, axis=1)
    keep = norms >= eps
    ratios = np.abs(v_rows[keep] @ np.asarray(align)) / norms[keep]
    return ratios, np.nonzero(~keep)[0].tolist()


def _check_seed(seed):
    """A negative seed is an InputDataError: it seeds a SeedSequence, which
    takes no negative."""
    if seed < 0:
        raise InputDataError(f"seed must be >= 0, got {seed}")


def random_baseline(dim=32, vectors=5, trials=1000, seed=0):
    """Reference ratio statistics for independent standard-normal vectors.

    Per trial, ``vectors`` rows are drawn in R^dim and their ratios are
    measured against the leading column of the full right-singular-vector
    matrix of the stack (the vector of first coordinates of all
    right-singular vectors, not the top singular direction itself). That
    recipe is frozen: the reference values everything is calibrated
    against (mean 0.311, std 0.262 at dim=32, vectors=5) were produced by
    it, and changing the recipe would silently change what "aligned"
    means. For a methodologically clean null of the actual analysis
    procedure, use :func:`random_baseline_fitted`.

    Returns (mean, std) over all trials * vectors ratios.
    """
    _check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence([0xBA5E, seed]))
    out = []
    for _ in range(trials):
        rows = rng.standard_normal((vectors, dim))
        _, _, vt = np.linalg.svd(rows, full_matrices=True)
        reference = vt[:, 0]
        out.extend(np.abs(rows @ reference) / np.linalg.norm(rows, axis=1))
    arr = np.asarray(out)
    return float(arr.mean()), float(arr.std())


def random_baseline_fitted(dim=32, vectors=5, trials=1000, seed=0):
    """Null distribution of the analysis procedure itself.

    Identical sampling to :func:`random_baseline`, but the ratios are
    measured against the fitted align vector (the top right-singular
    direction that :func:`align_vector` finds for the model analysis too).
    This is the statistically matched reference for trained-vs-untrained
    comparisons. Returns (mean, std).
    """
    _check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence([0xBA5E, seed]))
    out = []
    for _ in range(trials):
        rows = rng.standard_normal((vectors, dim))
        v, _ = align_vector(rows)
        ratios, _ = relative_ratios(rows, v)
        out.extend(ratios)
    arr = np.asarray(out)
    return float(arr.mean()), float(arr.std())


# ---------------------------------------------------------------------------
# model-side experiments


def output_capsules(model: ArCapsNet, images):
    """Inference-mode output capsules as a raw (B, D, N) array, built
    without a graph."""
    with T.no_grad():
        return model.capsule_forward(np.asarray(images), train=False).data


def difference_vectors(model: ArCapsNet, image, family, label=None):
    """Capsule differences for one image under one transform family.

    Rows are u(T_i(image)) - u(image) for the true-class (or predicted)
    channel, one per transform. Returns (diffs (5, D), class_id).
    """
    image = np.asarray(image)
    transforms = family_transforms(family)
    stack = np.stack([image] + [t(image) for t in transforms])
    caps = output_capsules(model, stack)
    if label is None:
        scores = np.linalg.norm(caps[0], axis=0)
        label = int(np.argmax(scores))
    base = caps[0, :, label]
    return caps[1:, :, label] - base, label


@dataclass
class ImageAlignment:
    index: int
    digit: int
    family: str
    ratios: np.ndarray
    align: np.ndarray


@dataclass
class AlignmentReport:
    families: tuple
    records: list[ImageAlignment] = field(default_factory=list)
    sample_indices: np.ndarray = None
    classes: int = 10

    def mean_table(self):
        """(per-digit means, overall means) keyed by family; NaN where empty."""
        table = np.full((self.classes, len(self.families)), np.nan)
        sums = np.zeros((self.classes, len(self.families)))
        counts = np.zeros((self.classes, len(self.families)))
        for rec in self.records:
            f = self.families.index(rec.family)
            sums[rec.digit, f] += rec.ratios.sum()
            counts[rec.digit, f] += rec.ratios.size
        np.divide(sums, counts, out=table, where=counts > 0)
        overall = np.full(len(self.families), np.nan)
        total_s = sums.sum(axis=0)
        total_c = counts.sum(axis=0)
        np.divide(total_s, total_c, out=overall, where=total_c > 0)
        return table, overall

    def overall_mean(self):
        """Mean of every ratio of every record; NaN when there are none."""
        ratios = [rec.ratios for rec in self.records]
        return float(np.concatenate(ratios).mean()) if ratios else float("nan")

    def to_csv(self):
        """Table text: one row per digit plus an avg row, one family per column."""
        lines = ["digit," + ",".join(self.families)]
        table, overall = self.mean_table()
        for digit in range(self.classes):
            cells = [f"{v:.4f}" if np.isfinite(v) else "" for v in table[digit]]
            lines.append(f"{digit}," + ",".join(cells))
        lines.append("avg," + ",".join(f"{v:.4f}" for v in overall))
        return "\n".join(lines) + "\n"


def alignment_experiment(model: ArCapsNet, dataset, sample_count=10000,
                         families=FAMILY_NAMES, seed=0) -> AlignmentReport:
    """Relative-ratio statistics over test images and transform families.

    Samples without replacement (clamping to the dataset size with a
    warning), computes the per-family align vector and ratios per image,
    and aggregates means per (digit, family) into a digit-by-family table.
    A sample_count below 1 or a negative seed is an InputDataError.
    """
    if sample_count < 1:
        raise InputDataError(f"sample_count must be >= 1, got {sample_count}")
    _check_seed(seed)
    count = len(dataset)
    if sample_count > count:
        warnings.warn(
            f"sample_count {sample_count} exceeds dataset size {count}; clamping",
            stacklevel=2)
        sample_count = count
    rng = np.random.default_rng(np.random.SeedSequence([0xA116, seed]))
    indices = np.sort(rng.choice(count, size=sample_count, replace=False))
    report = AlignmentReport(families=tuple(families),
                             sample_indices=indices,
                             classes=model.config.classes)
    for idx in indices:
        image = dataset.images[idx]
        digit = int(dataset.labels[idx])
        for family in families:
            diffs, _ = difference_vectors(model, image, family, label=digit)
            try:
                v, _ = align_vector(diffs)
            except InputDataError:
                continue  # all-zero differences carry no direction
            ratios, _ = relative_ratios(diffs, v)
            report.records.append(ImageAlignment(
                index=int(idx), digit=digit, family=family, ratios=ratios, align=v))
    return report


def cosine_histogram(report: AlignmentReport, bins=50):
    """Cosine similarity between the oriented align vectors of each
    positive/negative family pair, per image; binned over [-1, 1].

    Returns {pair_name: (bin_centers, counts, values)}.
    """
    by_key = {(rec.index, rec.family): rec.align for rec in report.records}
    pairs = {}
    for fam in report.families:
        if fam.endswith("+") and fam[:-1] + "-" in report.families:
            pairs[fam[:-1]] = (fam, fam[:-1] + "-")
    edges = np.linspace(-1.0, 1.0, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    out = {}
    for pair_name, (pos, neg) in pairs.items():
        values = []
        for idx in sorted({i for i, f in by_key if f == pos}):
            if (idx, neg) in by_key:
                a, b = by_key[(idx, pos)], by_key[(idx, neg)]
                values.append(float(np.clip(np.dot(a, b), -1.0, 1.0)))
        counts, _ = np.histogram(values, bins=edges)
        out[pair_name] = (centers, counts, np.asarray(values))
    return out


# ---------------------------------------------------------------------------
# dimension perturbation


@dataclass
class PerturbSweep:
    class_id: int
    dimension: int
    offsets: np.ndarray        # (11,), symmetric about exactly 0.0
    reconstructions: np.ndarray  # (11, pixels)


def perturbation_offsets(dim):
    """Eleven offsets: -0.25*sqrt(D) .. +0.25*sqrt(D) in 0.05*sqrt(D) steps."""
    step = 0.05 * np.sqrt(dim)
    return np.array([i * step for i in range(-5, 6)])


def perturb_and_decode(model: ArCapsNet, image, dimension, label=None) -> PerturbSweep:
    """Decode the class capsule with one coordinate swept over 11 offsets.

    The zero offset reproduces the unperturbed reconstruction bitwise
    (every tile runs the same single-image decode path). Builds no graph.
    """
    d_out = model.config.caps_dim
    if not 0 <= dimension < d_out:
        raise InputDataError(
            f"dimension {dimension} out of range [0, {d_out})")
    caps = output_capsules(model, np.asarray(image)[None])
    if label is None:
        label = int(np.argmax(np.linalg.norm(caps[0], axis=0)))
    labels = np.array([label])
    offsets = perturbation_offsets(d_out)
    recons = []
    with T.no_grad():
        for offset in offsets:
            perturbed = caps.copy()
            perturbed[0, dimension, label] += offset
            recon = model.decode(T.leaf(perturbed.astype(model.dtype)), labels)
            recons.append(recon.data[0])
    return PerturbSweep(class_id=label, dimension=dimension,
                        offsets=offsets, reconstructions=np.stack(recons))


def sweep_strip(sweep: PerturbSweep, rows, cols, channels=1):
    """Arrange the 11 reconstructions side by side into one image strip."""
    tiles = sweep.reconstructions.reshape(-1, rows, cols, channels)
    strip = np.concatenate(list(tiles), axis=1)
    return strip if channels > 1 else strip[:, :, 0]
