"""Align-vector machinery, random baselines, perturbation sweeps, histograms."""

import contextlib

import numpy as np
import pytest

from arcaps import reference, tensor as T
from arcaps.analysis import (AlignmentReport, ImageAlignment, align_vector,
                             alignment_experiment, cosine_histogram,
                             difference_vectors, family_transforms,
                             output_capsules, perturb_and_decode,
                             perturbation_offsets, random_baseline,
                             random_baseline_fitted, relative_ratios,
                             sweep_strip)
from arcaps.errors import InputDataError


class TestAlignVector:
    def test_exact_rank_one(self, rng):
        for _ in range(10):
            w = rng.standard_normal(16)
            w /= np.linalg.norm(w)
            c = rng.standard_normal(5)
            v, coeffs = align_vector(np.outer(c, w))
            assert abs(abs(np.dot(v, w)) - 1.0) < 1e-6
            assert coeffs.sum() >= 0

    def test_agrees_with_jacobi_oracle_on_100_matrices(self, rng):
        for _ in range(100):
            rows = rng.standard_normal((5, 12))
            v, coeffs = align_vector(rows)
            evals, evecs = reference.jacobi_eigh(rows.T @ rows)
            assert abs(float((coeffs ** 2).sum()) - evals[0]) < 1e-8
            assert abs(float(np.dot(v, evecs[:, 0]))) >= 1 - 1e-8

    def test_maximality_against_random_directions(self, rng):
        rows = rng.standard_normal((5, 24))
        v, _ = align_vector(rows)
        captured = float(((rows @ v) ** 2).sum())
        for _ in range(100):
            w = rng.standard_normal(24)
            w /= np.linalg.norm(w)
            assert captured >= float(((rows @ w) ** 2).sum()) - 1e-8

    def test_degenerate_equal_singular_values(self):
        rows = np.zeros((2, 6))
        rows[0, 0] = 2.0
        rows[1, 3] = 2.0  # orthogonal rows, equal norms: top pair is degenerate
        v, coeffs = align_vector(rows)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
        captured = float((coeffs ** 2).sum())
        gram_top = reference.jacobi_eigh(rows.T @ rows)[0][0]
        assert captured <= gram_top + 1e-9
        rng = np.random.default_rng(0)
        for _ in range(100):
            w = rng.standard_normal(6)
            w /= np.linalg.norm(w)
            assert captured >= float(((rows @ w) ** 2).sum()) - 1e-8

    def test_zero_matrix_rejected(self):
        with pytest.raises(InputDataError):
            align_vector(np.zeros((5, 8)))

    def test_orientation_sum_nonnegative(self, rng):
        for _ in range(20):
            _, coeffs = align_vector(rng.standard_normal((5, 8)))
            assert coeffs.sum() >= 0

    def test_no_mean_subtraction_distinguishes_from_pca(self):
        # rows share a large common component along e1 with small variation
        # along e2: the raw top singular direction is e1, but mean-subtracted
        # PCA sees only the variation and picks e2
        rows = np.zeros((5, 8))
        rows[:, 0] = 10.0
        rows[:, 1] = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        v, _ = align_vector(rows)
        assert abs(v[0]) > 0.97
        centered = rows - rows.mean(axis=0)
        pca_top, _ = align_vector(centered)
        assert abs(pca_top[1]) > 0.999
        assert abs(float(np.dot(v, pca_top))) < 0.3


class TestRelativeRatios:
    def test_identical_rows_align_perfectly(self, rng):
        row = rng.standard_normal(10)
        rows = np.tile(row, (5, 1))
        v, _ = align_vector(rows)
        ratios, excluded = relative_ratios(rows, v)
        assert np.allclose(ratios, 1.0, atol=1e-9)
        assert excluded == []

    def test_orthogonal_rows_score_zero(self):
        v = np.zeros(6)
        v[0] = 1.0
        rows = np.zeros((3, 6))
        rows[:, 1] = [1.0, -2.0, 3.0]
        ratios, _ = relative_ratios(rows, v)
        assert np.allclose(ratios, 0.0, atol=0)

    def test_sign_invariance(self, rng):
        row = rng.standard_normal(8)
        rows = np.stack([row, -row])
        v, _ = align_vector(rows)
        ratios, _ = relative_ratios(rows, v)
        assert np.allclose(ratios, 1.0, atol=1e-9)

    def test_tiny_rows_excluded_and_reported(self, rng):
        rows = rng.standard_normal((4, 8))
        rows[2] = 1e-15
        v, _ = align_vector(rows)
        ratios, excluded = relative_ratios(rows, v)
        assert excluded == [2]
        assert ratios.shape == (3,)

    def test_invariant_to_positive_row_rescaling(self, rng):
        rows = rng.standard_normal((5, 8))
        v, _ = align_vector(rows)
        scaled = rows.copy()
        scaled[1] *= 77.0
        r_orig, _ = relative_ratios(rows, v)
        r_scaled, _ = relative_ratios(scaled, v)
        assert abs(r_orig[1] - r_scaled[1]) < 1e-12

    def test_ratios_in_unit_interval(self, rng):
        for _ in range(20):
            rows = rng.standard_normal((5, 16))
            v, _ = align_vector(rows)
            ratios, _ = relative_ratios(rows, v)
            assert np.all(ratios >= 0) and np.all(ratios <= 1 + 1e-12)


class TestRandomBaseline:
    def test_reference_values(self):
        mean, std = random_baseline(dim=32, vectors=5, trials=1000, seed=0)
        assert abs(mean - 0.311) <= 0.01
        assert abs(std - 0.262) <= 0.02

    def test_seed_deterministic(self):
        assert random_baseline(seed=4) == random_baseline(seed=4)
        assert random_baseline_fitted(seed=4) == random_baseline_fitted(seed=4)

    def test_two_seeds_agree_within_sampling_noise(self):
        m1, _ = random_baseline(dim=32, vectors=5, trials=1000, seed=1)
        m2, _ = random_baseline(dim=32, vectors=5, trials=1000, seed=2)
        assert abs(m1 - m2) < 0.01

    def test_fitted_single_vector_is_perfectly_aligned(self):
        mean, std = random_baseline_fitted(dim=16, vectors=1, trials=50, seed=0)
        assert abs(mean - 1.0) < 1e-9
        assert std < 1e-9

    @pytest.mark.parametrize("baseline", [random_baseline, random_baseline_fitted])
    def test_negative_seed_rejected(self, baseline):
        with pytest.raises(InputDataError, match="^seed must be >= 0, got -1$"):
            baseline(dim=4, vectors=2, trials=2, seed=-1)

    def test_fitted_null_differs_from_reference_recipe(self):
        pub, _ = random_baseline(dim=32, vectors=5, trials=400, seed=0)
        fit, _ = random_baseline_fitted(dim=32, vectors=5, trials=400, seed=0)
        assert fit > pub + 0.1  # the fitted direction captures much more


class TestTransformFamilies:
    def test_unknown_family_rejected(self):
        with pytest.raises(InputDataError):
            family_transforms("Zoom+")

    def test_five_transforms_per_family(self):
        for fam in ("Rot+", "x+", "y+", "Rot-", "x-", "y-"):
            assert len(family_transforms(fam)) == 5

    def test_translations_move_content(self):
        img = np.zeros((28, 28, 1), dtype=np.float32)
        img[14, 14, 0] = 1.0
        moved = family_transforms("x+")[2](img)  # +3 columns
        assert moved[14, 17, 0] == 1.0
        moved = family_transforms("y-")[0](img)  # -1 row
        assert moved[13, 14, 0] == 1.0


class TestDifferenceVectors:
    def test_identity_transform_zero_difference(self, untrained_model, digits_test):
        img = digits_test.images[0]
        a = output_capsules(untrained_model, img[None])
        b = output_capsules(untrained_model, img[None])
        assert np.array_equal(a, b)

    def test_shape_and_determinism(self, untrained_model, digits_test):
        img = digits_test.images[1]
        diffs1, cls1 = difference_vectors(untrained_model, img, "Rot+", label=3)
        diffs2, cls2 = difference_vectors(untrained_model, img, "Rot+", label=3)
        assert diffs1.shape == (5, untrained_model.config.caps_dim)
        assert cls1 == cls2 == 3
        assert np.array_equal(diffs1, diffs2)


class TestAlignmentExperiment:
    def test_report_layout_and_determinism(self, trained_model, digits_test):
        rep1 = alignment_experiment(trained_model, digits_test, 12, seed=5)
        rep2 = alignment_experiment(trained_model, digits_test, 12, seed=5)
        csv1, csv2 = rep1.to_csv(), rep2.to_csv()
        assert csv1 == csv2
        header = csv1.splitlines()[0]
        assert header == "digit,Rot+,x+,y+,Rot-,x-,y-"
        assert csv1.splitlines()[-1].startswith("avg,")
        assert len(csv1.splitlines()) == 1 + 10 + 1

    def test_sample_count_clamped_with_warning(self, untrained_model, digits_test):
        small = digits_test.subset(np.arange(5))
        with pytest.warns(UserWarning, match="clamp"):
            rep = alignment_experiment(untrained_model, small, 50, seed=0)
        assert len(rep.sample_indices) == 5

    @pytest.mark.parametrize("count", [0, -1])
    def test_sample_count_below_one_rejected(self, untrained_model, digits_test, count):
        with pytest.raises(InputDataError, match=f"sample_count must be >= 1, got {count}"):
            alignment_experiment(untrained_model, digits_test, count, seed=0)

    def test_negative_seed_rejected(self, untrained_model, digits_test):
        with pytest.raises(InputDataError, match="^seed must be >= 0, got -1$"):
            alignment_experiment(untrained_model, digits_test, 1, seed=-1)

    def test_overall_mean_of_no_records_is_nan(self):
        assert np.isnan(AlignmentReport(families=("Rot+",)).overall_mean())


class TestCosineHistogram:
    def _report(self, records):
        return AlignmentReport(families=("Rot+", "x+", "y+", "Rot-", "x-", "y-"),
                               records=records)

    def _record(self, idx, family, align):
        return ImageAlignment(index=idx, digit=0, family=family,
                              ratios=np.ones(5), align=np.asarray(align, dtype=float))

    def test_identical_aligns_give_cosine_one(self):
        v = np.array([1.0, 0.0, 0.0])
        recs = [self._record(0, "Rot+", v), self._record(0, "Rot-", v)]
        out = cosine_histogram(self._report(recs), bins=50)
        centers, counts, values = out["Rot"]
        assert values.tolist() == [1.0]
        assert counts.sum() == 1
        assert counts[-1] == 1  # cosine 1 lands in the last bin

    def test_negated_aligns_give_cosine_minus_one(self):
        v = np.array([0.0, 1.0, 0.0])
        recs = [self._record(0, "x+", v), self._record(0, "x-", -v)]
        out = cosine_histogram(self._report(recs), bins=50)
        _, counts, values = out["x"]
        assert values.tolist() == [-1.0]
        assert counts[0] == 1

    def test_bin_bookkeeping(self, trained_model, digits_test):
        rep = alignment_experiment(trained_model, digits_test, 10, seed=1)
        out = cosine_histogram(rep, bins=50)
        assert set(out) == {"Rot", "x", "y"}
        for centers, counts, values in out.values():
            assert centers.shape == (50,)
            assert counts.sum() == len(values) == 10
            assert np.all(values >= -1.0) and np.all(values <= 1.0)


class TestPerturbation:
    def test_offsets_arithmetic(self):
        offs = perturbation_offsets(32)
        assert len(offs) == 11
        assert offs[5] == 0.0
        assert np.allclose(offs, -offs[::-1], atol=0)
        assert abs(offs[6] - 0.05 * np.sqrt(32)) < 1e-12
        assert abs(offs[6] - 0.28284271) < 1e-6
        assert abs(offs[-1] - 1.41421356) < 1e-6

    def test_dimension_out_of_range_rejected(self, untrained_model, digits_test):
        with pytest.raises(InputDataError):
            perturb_and_decode(untrained_model, digits_test.images[0],
                               untrained_model.config.caps_dim)

    def test_zero_offset_tile_is_bitwise_unperturbed(self, trained_model,
                                                     digits_test):
        img = digits_test.images[3]
        label = int(digits_test.labels[3])
        sweep = perturb_and_decode(trained_model, img, 2, label=label)
        ref = trained_model.forward(img[None],
                                    labels=np.array([label])).reconstruction
        assert np.array_equal(sweep.reconstructions[5], ref.data[0])

    def test_extreme_offsets_change_reconstruction(self, trained_model,
                                                   digits_test):
        img = digits_test.images[3]
        label = int(digits_test.labels[3])
        for dim in range(trained_model.config.caps_dim):
            sweep = perturb_and_decode(trained_model, img, dim, label=label)
            center = sweep.reconstructions[5]
            lo = np.linalg.norm(sweep.reconstructions[0] - center)
            hi = np.linalg.norm(sweep.reconstructions[-1] - center)
            assert lo > 0 and hi > 0

    def test_sweep_strip_layout(self, untrained_model, digits_test):
        sweep = perturb_and_decode(untrained_model, digits_test.images[0], 0,
                                   label=0)
        strip = sweep_strip(sweep, 28, 28, 1)
        assert strip.shape == (28, 11 * 28)


class TestWithoutGraph:
    def test_output_capsules_match_graph_forward(self, untrained_model,
                                                 digits_test, node_log,
                                                 monkeypatch):
        images = digits_test.images[:4]
        without = output_capsules(untrained_model, images)
        assert node_log and all(n.parents == () for n in node_log)
        node_log.clear()
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        with_graph = output_capsules(untrained_model, images)
        assert any(n.parents for n in node_log)
        assert without.dtype == np.float32
        assert np.array_equal(without, with_graph)

    def test_perturb_and_decode_matches_graph_build(self, untrained_model,
                                                    digits_test, node_log,
                                                    monkeypatch):
        img = digits_test.images[5]
        without = perturb_and_decode(untrained_model, img, 1)
        assert node_log and all(n.parents == () for n in node_log)
        node_log.clear()
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        with_graph = perturb_and_decode(untrained_model, img, 1)
        assert any(n.parents for n in node_log)
        assert without.class_id == with_graph.class_id
        assert np.array_equal(without.offsets, with_graph.offsets)
        assert np.array_equal(without.reconstructions, with_graph.reconstructions)
