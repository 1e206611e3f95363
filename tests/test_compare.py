"""Shape comparison: variance estimator, bands, significance, ranking.

The variance estimator is pinned to a literal transcription of its formula
on hand-built bag grids, and the end-to-end difference test uses a
construction where the score and the outcome weight one binary feature with
opposite signs, so the true shape gap is known exactly.
"""

import tracemalloc

import numpy as np
import pytest

import distillaudit as da
from distillaudit.compare import (
    DifferenceCurve,
    Z_95,
    discrepancy_score,
    little_bags_variance,
)
from distillaudit.distill import bag_split, mimic_targets


def little_bags_covariance(a, b):
    """Covariance analogue of ``little_bags_variance`` for paired (K, L, ...) grids."""
    ma = a.mean(axis=1) - a.mean(axis=(0, 1))
    mb = b.mean(axis=1) - b.mean(axis=(0, 1))
    return np.mean(ma * mb, axis=0)


def variance_transcription(values):
    """Direct loop translation of the stated estimator, no vectorization."""
    values = np.asarray(values, dtype=float)
    K, L = values.shape[:2]
    grand = values.mean()
    total = 0.0
    for k in range(K):
        inner = sum(values[k][l] for l in range(L)) / L
        total += (inner - grand) ** 2
    return total / K


class TestVarianceEstimator:
    def test_hand_built_grid_inner_means_one_and_three(self):
        values = np.array([[0.0, 2.0], [2.0, 4.0]])
        assert little_bags_variance(values) == 1.0
        assert variance_transcription(values) == 1.0

    def test_matches_transcription_on_random_grids(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            K = int(rng.integers(2, 6))
            L = int(rng.integers(2, 6))
            values = rng.normal(size=(K, L))
            assert little_bags_variance(values) == pytest.approx(
                variance_transcription(values), abs=1e-14
            )

    def test_vectorizes_over_trailing_axes(self):
        rng = np.random.default_rng(1)
        grid = rng.normal(size=(3, 4, 7))
        out = little_bags_variance(grid)
        assert out.shape == (7,)
        for b in range(7):
            assert out[b] == pytest.approx(variance_transcription(grid[:, :, b]), abs=1e-14)

    def test_zero_when_inner_means_agree(self):
        values = np.array([[0.0, 4.0], [1.0, 3.0]])
        assert little_bags_variance(values) == 0.0

    def test_difference_variance_identity(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=(4, 3, 5))
        direct = little_bags_variance(a - b)
        expanded = (
            little_bags_variance(a)
            + little_bags_variance(b)
            - 2.0 * little_bags_covariance(a, b)
        )
        np.testing.assert_allclose(direct, expanded, atol=1e-12)

    def test_degenerate_grids_rejected(self):
        with pytest.raises(da.DegenerateStatisticsError):
            little_bags_variance(np.ones((1, 4)))
        with pytest.raises(da.DegenerateStatisticsError):
            little_bags_variance(np.ones((4, 1)))


def trained_summary(data, K=2, L=2, rate=0.1, rounds=300, seed=0, max_bins=32):
    plan = da.plan_bags(data.n_rows, K=K, L=L, seed=seed)
    config = da.TrainConfig(learning_rate=rate, max_rounds=rounds, seed=seed)
    schema = da.fit_schema(data, max_bins=max_bins)
    paired = da.train_paired(data, plan=plan, config=config, schema=schema)
    return paired, da.summarize(paired)


class TestCurvesAndBands:
    def test_bounds_are_mean_plus_minus_z_sqrt_var(self):
        data = self.flip_dataset(2000, delta=0.5, seed=0)
        paired, summary = trained_summary(data, rounds=150)
        for fc in summary.features:
            for c in (fc.mimic, fc.outcome, fc.diff):
                np.testing.assert_allclose(c.lower, c.mean - Z_95 * np.sqrt(c.variance), atol=1e-12)
                np.testing.assert_allclose(c.upper, c.mean + Z_95 * np.sqrt(c.variance), atol=1e-12)
            np.testing.assert_array_equal(
                fc.diff.significant, (fc.diff.lower > 0) | (fc.diff.upper < 0)
            )

    def test_curve_mean_is_grand_mean_of_bag_shapes(self):
        data = self.flip_dataset(1500, delta=0.5, seed=1)
        paired, summary = trained_summary(data, rounds=150)
        j = paired.schema.index("flag")
        tensor = paired.mimic.shape_tensor(j)
        np.testing.assert_allclose(
            summary.feature_named("flag").mimic.mean, tensor.mean(axis=(0, 1)), atol=1e-12
        )

    @staticmethod
    def flip_dataset(n, delta, seed):
        """Score adds delta * flag on the log-odds scale, outcome subtracts it."""
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=n)
        flag = (rng.random(n) < 0.5).astype(float)
        base = 0.8 * x0
        score = base + delta * flag
        outcome = (rng.random(n) < 1.0 / (1.0 + np.exp(-(base - delta * flag)))).astype(float)
        return da.AuditDataset.from_arrays(
            {"x0": x0, "flag": flag}, score=score, outcome=outcome
        )

    def test_opposite_sign_flag_shows_twice_delta_gap(self):
        delta = 0.5
        data = self.flip_dataset(20000, delta=delta, seed=2)
        paired, summary = trained_summary(data, rate=0.15, rounds=500, seed=2)
        fc = summary.feature_named("flag")
        gap = fc.diff.mean[1] - fc.diff.mean[0]
        assert gap == pytest.approx(2 * delta, abs=0.15)
        assert fc.diff.significant[0] and fc.diff.significant[1]
        assert summary.ranking[0][0] == "flag"

    def test_matched_weights_show_small_gaps(self):
        # Score equals the outcome log-odds exactly, so every true shape
        # difference is zero. The binary feature gives a clean per-bin check;
        # the continuous one keeps outcome-estimation noise in its bins at
        # K = 2, so only magnitudes and the aggregate score are bounded.
        rng = np.random.default_rng(3)
        n = 8000
        x0 = rng.normal(size=n)
        x1 = (rng.random(n) < 0.4).astype(float)
        logit = 0.7 * x0 + 0.9 * x1 - 0.4
        outcome = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
        data = da.AuditDataset.from_arrays(
            {"x0": x0, "x1": x1}, score=logit, outcome=outcome
        )
        paired, summary = trained_summary(data, rate=0.15, rounds=400, seed=3)
        binary = summary.feature_named("x1")
        heavy = binary.bin_mass > 0.01
        assert not np.any(binary.diff.significant[heavy])
        assert np.max(np.abs(binary.diff.mean[heavy])) < 0.05
        cont = summary.feature_named("x0")
        span = cont.mimic.mean.max() - cont.mimic.mean.min()
        assert np.max(np.abs(cont.diff.mean[cont.bin_mass > 0.01])) < 0.15 * span
        assert summary.ranking[0][1] < 0.15


class TestDiscrepancy:
    def make_diff(self, mean, sig):
        mean = np.asarray(mean, dtype=float)
        sig = np.asarray(sig, dtype=bool)
        zeros = np.zeros_like(mean)
        return DifferenceCurve("f", mean, zeros, zeros, zeros, sig)

    def test_hand_computed_score(self):
        diff = self.make_diff([0.5, -2.0, 1.0], [True, True, False])
        mass = np.array([0.2, 0.1, 0.7])
        assert discrepancy_score(diff, mass) == pytest.approx(0.2 * 0.5 + 0.1 * 2.0)

    def test_zero_without_significant_bins(self):
        diff = self.make_diff([5.0, -5.0], [False, False])
        assert discrepancy_score(diff, np.array([0.5, 0.5])) == 0.0

    def test_ranking_sorted_by_score_then_name(self):
        data = TestCurvesAndBands.flip_dataset(3000, delta=0.8, seed=4)
        _, summary = trained_summary(data, rate=0.15, rounds=300, seed=4)
        scores = [s for _, s in summary.ranking]
        assert scores == sorted(scores, reverse=True)
        by_name = {n: s for n, s in summary.ranking}
        assert set(by_name) == {"x0", "flag"}
        with pytest.raises(KeyError):
            summary.feature_named("absent")


class TestSurfacesAndSerialization:
    def test_interaction_surfaces_reported(self):
        ds, truth = da.gen_interaction(n_rows=4000, seed=0)
        plan = da.plan_bags(ds.n_rows, K=2, L=2, seed=0)
        config = da.TrainConfig(learning_rate=0.15, max_rounds=300, seed=0, n_pairs=1)
        paired = da.train_paired(ds, plan=plan, config=config)
        paired = da.with_interactions(paired)
        summary = da.summarize(paired)
        assert len(summary.surfaces) == 1
        sc = summary.surfaces[0]
        assert set(sc.names) == set(truth["pair"])
        assert np.all(np.isfinite(sc.diff_mean))
        assert sc.mimic_mean.shape == sc.outcome_mean.shape

    def test_surfaces_in_screening_order_and_calibrated_from_the_map(self):
        ds, _ = da.gen_interaction(n_rows=800, seed=1)
        plan = da.plan_bags(ds.n_rows, K=2, L=2, seed=1)
        config = da.TrainConfig(learning_rate=0.2, max_rounds=20, seed=1, n_pairs=3)
        train00, _ = bag_split(plan, 0, 0)
        for cmap in (None, da.fit_calibration(ds.score, ds.outcome)):
            paired = da.train_paired(ds, calibration=cmap, plan=plan, config=config)
            X = da.bin_dataset(ds, paired.schema)
            ranked = da.rank_interaction_pairs(paired.mimic.models[0][0], X, mimic_targets(ds, cmap), rows=train00)
            summary = da.summarize(da.with_interactions(paired))
            assert [(sc.i, sc.j) for sc in summary.surfaces] == [(ps.i, ps.j) for ps in ranked[:3]]
            assert summary.calibrated == (cmap is not None)

    def test_json_dict_structure(self):
        data = TestCurvesAndBands.flip_dataset(1200, delta=0.5, seed=5)
        _, summary = trained_summary(data, rounds=100, seed=5)
        blob = summary.to_json_dict()
        assert set(blob) == {"calibrated", "features", "surfaces", "discrepancy_ranking"}
        feat = blob["features"][0]
        assert set(feat) == {
            "feature", "kind", "bins", "bin_mass", "mimic", "outcome",
            "difference", "discrepancy",
        }
        assert len(feat["difference"]["significant"]) == len(feat["bins"])
        ranked = [r["feature"] for r in blob["discrepancy_ranking"]]
        assert sorted(ranked) == sorted(data.feature_names)


def pair_fit(K, L, max_bins=128, seed=0):
    """Paired ensembles with one fitted pair over a K x L bag grid, trained briefly."""
    ds, _ = da.gen_interaction(n_rows=600, seed=seed)
    schema = da.fit_schema(ds, max_bins=max_bins)
    config = da.TrainConfig(learning_rate=0.1, max_rounds=3, seed=seed, n_pairs=1)
    plan = da.plan_bags(ds.n_rows, K=K, L=L, seed=seed)
    paired = da.train_paired(ds, plan=plan, config=config, schema=schema)
    return da.with_interactions(paired)


def stacked_surface(ensemble, i, j):
    """The (K, L, bi, bj) tensor of one pair's grids."""

    def grid(m):
        return next(s.values for s in m.surfaces if (s.i, s.j) == (i, j))

    return np.stack([[grid(m) for m in fold] for fold in ensemble.models])


class TestSurfaceMeans:
    def test_bit_equal_to_the_stacked_mean(self):
        paired = pair_fit(3, 4)

        def rewrite(m, edit):
            s = m.surfaces[0]
            grid = s.values.copy()
            edit(grid)
            m.surfaces[0] = da.InteractionSurface(s.i, s.j, s.names, grid)

        def every_bag(grid):
            grid[0, :4] = -0.0
            grid[1, 0] *= -1.0

        def one_bag(grid):
            grid[2, :3] = -0.0

        # cells that are -0.0 in every bag, or in some bags only
        for fold in paired.mimic.models:
            for m in fold:
                rewrite(m, every_bag)
        rewrite(paired.mimic.models[0][0], one_bag)
        sc = da.summarize(paired).surfaces[0]
        mt = stacked_surface(paired.mimic, sc.i, sc.j)
        ot = stacked_surface(paired.outcome, sc.i, sc.j)
        assert np.count_nonzero(np.signbit(mt.mean(axis=(0, 1))) & (mt.mean(axis=(0, 1)) == 0)) == 0
        for got, want in (
            (sc.mimic_mean, mt.mean(axis=(0, 1))),
            (sc.outcome_mean, ot.mean(axis=(0, 1))),
            (sc.diff_mean, (mt - ot).mean(axis=(0, 1))),
        ):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_unfitted_pair_is_a_data_error(self):
        paired = pair_fit(2, 2)
        paired.outcome.models[1][0].surfaces = []
        with pytest.raises(da.DataError, match="was not fitted"):
            da.summarize(paired)

    def test_traced_peak_does_not_grow_with_the_bag_grid(self):
        """Pair grids are summed bag by bag, so summarize's traced peak at
        5 x 5 bags stays within 2 grids of its peak at 2 x 2 (129 x 129 grids of
        133 kB; stacking the four K x L tensors adds about 11 MB)."""
        peaks = {}
        for K in (2, 5):
            paired = pair_fit(K, K)
            tracemalloc.start()
            try:
                da.summarize(paired)
                peaks[K] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        grid_bytes = 129 * 129 * 8
        assert peaks[5] - peaks[2] < 2 * grid_bytes
