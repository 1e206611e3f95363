"""Isotonic calibration against a brute-force monotone least-squares oracle.

The oracle is a dynamic program over the exact candidate-value grid: any
optimal non-decreasing fit takes values among the weighted means of
contiguous point segments, so minimizing over that grid with a prefix-min
recursion is exact. The pooling implementation must match it on every
instance, including exhaustively all binary-outcome patterns up to 12
points.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distillaudit as da
from distillaudit.calibrate import pav_fit
from distillaudit.data import dump_json, load_json
from distillaudit.stats import weighted_line_fit


def monotone_fit_oracle(means, weights):
    """Exact non-decreasing weighted least-squares fit by grid DP."""
    means = np.asarray(means, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = len(means)
    grid = []
    for i in range(n):
        sw = 0.0
        sm = 0.0
        for j in range(i, n):
            sw += weights[j]
            sm += weights[j] * means[j]
            grid.append(sm / sw)
    grid = np.unique(np.asarray(grid))
    cost = weights[0] * (grid - means[0]) ** 2
    back = []
    for i in range(1, n):
        pm = np.minimum.accumulate(cost)
        pm_idx = np.maximum.accumulate(np.where(cost <= pm, np.arange(len(grid)), -1))
        back.append(pm_idx)
        cost = weights[i] * (grid - means[i]) ** 2 + pm
    idx = int(np.argmin(cost))
    fitted = [grid[idx]]
    for pm_idx in reversed(back):
        idx = int(pm_idx[idx])
        fitted.append(grid[idx])
    return np.asarray(fitted[::-1])


def sse(fit, means, weights):
    return float(np.sum(np.asarray(weights) * (np.asarray(fit) - np.asarray(means)) ** 2))


class TestPavAgainstOracle:
    def test_exhaustive_binary_patterns_up_to_12_points(self):
        for n in range(2, 13):
            weights = np.ones(n)
            for pattern in itertools.product((0.0, 1.0), repeat=n):
                means = np.asarray(pattern)
                fit = pav_fit(np.arange(n, dtype=float), means, weights)
                oracle = monotone_fit_oracle(means, weights)
                np.testing.assert_allclose(fit, oracle, atol=1e-9, err_msg=f"pattern {pattern}")

    def test_random_weighted_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            means = rng.normal(size=n)
            weights = rng.uniform(0.1, 5.0, size=n)
            fit = pav_fit(np.arange(n, dtype=float), means, weights)
            oracle = monotone_fit_oracle(means, weights)
            assert abs(sse(fit, means, weights) - sse(oracle, means, weights)) < 1e-9
            np.testing.assert_allclose(fit, oracle, atol=1e-7)

    def test_tie_heavy_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 15))
            means = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
            weights = rng.choice([1.0, 2.0], size=n)
            fit = pav_fit(np.arange(n, dtype=float), means, weights)
            oracle = monotone_fit_oracle(means, weights)
            np.testing.assert_allclose(fit, oracle, atol=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=30))
    def test_property_output_non_decreasing_and_mean_preserving(self, means):
        means = np.asarray(means)
        weights = np.ones(len(means))
        fit = pav_fit(np.arange(len(means), dtype=float), means, weights)
        assert np.all(np.diff(fit) >= -1e-12)
        assert abs(fit.mean() - means.mean()) < 1e-9
        assert fit.min() >= means.min() - 1e-12
        assert fit.max() <= means.max() + 1e-12

    def test_idempotent_on_monotone_input(self):
        means = np.array([0.1, 0.1, 0.4, 0.9])
        fit = pav_fit(np.arange(4, dtype=float), means, np.ones(4))
        np.testing.assert_array_equal(fit, means)


class TestCalibrationMap:
    def fit_simple(self):
        scores = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        outcomes = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        return da.fit_calibration(scores, outcomes), scores, outcomes

    def test_pooled_probabilities_match_hand_computation(self):
        cmap, _, _ = self.fit_simple()
        eps = 1.0 / 14.0
        probs = 1.0 / (1.0 + np.exp(-cmap.values))
        np.testing.assert_allclose(probs, [eps, 0.5, 1.0 - eps], atol=1e-12)
        np.testing.assert_array_equal(cmap.breakpoints, [1.0, 2.0, 3.0])

    def test_apply_step_semantics(self):
        cmap, _, _ = self.fit_simple()
        applied = cmap.apply(np.array([0.0, 1.0, 1.5, 2.0, 2.9, 3.0, 99.0]))
        v = cmap.values
        np.testing.assert_array_equal(applied, [v[0], v[0], v[0], v[1], v[1], v[2], v[2]])

    def test_values_non_decreasing_and_finite_under_separation(self):
        scores = np.concatenate([np.arange(50), 50 + np.arange(50)]).astype(float)
        outcomes = np.concatenate([np.zeros(50), np.ones(50)])
        cmap = da.fit_calibration(scores, outcomes)
        assert np.all(np.isfinite(cmap.values))
        assert np.all(np.diff(cmap.values) >= 0)
        eps = 1.0 / 200.0
        assert cmap.values.min() == pytest.approx(np.log(eps / (1 - eps)))

    def test_inverse_round_trip_on_representatives(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0, 100, size=400)
        prob = np.clip(scores / 100.0, 0.02, 0.98)
        outcomes = (rng.random(400) < prob).astype(float)
        cmap = da.fit_calibration(scores, outcomes)
        z = cmap.apply(scores)
        back = cmap.inverse(z)
        again = cmap.apply(back)
        np.testing.assert_allclose(again, z, atol=1e-9)
        order = np.argsort(z)
        assert np.all(np.diff(back[order]) >= -1e-9)

    def test_inverse_of_a_one_level_map_is_its_representative(self):
        cmap = da.fit_calibration(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0, 0.0, 0.0]))
        assert len(np.unique(cmap.values)) == 1
        z = np.array([-np.inf, -50.0, cmap.values[0], 0.3, 50.0, np.inf])
        np.testing.assert_array_equal(cmap.inverse(z), np.full(len(z), 2.5))

    def test_score_only_rows_ignored(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        outcomes = np.array([0.0, np.nan, 1.0, 1.0])
        cmap = da.fit_calibration(scores, outcomes)
        assert len(cmap.breakpoints) == 3
        assert cmap.epsilon == 1.0 / 6.0

    def test_degenerate_inputs(self):
        with pytest.raises(da.DegenerateStatisticsError, match="distinct"):
            da.fit_calibration(np.ones(10), np.tile([0.0, 1.0], 5))
        with pytest.raises(da.DegenerateStatisticsError, match="class"):
            da.fit_calibration(np.arange(10.0), np.ones(10))
        with pytest.raises(da.DegenerateStatisticsError, match="labeled"):
            da.fit_calibration(np.arange(4.0), np.full(4, np.nan))

    def test_json_round_trip(self, tmp_path):
        cmap, scores, _ = self.fit_simple()
        path = tmp_path / "map.json"
        dump_json(path, cmap.to_json_dict())
        loaded = da.CalibrationMap.from_json_dict(load_json(path))
        np.testing.assert_array_equal(loaded.apply(scores), cmap.apply(scores))
        assert loaded.epsilon == cmap.epsilon


class TestDiagnostics:
    def test_weighted_line_fit_matches_polyfit(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=60)
        y = 2.0 * x - 1.0 + rng.normal(size=60)
        w = rng.uniform(0.5, 3.0, size=60)
        slope, intercept, _ = weighted_line_fit(x, y, w)
        ref = np.polyfit(x, y, 1, w=np.sqrt(w))
        assert slope == pytest.approx(ref[0], abs=1e-9)
        assert intercept == pytest.approx(ref[1], abs=1e-9)

    def test_distinct_levels_used_directly_when_few(self):
        rng = np.random.default_rng(4)
        scores = rng.integers(1, 11, size=2000).astype(float)
        outcomes = (rng.random(2000) < scores / 12.0).astype(float)
        diag = da.diagnose(scores, outcomes)
        assert len(diag.levels) == 10
        assert diag.counts.sum() == 2000

    def test_many_distinct_scores_bucketed(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=5000)
        outcomes = (rng.random(5000) < 0.5).astype(float)
        diag = da.diagnose(scores, outcomes)
        assert len(diag.levels) <= 50
        assert diag.counts.sum() == 5000

    def test_logit_linear_score_has_small_residual(self):
        ds, _ = da.gen_linear_score(n_rows=20000, seed=0)
        diag = da.diagnose(ds.score, ds.outcome)
        assert diag.logit_rmse < da.AUTO_LINEARITY_THRESHOLD

    def test_kinked_score_has_large_residual_and_calibration_fixes_it(self):
        ds, _ = da.gen_kinked_score(n_rows=6000, seed=0)
        before = da.diagnose(ds.score, ds.outcome)
        assert before.logit_rmse > da.AUTO_LINEARITY_THRESHOLD
        cmap = da.fit_calibration(ds.score, ds.outcome)
        after = da.diagnose(cmap.apply(ds.score), ds.outcome)
        assert after.logit_rmse < before.logit_rmse / 5.0

    def test_decide_modes(self):
        ds, _ = da.gen_kinked_score(n_rows=4000, seed=1)
        diag = da.diagnose(ds.score, ds.outcome)
        assert da.decide_calibration(diag, "auto")["applied"]
        assert da.decide_calibration(diag, "on")["applied"]
        assert not da.decide_calibration(diag, "off")["applied"]
        with pytest.raises(da.ConfigError):
            da.decide_calibration(diag, "maybe")

    def test_diagnostics_csv_written(self, tmp_path):
        ds, _ = da.gen_kinked_score(n_rows=2000, seed=2)
        diag = da.diagnose(ds.score, ds.outcome)
        path = tmp_path / "diag.csv"
        diag.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("score_level,count,")
        assert len(lines) == len(diag.levels) + 1
