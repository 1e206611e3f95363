"""Construction invariants of the synthetic dataset generators."""

import numpy as np
import pytest

import distillaudit as da
from distillaudit.synth import GENERATORS


class TestRegistry:
    def test_all_generators_listed_and_callable(self):
        assert set(GENERATORS) == {
            "linear-score", "partial-use", "hidden-feature", "kinked-score", "interaction",
        }
        for gen in GENERATORS.values():
            ds, truth = gen(n_rows=100, seed=0)
            assert ds.n_rows == 100
            assert np.all(np.isfinite(ds.score))
            labeled = ds.outcome[np.isfinite(ds.outcome)]
            assert np.all(np.isin(labeled, (0.0, 1.0)))
            assert isinstance(truth, dict)

    def test_seed_determinism_and_sensitivity(self):
        for name, gen in GENERATORS.items():
            a, _ = gen(n_rows=200, seed=3)
            b, _ = gen(n_rows=200, seed=3)
            c, _ = gen(n_rows=200, seed=4)
            np.testing.assert_array_equal(a.score, b.score, err_msg=name)
            np.testing.assert_array_equal(a.outcome, b.outcome, err_msg=name)
            assert not np.array_equal(a.score, c.score), name

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    @pytest.mark.parametrize("rows", [0, -3])
    def test_fewer_than_one_row_is_a_config_error(self, name, rows):
        with pytest.raises(da.ConfigError, match=f"n_rows must be at least 1, got {rows}"):
            GENERATORS[name](n_rows=rows, seed=0)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_negative_seed_is_a_config_error(self, name):
        with pytest.raises(da.ConfigError, match="seed must be non-negative, got -2"):
            GENERATORS[name](n_rows=50, seed=-2)


class TestLinearScore:
    def test_score_is_exact_weighted_sum(self):
        ds, truth = da.gen_linear_score(n_rows=5000, seed=1, n_features=10)
        manual = sum(w * ds.columns[n] for n, w in truth["weights"].items())
        np.testing.assert_array_equal(ds.score, manual)
        assert truth["used"] == ["f00", "f01", "f02"]
        assert truth["weights"]["f00"] == 3.0
        assert all(truth["weights"][n] == 0.0 for n in ds.feature_names[3:])

    def test_features_binary_with_expected_rate(self):
        ds, _ = da.gen_linear_score(n_rows=20000, seed=2, n_features=5)
        for name in ds.feature_names:
            col = ds.columns[name]
            assert set(np.unique(col)) <= {0.0, 1.0}
            assert col.mean() == pytest.approx(0.3, abs=0.02)

    def test_outcome_rate_follows_logistic_curve(self):
        ds, truth = da.gen_linear_score(n_rows=200000, seed=3, n_features=4)
        for s in (0.0, 3.0, 5.0):
            rows = ds.score == s
            expect = 1.0 / (1.0 + np.exp(-(truth["outcome_slope"] * s + truth["outcome_intercept"])))
            assert ds.outcome[rows].mean() == pytest.approx(expect, abs=0.02)

    def test_too_few_features_rejected(self):
        with pytest.raises(da.ConfigError):
            da.gen_linear_score(n_rows=100, n_features=2)


class TestPartialUse:
    def test_score_depends_only_on_used_features(self):
        ds, truth = da.gen_partial_use(n_rows=20000, seed=4)
        steps = {
            n: (ds.columns[n] >= truth["thresholds"][n]).astype(float)
            - (1.0 - truth["thresholds"][n])
            for n in ds.feature_names
        }
        reconstructed = sum(truth["amplitudes"][n] * steps[n] for n in truth["used"])
        noise = ds.score - reconstructed
        assert np.std(noise) == pytest.approx(truth["score_noise"], abs=0.01)
        for n in truth["unused"]:
            assert abs(np.corrcoef(noise, ds.columns[n])[0, 1]) < 0.02

    def test_unused_features_still_predict_outcome(self):
        ds, truth = da.gen_partial_use(n_rows=40000, seed=5)
        name = truth["unused"][0]
        thr = truth["thresholds"][name]
        above = ds.outcome[ds.columns[name] >= thr].mean()
        below = ds.outcome[ds.columns[name] < thr].mean()
        assert abs(above - below) > 0.05

    def test_amplitude_magnitudes_in_declared_range(self):
        _, truth = da.gen_partial_use(n_rows=100, seed=6)
        mags = np.abs(list(truth["amplitudes"].values()))
        assert np.all((mags >= 0.6) & (mags <= 1.2))

    def test_bad_n_used_rejected(self):
        with pytest.raises(da.ConfigError):
            da.gen_partial_use(n_rows=100, n_used=0)
        with pytest.raises(da.ConfigError):
            da.gen_partial_use(n_rows=100, n_features=4, n_used=5)


class TestHiddenFeature:
    def test_control_shares_score_but_not_outcome_draws(self):
        hid, _ = da.gen_hidden_feature(n_rows=3000, seed=7, hidden=True)
        ctl, _ = da.gen_hidden_feature(n_rows=3000, seed=7, hidden=False)
        np.testing.assert_array_equal(hid.score, ctl.score)
        for n in hid.feature_names:
            np.testing.assert_array_equal(hid.columns[n], ctl.columns[n])
        assert not np.array_equal(hid.outcome, ctl.outcome)

    def test_score_residual_has_declared_strength(self):
        ds, truth = da.gen_hidden_feature(n_rows=50000, seed=8, strength=1.5)
        w = truth["visible_weights"]
        base = sum(w[n] * ds.columns[n] for n in ds.feature_names)
        assert np.std(ds.score - base) == pytest.approx(1.5, abs=0.02)

    def test_hidden_outcome_tracks_score_beyond_base(self):
        hid, truth = da.gen_hidden_feature(n_rows=80000, seed=9, strength=2.0, hidden=True)
        ctl, _ = da.gen_hidden_feature(n_rows=80000, seed=9, strength=2.0, hidden=False)
        w = truth["visible_weights"]
        base = sum(w[n] * hid.columns[n] for n in hid.feature_names)
        resid = hid.score - base
        hi = resid > 1.0
        lo = resid < -1.0
        gap_hidden = hid.outcome[hi].mean() - hid.outcome[lo].mean()
        gap_control = ctl.outcome[hi].mean() - ctl.outcome[lo].mean()
        assert gap_hidden > 0.3
        assert abs(gap_control) < 0.05

    def test_non_positive_strength_rejected(self):
        with pytest.raises(da.ConfigError):
            da.gen_hidden_feature(n_rows=100, strength=0.0)


class TestKinkedScore:
    def test_outcome_rate_flat_then_linear(self):
        ds, truth = da.gen_kinked_score(n_rows=400000, seed=10)
        kink = truth["kink"]
        below = ds.outcome[ds.score < kink - 10].mean()
        assert below == pytest.approx(truth["base_prob"], abs=0.005)
        mid = (kink + 500.0) / 2.0
        rows = np.abs(ds.score - mid) < 5.0
        expect = truth["base_prob"] + (truth["top_prob"] - truth["base_prob"]) * (
            (ds.score[rows].mean() - kink) / (500.0 - kink)
        )
        assert ds.outcome[rows].mean() == pytest.approx(expect, abs=0.02)

    def test_scores_span_declared_range(self):
        ds, _ = da.gen_kinked_score(n_rows=5000, seed=11)
        assert ds.score.min() >= 300.0 and ds.score.max() <= 500.0

    def test_kink_outside_range_rejected(self):
        with pytest.raises(da.ConfigError):
            da.gen_kinked_score(n_rows=100, kink=300.0)
        with pytest.raises(da.ConfigError):
            da.gen_kinked_score(n_rows=100, kink=500.0)


class TestInteraction:
    def test_score_reconstruction(self):
        ds, truth = da.gen_interaction(n_rows=20000, seed=12)
        inter = (ds.columns["x0"] > 0) & (ds.columns["x1"] > 0)
        manual = 0.5 * ds.columns["x2"] + truth["amplitude"] * inter
        noise = ds.score - manual
        assert np.std(noise) == pytest.approx(0.1, abs=0.005)
        assert abs(noise.mean()) < 0.005

    def test_distractors_uncorrelated_with_score(self):
        ds, _ = da.gen_interaction(n_rows=30000, seed=13)
        for n in ("x3", "x4"):
            assert abs(np.corrcoef(ds.score, ds.columns[n])[0, 1]) < 0.02
