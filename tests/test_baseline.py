"""Linear and logistic baselines: design encoding, solvers, bag metrics."""

import numpy as np
import pytest

import distillaudit as da
from distillaudit.baseline import (
    design_matrix,
    linear_fold_metrics,
    train_linear,
    train_linear_bags,
)
from distillaudit.data import dump_json, load_json
from distillaudit.gam import IDENTITY, LOGISTIC
from distillaudit.stats import sigmoid


def mixed_dataset(n=300, seed=0):
    rng = np.random.default_rng(seed)
    num = rng.normal(size=n)
    num[5] = np.nan
    cat = np.array([["red", "green", "blue"][i] for i in rng.integers(0, 3, size=n)], dtype=object)
    cat[7] = None
    score = rng.normal(size=n)
    outcome = (rng.random(n) < 0.5).astype(float)
    return da.AuditDataset.from_arrays(
        {"num": num, "cat": cat}, score=score, outcome=outcome
    )


class TestDesignMatrix:
    def test_numeric_passthrough_with_mean_imputation(self):
        data = mixed_dataset()
        A, columns = design_matrix(data)
        j = columns.index("num")
        raw = data.columns["num"]
        seen = raw[~np.isnan(raw)]
        assert A[5, j] == pytest.approx(seen.mean())
        np.testing.assert_allclose(A[:5, j], raw[:5])

    def test_one_hot_encoding(self):
        data = mixed_dataset()
        A, columns = design_matrix(data)
        hot = [c for c in columns if c.startswith("cat=")]
        assert sorted(hot) == ["cat=blue", "cat=green", "cat=red"]
        idx = [columns.index(c) for c in hot]
        sums = A[:, idx].sum(axis=1)
        assert sums[7] == 0.0
        assert np.all(sums[np.arange(len(sums)) != 7] == 1.0)
        for t in range(20):
            v = data.columns["cat"][t]
            if v is not None:
                assert A[t, columns.index(f"cat={v}")] == 1.0


class TestRidge:
    def test_exact_recovery_without_penalty(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(200, 4))
        w_true = np.array([2.0, -1.0, 0.5, 0.0])
        y = 1.5 + A @ w_true
        model = train_linear(A, y, IDENTITY, l2=0.0)
        assert model.intercept == pytest.approx(1.5, abs=1e-9)
        np.testing.assert_allclose(model.weights, w_true, atol=1e-9)

    def test_penalty_shrinks_weights(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(100, 3))
        y = A @ np.array([1.0, 1.0, 1.0]) + rng.normal(0, 0.1, size=100)
        loose = train_linear(A, y, IDENTITY, l2=1e-8)
        tight = train_linear(A, y, IDENTITY, l2=10.0)
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)

    def test_intercept_not_penalized(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(400, 2))
        y = 50.0 + A @ np.array([0.5, -0.5])
        model = train_linear(A, y, IDENTITY, l2=5.0)
        assert model.intercept == pytest.approx(50.0, abs=0.1)

    def test_singular_design_without_penalty_rejected(self):
        A = np.ones((50, 2))
        A[:, 1] = A[:, 0]
        y = np.arange(50.0)
        with pytest.raises(da.TrainingError):
            train_linear(A, y, IDENTITY, l2=0.0)
        train_linear(A, y, IDENTITY, l2=1e-3)

    def test_input_validation(self):
        A = np.ones((10, 2))
        with pytest.raises(da.DataError):
            train_linear(A, np.ones(9), IDENTITY)
        with pytest.raises(da.DataError):
            train_linear(A, np.ones(10), IDENTITY, l2=-1.0)
        with pytest.raises(da.DataError):
            train_linear(A, np.ones(10), IDENTITY, columns=["only_one"])
        with pytest.raises(da.DataError):
            train_linear(A, np.ones(10), "probit")


class TestLogistic:
    def test_single_binary_feature_matches_group_log_odds(self):
        rng = np.random.default_rng(4)
        n = 40000
        x = (rng.random(n) < 0.5).astype(float)
        p = np.where(x == 1.0, 0.7, 0.2)
        y = (rng.random(n) < p).astype(float)
        model = train_linear(x[:, None], y, LOGISTIC, l2=0.0)
        p0 = y[x == 0].mean()
        p1 = y[x == 1].mean()
        assert model.intercept == pytest.approx(np.log(p0 / (1 - p0)), abs=1e-6)
        assert model.weights[0] == pytest.approx(
            np.log(p1 / (1 - p1)) - np.log(p0 / (1 - p0)), abs=1e-6
        )

    def test_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(500, 3))
        logit = A @ np.array([1.0, -0.5, 0.25])
        y = (rng.random(500) < sigmoid(logit)).astype(float)
        l2 = 1e-4
        model = train_linear(A, y, LOGISTIC, l2=l2)
        n = len(y)
        p = model.predict(A)
        grad_w = A.T @ (p - y) / n + l2 * model.weights
        grad_b = (p - y).mean()
        assert np.max(np.abs(grad_w)) < 1e-7
        assert abs(grad_b) < 1e-7

    def test_nll_trace_decreases(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(300, 2))
        y = (rng.random(300) < sigmoid(A[:, 0])).astype(float)
        model = train_linear(A, y, LOGISTIC)
        trace = model.metadata["nll_trace"]
        assert trace[-1] <= trace[0]

    def test_degenerate_targets_rejected(self):
        A = np.random.default_rng(7).normal(size=(60, 2))
        with pytest.raises(da.TrainingError):
            train_linear(A, np.ones(60), LOGISTIC)
        with pytest.raises(da.DataError):
            train_linear(A, np.full(60, 0.5), LOGISTIC)


class TestLinearBags:
    def dataset(self, n=1200, seed=8):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=n)
        x1 = rng.normal(size=n)
        score = 2.0 * x0 - 1.0 * x1 + 0.5
        outcome = (rng.random(n) < sigmoid(score)).astype(float)
        return da.AuditDataset.from_arrays({"x0": x0, "x1": x1}, score=score, outcome=outcome)

    def test_trains_grid_and_recovers_linear_score(self):
        data = self.dataset()
        plan = da.plan_bags(data.n_rows, K=2, L=2, seed=0)
        bags = train_linear_bags(data, plan)
        assert len(bags.mimic.models) == 2 and len(bags.mimic.models[0]) == 2
        assert (bags.mimic.link, bags.outcome.link) == (IDENTITY, LOGISTIC)
        model = bags.mimic.models[0][0]
        lookup = dict(zip(bags.columns, model.weights))
        assert lookup["x0"] == pytest.approx(2.0, abs=1e-3)
        assert lookup["x1"] == pytest.approx(-1.0, abs=1e-3)

    def test_bag_without_labeled_training_rows_is_named(self):
        data = self.dataset(n=300)
        plan = da.plan_bags(data.n_rows, K=2, L=2, seed=0)
        outcome = data.outcome.copy()
        outcome[plan.train[1][0]] = np.nan
        unlabeled = da.AuditDataset.from_arrays(
            {"x0": data.columns["x0"], "x1": data.columns["x1"]}, score=data.score, outcome=outcome
        )
        with pytest.raises(da.TrainingError, match=r"bag \(1, 0\) has no labeled rows in its train or validation split"):
            train_linear_bags(unlabeled, plan)

    def test_plan_for_another_row_count_is_refused(self):
        data = self.dataset(n=1200)
        plan = da.plan_bags(600, K=2, L=2, seed=0)
        with pytest.raises(da.DataError, match="bag plan was made for a different number of rows"):
            train_linear_bags(data, plan)

    def test_fold_metrics_near_zero_rmse_on_linear_score(self):
        data = self.dataset()
        plan = da.plan_bags(data.n_rows, K=2, L=2, seed=0)
        fm = linear_fold_metrics(data, train_linear_bags(data, plan))
        assert fm.name == "linear"
        assert fm.score_rmse_mean < 1e-3
        assert fm.outcome_auc_mean > 0.7

    def test_fold_metrics_read_the_plan_and_map_the_bags_trained_on(self):
        data, _ = da.gen_kinked_score(n_rows=3000, seed=0)
        cmap = da.fit_calibration(data.score, data.outcome)
        plan = da.plan_bags(data.n_rows, K=3, L=2, seed=0)
        bags = train_linear_bags(data, plan, cmap)
        assert bags.plan is plan and bags.calibration is cmap
        fm = linear_fold_metrics(data, bags)
        expected = [
            np.sqrt(np.mean((cmap.inverse(bags.mimic.predict_fold(k, bags.design[test])) - data.score[test]) ** 2))
            for k, test in enumerate(plan.test)
        ]
        np.testing.assert_allclose(fm.score_rmse_folds, expected, rtol=1e-12)

    def test_models_saved_per_bag(self, tmp_path):
        data = self.dataset(n=300)
        plan = da.plan_bags(data.n_rows, K=2, L=2, seed=1)
        bags = train_linear_bags(data, plan)
        bags.save_models(tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "linear_mimic_k0_l0.json" in names
        assert "linear_outcome_k1_l1.json" in names
        assert len(names) == 8

    def test_json_round_trip(self, tmp_path):
        data = self.dataset(n=300)
        A, columns = design_matrix(data)
        model = train_linear(A, data.score, IDENTITY, columns)
        path = tmp_path / "m.json"
        dump_json(path, model.to_json_dict())
        loaded = da.LinearModel.from_json_dict(load_json(path))
        np.testing.assert_allclose(loaded.predict(A), model.predict(A), atol=1e-12)
        assert loaded.columns == model.columns
