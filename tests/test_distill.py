"""Bag planning and paired mimic/outcome training.

Split sizes are pinned against hand-computed fractions, disjointness and
determinism are checked directly, and parallel training must reproduce the
sequential result bit for bit.
"""

import json
import multiprocessing
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import distillaudit as da
from distillaudit.cli import EXIT_TRAINING, main, run_audit
from distillaudit.data import dump_json, load_json
from distillaudit.gam import IDENTITY, LOGISTIC


def small_dataset(n_rows=400, seed=0, score_only=0):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0, 1, size=n_rows)
    x1 = rng.integers(0, 4, size=n_rows).astype(float)
    score = 2.0 * (x0 > 0.5) + 0.5 * x1 + rng.normal(0, 0.05, size=n_rows)
    outcome = (rng.random(n_rows) < 1.0 / (1.0 + np.exp(-(score - score.mean())))).astype(float)
    if score_only:
        outcome[rng.choice(n_rows, size=score_only, replace=False)] = np.nan
    return da.AuditDataset.from_arrays(
        {"x0": x0, "x1": x1}, score=score, outcome=outcome
    )


def model_bytes(paired):
    """Every model of both families as JSON text, in (family, k, l) order."""
    return [
        json.dumps(m.to_json_dict(), default=np.ndarray.tolist)
        for ens in (paired.mimic, paired.outcome)
        for fold in ens.models
        for m in fold
    ]


def relabeled(data, outcome):
    return da.AuditDataset(data.feature_names, data.feature_kinds, data.columns, data.score, outcome)


def unlabeled(data, plan):
    return relabeled(data, np.full(data.n_rows, np.nan))


def unlabeled_outside(data, plan):
    """``data`` with outcomes kept only on the rows of outer test fold 0, so
    the bags of fold 0 have no labeled rows to train on."""
    outcome = np.full(data.n_rows, np.nan)
    outcome[plan.test[0]] = data.outcome[plan.test[0]]
    return relabeled(data, outcome)


def one_class_in(data, plan, k=1, l=0):
    """``data`` with the positive outcomes of bag (k, l)'s training rows
    removed, so that bag's labeled training rows are all negative."""
    outcome = data.outcome.copy()
    train = plan.train[k][l]
    outcome[train[outcome[train] == 1.0]] = np.nan
    return relabeled(data, outcome)


def no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


def plans_equal(p1, p2):
    if not all(np.array_equal(a, b) for a, b in zip(p1.test, p2.test)):
        return False
    for part in ("train", "valid"):
        for f1, f2 in zip(getattr(p1, part), getattr(p2, part)):
            if not all(np.array_equal(a, b) for a, b in zip(f1, f2)):
                return False
    return True


class TestBagPlan:
    def test_split_sizes_match_fractions(self):
        plan = da.plan_bags(1000, K=3, L=4, seed=0)
        for k in range(3):
            assert len(plan.test[k]) == 150
            for l in range(4):
                assert len(plan.valid[k][l]) == 150
                assert len(plan.train[k][l]) == 700

    def test_bags_partition_the_rows(self):
        plan = da.plan_bags(500, K=2, L=3, seed=1)
        for k in range(2):
            test = set(plan.test[k])
            for l in range(3):
                train = set(plan.train[k][l])
                valid = set(plan.valid[k][l])
                assert not train & valid
                assert not train & test
                assert not valid & test
                assert train | valid | test == set(range(500))

    def test_indices_sorted_and_in_range(self):
        plan = da.plan_bags(300, K=2, L=2, seed=2)
        for arr in [plan.test[0], plan.train[0][1], plan.valid[1][0]]:
            a = np.asarray(arr)
            assert np.all(np.diff(a) > 0)
            assert a.min() >= 0 and a.max() < 300

    def test_seed_determinism_and_sensitivity(self):
        p1 = da.plan_bags(200, K=2, L=2, seed=7)
        p2 = da.plan_bags(200, K=2, L=2, seed=7)
        p3 = da.plan_bags(200, K=2, L=2, seed=8)
        assert plans_equal(p1, p2)
        assert not plans_equal(p1, p3)

    def test_inner_bags_share_the_outer_test_fold(self):
        plan = da.plan_bags(400, K=2, L=3, seed=3)
        for k in range(2):
            pool = set(range(400)) - set(plan.test[k])
            for l in range(3):
                assert set(plan.train[k][l]) | set(plan.valid[k][l]) == pool

    def test_validation_and_errors(self):
        with pytest.raises(da.ConfigError):
            da.plan_bags(100, K=1, L=2)
        with pytest.raises(da.ConfigError):
            da.plan_bags(100, K=2, L=1)
        with pytest.raises(da.DataError):
            da.plan_bags(19, K=2, L=2)

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(da.ConfigError, match="seed must be non-negative, got -1"):
            da.plan_bags(100, K=2, L=2, seed=-1)

    def test_json_round_trip(self, tmp_path):
        plan = da.plan_bags(100, K=2, L=2, seed=4)
        path = tmp_path / "plan.json"
        dump_json(path, plan.to_json_dict())
        loaded = da.BagPlan.from_json_dict(load_json(path))
        assert plans_equal(loaded, plan)
        assert loaded.seed == plan.seed
        assert loaded.K == plan.K and loaded.L == plan.L
        for p in (plan, loaded):
            arrays = [*p.test, *(a for fold in p.train + p.valid for a in fold)]
            assert {a.dtype for a in arrays} == {np.dtype(np.int32)}

    def test_refuses_rows_past_int32(self, monkeypatch):
        def no_draws(seed):
            raise AssertionError("drew bags")

        # the bags of 2**31 rows would take gigabytes; the check must come before any draw
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(da.DataError, match="rows to split into bags, got 2147483648"):
            da.plan_bags(2**31, K=2, L=2)
        with pytest.raises(AssertionError, match="drew bags"):
            da.plan_bags(2**31 - 1, K=2, L=2)


class TestPairedTraining:
    def paired(self, **kwargs):
        data = small_dataset(score_only=kwargs.pop("score_only", 0))
        plan = da.plan_bags(data.n_rows, K=2, L=2, seed=0)
        config = da.TrainConfig(learning_rate=0.1, max_rounds=300, seed=0)
        return data, da.train_paired(data, plan=plan, config=config, **kwargs)

    def test_trains_full_grid_of_models(self):
        _, paired = self.paired()
        assert len(paired.mimic.models) == 2
        assert all(len(row) == 2 for row in paired.mimic.models)
        assert paired.mimic.link == IDENTITY
        assert paired.outcome.link == LOGISTIC

    def test_mimic_and_outcome_share_splits_and_schema(self):
        data, paired = self.paired()
        assert paired.mimic.schema is paired.outcome.schema
        j = paired.schema.index("x0")
        tensor = paired.mimic.shape_tensor(j)
        assert tensor.shape == (2, 2, paired.schema.n_bins(j))

    def test_fold_predictions_average_inner_bags(self):
        data, paired = self.paired()
        X = da.bin_dataset(data, paired.schema)
        rows = np.asarray(paired.plan.test[0])
        Xt = X.take(rows)
        manual = np.mean(
            [m.decision(Xt) for m in paired.mimic.models[0]], axis=0
        )
        np.testing.assert_allclose(paired.mimic.predict_fold(0, Xt), manual, atol=1e-12)

    def test_score_only_rows_feed_mimic_not_outcome(self):
        data, paired = self.paired(score_only=120)
        assert data.n_score_only == 120
        rows = np.asarray(paired.plan.train[0][0])
        labeled = rows[np.isfinite(data.outcome[rows])]
        assert len(labeled) < len(rows)
        assert paired.outcome.models[0][0].metadata["n_train"] == len(labeled)
        assert paired.mimic.models[0][0].metadata["n_train"] == len(rows)

    def test_parallel_matches_sequential(self):
        data = small_dataset()
        plan = da.plan_bags(data.n_rows, K=2, L=2, seed=0)
        config = da.TrainConfig(learning_rate=0.1, max_rounds=200, seed=0)
        seq = da.train_paired(data, plan=plan, config=config, jobs=1)
        par = da.train_paired(data, plan=plan, config=config, jobs=2)
        for kind in ("mimic", "outcome"):
            for k in range(2):
                for l in range(2):
                    a = getattr(seq, kind).models[k][l]
                    b = getattr(par, kind).models[k][l]
                    assert a.intercept == b.intercept
                    for shape_a, shape_b in zip(a.shapes, b.shapes):
                        np.testing.assert_array_equal(shape_a, shape_b)

    def test_parallel_interactions_match_sequential(self):
        data = small_dataset(score_only=60)
        plan = da.plan_bags(data.n_rows, K=2, L=3, seed=0)
        config = da.TrainConfig(learning_rate=0.2, max_rounds=60, patience=10, seed=0, n_pairs=1)
        paired = da.train_paired(data, plan=plan, config=config)
        seq = da.with_interactions(paired, jobs=1)
        par = da.with_interactions(paired, jobs=2)
        assert model_bytes(seq) == model_bytes(par)
        assert all(m.surfaces for fold in par.outcome.models for m in fold)

    def test_pooled_models_share_one_schema_and_pickle_none(self, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the shared inputs only when forked")

        def refuse(self, protocol):
            raise AssertionError("a FeatureSchema was pickled")

        monkeypatch.setattr(da.FeatureSchema, "__reduce_ex__", refuse)
        data = small_dataset()
        plan = da.plan_bags(data.n_rows, K=2, L=2, seed=0)
        config = da.TrainConfig(learning_rate=0.2, max_rounds=40, seed=0, n_pairs=1)
        paired = da.train_paired(data, plan=plan, config=config, jobs=2)
        for result in (paired, da.with_interactions(paired, jobs=2)):
            assert result.schema is paired.schema
            models = [m for ens in (result.mimic, result.outcome) for fold in ens.models for m in fold]
            assert len(models) == 8
            assert all(m.schema is paired.schema for m in models)

    def test_parallel_matches_sequential_under_spawn(self):
        """Spawned workers start from a fresh import and get the shared data
        through the pool initializer, as on macOS and Windows."""
        code = textwrap.dedent(
            """
            import multiprocessing, sys
            sys.path[:0] = [SRC, TESTS]
            import distillaudit as da
            from test_distill import model_bytes, small_dataset

            if __name__ == "__main__":
                multiprocessing.set_start_method("spawn", force=True)
                data = small_dataset(score_only=40)
                plan = da.plan_bags(data.n_rows, K=2, L=2, seed=1)
                config = da.TrainConfig(learning_rate=0.2, max_rounds=40, seed=1, n_pairs=1)
                out = []
                for jobs in (1, 2):
                    paired = da.train_paired(data, plan=plan, config=config, jobs=jobs)
                    out.append(model_bytes(da.with_interactions(paired, jobs=jobs)))
                print(out[0] == out[1], multiprocessing.get_start_method())
            """
        ).replace("SRC", repr(str(Path(da.__file__).resolve().parents[1]))).replace(
            "TESTS", repr(str(Path(__file__).resolve().parent))
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True", "spawn"]

    def test_bag_without_labeled_rows_fails_before_dispatch(self, monkeypatch):
        plan = da.plan_bags(400, K=2, L=2, seed=0)
        data = unlabeled_outside(small_dataset(), plan)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        with pytest.raises(da.TrainingError, match=r"bag \(0, 0\) has no labeled rows"):
            da.train_paired(data, plan=plan, config=da.TrainConfig(max_rounds=5), jobs=2)

    def test_bag_without_labeled_rows_exits_from_load_stage(self, tmp_path, monkeypatch, capsys):
        ds, _ = da.gen_partial_use(n_rows=600, seed=2)
        path = tmp_path / "data.csv"
        unlabeled_outside(ds, da.plan_bags(ds.n_rows, K=2, L=2, seed=5)).to_csv(path)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        code = main(["audit", "--data", str(path), "--K", "2", "--L", "2", "--seed", "5",
                     "--jobs", "2", "--out", str(tmp_path / "out")])
        assert code == EXIT_TRAINING
        assert "error[load]: bag (0, 0) has no labeled rows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bag_with_one_outcome_class_exits_from_load_stage(self, tmp_path, capsys):
        ds, _ = da.gen_partial_use(n_rows=600, seed=2)
        path = tmp_path / "data.csv"
        one_class_in(ds, da.plan_bags(ds.n_rows, K=2, L=2, seed=5)).to_csv(path)
        code = main(["audit", "--data", str(path), "--K", "2", "--L", "2", "--seed", "5",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_TRAINING
        err = capsys.readouterr().err
        assert err == "error[load]: bag (1, 0) has labeled training rows of one outcome class only\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("relabel, error, match", [
        (unlabeled, da.DataError, "no labeled rows"),
        (unlabeled_outside, da.TrainingError, r"bag \(0, 0\) has no labeled rows"),
        (one_class_in, da.TrainingError, r"bag \(1, 0\) has labeled training rows of one outcome class"),
    ])
    def test_run_audit_checks_bag_labels_before_any_file(self, tmp_path, relabel, error, match):
        ds, _ = da.gen_partial_use(n_rows=600, seed=2)
        data = relabel(ds, da.plan_bags(ds.n_rows, K=2, L=2, seed=5))
        load_cfg = da.LoadConfig(max_bins=8)
        with pytest.raises(error, match=match):
            run_audit(data, tmp_path / "lib", load_cfg, da.TrainConfig(max_rounds=5, seed=5), K=2, L=2)
        assert not (tmp_path / "lib").exists()

    def test_bag_with_one_outcome_class_fails_before_dispatch(self, monkeypatch):
        plan = da.plan_bags(400, K=2, L=2, seed=0)
        data = one_class_in(small_dataset(), plan, 1, 1)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        with pytest.raises(da.TrainingError, match=r"bag \(1, 1\) has labeled training rows of one"):
            da.train_paired(data, plan=plan, config=da.TrainConfig(max_rounds=5), jobs=2)

    def test_calibrated_training_uses_mapped_targets(self):
        data = small_dataset()
        cmap = da.fit_calibration(data.score, data.outcome)
        plan = da.plan_bags(data.n_rows, K=2, L=2, seed=0)
        config = da.TrainConfig(learning_rate=0.1, max_rounds=200, seed=0)
        paired = da.train_paired(data, calibration=cmap, plan=plan, config=config)
        assert paired.calibration is cmap
        target = cmap.apply(data.score)
        rows = np.asarray(plan.train[0][0])
        assert paired.mimic.models[0][0].intercept == pytest.approx(
            target[rows].mean(), abs=1e-9
        )

    def test_interactions_keep_what_the_ensembles_share(self):
        data = small_dataset()
        cmap = da.fit_calibration(data.score, data.outcome)
        plan = da.plan_bags(data.n_rows, K=2, L=2, seed=0)
        config = da.TrainConfig(learning_rate=0.2, max_rounds=40, seed=0, n_pairs=1)
        paired = da.train_paired(data, calibration=cmap, plan=plan, config=config)
        extended = da.with_interactions(paired)
        for name in ("plan", "schema", "calibration", "bin_mass", "config", "data"):
            assert getattr(extended, name) is getattr(paired, name)
        assert paired.data is data
        models = [m for ens in (extended.mimic, extended.outcome) for fold in ens.models for m in fold]
        assert all(len(m.surfaces) == 1 for m in models)
        assert (extended.mimic.link, extended.outcome.link) == (IDENTITY, LOGISTIC)

    def test_pair_fits_train_with_the_ensembles_config(self):
        data, _ = da.gen_interaction(n_rows=800, seed=0)
        plan = da.plan_bags(data.n_rows, K=2, L=2, seed=0)
        config = da.TrainConfig(learning_rate=0.1, max_rounds=40, n_pairs=1)
        paired = da.train_paired(data, plan=plan, config=config)
        extended = da.with_interactions(paired)
        models = [m for ens in (extended.mimic, extended.outcome) for fold in ens.models for m in fold]
        assert all(m.metadata["interaction_rounds_run"] <= 40 for m in models)

    def test_too_many_pairs_rejected(self):
        data = small_dataset()
        plan = da.plan_bags(data.n_rows, K=2, L=2, seed=0)
        config = da.TrainConfig(max_rounds=5, n_pairs=2)
        paired = da.train_paired(data, plan=plan, config=config)
        with pytest.raises(da.ConfigError, match="exceeds the 1 available pairs"):
            da.with_interactions(paired)

    def test_plan_row_count_mismatch_rejected(self):
        data = small_dataset()
        plan = da.plan_bags(data.n_rows + 1, K=2, L=2, seed=0)
        with pytest.raises(da.DataError):
            da.train_paired(data, plan=plan)

    def test_all_outcomes_missing_rejected(self):
        data = small_dataset()
        blank = da.AuditDataset.from_arrays(
            {n: data.columns[n] for n in data.feature_names},
            score=data.score,
            outcome=np.full(data.n_rows, np.nan),
        )
        plan = da.plan_bags(data.n_rows, K=2, L=2, seed=0)
        with pytest.raises(da.DataError):
            da.train_paired(blank, plan=plan)

    def test_model_artifacts_round_trip(self, tmp_path):
        data, paired = self.paired()
        paired.save_models(tmp_path)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert "plan.json" in files and "schema.json" in files
        assert "mimic_k0_l0.json" in files and "outcome_k1_l1.json" in files
        loaded = da.AdditiveModel.from_json_dict(load_json(tmp_path / "mimic_k0_l0.json"))
        X = da.bin_dataset(data, paired.schema)
        np.testing.assert_allclose(
            loaded.decision(X), paired.mimic.models[0][0].decision(X), atol=1e-12
        )


class TestFidelity:
    def test_mimic_rmse_tracks_noise_floor_and_auc_reasonable(self):
        rng = np.random.default_rng(6)
        n = 3000
        x0 = rng.uniform(0, 1, size=n)
        score = 2.0 * (x0 > 0.5) + rng.normal(0, 0.1, size=n)
        outcome = (rng.random(n) < 1.0 / (1.0 + np.exp(-(score - 1.0)))).astype(float)
        data = da.AuditDataset.from_arrays({"x0": x0}, score=score, outcome=outcome)
        plan = da.plan_bags(n, K=2, L=2, seed=0)
        config = da.TrainConfig(learning_rate=0.1, max_rounds=400, seed=0)
        paired = da.train_paired(data, plan=plan, config=config)
        fm = da.fidelity(paired)
        assert fm.score_rmse_mean < 0.13
        assert fm.outcome_auc_mean > 0.7
        assert len(fm.score_rmse_folds) == 2

    def test_calibrated_rmse_reported_on_raw_score_scale(self):
        ds, _ = da.gen_kinked_score(n_rows=3000, seed=0)
        cmap = da.fit_calibration(ds.score, ds.outcome)
        plan = da.plan_bags(ds.n_rows, K=2, L=2, seed=0)
        config = da.TrainConfig(learning_rate=0.15, max_rounds=300, seed=0)
        paired = da.train_paired(ds, calibration=cmap, plan=plan, config=config)
        fm = da.fidelity(paired)
        span = ds.score.max() - ds.score.min()
        assert fm.score_rmse_mean < 0.15 * span

    def test_fold_without_labeled_test_rows_is_skipped(self):
        data = small_dataset(n_rows=600)
        plan = da.plan_bags(data.n_rows, K=3, L=2, seed=0)
        outcome = data.outcome.copy()
        outcome[plan.test[0]] = np.nan
        data = relabeled(data, outcome)
        paired = da.train_paired(data, plan=plan, config=da.TrainConfig(learning_rate=0.1, max_rounds=20))
        linear = da.linear_fold_metrics(da.train_linear_bags(data, plan))
        for fm in (da.fidelity(paired), linear):
            assert fm.n_auc_folds_skipped == 1
            assert len(fm.outcome_auc_folds) == 2 and len(fm.score_rmse_folds) == 3
        pairs = da.error_pairs(paired)
        assert set(pairs.fold_ids) == {1, 2}
        assert pairs.n_excluded_score_only == len(plan.test[0])

    def test_single_class_test_fold_skipped_for_auc(self):
        rng = np.random.default_rng(7)
        n = 200
        data = da.AuditDataset.from_arrays(
            {"x0": rng.uniform(size=n)},
            score=rng.uniform(size=n),
            outcome=np.ones(n) * (rng.random(n) < 0.995),
        )
        plan = da.plan_bags(n, K=2, L=2, seed=3)
        config = da.TrainConfig(learning_rate=0.1, max_rounds=50, seed=0)
        try:
            paired = da.train_paired(data, plan=plan, config=config)
        except da.TrainingError:
            pytest.skip("single-class training bag, fold-skip path not reachable")
        fm = da.fidelity(paired)
        counted = len(fm.outcome_auc_folds) if fm.outcome_auc_folds else 0
        assert counted + fm.n_auc_folds_skipped == 2
