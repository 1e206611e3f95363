"""Boosted additive models against independent oracles.

Key oracles: per-bin conditional means (the least-squares optimum a single
feature's shape must converge to), finite differences of the Bernoulli
log-likelihood (what each classification round fits), and empirical per-bin
rates (the saturated logistic optimum).
"""

import json

import numpy as np
import pytest

import distillaudit as da
from distillaudit.data import dump_json, load_json
from distillaudit.gam import (
    _MIN_GAIN,
    _MIN_HESSIAN,
    _NEWTON_CLIP,
    IDENTITY,
    LOGISTIC,
    _best_cut,
    _best_rect_tree,
    _best_tree,
    _center_shapes,
    _fit_rows,
    _hessian_margins,
    _rect_update,
    _split_rows,
)
from distillaudit.stats import mean_nll, sigmoid


def dataset_from_column(values, name="x"):
    values = np.asarray(values, dtype=float)
    return da.AuditDataset.from_arrays({name: values}, np.zeros(len(values)), np.zeros(len(values)))


def binned_single(values):
    ds = dataset_from_column(values)
    schema = da.fit_schema(ds)
    return da.bin_dataset(ds, schema)


def bin_means(codes, y, n_bins):
    sums = np.bincount(codes, weights=y, minlength=n_bins)
    counts = np.bincount(codes, minlength=n_bins)
    return sums, counts


class TestFitRows:
    @pytest.mark.parametrize("layout", ["binned", "row-major int32", "column-major intp"])
    def test_rows_are_contiguous_intp_per_feature(self, layout):
        ds = da.gen_partial_use(n_rows=60, seed=0, n_features=3, n_used=1)[0]
        X = da.bin_dataset(ds, da.fit_schema(ds, max_bins=8))
        if layout != "binned":
            order, dtype = ("C", np.int32) if layout == "row-major int32" else ("F", np.intp)
            X = da.BinnedMatrix(np.array(X.codes, dtype=dtype, order=order), X.schema)
        valid = np.arange(40, 60)
        _, train_rows, valid_rows, Ct, Cv = _fit_rows(X, ds.score, valid, logistic=False)
        for C, rows in ((Ct, train_rows), (Cv, valid_rows)):
            assert C.dtype == np.intp
            assert C.flags.c_contiguous
            np.testing.assert_array_equal(C, X.codes[rows].T)


class TestRegression:
    def test_single_feature_converges_to_per_bin_means(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 6, size=2000).astype(float)
        y = rng.normal(size=2000) + values * 0.7
        X = binned_single(values)
        model = da.train_regressor(X, y, da.TrainConfig(learning_rate=0.5, max_rounds=600))
        pred = model.decision(X)
        sums, counts = bin_means(X.column(0), y, X.schema.n_bins(0))
        for b in range(6):
            np.testing.assert_allclose(pred[X.column(0) == b][0], sums[b] / counts[b], atol=1e-6)

    def test_noiseless_additive_target_reaches_tiny_rmse(self):
        rng = np.random.default_rng(1)
        n = 3000
        cols = {f"x{j}": rng.integers(0, 5, size=n).astype(float) for j in range(4)}
        tables = {name: rng.normal(size=5) for name in cols}
        y = sum(tables[name][cols[name].astype(int)] for name in cols)
        ds = da.AuditDataset.from_arrays(cols, np.zeros(n), np.zeros(n))
        X = da.bin_dataset(ds, da.fit_schema(ds))
        model = da.train_regressor(X, y, da.TrainConfig(learning_rate=0.3, max_rounds=500))
        rmse = float(np.sqrt(np.mean((model.decision(X) - y) ** 2)))
        assert rmse < 1e-3

    def test_shapes_are_mean_centered_over_training_mass(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 8, size=1500).astype(float)
        y = rng.normal(size=1500)
        X = binned_single(values)
        model = da.train_regressor(X, y, da.TrainConfig(learning_rate=0.2, max_rounds=80))
        counts = np.bincount(X.column(0), minlength=X.schema.n_bins(0))
        assert abs(np.dot(counts, model.shapes[0])) < 1e-9 * len(values)

    def test_intercept_equals_training_mean_after_centering(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 4, size=800).astype(float)
        y = rng.normal(loc=2.5, size=800)
        X = binned_single(values)
        model = da.train_regressor(X, y, da.TrainConfig(learning_rate=0.3, max_rounds=100))
        assert abs(model.intercept - y.mean()) < 1e-9

    def test_constant_target_yields_intercept_only(self):
        X = binned_single(np.arange(100, dtype=float))
        model = da.train_regressor(X, np.full(100, 4.0), da.TrainConfig(max_rounds=10))
        assert model.intercept == 4.0
        assert np.all(model.shapes[0] == 0.0)
        assert model.metadata["constant_target"]

    def test_early_stopping_restores_best_round(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 10, size=600).astype(float)
        y = rng.normal(size=600)
        X = binned_single(values)
        cfg = da.TrainConfig(learning_rate=0.4, max_rounds=400, patience=10)
        valid = np.arange(0, 600, 4)
        model = da.train_regressor(X, y, cfg, validation=valid)
        assert model.metadata["stopped_early"]
        assert model.metadata["best_round"] <= model.metadata["rounds_run"]
        trace = model.metadata["valid_loss_trace"]
        assert model.metadata["valid_loss"] == min(trace)

    def test_validation_rows_excluded_from_training_mass(self):
        values = np.array([0.0] * 50 + [1.0] * 50)
        y = np.concatenate([np.zeros(50), np.ones(50)])
        X = binned_single(values)
        valid = np.arange(50)
        model = da.train_regressor(X, y, da.TrainConfig(learning_rate=0.5, max_rounds=200), validation=valid)
        assert abs(model.intercept - 1.0) < 1e-9

    def test_bad_validation_indices(self):
        X = binned_single(np.arange(30, dtype=float))
        y = np.zeros(30)
        with pytest.raises(da.DataError):
            da.train_regressor(X, y, validation=np.array([0, 0, 1]))
        with pytest.raises(da.DataError):
            da.train_regressor(X, y, validation=np.array([40]))
        with pytest.raises(da.TrainingError):
            da.train_regressor(X, y, validation=np.arange(30))

    def test_deterministic_given_identical_inputs(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=500)
        y = rng.normal(size=500)
        X = binned_single(values)
        cfg = da.TrainConfig(learning_rate=0.2, max_rounds=60)
        a = da.train_regressor(X, y, cfg)
        b = da.train_regressor(X, y, cfg)
        np.testing.assert_array_equal(a.shapes[0], b.shapes[0])
        assert a.intercept == b.intercept


class TestClassification:
    def test_pseudo_residuals_match_finite_difference_gradient(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=10)
        y = (rng.random(10) < 0.5).astype(float)
        grad = y - sigmoid(logits)  # what each classification round fits
        h = 1e-6
        for i in range(10):
            up, down = logits.copy(), logits.copy()
            up[i] += h
            down[i] -= h
            # the log-likelihood is -len(y) * mean_nll for 0/1 targets
            fd = (mean_nll(y, down) - mean_nll(y, up)) * len(y) / (2 * h)
            assert abs(fd - grad[i]) < 1e-5 * max(1.0, abs(grad[i]))

    def test_single_feature_converges_to_empirical_rates(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 3, size=30000).astype(float)
        probs = np.array([0.2, 0.5, 0.8])[values.astype(int)]
        y = (rng.random(30000) < probs).astype(float)
        X = binned_single(values)
        model = da.train_classifier(X, y, da.TrainConfig(learning_rate=0.3, max_rounds=300))
        pred = model.predict(X)
        for b in range(3):
            rows = X.column(0) == b
            assert abs(pred[rows][0] - y[rows].mean()) < 1e-3

    def test_predict_is_sigmoid_of_decision(self):
        rng = np.random.default_rng(8)
        values = rng.integers(0, 4, size=2000).astype(float)
        y = (rng.random(2000) < 0.3 + 0.1 * values).astype(float)
        X = binned_single(values)
        model = da.train_classifier(X, y, da.TrainConfig(learning_rate=0.2, max_rounds=40))
        np.testing.assert_allclose(model.predict(X), sigmoid(model.decision(X)))

    def test_single_class_rejected(self):
        X = binned_single(np.arange(50, dtype=float))
        with pytest.raises(da.TrainingError, match="single class"):
            da.train_classifier(X, np.ones(50))

    def test_non_binary_targets_rejected(self):
        X = binned_single(np.arange(50, dtype=float))
        with pytest.raises(da.DataError):
            da.train_classifier(X, np.linspace(0, 1, 50))


def best_cut(sum_g, denom, lo, hi):
    """Best single cut of bins [lo, hi) through ``_best_cut``."""
    return _best_cut(np.cumsum(sum_g[lo:hi]), np.cumsum(denom[lo:hi]), lo)


class TestTrees:
    def test_split_gain_matches_sum_of_squares_identity(self):
        rng = np.random.default_rng(9)
        sum_g = rng.normal(size=6)
        denom = rng.uniform(1, 5, size=6)
        gain, cut = best_cut(sum_g, denom, 0, 6)
        gl, dl = sum_g[:cut].sum(), denom[:cut].sum()
        gr, dr = sum_g[cut:].sum(), denom[cut:].sum()
        expected = gl**2 / dl + gr**2 / dr - sum_g.sum() ** 2 / denom.sum()
        assert abs(gain - expected) < 1e-12

    def test_tied_gains_take_the_lowest_cut(self):
        sum_g = np.array([2.0, -2.0, 2.0, -2.0])
        denom = np.ones(4)
        gain, cut = best_cut(sum_g, denom, 0, 4)
        assert cut == 1
        bounds = _best_tree(sum_g, denom, max_leaves=2)
        assert bounds == [0, 1, 4]

    def test_empty_bins_cannot_become_leaves_alone(self):
        sum_g = np.array([1.0, 0.0, -1.0])
        denom = np.array([5.0, 0.0, 5.0])
        gain, cut = best_cut(sum_g, denom, 0, 3)
        assert cut in (1, 2)

    def test_leaves_bound_respected(self):
        rng = np.random.default_rng(10)
        sum_g = rng.normal(size=12)
        denom = np.ones(12)
        for leaves in (2, 3, 5):
            bounds = _best_tree(sum_g, denom, leaves)
            assert len(bounds) - 1 <= leaves


class TestModelObject:
    def make_model(self):
        rng = np.random.default_rng(11)
        cols = {f"x{j}": rng.integers(0, 4, size=300).astype(float) for j in range(3)}
        ds = da.AuditDataset.from_arrays(cols, np.zeros(300), np.zeros(300))
        X = da.bin_dataset(ds, da.fit_schema(ds))
        y = rng.normal(size=300)
        return da.train_regressor(X, y, da.TrainConfig(learning_rate=0.3, max_rounds=30)), X

    def test_decision_is_exactly_additive(self):
        model, X = self.make_model()
        manual = np.full(X.n_rows, model.intercept)
        for j, h in enumerate(model.shapes):
            manual += h[X.column(j)]
        np.testing.assert_array_equal(model.decision(X), manual)

    def test_contribution_lookup(self):
        model, _ = self.make_model()
        np.testing.assert_array_equal(model.contribution("x1"), model.shapes[1])
        with pytest.raises(da.DataError):
            model.contribution("nope")

    def test_json_round_trip(self, tmp_path):
        model, X = self.make_model()
        path = tmp_path / "model.json"
        dump_json(path, model.to_json_dict())
        loaded = da.AdditiveModel.from_json_dict(load_json(path))
        np.testing.assert_array_equal(loaded.decision(X), model.decision(X))
        assert loaded.link == model.link

    def test_json_round_trip_with_pair_surface(self, tmp_path):
        mains, X = self.make_model()
        y = (X.column(0) == X.column(2)) + np.random.default_rng(12).normal(scale=0.1, size=X.n_rows)
        config = da.TrainConfig(learning_rate=0.3, max_rounds=20, split_significance=0.0)
        model = da.fit_interactions(mains, X, y, [(0, 2)], config)
        assert len(model.surfaces) == 1 and np.count_nonzero(model.surfaces[0].values) > 10
        path = tmp_path / "model.json"
        dump_json(path, model.to_json_dict())
        loaded = da.AdditiveModel.from_json_dict(load_json(path))
        for got, want in ((loaded.decision(X), model.decision(X)), (loaded.surfaces[0].values, model.surfaces[0].values)):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert loaded.surfaces[0].names == model.surfaces[0].names

    def test_config_validation(self):
        with pytest.raises(da.ConfigError):
            da.TrainConfig(learning_rate=0.0)
        with pytest.raises(da.ConfigError):
            da.TrainConfig(leaves=1)
        with pytest.raises(da.ConfigError):
            da.TrainConfig(max_rounds=0)
        with pytest.raises(da.ConfigError):
            da.TrainConfig.from_dict({"learning_rate": 0.1, "bogus": 2})

    def test_negative_seed_rejected(self):
        with pytest.raises(da.ConfigError, match="seed must be non-negative, got -1"):
            da.TrainConfig(seed=-1)


class TestSurfaceStorage:
    """A pair grid is stored as its distinct values plus a per-cell index and
    reads back bit for bit."""

    def table(self):
        rng = np.random.default_rng(13)
        cols = {f"x{j}": rng.integers(0, 40, size=500).astype(float) for j in range(2)}
        ds = da.AuditDataset.from_arrays(cols, np.zeros(500), np.zeros(500))
        return da.bin_dataset(ds, da.fit_schema(ds))

    def grids(self, shape):
        """(grid, distinct bit patterns, index dtype) triples."""
        signed = np.zeros(shape)
        signed[0, 1] = -0.0
        signed[1] = 2.5
        many = np.random.default_rng(14).normal(size=shape)
        return [(signed, 3, np.uint8), (np.full(shape, -1.25), 1, np.uint8), (many, many.size, np.uint16)]

    def test_grid_round_trips_bit_for_bit(self, tmp_path):
        X = self.table()
        shapes = [np.zeros(X.schema.n_bins(j)) for j in range(2)]
        for grid, n_levels, dtype in self.grids((X.schema.n_bins(0), X.schema.n_bins(1))):
            surface = da.InteractionSurface(0, 1, ("x0", "x1"), grid)
            assert len(surface.levels) == n_levels and surface.index.dtype == dtype
            np.testing.assert_array_equal(surface.values.view(np.int64), grid.view(np.int64))
            model = da.AdditiveModel(0.5, IDENTITY, X.schema, shapes, [surface])
            dense = np.full(X.n_rows, 0.5)
            for j, h in enumerate(shapes):
                dense += h[X.column(j)]
            dense += grid[X.column(0), X.column(1)]
            np.testing.assert_array_equal(model.decision(X).view(np.int64), dense.view(np.int64))
            path = tmp_path / "model.json"
            dump_json(path, model.to_json_dict())
            loaded = da.AdditiveModel.from_json_dict(load_json(path)).surfaces[0]
            np.testing.assert_array_equal(loaded.values.view(np.int64), grid.view(np.int64))

    def test_values_are_read_only(self):
        X = self.table()
        surface = da.InteractionSurface(0, 1, ("x0", "x1"), np.zeros((X.schema.n_bins(0), X.schema.n_bins(1))))
        with pytest.raises(ValueError, match="read-only"):
            surface.values[0, 0] = 1.0
        assert not surface.values.any()


def screened(model, X, y, n, validation=None):
    """The top ``n`` pairs ranked on ``model``'s residuals over its training rows."""
    train_rows, _ = _split_rows(X.n_rows, validation)
    return [(ps.i, ps.j) for ps in da.rank_interaction_pairs(model, X, y, rows=train_rows)[:n]]


class TestInteractions:
    def interaction_data(self, seed=0, n=4000):
        ds, truth = da.gen_interaction(n_rows=n, seed=seed)
        schema = da.fit_schema(ds, max_bins=16)
        X = da.bin_dataset(ds, schema)
        return ds, X, truth

    def test_true_pair_ranked_first(self):
        ds, X, truth = self.interaction_data()
        model = da.train_regressor(X, ds.score, da.TrainConfig(learning_rate=0.3, max_rounds=120))
        ranked = da.rank_interaction_pairs(model, X, ds.score)
        assert (ranked[0].i, ranked[0].j) == truth["pair_indices"]
        assert ranked[0].gain > ranked[1].gain

    def test_fitting_the_pair_reduces_heldout_error(self):
        ds, X, truth = self.interaction_data(seed=1)
        valid = np.arange(0, ds.n_rows, 5)
        test = np.arange(2, ds.n_rows, 5)
        cfg = da.TrainConfig(learning_rate=0.25, max_rounds=150, patience=20)
        mains = da.train_regressor(X, ds.score, cfg, validation=valid)
        pairs = screened(mains, X, ds.score, 1, valid)
        with_pair = da.fit_interactions(mains, X, ds.score, pairs, cfg, validation=valid)
        Xt = X.take(test)
        rmse_mains = float(np.sqrt(np.mean((mains.predict(Xt) - ds.score[test]) ** 2)))
        rmse_pair = float(np.sqrt(np.mean((with_pair.predict(Xt) - ds.score[test]) ** 2)))
        assert rmse_pair < 0.8 * rmse_mains
        assert len(with_pair.surfaces) == 1
        assert with_pair.surfaces[0].names == truth["pair"]

    def test_input_model_untouched_and_zero_pairs_is_identity(self):
        ds, X, _ = self.interaction_data(seed=2, n=1500)
        cfg = da.TrainConfig(learning_rate=0.3, max_rounds=40)
        mains = da.train_regressor(X, ds.score, cfg)
        before = [h.copy() for h in mains.shapes]
        assert da.fit_interactions(mains, X, ds.score, []) is mains
        out = da.fit_interactions(mains, X, ds.score, screened(mains, X, ds.score, 1), cfg)
        assert out is not mains
        assert not mains.surfaces
        for h_before, h_after in zip(before, mains.shapes):
            np.testing.assert_array_equal(h_before, h_after)
        for h_main, h_out in zip(mains.shapes, out.shapes):
            np.testing.assert_array_equal(h_main, h_out)

    def test_surfaces_centered_and_additive(self):
        ds, X, _ = self.interaction_data(seed=4, n=2000)
        cfg = da.TrainConfig(learning_rate=0.3, max_rounds=60)
        mains = da.train_regressor(X, ds.score, cfg)
        model = da.fit_interactions(mains, X, ds.score, screened(mains, X, ds.score, 1), cfg)
        surf = model.surfaces[0]
        cell = X.column(surf.i).astype(np.int64) * X.schema.n_bins(surf.j) + X.column(surf.j)
        counts = np.bincount(cell, minlength=surf.values.size)
        assert abs(counts @ surf.values.ravel()) < 1e-9 * X.n_rows
        manual = np.full(X.n_rows, model.intercept)
        for j, h in enumerate(model.shapes):
            manual += h[X.column(j)]
        manual += surf.values[X.column(surf.i), X.column(surf.j)]
        np.testing.assert_allclose(model.decision(X), manual)

    def test_repeated_pairs_rejected(self):
        ds, X, _ = self.interaction_data(seed=3, n=500)
        cfg = da.TrainConfig(max_rounds=5, learning_rate=0.3)
        model = da.train_regressor(X, ds.score, cfg)
        with pytest.raises(da.ConfigError):
            da.fit_interactions(model, X, ds.score, [(0, 1), (0, 1)], cfg)

    def test_targets_checked_like_main_fits(self):
        ds, X, _ = self.interaction_data(seed=3, n=500)
        cfg = da.TrainConfig(max_rounds=5, learning_rate=0.3)
        y = (ds.score > np.median(ds.score)).astype(float)
        for train, bad in ((da.train_regressor, ds.score.copy()), (da.train_classifier, y.copy())):
            model = train(X, bad, cfg)
            bad[7] = np.nan
            with pytest.raises(da.DataError):
                da.fit_interactions(model, X, bad, [(0, 1)], cfg)
        bad = y.copy()
        bad[7] = 2.0
        with pytest.raises(da.DataError):
            da.fit_interactions(model, X, bad, [(0, 1)], cfg)

    def test_logistic_interactions_improve_likelihood(self):
        rng = np.random.default_rng(12)
        n = 6000
        x0 = rng.uniform(-1, 1, size=n)
        x1 = rng.uniform(-1, 1, size=n)
        logit = 2.5 * ((x0 > 0) & (x1 > 0)) - 1.0
        y = (rng.random(n) < sigmoid(logit)).astype(float)
        ds = da.AuditDataset.from_arrays({"x0": x0, "x1": x1}, np.zeros(n), y)
        X = da.bin_dataset(ds, da.fit_schema(ds, max_bins=8))
        valid = np.arange(0, n, 5)
        cfg = da.TrainConfig(learning_rate=0.2, max_rounds=150, patience=15)
        mains = da.train_classifier(X, y, cfg, validation=valid)
        with_pair = da.fit_interactions(mains, X, y, [(0, 1)], cfg, validation=valid)
        assert mean_nll(y, with_pair.decision(X)) < mean_nll(y, mains.decision(X)) - 0.01


# Reference copies of the visit loop and split search before the loop read
# contiguous columns, reused gradients and prefix sums, and located the run
# of valid cuts directly. The current code must reproduce them bit for bit.


def reference_split_segment(sum_g, denom, lo, hi):
    g = sum_g[lo:hi]
    d = denom[lo:hi]
    if len(g) < 2:
        return None
    cg = np.cumsum(g)
    cd = np.cumsum(d)
    total_g = cg[-1]
    total_d = cd[-1]
    if total_d <= _MIN_HESSIAN:
        return None
    gl, dl = cg[:-1], cd[:-1]
    gr, dr = total_g - gl, total_d - dl
    valid = (dl > _MIN_HESSIAN) & (dr > _MIN_HESSIAN)
    if not valid.any():
        return None
    gains = np.where(
        valid,
        gl**2 / np.maximum(dl, _MIN_HESSIAN) + gr**2 / np.maximum(dr, _MIN_HESSIAN) - total_g**2 / total_d,
        -np.inf,
    )
    t = int(np.argmax(gains))
    return float(gains[t]), lo + t + 1


def reference_best_tree(sum_g, denom, max_leaves, min_gain=_MIN_GAIN):
    bounds = [0, len(sum_g)]
    for _ in range(max_leaves - 1):
        best = None
        best_at = 0
        for si, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            cand = reference_split_segment(sum_g, denom, lo, hi)
            if cand is not None and (best is None or cand[0] > best[0]):
                best = cand
                best_at = si
        if best is None or best[0] <= min_gain:
            break
        bounds.insert(best_at + 1, best[1])
    return bounds


def reference_leaf_values(sum_g, denom, bounds, clip):
    vals = np.zeros(len(sum_g))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        d = denom[lo:hi].sum()
        if d > _MIN_HESSIAN:
            vals[lo:hi] = sum_g[lo:hi].sum() / d
    if clip is not None:
        np.clip(vals, -clip, clip, out=vals)
    return vals


def reference_train(X, targets, config, validation, link):
    y = np.asarray(targets, dtype=float)
    train_rows, valid_rows = _split_rows(X.n_rows, validation)
    schema = X.schema
    p = schema.n_features
    Xt = X.codes[train_rows]
    yt = y[train_rows]
    counts = [np.bincount(Xt[:, j], minlength=schema.n_bins(j)).astype(float) for j in range(p)]
    shapes = [np.zeros(schema.n_bins(j)) for j in range(p)]
    metadata = {"link": link, "n_train": len(train_rows)}
    logistic = link == LOGISTIC
    if logistic:
        base = float(yt.mean())
        intercept = float(np.log(base / (1.0 - base)))
        F_train = np.full(len(yt), intercept)
    else:
        intercept = float(yt.mean())
        if np.ptp(yt) == 0.0:
            metadata["constant_target"] = True
            return da.AdditiveModel(intercept, link, schema, shapes, [], metadata)
        residual = yt - intercept
    if valid_rows is not None:
        Xv = X.codes[valid_rows]
        yv = y[valid_rows]
        F_valid = np.full(len(yv), intercept)
    train_trace, valid_trace = [], []
    best_loss = np.inf
    best_shapes = None
    best_round = 0
    stale = 0
    rounds_run = 0
    active = [False] * p
    for rnd in range(config.max_rounds):
        rounds_run = rnd + 1
        for j in range(p):
            codes_j = Xt[:, j]
            nb = schema.n_bins(j)
            if logistic:
                prob = sigmoid(F_train)
                grad = yt - prob
                hess = prob * (1.0 - prob)
                sum_g = np.bincount(codes_j, weights=grad, minlength=nb)
                denom = np.bincount(codes_j, weights=hess, minlength=nb)
                clip = _NEWTON_CLIP
                noise_scale = float(grad @ grad) / max(float(hess.sum()), _MIN_HESSIAN)
            else:
                sum_g = np.bincount(codes_j, weights=residual, minlength=nb)
                denom = counts[j]
                clip = None
                noise_scale = float(residual @ residual) / len(residual)
            if active[j]:
                min_gain = _MIN_GAIN
            else:
                min_gain = max(_MIN_GAIN, config.split_significance * noise_scale)
            bounds = reference_best_tree(sum_g, denom, config.leaves, min_gain)
            if len(bounds) == 2:
                continue
            active[j] = True
            vals = reference_leaf_values(sum_g, denom, bounds, clip) * config.learning_rate
            shapes[j] += vals
            step = vals[codes_j]
            if logistic:
                F_train += step
            else:
                residual -= step
            if valid_rows is not None:
                F_valid += vals[Xv[:, j]]
        if logistic:
            train_trace.append(mean_nll(yt, F_train))
        else:
            train_trace.append(float(np.mean(residual**2)))
        if valid_rows is None:
            continue
        loss = mean_nll(yv, F_valid) if logistic else float(np.mean((yv - F_valid) ** 2))
        valid_trace.append(loss)
        if loss < best_loss - config.min_improvement:
            best_loss = loss
            best_shapes = [h.copy() for h in shapes]
            best_round = rnd + 1
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    if valid_rows is not None and best_shapes is not None:
        shapes = best_shapes
        metadata["best_round"] = best_round
        metadata["valid_loss"] = best_loss
        metadata["valid_loss_trace"] = valid_trace
    metadata["rounds_run"] = rounds_run
    metadata["stopped_early"] = valid_rows is not None and rounds_run < config.max_rounds
    metadata["train_loss_trace"] = train_trace
    intercept += _center_shapes(shapes, counts)
    return da.AdditiveModel(intercept, link, schema, shapes, [], metadata)


def model_text(model):
    """A model's JSON text, its arrays written as lists."""
    return json.dumps(model.to_json_dict(), default=np.ndarray.tolist)


def oracle_table(max_bins, n=700, seed=13):
    """Mixed table: continuous, discrete, skewed and categorical features with
    missing cells, a score, and outcomes blank on about a fifth of the rows."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=n)
    x1 = rng.integers(0, 5, size=n).astype(float)
    x2 = np.exp(rng.normal(size=n))
    x2[rng.random(n) < 0.1] = np.nan
    x3 = rng.choice(["a", "b", "c", "d"], size=n).astype(object)
    x3[rng.random(n) < 0.05] = None
    x4 = rng.normal(size=n)  # unused by the score: exercises the entry gate
    score = np.sin(2 * x0) + 0.4 * x1 + 0.3 * np.nan_to_num(x2) + (x3 == "b") + rng.normal(0, 0.3, size=n)
    outcome = (rng.random(n) < sigmoid(score - score.mean())).astype(float)
    outcome[rng.random(n) < 0.2] = np.nan
    ds = da.AuditDataset.from_arrays(
        {"x0": x0, "x1": x1, "x2": x2, "x3": x3, "x4": x4}, score, outcome, kinds={"x3": "categorical"}
    )
    return ds, da.bin_dataset(ds, da.fit_schema(ds, max_bins=max_bins))


class TestVisitLoopOracle:
    """Fits equal the reference loop's, byte for byte, over links, validation,
    early stopping, tree sizes, bin counts and the entry gate."""

    @pytest.mark.parametrize("max_bins", [8, 64, 256])
    @pytest.mark.parametrize("link", [IDENTITY, LOGISTIC])
    @pytest.mark.parametrize("validated", [False, True])
    def test_fits_match_reference(self, max_bins, link, validated):
        ds, X = oracle_table(max_bins)
        if link == LOGISTIC:  # score-only rows train only the mimic, as in distill
            rows = np.flatnonzero(ds.has_outcome)
            X, y = X.take(rows), ds.outcome[rows]
        else:
            y = ds.score
        validation = np.arange(0, X.n_rows, 5) if validated else None
        configs = [
            da.TrainConfig(learning_rate=0.3, max_rounds=12, leaves=leaves, split_significance=sig)
            for leaves in (2, 3, 4, 5)
            for sig in (0.0, 40.0)
        ]
        configs.append(da.TrainConfig(learning_rate=0.9, max_rounds=300, patience=3, leaves=4))
        for config in configs:
            got = da.train_regressor if link == IDENTITY else da.train_classifier
            model = got(X, y, config, validation=validation)
            want = reference_train(X, y, config, validation, link)
            assert model_text(model) == model_text(want), config
        if validated:
            assert model.metadata["stopped_early"]

    def test_split_search_matches_reference_on_random_histograms(self):
        rng = np.random.default_rng(14)
        for trial in range(10000):
            n = int(rng.integers(1, 301))
            kind = trial % 4
            if kind == 0:  # squared error: integer counts, float gradient sums
                denom = rng.integers(0, 6, size=n).astype(float)
                sum_g = rng.normal(size=n) * denom
            elif kind == 1:  # Newton: small positive Hessians
                denom = rng.uniform(0, 0.25, size=n) * rng.integers(0, 4, size=n)
                sum_g = rng.normal(size=n) * denom
            elif kind == 2:  # ties: small integers everywhere
                denom = rng.integers(0, 3, size=n).astype(float)
                sum_g = rng.integers(-2, 3, size=n).astype(float)
            else:  # near the Hessian floor
                denom = rng.choice([0.0, 1e-13, 5e-13, 1.0], size=n)
                sum_g = rng.normal(size=n)
            for _ in range(int(rng.integers(0, 3))):  # runs of empty bins
                a = int(rng.integers(0, n))
                b = int(rng.integers(a, n + 1))
                denom[a:b] = 0.0
                sum_g[a:b] = 0.0 if rng.random() < 0.5 else sum_g[a:b]
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo, n + 1))
            assert best_cut(sum_g, denom, lo, hi) == reference_split_segment(sum_g, denom, lo, hi)
            leaves = int(rng.integers(2, 6))
            min_gain = _MIN_GAIN if trial % 3 else float(rng.exponential())
            assert _best_tree(sum_g, denom, leaves, min_gain) == reference_best_tree(
                sum_g, denom, leaves, min_gain
            )


# Reference copies of the pair fit and its rectangle search from before the
# feature and pair loops became one loop over terms. The current code must
# reproduce them bit for bit.


def reference_split_rect(SG, DN, rect, axis):
    r0, r1, c0, c1 = rect
    if axis == 0:
        g = SG[r0:r1, c0:c1].sum(axis=1)
        d = DN[r0:r1, c0:c1].sum(axis=1)
        off = r0
    else:
        g = SG[r0:r1, c0:c1].sum(axis=0)
        d = DN[r0:r1, c0:c1].sum(axis=0)
        off = c0
    cand = reference_split_segment(g, d, 0, len(g))
    if cand is None:
        return None
    return cand[0], off + cand[1]


def reference_best_rect_tree(SG, DN, max_leaves, min_gain=_MIN_GAIN):
    rects = [(0, SG.shape[0], 0, SG.shape[1])]
    for _ in range(max_leaves - 1):
        best = None
        for ri, rect in enumerate(rects):
            for axis in (0, 1):
                cand = reference_split_rect(SG, DN, rect, axis)
                if cand is not None and (best is None or cand[0] > best[0]):
                    best = (cand[0], ri, axis, cand[1])
        if best is None or best[0] <= min_gain:
            break
        _, ri, axis, cut = best
        r0, r1, c0, c1 = rects[ri]
        if axis == 0:
            children = [(r0, cut, c0, c1), (cut, r1, c0, c1)]
        else:
            children = [(r0, r1, c0, cut), (r0, r1, cut, c1)]
        rects[ri : ri + 1] = children
    return rects


def reference_rect_tree_gain(SG, DN, rects):
    total_g = float(SG.sum())
    total_d = float(DN.sum())
    if total_d <= _MIN_HESSIAN:
        return 0.0
    gain = -(total_g**2) / total_d
    for r0, r1, c0, c1 in rects:
        d = float(DN[r0:r1, c0:c1].sum())
        if d > _MIN_HESSIAN:
            gain += float(SG[r0:r1, c0:c1].sum()) ** 2 / d
    return gain


def reference_fit_interactions(model, X, targets, n_pairs, config, validation=None, pairs=None):
    y = np.asarray(targets, dtype=float)
    train_rows, valid_rows = _split_rows(X.n_rows, validation)
    if pairs is None:
        ranked = da.rank_interaction_pairs(model, X, y, rows=train_rows)
        pairs = [(ps.i, ps.j) for ps in ranked[:n_pairs]]
    schema = model.schema
    logistic = model.link == LOGISTIC
    yt = y[train_rows]
    Xt = X.take(train_rows)
    F_train = model.decision(Xt)
    if not logistic:
        residual = yt - F_train
    grids, cells_train, cell_counts = {}, {}, {}
    for i, j in pairs:
        bi, bj = schema.n_bins(i), schema.n_bins(j)
        grids[(i, j)] = np.zeros((bi, bj))
        cell = Xt.column(i).astype(np.int64) * bj + Xt.column(j)
        cells_train[(i, j)] = cell
        cell_counts[(i, j)] = np.bincount(cell, minlength=bi * bj).astype(float).reshape(bi, bj)
    if valid_rows is not None:
        yv = y[valid_rows]
        Xv = X.take(valid_rows)
        F_valid = model.decision(Xv)
        cells_valid = {
            (i, j): Xv.column(i).astype(np.int64) * schema.n_bins(j) + Xv.column(j) for i, j in pairs
        }
    best_loss = np.inf
    best_grids = None
    best_round = 0
    stale = 0
    rounds_run = 0
    active_pairs = {pair: False for pair in pairs}
    for rnd in range(config.max_rounds):
        rounds_run = rnd + 1
        for i, j in pairs:
            bi, bj = schema.n_bins(i), schema.n_bins(j)
            cell = cells_train[(i, j)]
            if logistic:
                prob = sigmoid(F_train)
                grad = yt - prob
                hess = prob * (1.0 - prob)
                SG = np.bincount(cell, weights=grad, minlength=bi * bj).reshape(bi, bj)
                DN = np.bincount(cell, weights=hess, minlength=bi * bj).reshape(bi, bj)
                clip = _NEWTON_CLIP
            else:
                SG = np.bincount(cell, weights=residual, minlength=bi * bj).reshape(bi, bj)
                DN = cell_counts[(i, j)]
                clip = None
            rects = reference_best_rect_tree(SG, DN, config.leaves)
            if len(rects) == 1:
                continue
            if not active_pairs[(i, j)]:
                if logistic:
                    noise_scale = float(grad @ grad) / max(float(hess.sum()), _MIN_HESSIAN)
                else:
                    noise_scale = float(residual @ residual) / len(residual)
                entry_bar = config.split_significance * noise_scale * (len(rects) - 1)
                if reference_rect_tree_gain(SG, DN, rects) <= max(_MIN_GAIN, entry_bar):
                    continue
                active_pairs[(i, j)] = True
            V = np.zeros((bi, bj))
            for r0, r1, c0, c1 in rects:
                d = DN[r0:r1, c0:c1].sum()
                if d > _MIN_HESSIAN:
                    v = SG[r0:r1, c0:c1].sum() / d
                    if clip is not None:
                        v = float(np.clip(v, -clip, clip))
                    V[r0:r1, c0:c1] = v
            V *= config.learning_rate
            grids[(i, j)] += V
            step = V.ravel()[cell]
            if logistic:
                F_train += step
            else:
                residual -= step
            if valid_rows is not None:
                F_valid += V.ravel()[cells_valid[(i, j)]]
        if valid_rows is None:
            continue
        loss = mean_nll(yv, F_valid) if logistic else float(np.mean((yv - F_valid) ** 2))
        if loss < best_loss - config.min_improvement:
            best_loss = loss
            best_grids = {k: v.copy() for k, v in grids.items()}
            best_round = rnd + 1
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    if valid_rows is not None and best_grids is not None:
        grids = best_grids
    intercept = model.intercept
    surfaces = []
    for i, j in pairs:
        grid = grids[(i, j)]
        mass = cell_counts[(i, j)]
        mass = mass / mass.sum()
        mu = float(np.sum(mass * grid))
        grid = grid - mu
        intercept += mu
        surfaces.append(da.InteractionSurface(i, j, (schema.names[i], schema.names[j]), grid))
    metadata = dict(model.metadata)
    metadata["interaction_pairs"] = [[i, j] for i, j in pairs]
    metadata["interaction_rounds_run"] = rounds_run
    if valid_rows is not None:
        metadata["interaction_best_round"] = best_round
        metadata["interaction_valid_loss"] = best_loss
    return da.AdditiveModel(
        intercept, model.link, schema, [h.copy() for h in model.shapes], list(model.surfaces) + surfaces, metadata
    )


class TestInteractionOracle:
    """Pair fits equal the reference pair loop's, byte for byte, over links,
    validation, early stopping, tree sizes, grid sizes (up to 129 x 129
    cells), the entry gate, and screened or given pairs."""

    @pytest.mark.parametrize("max_bins", [8, 32, 128])
    @pytest.mark.parametrize("link", [IDENTITY, LOGISTIC])
    @pytest.mark.parametrize("validated", [False, True])
    @pytest.mark.parametrize("pairs", [None, [(0, 2), (1, 3)]])
    def test_pair_fits_match_reference(self, max_bins, link, validated, pairs):
        ds, X = oracle_table(max_bins)
        if link == LOGISTIC:
            rows = np.flatnonzero(ds.has_outcome)
            X, y = X.take(rows), ds.outcome[rows]
        else:
            y = ds.score
        validation = np.arange(0, X.n_rows, 5) if validated else None
        train = da.train_regressor if link == IDENTITY else da.train_classifier
        mains = train(X, y, da.TrainConfig(learning_rate=0.3, max_rounds=12), validation=validation)
        configs = [
            da.TrainConfig(learning_rate=0.3, max_rounds=6, leaves=leaves, split_significance=sig)
            for leaves in (2, 3, 4, 5)
            for sig in (0.0, 40.0)
        ]
        configs.append(da.TrainConfig(learning_rate=0.9, max_rounds=300, patience=3, leaves=4, split_significance=0.0))
        for config in configs:
            fitted = pairs or screened(mains, X, y, 2, validation)
            model = da.fit_interactions(mains, X, y, fitted, config, validation=validation)
            want = reference_fit_interactions(mains, X, y, 2, config, validation, pairs)
            assert model_text(model) == model_text(want), config
            assert len(model.surfaces) == 2
        if validated:
            assert model.metadata["interaction_rounds_run"] < 300


def reference_rect_update(SG, DN, leaves, clip, gate):
    """A pair visit's leaf grid from the reference rectangle search, or None."""
    rects = reference_best_rect_tree(SG, DN, leaves)
    if len(rects) == 1:
        return None
    if gate is not None and reference_rect_tree_gain(SG, DN, rects) <= max(_MIN_GAIN, gate * (len(rects) - 1)):
        return None
    V = np.zeros(SG.shape)
    for r0, r1, c0, c1 in rects:
        d = DN[r0:r1, c0:c1].sum()
        if d > _MIN_HESSIAN:
            v = SG[r0:r1, c0:c1].sum() / d
            if clip is not None:
                v = float(np.clip(v, -clip, clip))
            V[r0:r1, c0:c1] = v
    return V


def random_pair_histograms(rng, trial):
    """Sparse (gradient, Hessian) sums on a random grid: thin and wide grids,
    empty rows and columns, all-zero Hessians and duplicated columns."""
    shape_kind = trial % 5
    if shape_kind == 0:
        shape = (1, int(rng.integers(1, 40)))
    elif shape_kind == 1:
        shape = (int(rng.integers(1, 40)), 1)
    else:
        shape = (int(rng.integers(2, 30)), int(rng.integers(2, 30)))
    counts = rng.poisson(rng.choice([0.3, 1.0, 4.0]), size=shape).astype(float)
    kind = (trial // 5) % 4
    if kind == 0:  # squared error: integer counts, float gradient sums
        DN = counts
        SG = rng.normal(size=shape) * counts
    elif kind == 1:  # Newton: small positive Hessians
        DN = counts * rng.uniform(0, 0.25, size=shape)
        SG = rng.normal(size=shape) * DN
    elif kind == 2:  # ties: small integers
        DN = counts
        SG = rng.integers(-2, 3, size=shape) * (counts > 0)
    else:  # all-zero Hessians
        DN = np.zeros(shape)
        SG = rng.normal(size=shape) * (rng.random(shape) < 0.5)
    for axis in (0, 1):  # empty rows and columns
        for _ in range(int(rng.integers(0, 3))):
            k = int(rng.integers(0, shape[axis]))
            SG.swapaxes(0, axis)[k] = 0.0
            DN.swapaxes(0, axis)[k] = 0.0
    if shape[1] > 1 and rng.random() < 0.3:  # duplicated columns, so gains tie
        j = int(rng.integers(0, shape[1] - 1))
        SG[:, j + 1] = SG[:, j]
        DN[:, j + 1] = DN[:, j]
    return np.ascontiguousarray(SG, dtype=float), np.ascontiguousarray(DN, dtype=float)


class TestRectTreeOracle:
    """The rectangle search and a pair visit equal the reference helpers bit
    for bit on seeded random grids, over tree sizes, the entry gate and the
    Newton clip."""

    def test_rect_trees_and_updates_match_reference(self):
        rng = np.random.default_rng(15)
        for trial in range(3000):
            SG, DN = random_pair_histograms(rng, trial)
            leaves = int(rng.integers(2, 7))
            min_gain = _MIN_GAIN if trial % 3 else float(rng.exponential())
            rects = _best_rect_tree(SG, DN, leaves, min_gain)
            assert rects == reference_best_rect_tree(SG, DN, leaves, min_gain), trial
            want_rects = reference_best_rect_tree(SG, DN, leaves)
            gate = None
            if trial % 2 and len(want_rects) > 1:  # a bar near the tree's gain per split
                scale = reference_rect_tree_gain(SG, DN, want_rects) / (len(want_rects) - 1)
                gate = max(scale, 0.0) * float(rng.choice([0.5, 1.0, 2.0]))
            clip = None if trial % 4 < 2 else float(rng.choice([0.05, _NEWTON_CLIP]))
            got = _rect_update(leaves, SG.shape, SG.ravel(), DN.ravel(), clip, gate)
            want = reference_rect_update(SG, DN, leaves, clip, gate)
            assert (got is None) == (want is None), trial
            if want is not None:
                assert got.tobytes() == want.ravel().tobytes(), trial

    def test_identity_margins_given_or_summed_give_the_same_bytes(self):
        rng = np.random.default_rng(16)
        for trial in range(400):
            SG, DN = random_pair_histograms(rng, 20 * (trial // 5) + trial % 5)  # cell counts and residual sums
            leaves = int(rng.integers(2, 7))
            gate = None if trial % 2 else float(rng.choice([0.01, 1.0, 100.0]))
            args = (leaves, SG.shape, SG.ravel(), DN.ravel(), None, gate)
            summed, given = _rect_update(*args), _rect_update(*args, margins=_hessian_margins(DN))
            assert (summed is None) == (given is None), trial
            if given is not None:
                assert summed.tobytes() == given.tobytes(), trial
