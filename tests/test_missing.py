"""Error-correlation test for inputs the scorer used but the audit lacks."""

import numpy as np
import pytest
from scipy import stats

import distillaudit as da
from distillaudit import missing
from distillaudit.missing import (
    CorrelationInterval,
    EVIDENCE_MARGIN,
    _block,
    _bootstrap,
    _point_estimates,
    _ranked,
    _verdict,
    error_pairs,
    load_error_pairs_csv,
)


def interval(lo):
    return CorrelationInterval(max(lo + 0.1, 0.0), lo, lo + 0.3)


class TestVerdictRule:
    def test_evidence_needs_all_three_above_margin(self):
        assert _verdict([interval(0.05), interval(0.02), interval(0.011)]) == "evidence"

    def test_weak_when_positive_but_inside_margin(self):
        assert _verdict([interval(0.005), interval(0.05), interval(0.05)]) == "weak"
        assert _verdict([interval(-0.2), interval(0.05), interval(-0.1)]) == "weak"

    def test_none_when_no_lower_bound_positive(self):
        assert _verdict([interval(-0.1), interval(0.0), interval(-0.3)]) == "none"

    def test_margin_is_strict(self):
        assert _verdict([interval(EVIDENCE_MARGIN)] * 3) == "weak"


class TestCorrelationTest:
    def test_identical_series_give_estimates_of_one(self):
        rng = np.random.default_rng(0)
        e = rng.exponential(size=200)
        result = da.correlation_test(e, e, resamples=200)
        for iv in (result.pearson, result.spearman, result.kendall):
            assert iv.estimate == pytest.approx(1.0)
            assert iv.lower > 0.9
        assert result.verdict == "evidence"
        assert result.n_pairs == 200

    def test_independent_series_contain_zero(self):
        rng = np.random.default_rng(1)
        a = rng.exponential(size=500)
        b = rng.exponential(size=500)
        result = da.correlation_test(a, b, resamples=400)
        for iv in (result.pearson, result.spearman, result.kendall):
            assert iv.lower < 0.0 < iv.upper
        assert result.verdict == "none"

    def test_interval_brackets_estimate(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=100)
        b = 0.4 * a + rng.normal(size=100)
        result = da.correlation_test(a, b, resamples=300, seed=5)
        for iv in (result.pearson, result.spearman, result.kendall):
            assert iv.lower <= iv.estimate <= iv.upper

    def test_seed_determinism(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=80)
        b = 0.5 * a + rng.normal(size=80)
        r1 = da.correlation_test(a, b, resamples=150, seed=9)
        r2 = da.correlation_test(a, b, resamples=150, seed=9)
        assert r1.pearson.lower == r2.pearson.lower
        assert r1.kendall.upper == r2.kendall.upper

    def test_input_validation(self):
        ok = np.arange(40.0)
        with pytest.raises(da.DegenerateStatisticsError, match="at least 30"):
            da.correlation_test(np.arange(10.0), np.arange(10.0))
        with pytest.raises(da.DataError, match="length"):
            da.correlation_test(ok, ok[:-1])
        with pytest.raises(da.DegenerateStatisticsError, match="constant"):
            da.correlation_test(np.ones(40), ok)
        bad = ok.copy()
        bad[3] = np.nan
        with pytest.raises(da.DataError, match="non-finite"):
            da.correlation_test(bad, ok)
        with pytest.raises(da.ConfigError, match="resamples must be at least 100, got 50"):
            da.correlation_test(ok, ok, resamples=50)
        # Each margin varies in one row only, so most resamples miss one of them.
        lone = np.zeros(30)
        lone[0] = 1.0
        with pytest.raises(da.DegenerateStatisticsError, match="too many degenerate"):
            da.correlation_test(lone, np.roll(lone, 1), resamples=400)

    def test_json_dict_shape(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=60)
        result = da.correlation_test(a, a + rng.normal(size=60), resamples=120)
        blob = result.to_json_dict()
        assert set(blob) == {"pearson", "spearman", "kendall", "verdict", "n_pairs", "resamples"}
        assert len(blob["pearson"]["ci"]) == 2


def reference_bootstrap(a, b, resamples, seed):
    """Gather each resample's rows and call scipy three times on them."""
    n = len(a)
    rng = np.random.default_rng(seed)
    boots = np.full((resamples, 3), np.nan)
    for r in range(resamples):
        idx = rng.integers(0, n, size=n)
        ar, br = a[idx], b[idx]
        if np.ptp(ar) == 0.0 or np.ptp(br) == 0.0:
            continue
        boots[r] = (
            stats.pearsonr(ar, br).statistic,
            stats.spearmanr(ar, br).statistic,
            stats.kendalltau(ar, br).statistic,
        )
    return boots


def reference_intervals(a, b, boots):
    estimates = (
        stats.pearsonr(a, b).statistic,
        stats.spearmanr(a, b).statistic,
        stats.kendalltau(a, b).statistic,
    )
    intervals = []
    for col, est in zip(boots.T, estimates):
        lo, hi = np.percentile(col[~np.isnan(col)], [2.5, 97.5])
        intervals.append(CorrelationInterval(est, min(lo, est), max(hi, est)))
    return intervals


def tie_heavy(seed, n=36):
    """Values in {0, 1, 2}; ``a`` is non-zero in two rows only, so that about
    one resample in eight draws neither and is constant."""
    rng = np.random.default_rng(seed)
    a = np.zeros(n)
    a[rng.choice(n, size=2, replace=False)] = [1.0, 2.0]
    return a, rng.choice(3, size=n).astype(float)


def continuous(seed, n=2000):
    rng = np.random.default_rng(seed)
    a = rng.exponential(size=n)
    return a, 0.3 * a + rng.exponential(size=n)


def rounded(seed, n=150):
    rng = np.random.default_rng(seed)
    a = np.round(rng.exponential(size=n), 1)
    return a, np.round(0.2 * a + rng.exponential(size=n), 1)


ORACLE_CASES = (
    [("tie-heavy", tie_heavy, 0, 400), ("continuous", continuous, 1, 200)]
    + [(f"rounded-{s}", rounded, s, 200) for s in range(6)]
)


class TestBootstrapOracle:
    """The counts-based bootstrap against the per-resample scipy loop it replaced."""

    @pytest.mark.parametrize(
        "make, seed, resamples", [c[1:] for c in ORACLE_CASES], ids=[c[0] for c in ORACLE_CASES]
    )
    def test_matches_scipy_on_gathered_rows(self, make, seed, resamples):
        a, b = make(seed)
        got = _bootstrap(a, b, resamples, seed, _ranked(a, b, _block(len(a))))
        want = reference_bootstrap(a, b, resamples, seed)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_array_equal(got[:, 2], want[:, 2])
        np.testing.assert_allclose(got[:, :2], want[:, :2], rtol=0, atol=1e-12)

        result = da.correlation_test(a, b, resamples=resamples, seed=seed)
        expected = reference_intervals(a, b, want)
        assert (result.kendall.lower, result.kendall.upper) == (
            expected[2].lower,
            expected[2].upper,
        )
        for iv, ref in zip((result.pearson, result.spearman), expected[:2]):
            assert iv.lower == pytest.approx(ref.lower, rel=0, abs=1e-12)
            assert iv.upper == pytest.approx(ref.upper, rel=0, abs=1e-12)
        assert result.verdict == _verdict(expected)

    def test_tie_heavy_input_has_degenerate_resamples(self):
        a, b = tie_heavy(0)
        assert np.isnan(_bootstrap(a, b, 400, 0, _ranked(a, b, _block(len(a))))[:, 0]).any()


def distinct(seed, n=3000):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    return a, np.exp(0.5 * a + rng.normal(size=n))


POINT_CASES = ORACLE_CASES + [
    ("distinct-small", distinct, 0, None),
    ("distinct-large", lambda seed: distinct(seed, n=140_000), 1, None),
]


class TestPointEstimateOracle:
    """The numpy point estimates against the scipy.stats functions they replace."""

    @pytest.mark.parametrize("make, seed", [c[1:3] for c in POINT_CASES], ids=[c[0] for c in POINT_CASES])
    def test_matches_scipy(self, make, seed):
        a, b = make(seed)
        pearson, spearman, kendall = _point_estimates(a, b, _ranked(a, b, 1))
        assert kendall == stats.kendalltau(a, b).statistic
        assert pearson == pytest.approx(stats.pearsonr(a, b).statistic, rel=0, abs=1e-15)
        assert spearman == pytest.approx(stats.spearmanr(a, b).statistic, rel=0, abs=1e-15)


class TestRankOnce:
    """``correlation_test`` ranks its sample once, for both the point
    estimates and the bootstrap."""

    @pytest.mark.parametrize("make, seed", [c[1:3] for c in ORACLE_CASES], ids=[c[0] for c in ORACLE_CASES])
    def test_shared_ranking_changes_nothing(self, make, seed):
        """One ranking serves the point estimates and then the bootstrap,
        whose discordance counts overwrite the ones the point estimates
        left: each gives what it gives on a ranking of its own."""
        a, b = make(seed)
        ranked = _ranked(a, b, _block(len(a)))
        assert _point_estimates(a, b, ranked) == _point_estimates(a, b, _ranked(a, b, 1))
        shared = _bootstrap(a, b, 200, seed, ranked)
        np.testing.assert_array_equal(shared, _bootstrap(a, b, 200, seed, _ranked(a, b, _block(len(a)))))

    def test_one_ranking_per_test(self, monkeypatch):
        calls = []

        def counted(a, b, block):
            calls.append(block)
            return _ranked(a, b, block)

        monkeypatch.setattr(missing, "_ranked", counted)
        a, b = continuous(1)
        da.correlation_test(a, b, resamples=200, seed=1)
        assert calls == [_block(len(a))]


def brute_discordant(a, b, c):
    """Pairs of rows, row i repeated c[i] times, ordered oppositely by a and b."""
    opposite = (a[:, None] < a[None, :]) & (b[:, None] > b[None, :])
    return int(np.sum(np.outer(c, c) * opposite))


class TestDiscordanceCounter:
    @pytest.mark.parametrize("levels", [2, 7, None], ids=["binary", "ties", "distinct"])
    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_matches_double_loop(self, levels, block):
        rng = np.random.default_rng(block)
        for n in range(1, 301):
            if levels is None:
                a, b = rng.permutation(n).astype(float), rng.normal(size=n)
            else:
                a, b = rng.integers(0, levels, size=(2, n)).astype(float)
            _, _, _, order, discordance = _ranked(a, b, block)
            # Resample counts (zeros included) and, in the first column, unit weights.
            weights = [np.ones(n, int)] + [
                np.bincount(rng.integers(0, n, size=n), minlength=n) for _ in range(block - 1)
            ]
            for k, c in enumerate(weights):
                discordance.counts[:n, k] = c[order]
            got = discordance.count()[:block]
            assert [int(d) for d in got] == [brute_discordant(a, b, c) for c in weights], n


def test_discordance_index_arrays_are_int32():
    a, b = np.random.default_rng(0).normal(size=(2, 1000))
    discordance = _ranked(a, b, 16)[-1]
    assert [(perm.dtype, pos.dtype) for perm, pos in discordance.levels] == [(np.int32, np.int32)] * 10


def hidden_pipeline(strength, hidden, n_rows=4000, seed=0):
    ds, _ = da.gen_hidden_feature(n_rows=n_rows, seed=seed, strength=strength, hidden=hidden)
    plan = da.plan_bags(ds.n_rows, K=2, L=2, seed=seed)
    config = da.TrainConfig(learning_rate=0.15, max_rounds=300, seed=seed)
    schema = da.fit_schema(ds, max_bins=32)
    paired = da.train_paired(ds, plan=plan, config=config, schema=schema)
    return paired, ds


class TestErrorPairs:
    def test_counts_and_fold_assignment(self):
        paired, ds = hidden_pipeline(1.0, hidden=True, n_rows=600)
        pairs = error_pairs(paired, ds)
        fold_of = np.full(ds.n_rows, -1)
        for k in reversed(range(paired.plan.K)):
            fold_of[paired.plan.test[k]] = k
        assert pairs.n_pairs == int(np.sum(fold_of >= 0))
        assert pairs.n_excluded_never_held_out == int(np.sum(fold_of < 0))
        assert pairs.n_pairs + pairs.n_excluded_never_held_out == ds.n_rows
        assert np.all(pairs.fold_ids >= 0)
        assert np.all(pairs.mimic_error >= 0) and np.all(pairs.outcome_error >= 0)

    def test_row_in_two_folds_scored_by_lowest(self):
        paired, ds = hidden_pipeline(1.0, hidden=True, n_rows=600)
        both = set(paired.plan.test[0]) & set(paired.plan.test[1])
        if not both:
            pytest.skip("seed produced disjoint test folds")
        row = min(both)
        pairs = error_pairs(paired, ds)
        fold_of = np.full(ds.n_rows, -1)
        for k in reversed(range(paired.plan.K)):
            fold_of[paired.plan.test[k]] = k
        held = np.flatnonzero(fold_of >= 0)
        assert fold_of[row] == 0
        assert pairs.fold_ids[np.searchsorted(held, row)] == 0

    def test_score_only_rows_excluded(self):
        paired, ds = hidden_pipeline(1.0, hidden=True, n_rows=600)
        outcome = ds.outcome.copy()
        outcome[::3] = np.nan
        masked = da.AuditDataset.from_arrays(
            {n: ds.columns[n] for n in ds.feature_names}, score=ds.score, outcome=outcome
        )
        pairs = error_pairs(paired, masked)
        assert pairs.n_excluded_score_only > 0
        full = error_pairs(paired, ds)
        assert pairs.n_pairs < full.n_pairs

    def test_csv_round_trip_and_header_check(self, tmp_path):
        paired, ds = hidden_pipeline(1.0, hidden=True, n_rows=600)
        pairs = error_pairs(paired, ds)
        path = tmp_path / "pairs.csv"
        pairs.to_csv(path)
        loaded = load_error_pairs_csv(path)
        np.testing.assert_array_equal(loaded.mimic_error, pairs.mimic_error)
        np.testing.assert_array_equal(loaded.outcome_error, pairs.outcome_error)
        np.testing.assert_array_equal(loaded.fold_ids, pairs.fold_ids)
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(da.DataError, match="columns"):
            load_error_pairs_csv(bad)

    def test_byte_order_mark_is_not_data(self, tmp_path):
        text = "fold,mimic_abs_error,outcome_abs_error\n0,0.5,0.25\n1,0.125,0.75\n"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        loaded = load_error_pairs_csv(marked)
        np.testing.assert_array_equal(loaded.fold_ids, [0, 1])
        np.testing.assert_array_equal(loaded.mimic_error, [0.5, 0.125])


class TestHiddenFeatureDetection:
    def test_hidden_input_detected_and_control_clear(self):
        paired, ds = hidden_pipeline(2.0, hidden=True)
        pairs = error_pairs(paired, ds)
        result = da.correlation_test(pairs.mimic_error, pairs.outcome_error, resamples=400)
        assert result.pearson.lower > 0
        assert result.spearman.lower > 0
        assert result.kendall.lower > 0

        paired, ds = hidden_pipeline(2.0, hidden=False)
        pairs = error_pairs(paired, ds)
        control = da.correlation_test(pairs.mimic_error, pairs.outcome_error, resamples=400)
        assert control.pearson.lower < result.pearson.lower
        assert control.pearson.estimate < 0.1

    def test_correlation_monotone_in_hidden_strength(self):
        estimates = []
        for strength in (0.5, 1.0, 2.0):
            paired, ds = hidden_pipeline(strength, hidden=True, seed=11)
            pairs = error_pairs(paired, ds)
            r = da.correlation_test(pairs.mimic_error, pairs.outcome_error, resamples=200)
            estimates.append(r.spearman.estimate)
        assert estimates[0] < estimates[1] < estimates[2]

    def test_row_count_mismatch_rejected(self):
        paired, ds = hidden_pipeline(1.0, hidden=True, n_rows=600)
        shorter = da.AuditDataset.from_arrays(
            {n: ds.columns[n][:-1] for n in ds.feature_names},
            score=ds.score[:-1],
            outcome=ds.outcome[:-1],
        )
        with pytest.raises(da.DataError):
            error_pairs(paired, shorter)
