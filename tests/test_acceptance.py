"""End-to-end acceptance checks, one test per advertised guarantee.

Every test here exercises the public API the way a user would and pins the
tolerances up front. Run with ``pytest -v tests/test_acceptance.py`` to get
one verdict line per guarantee. All runs are seeded and deterministic; the
real-data spot check skips itself when no dataset file is supplied.
"""

import csv
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import distillaudit as da
from distillaudit import cli


def test_criterion_01_coefficient_recovery():
    # Known scoring rule 3*f00 + 1*f01 + 1*f02 over 40 binary features; both
    # mimic families must recover it, and leave the other 37 features flat.
    start = time.time()
    ds, truth = da.gen_linear_score(n_rows=50000, seed=1)

    A, cols = da.design_matrix(ds)
    lin = da.train_linear(A, ds.score, "identity", columns=cols, l2=0.0)
    fitted = dict(zip(lin.columns, lin.weights))
    lin_err = max(abs(fitted[n] - truth["weights"][n]) for n in ds.feature_names)
    assert lin_err <= 1e-4

    schema = da.fit_schema(ds)
    X = da.bin_dataset(ds, schema)
    cfg = da.TrainConfig(learning_rate=0.15, max_rounds=400, patience=50)
    gam = da.train_regressor(X, ds.score, cfg)
    used = set(truth["used"])
    step_err = 0.0
    flat_max = 0.0
    for j, name in enumerate(ds.feature_names):
        h = gam.shapes[j]
        if name in used:
            step_err = max(step_err, abs((h[1] - h[0]) - truth["weights"][name]))
        else:
            flat_max = max(flat_max, float(np.max(np.abs(h))))
    assert step_err <= 0.05
    assert flat_max <= 0.05
    assert time.time() - start <= 120.0


def test_criterion_02_mimic_fidelity_floor():
    # The additive mimic must reproduce a deterministic linear score on held
    # out rows essentially exactly.
    ds, _ = da.gen_linear_score(n_rows=20000, seed=2)
    perm = np.random.default_rng(0).permutation(ds.n_rows)
    test, rest = perm[:4000], perm[4000:]
    X = da.bin_dataset(ds, da.fit_schema(ds))
    cfg = da.TrainConfig(learning_rate=0.15, max_rounds=400, patience=50)
    gam = da.train_regressor(X.take(rest), ds.score[rest], cfg, validation=np.arange(2000))
    pred = gam.predict(X.take(test))
    rmse = float(np.sqrt(np.mean((pred - ds.score[test]) ** 2)))
    assert rmse <= 0.01


def test_criterion_03_used_vs_unused_detection():
    # Black box uses 8 of 16 features. For each unused feature the mimic band
    # must contain zero over at least 95% of data mass; each used feature
    # must show at least one clearly nonzero bin; the outcome model must see
    # the signal the black box ignored.
    start = time.time()
    ds, truth = da.gen_partial_use(n_rows=30000, seed=7)
    schema = da.fit_schema(ds, max_bins=64)
    cfg = da.TrainConfig(learning_rate=0.1, max_rounds=400, patience=50, seed=0)
    plan = da.plan_bags(ds.n_rows, K=5, L=5, seed=0)
    paired = da.train_paired(ds, plan=plan, config=cfg, schema=schema, jobs=4)
    summary = da.summarize(paired)

    used = set(truth["used"])
    unused = set(truth["unused"])
    for fc in summary.features:
        mass = np.asarray(fc.bin_mass, dtype=float)
        lo, hi = np.asarray(fc.mimic.lower), np.asarray(fc.mimic.upper)
        if fc.feature in unused:
            zero_mass = float(mass[(lo <= 0.0) & (hi >= 0.0)].sum() / mass.sum())
            assert zero_mass >= 0.95, (fc.feature, zero_mass)
            o_lo, o_hi = np.asarray(fc.outcome.lower), np.asarray(fc.outcome.upper)
            assert np.any(((o_lo > 0.0) | (o_hi < 0.0)) & (mass > 0)), fc.feature
        else:
            assert np.any(((lo > 0.0) | (hi < 0.0)) & (mass > 0)), fc.feature
    top8 = {name for name, _ in summary.ranking[:8]}
    assert top8 == unused
    assert time.time() - start <= 600.0


def test_criterion_04_little_bags_variance_formula():
    # Hand instance: inner means 1 and 3, grand mean 2, variance exactly 1.
    hand = np.array([[0.0, 2.0], [2.0, 4.0]])
    assert float(da.little_bags_variance(hand)) == 1.0

    # The vectorized estimator must match a literal loop transcription.
    rng = np.random.default_rng(4)
    for _ in range(20):
        K, L = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        values = rng.normal(size=(K, L))
        grand = values.mean()
        by_loop = sum((values[k].mean() - grand) ** 2 for k in range(K)) / K
        assert abs(float(da.little_bags_variance(values)) - by_loop) <= 1e-15


def _null_band_coverage(split_significance: float) -> float:
    """Pointwise rate at which 95% mimic bands cover zero on noise targets."""
    covered = 0
    total = 0
    for rep in range(200):
        rng = np.random.default_rng(1000 + rep)
        T = 1200
        ds = da.AuditDataset.from_arrays(
            {"u": rng.random(T), "v": rng.random(T)},
            rng.normal(0.0, 1.0, T),
            (rng.random(T) < 0.5).astype(float),
        )
        cfg = da.TrainConfig(
            learning_rate=0.01, max_rounds=600, patience=50,
            split_significance=split_significance,
        )
        plan = da.plan_bags(T, K=5, L=2, seed=rep)
        paired = da.train_paired(
            ds, plan=plan, config=cfg, schema=da.fit_schema(ds, max_bins=8), jobs=4
        )
        for j in range(2):
            band = da.curve(paired.mimic, j)
            keep = paired.bin_mass[j] > 0
            covered += int(np.sum((band.lower[keep] <= 0.0) & (band.upper[keep] >= 0.0)))
            total += int(np.sum(keep))
    return covered / total


def test_criterion_05_null_band_coverage():
    # A score that is pure noise must not produce confident bands. Checked
    # both as shipped (the entry gate keeps noise features at exactly zero)
    # and with the gate disabled, where the bag spread alone carries the
    # bands; both must cover zero at 93% or better pointwise.
    assert _null_band_coverage(split_significance=40.0) >= 0.93
    assert _null_band_coverage(split_significance=0.0) >= 0.93


def _monotone_fit_oracle(means, weights):
    """Exact non-decreasing weighted least-squares fit by grid DP.

    Optimal fitted values are weighted means of contiguous segments, so a
    dynamic program over that value grid is exact.
    """
    means = np.asarray(means, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = len(means)
    grid = []
    for i in range(n):
        sw = sm = 0.0
        for j in range(i, n):
            sw += weights[j]
            sm += weights[j] * means[j]
            grid.append(sm / sw)
    grid = np.unique(np.asarray(grid))
    cost = weights[0] * (grid - means[0]) ** 2
    back = []
    for i in range(1, n):
        prefix_min = np.minimum.accumulate(cost)
        argmin = np.maximum.accumulate(
            np.where(cost <= prefix_min, np.arange(len(grid)), -1)
        )
        back.append(argmin)
        cost = weights[i] * (grid - means[i]) ** 2 + prefix_min
    idx = int(np.argmin(cost))
    fitted = [grid[idx]]
    for argmin in reversed(back):
        idx = int(argmin[idx])
        fitted.append(grid[idx])
    return np.asarray(fitted[::-1])


def test_criterion_06_calibration_correctness():
    # Exhaustive: every 0/1 outcome pattern on 2..12 distinct score levels.
    for n in range(2, 13):
        levels = np.arange(n, dtype=float)
        weights = np.ones(n)
        for pattern in range(2**n):
            means = np.array([(pattern >> i) & 1 for i in range(n)], dtype=float)
            fit = da.pav_fit(levels, means, weights)
            oracle = _monotone_fit_oracle(means, weights)
            assert np.allclose(fit, oracle, atol=1e-9)

    # A score with a sharp probability kink is far from logit-linear until
    # calibrated; the fitted map must shrink the residual at least 5x.
    ds, _ = da.gen_kinked_score(n_rows=6000, seed=0)
    before = da.diagnose(ds.score, ds.outcome)
    assert before.logit_rmse > da.AUTO_LINEARITY_THRESHOLD
    cmap = da.fit_calibration(ds.score, ds.outcome)
    after = da.diagnose(cmap.apply(ds.score), ds.outcome)
    assert after.logit_rmse < before.logit_rmse / 5.0


def _hidden_error_pairs(hidden: bool) -> da.ErrorPairs:
    ds, _ = da.gen_hidden_feature(n_rows=10000, seed=0, strength=1.0, hidden=hidden)
    cfg = da.TrainConfig(learning_rate=0.1, max_rounds=400, patience=50)
    plan = da.plan_bags(ds.n_rows, K=2, L=2, seed=0)
    paired = da.train_paired(
        ds, plan=plan, config=cfg, schema=da.fit_schema(ds, max_bins=32), jobs=4
    )
    return da.error_pairs(paired, ds)


def test_criterion_07_missing_feature_test_behavior():
    # Shared hidden input: all three error correlations strictly positive.
    pairs = _hidden_error_pairs(hidden=True)
    res = da.correlation_test(pairs.mimic_error, pairs.outcome_error, seed=0)
    for name in ("pearson", "spearman", "kendall"):
        assert getattr(res, name).lower > 0.0, name

    # Matched control with independent draws: every interval contains zero.
    ctrl = _hidden_error_pairs(hidden=False)
    cres = da.correlation_test(ctrl.mimic_error, ctrl.outcome_error, seed=0)
    for name in ("pearson", "spearman", "kendall"):
        ci = getattr(cres, name)
        assert ci.lower <= 0.0 <= ci.upper, name

    # Permuted pairings must almost never trigger either verdict level.
    rng = np.random.default_rng(42)
    false_positives = 0
    for p in range(100):
        idx = rng.choice(pairs.n_pairs, size=1200, replace=False)
        shuffled = pairs.outcome_error[rng.permutation(idx)]
        r = da.correlation_test(pairs.mimic_error[idx], shuffled, resamples=200, seed=p)
        false_positives += r.verdict != "none"
    assert false_positives <= 7


def test_criterion_08_interaction_detection():
    # One true pairwise interaction among five features: screening must rank
    # it first in at least 19 of 20 seeded draws, and fitting it must cut
    # held-out RMSE by at least 20%.
    cfg = da.TrainConfig(learning_rate=0.2, max_rounds=200, patience=30)
    hits = 0
    for seed in range(20):
        ds, truth = da.gen_interaction(n_rows=6000, seed=seed)
        X = da.bin_dataset(ds, da.fit_schema(ds, max_bins=16))
        perm = np.random.default_rng(seed).permutation(ds.n_rows)
        test, rest = perm[:1200], perm[1200:]
        Xf, yf = X.take(rest), ds.score[rest]
        mains = da.train_regressor(Xf, yf, cfg, validation=np.arange(1200))
        ranked = da.rank_interaction_pairs(mains, Xf, yf, rows=np.arange(1200, len(rest)))
        hits += (ranked[0].i, ranked[0].j) == tuple(truth["pair_indices"])
        if seed == 0:
            both = da.fit_interactions(
                mains, Xf, yf, [tuple(truth["pair_indices"])], cfg, validation=np.arange(1200),
            )
            Xt = X.take(test)
            rmse_mains = float(np.sqrt(np.mean((mains.predict(Xt) - ds.score[test]) ** 2)))
            rmse_both = float(np.sqrt(np.mean((both.predict(Xt) - ds.score[test]) ** 2)))
            assert rmse_both <= 0.8 * rmse_mains
    assert hits >= 19


COMPAS_FEATURES = (
    "sex", "age", "race", "juv_fel_count", "juv_misd_count",
    "juv_other_count", "priors_count", "c_charge_degree",
)
COMPAS_NUMERIC = ("age", "juv_fel_count", "juv_misd_count", "juv_other_count", "priors_count")


def _load_compas(path: Path) -> da.AuditDataset:
    """Standard two-year recidivism screening subset of the raw export."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    kept = []
    for r in rows:
        days = r.get("days_b_screening_arrest", "")
        if days not in ("", None):
            try:
                if abs(float(days)) > 30:
                    continue
            except ValueError:
                continue
        if r.get("is_recid") == "-1" or r.get("score_text") in ("N/A", ""):
            continue
        if r.get("c_charge_degree") not in ("F", "M"):
            continue
        kept.append(r)
    features = {}
    for name in COMPAS_FEATURES:
        if name in COMPAS_NUMERIC:
            features[name] = np.array([float(r[name]) for r in kept])
        else:
            features[name] = np.array([r[name] for r in kept], dtype=object)
    score = np.array([float(r["decile_score"]) for r in kept])
    outcome = np.array([float(r["two_year_recid"]) for r in kept])
    return da.AuditDataset.from_arrays(features, score, outcome)


def test_criterion_09_real_data_spot_check():
    # Optional: point COMPAS_CSV (or data/compas-scores-two-years.csv) at the
    # ProPublica two-year recidivism export to run the published-numbers
    # check; absent the file the test skips rather than fails.
    candidates = [os.environ.get("COMPAS_CSV"), "data/compas-scores-two-years.csv"]
    path = next((Path(c) for c in candidates if c and Path(c).exists()), None)
    if path is None:
        pytest.skip("recidivism dataset not supplied; set COMPAS_CSV to run")

    ds = _load_compas(path)
    assert ds.n_rows > 5000

    diag = da.diagnose(ds.score, ds.outcome)
    decision = da.decide_calibration(diag, "auto")
    cmap = da.fit_calibration(ds.score, ds.outcome) if decision["applied"] else None
    cfg = da.TrainConfig(learning_rate=0.1, max_rounds=400, patience=50)
    plan = da.plan_bags(ds.n_rows, K=5, L=5, seed=0)
    paired = da.train_paired(ds, calibration=cmap, plan=plan, config=cfg, jobs=4)
    metrics = da.fidelity(paired, ds)

    assert 0.74 - 0.03 <= metrics.outcome_auc_mean <= 0.74 + 0.03
    assert 2.01 - 0.10 <= metrics.score_rmse_mean <= 2.01 + 0.10

    pairs = da.error_pairs(paired, ds)
    res = da.correlation_test(pairs.mimic_error, pairs.outcome_error, seed=0)
    for name in ("pearson", "spearman", "kendall"):
        assert getattr(res, name).lower >= 0.05, name


def test_criterion_10_deterministic_reports(tmp_path):
    # Same data, config, and seed: the audit report must match byte for byte.
    data_csv = tmp_path / "audit.csv"
    ds, _ = da.gen_kinked_score(n_rows=800, seed=5)
    ds.to_csv(data_csv)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "load": {"max_bins": 16},
        "train": {"learning_rate": 0.15, "max_rounds": 150},
    }))

    blobs = []
    for run in ("first", "second"):
        out = tmp_path / run
        code = cli.main([
            "audit", "--data", str(data_csv), "--config", str(config),
            "--K", "2", "--L", "2", "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
