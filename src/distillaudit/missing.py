"""Detecting features the scorer saw but the audit data lacks.

If the score was produced from inputs beyond the audit features, both the
score mimic and the outcome model lose access to the same signal, so their
held-out errors should correlate positively: rows where the hidden input
pushed the score up are rows where both models miss in the same direction.
Without a hidden input the statistic's null is not centred on zero yet: on
``gen_hidden_feature(hidden=False)`` tables Pearson measured -0.06 to -0.15,
most negative with calibration on. That shift hides weak hidden inputs
rather than raising false alarms.

The test collects one (|mimic error|, |outcome error|) pair per labeled row
that appears in some outer test fold, computes Pearson, Spearman, and
Kendall correlations, bootstraps percentile confidence intervals for each,
and distills a verdict: ``evidence`` when all three lower bounds clear a
small positive margin, ``weak`` when at least one interval excludes zero
from above, ``none`` otherwise. Each bootstrap resample is held as the
number of times each row was drawn, and all three statistics are computed
from those counts without gathering the resampled rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import AuditDataset, bin_dataset
from .distill import PairedEnsembles
from .errors import DataError, DegenerateStatisticsError

MIN_PAIRS = 30
EVIDENCE_MARGIN = 0.01
DEFAULT_RESAMPLES = 1000
Z_FISHER = 1.96


@dataclass
class ErrorPairs:
    """Per-row held-out absolute errors of the two model families."""

    mimic_error: np.ndarray
    outcome_error: np.ndarray
    fold_ids: np.ndarray
    n_excluded_never_held_out: int
    n_excluded_score_only: int

    @property
    def n_pairs(self) -> int:
        return len(self.mimic_error)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fold", "mimic_abs_error", "outcome_abs_error"])
            for k, me, oe in zip(self.fold_ids, self.mimic_error, self.outcome_error):
                writer.writerow([int(k), repr(float(me)), repr(float(oe))])


def load_error_pairs_csv(path: str | Path) -> ErrorPairs:
    """Read pairs written by :meth:`ErrorPairs.to_csv`."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError as exc:
        raise DataError(f"error-pairs file not found: {path}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError("empty error-pairs file")
        expected = ["fold", "mimic_abs_error", "outcome_abs_error"]
        if [h.strip() for h in header] != expected:
            raise DataError(f"error-pairs file must have columns {expected}")
        folds, me, oe = [], [], []
        for row in reader:
            if not row:
                continue
            try:
                folds.append(int(row[0]))
                me.append(float(row[1]))
                oe.append(float(row[2]))
            except (ValueError, IndexError):
                raise DataError(f"bad error-pairs row: {row}") from None
    return ErrorPairs(np.asarray(me), np.asarray(oe), np.asarray(folds), 0, 0)


def error_pairs(paired: PairedEnsembles, data: AuditDataset) -> ErrorPairs:
    """Held-out error pairs, one per labeled row seen by some test fold.

    A row appearing in several outer test folds is scored by the lowest fold
    index; predictions average that fold's inner models. Mimic errors are on
    the mimic target scale (calibrated log odds when calibration applied,
    raw score otherwise); outcome errors are |probability - outcome|.
    """
    if paired.plan.n_rows != data.n_rows:
        raise DataError("paired ensembles were trained on a different number of rows")
    X = bin_dataset(data, paired.schema)
    fold_of = np.full(data.n_rows, -1)
    for k in reversed(range(paired.plan.K)):
        fold_of[paired.plan.test[k]] = k
    labeled = data.has_outcome
    use = (fold_of >= 0) & labeled
    targets = paired.calibration.apply(data.score) if paired.calibration else data.score

    mimic_err = np.full(data.n_rows, np.nan)
    outcome_err = np.full(data.n_rows, np.nan)
    for k in range(paired.plan.K):
        rows = np.flatnonzero(use & (fold_of == k))
        if len(rows) == 0:
            continue
        Xk = X.take(rows)
        mimic_err[rows] = np.abs(paired.mimic.predict_fold(k, Xk) - targets[rows])
        outcome_err[rows] = np.abs(paired.outcome.predict_fold(k, Xk) - data.outcome[rows])
    return ErrorPairs(
        mimic_error=mimic_err[use],
        outcome_error=outcome_err[use],
        fold_ids=fold_of[use],
        n_excluded_never_held_out=int(np.sum(fold_of < 0)),
        n_excluded_score_only=int(np.sum((fold_of >= 0) & ~labeled)),
    )


@dataclass
class CorrelationInterval:
    estimate: float
    lower: float
    upper: float

    def to_json_dict(self) -> dict:
        return {"estimate": self.estimate, "ci": [self.lower, self.upper]}


@dataclass
class CorrelationTest:
    """Three correlation estimates with 95% intervals and a verdict."""

    pearson: CorrelationInterval
    spearman: CorrelationInterval
    kendall: CorrelationInterval
    verdict: str
    n_pairs: int
    resamples: int

    def to_json_dict(self) -> dict:
        return {
            "pearson": self.pearson.to_json_dict(),
            "spearman": self.spearman.to_json_dict(),
            "kendall": self.kendall.to_json_dict(),
            "verdict": self.verdict,
            "n_pairs": self.n_pairs,
            "resamples": self.resamples,
        }


def _point_estimates(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    from scipy import stats  # most of the package's import time; only this test needs it

    with np.errstate(invalid="ignore", divide="ignore"):
        pr = stats.pearsonr(a, b).statistic
        sr = stats.spearmanr(a, b).statistic
        kt = stats.kendalltau(a, b).statistic
    return float(pr), float(sr), float(kt)


def _weighted_pearson(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of rows ``(x, y)`` each repeated ``w`` times."""
    n = w.sum()
    dx = x - (w @ x) / n
    dy = y - (w @ y) / n
    wdx = w * dx
    r = (wdx @ dy) / np.sqrt((wdx @ dx) * ((w * dy) @ dy))
    return min(max(float(r), -1.0), 1.0)


def _average_ranks(ids: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average ranks of rows with dense value ids ``ids`` repeated ``w`` times,
    and the weighted count of each value."""
    m = np.bincount(ids, weights=w)
    return (np.cumsum(m) - (m - 1) / 2)[ids], m


def _tied_pairs(m: np.ndarray) -> int:
    """Pairs of rows sharing a group, given each group's row count."""
    return int(np.sum(m * (m - 1))) // 2


def _bootstrap(a: np.ndarray, b: np.ndarray, resamples: int, seed: int) -> np.ndarray:
    """Pearson, Spearman and Kendall tau-b of each row resample, one row each.

    A resample is held as the count ``c`` of times each row was drawn, from
    one ``integers(0, n, size=n)`` call per resample, so the draws are those
    of gathering ``a[idx], b[idx]``. Pearson and Spearman are correlations
    weighted by ``c``; Kendall counts discordant pairs with scipy's own
    routine and ties by integer counts, so it equals ``stats.kendalltau`` on
    the gathered rows bit for bit. Resamples constant in a margin stay NaN.
    """
    from scipy.stats._stats import _kendall_dis

    n = len(a)
    ia = np.unique(a, return_inverse=True)[1]
    ib = np.unique(b, return_inverse=True)[1]
    order = np.lexsort((b, a))
    xs, ys = ia[order] + 1, ib[order] + 1  # 1-based: _kendall_dis needs ranks > 0
    joint = np.cumsum(np.r_[True, (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])]) - 1
    tot = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    boots = np.full((resamples, 3), np.nan)
    for r in range(resamples):
        c = np.bincount(rng.integers(0, n, size=n), minlength=n)
        drawn = c > 0
        if np.ptp(a[drawn]) == 0.0 or np.ptp(b[drawn]) == 0.0:
            continue
        w = c.astype(float)
        ra, ma = _average_ranks(ia, w)
        rb, mb = _average_ranks(ib, w)
        co = c[order]
        dis = _kendall_dis(np.repeat(xs, co), np.repeat(ys, co))
        xtie, ytie = _tied_pairs(ma), _tied_pairs(mb)
        ntie = _tied_pairs(np.bincount(joint, weights=co))
        tau = (tot - xtie - ytie + ntie - 2 * dis) / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
        boots[r] = _weighted_pearson(w, a, b), _weighted_pearson(w, ra, rb), min(max(tau, -1.0), 1.0)
    return boots


def _verdict(intervals: list[CorrelationInterval]) -> str:
    if all(iv.lower > EVIDENCE_MARGIN for iv in intervals):
        return "evidence"
    if any(iv.lower > 0.0 for iv in intervals):
        return "weak"
    return "none"


def correlation_test(
    mimic_error,
    outcome_error,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
    pearson_ci: str = "bootstrap",
) -> CorrelationTest:
    """Correlate the two error series and bootstrap 95% intervals.

    Percentile bootstrap over row resamples; degenerate resamples (zero
    variance in a margin) are dropped. ``pearson_ci="fisher"`` swaps the
    Pearson interval for the Fisher z-transform normal approximation.
    Intervals are widened to include the point estimate when a skewed
    bootstrap distribution would otherwise exclude it.
    """
    a = np.asarray(mimic_error, dtype=float)
    b = np.asarray(outcome_error, dtype=float)
    if len(a) != len(b):
        raise DataError("error series differ in length")
    n = len(a)
    if n < MIN_PAIRS:
        raise DegenerateStatisticsError(f"need at least {MIN_PAIRS} error pairs, got {n}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DataError("error series contain non-finite values")
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        raise DegenerateStatisticsError("an error series is constant; correlation undefined")
    if pearson_ci not in ("bootstrap", "fisher"):
        raise DataError(f"pearson_ci must be bootstrap or fisher, got {pearson_ci!r}")
    if resamples < 100:
        raise DataError("resamples must be at least 100")

    pr, sr, kt = _point_estimates(a, b)
    boots = _bootstrap(a, b, resamples, seed)
    intervals = []
    for col, est in zip(boots.T, (pr, sr, kt)):
        vals = col[~np.isnan(col)]
        if len(vals) < resamples // 2:
            raise DegenerateStatisticsError("too many degenerate bootstrap resamples")
        lo, hi = np.percentile(vals, [2.5, 97.5])
        intervals.append(CorrelationInterval(est, min(float(lo), est), max(float(hi), est)))

    if pearson_ci == "fisher":
        z = np.arctanh(np.clip(pr, -1 + 1e-12, 1 - 1e-12))
        half = Z_FISHER / np.sqrt(n - 3)
        intervals[0] = CorrelationInterval(pr, float(np.tanh(z - half)), float(np.tanh(z + half)))

    return CorrelationTest(
        pearson=intervals[0],
        spearman=intervals[1],
        kendall=intervals[2],
        verdict=_verdict(intervals),
        n_pairs=n,
        resamples=resamples,
    )
