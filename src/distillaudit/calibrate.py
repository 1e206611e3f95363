"""Monotone calibration of raw scores onto the outcome-probability scale.

Scores enter the audit on whatever scale the scorer emitted (deciles,
points, percentages). To compare a score model against an outcome model on
one scale, the score is optionally replaced by the logit of a calibrated
probability: an isotonic (pool-adjacent-violators) fit of outcome on score,
pooled probabilities clamped away from 0 and 1 so the logit stays finite.

The decision whether to calibrate is driven by a linearity diagnostic: bucket
the scores, compute empirical outcome rates, and measure the count-weighted
RMSE of the best straight line through the rates on the logit scale. A score
already linear in the log odds gains nothing from calibration.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DegenerateStatisticsError
from .stats import weighted_line_fit

AUTO_LINEARITY_THRESHOLD = 0.15
MAX_BUCKETS = 50  # score buckets of the linearity diagnostic
CALIBRATION_MODES = ("auto", "on", "off")


@dataclass(frozen=True)
class CalibrationMap:
    """Step function from raw score to calibrated log odds.

    ``breakpoints`` are the distinct training scores in increasing order;
    ``values`` are the fitted log odds, non-decreasing. A score maps to the
    value of the largest breakpoint not exceeding it; scores below the first
    breakpoint clamp to the first value.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    epsilon: float

    def apply(self, scores: np.ndarray) -> np.ndarray:
        s = np.asarray(scores, dtype=float)
        idx = np.searchsorted(self.breakpoints, s, side="right") - 1
        return self.values[np.clip(idx, 0, len(self.values) - 1)]

    def inverse(self, log_odds: np.ndarray) -> np.ndarray:
        """Map calibrated log odds back to a representative raw score.

        Each run of equal fitted values is represented by the mean of its
        breakpoints; interpolation between representatives, clamped at the
        ends. Round-trips apply() up to the pooling done by the fit.
        """
        z = np.asarray(log_odds, dtype=float)
        levels, starts = np.unique(self.values, return_index=True)
        reps = np.empty(len(levels))
        bounds = list(starts) + [len(self.values)]
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            reps[i] = self.breakpoints[lo:hi].mean()
        return np.interp(z, levels, reps)

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "breakpoints": list(map(float, self.breakpoints)),
            "values": list(map(float, self.values)),
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CalibrationMap":
        return cls(
            np.asarray(d["breakpoints"], float),
            np.asarray(d["values"], float),
            float(d["epsilon"]),
        )


def _labeled(scores, outcomes) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    if len(s) != len(y):
        raise DataError("scores and outcomes differ in length")
    keep = ~np.isnan(y)
    s, y = s[keep], y[keep]
    if len(s) == 0:
        raise DegenerateStatisticsError("no labeled rows to calibrate on")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("outcomes must be 0 or 1")
    return s, y


def _clamped_log_odds(p: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Log odds of ``p`` clamped into [eps, 1 - eps], with eps = 1/(2n) for
    ``n`` labeled rows so every value is finite; returns them and eps."""
    eps = 1.0 / (2.0 * n)
    p = np.clip(p, eps, 1.0 - eps)
    return np.log(p / (1.0 - p)), eps


def pav_fit(levels: np.ndarray, means: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted pool-adjacent-violators: non-decreasing fit minimizing
    weighted squared error to ``means`` over increasing ``levels``.

    Returns one fitted value per level. Adjacent blocks merge while the
    earlier block's pooled mean strictly exceeds the later one's.
    """
    blocks: list[list[float]] = []  # [mean, weight, n_levels]
    for m, w in zip(means, weights):
        blocks.append([float(m), float(w), 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            m2, w2, n2 = blocks.pop()
            m1, w1, n1 = blocks.pop()
            wt = w1 + w2
            blocks.append([(m1 * w1 + m2 * w2) / wt, wt, n1 + n2])
    return np.repeat([b[0] for b in blocks], [b[2] for b in blocks])


def fit_calibration(scores, outcomes) -> CalibrationMap:
    """Isotonic regression of outcome on score with clamped log-odds values.

    Rows with a missing outcome are ignored. Pooled probabilities are clamped
    into [1/(2T), 1 - 1/(2T)] where T is the number of labeled rows, keeping
    every fitted log odds finite.
    """
    s, y = _labeled(scores, outcomes)
    levels, inverse_idx = np.unique(s, return_inverse=True)
    if len(levels) < 2:
        raise DegenerateStatisticsError("calibration needs at least two distinct scores")
    if np.ptp(y) == 0.0:
        raise DegenerateStatisticsError("calibration needs both outcome classes")
    w = np.bincount(inverse_idx).astype(float)
    level_means = np.bincount(inverse_idx, weights=y) / w
    values, eps = _clamped_log_odds(pav_fit(levels, level_means, w), len(s))
    return CalibrationMap(levels, values, eps)


@dataclass
class CalibrationDiagnostics:
    """Bucketed outcome rates and straight-line fits on both scales."""

    levels: np.ndarray
    counts: np.ndarray
    empirical_prob: np.ndarray
    logit_prob: np.ndarray
    prob_slope: float
    prob_intercept: float
    prob_rmse: float
    logit_slope: float
    logit_intercept: float
    logit_rmse: float
    n_rows: int

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["score_level", "count", "empirical_prob", "empirical_log_odds", "line_prob", "line_log_odds"]
            )
            for lv, n, p, z in zip(self.levels, self.counts, self.empirical_prob, self.logit_prob):
                writer.writerow(
                    [
                        repr(float(lv)),
                        int(n),
                        repr(float(p)),
                        repr(float(z)),
                        repr(float(self.prob_slope * lv + self.prob_intercept)),
                        repr(float(self.logit_slope * lv + self.logit_intercept)),
                    ]
                )

    def to_json_dict(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "n_buckets": len(self.levels),
            "prob_line": {
                "slope": self.prob_slope,
                "intercept": self.prob_intercept,
                "rmse": self.prob_rmse,
            },
            "log_odds_line": {
                "slope": self.logit_slope,
                "intercept": self.logit_intercept,
                "rmse": self.logit_rmse,
            },
        }


def diagnose(scores, outcomes) -> CalibrationDiagnostics:
    """Bucket scores, compute empirical outcome rates, and fit lines.

    Distinct score values become buckets directly when there are at most
    ``MAX_BUCKETS`` of them; otherwise quantile buckets are used. Bucketing
    here is for the linearity diagnostic only and never feeds the models.
    """
    s, y = _labeled(scores, outcomes)
    distinct = np.unique(s)
    if len(distinct) <= MAX_BUCKETS:
        levels, inverse_idx = distinct, np.searchsorted(distinct, s)
    else:
        qs = np.arange(1, MAX_BUCKETS) / MAX_BUCKETS
        edges = np.unique(np.quantile(s, qs))
        inverse_idx = np.searchsorted(edges, s, side="right")
        levels = None
    counts = np.bincount(inverse_idx).astype(float)
    sums_y = np.bincount(inverse_idx, weights=y)
    if levels is None:
        sums_s = np.bincount(inverse_idx, weights=s)
        keep = counts > 0
        counts, sums_y = counts[keep], sums_y[keep]
        levels = sums_s[keep] / counts
    emp = sums_y / counts
    log_odds, _ = _clamped_log_odds(emp, len(s))
    p_slope, p_icept, p_rmse = weighted_line_fit(levels, emp, counts)
    z_slope, z_icept, z_rmse = weighted_line_fit(levels, log_odds, counts)
    return CalibrationDiagnostics(
        levels=levels,
        counts=counts,
        empirical_prob=emp,
        logit_prob=log_odds,
        prob_slope=p_slope,
        prob_intercept=p_icept,
        prob_rmse=p_rmse,
        logit_slope=z_slope,
        logit_intercept=z_icept,
        logit_rmse=z_rmse,
        n_rows=len(s),
    )


def decide_calibration(diagnostics: CalibrationDiagnostics, mode: str) -> dict:
    """Resolve the calibration mode into an applied yes/no with a reason.

    ``on`` and ``off`` force the choice. ``auto`` calibrates when the
    count-weighted log-odds linearity RMSE exceeds the threshold, i.e. when
    the raw score is visibly non-linear in the log odds.
    """
    if mode not in CALIBRATION_MODES:
        raise ConfigError(f"calibration mode must be auto, on, or off, got {mode!r}")
    rmse = diagnostics.logit_rmse
    if mode == "on":
        applied, reason = True, "forced on"
    elif mode == "off":
        applied, reason = False, "forced off"
    elif rmse > AUTO_LINEARITY_THRESHOLD:
        applied = True
        reason = f"log-odds linearity RMSE {rmse:.4f} above threshold {AUTO_LINEARITY_THRESHOLD}"
    else:
        applied = False
        reason = f"log-odds linearity RMSE {rmse:.4f} within threshold {AUTO_LINEARITY_THRESHOLD}"
    return {
        "mode": mode,
        "applied": applied,
        "linearity_rmse": rmse,
        "threshold": AUTO_LINEARITY_THRESHOLD,
        "reason": reason,
    }
