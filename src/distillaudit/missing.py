"""Detecting features the scorer saw but the audit data lacks.

If the score was produced from inputs beyond the audit features, both the
score mimic and the outcome model lose access to the same signal, so their
held-out errors should correlate positively: rows where the hidden input
pushed the score up are rows where both models miss in the same direction.
Without a hidden input the statistic's null is not centred on zero, and
its shift goes either way by table. On ``gen_hidden_feature(hidden=False)``
tables Pearson measured -0.06 to -0.15, most negative with calibration on,
where a shared hidden input can still read negative and go unseen. On
tables of decile scores with no hidden input it measured +0.035 to +0.066
over four seeds, and two of them gave false ``weak`` or ``evidence``
verdicts.

The test collects one (|mimic error|, |outcome error|) pair per labeled row
that appears in some outer test fold, computes Pearson, Spearman, and
Kendall correlations, bootstraps percentile confidence intervals for each,
and distills a verdict: ``evidence`` when all three lower bounds clear a
small positive margin, ``weak`` when at least one interval excludes zero
from above, ``none`` otherwise. Each bootstrap resample is held as the
number of times each row was drawn, and all three statistics are computed
from those counts without gathering the resampled rows.

Everything is numpy. The point estimates repeat the steps of
``scipy.stats`` (1.17) in the same order, so they equal ``pearsonr``,
``spearmanr`` and ``kendalltau`` bit for bit. Kendall's discordant pairs
are counted for a block of resamples at once by a bottom-up merge count
whose gather orders depend only on the data (:class:`_Discordance`), in
integer arithmetic, so every resample's tau-b is exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import bin_dataset, check_seed, open_text
from .distill import PairedEnsembles, mimic_targets
from .errors import ConfigError, DataError, DegenerateStatisticsError
from .stats import average_ranks

MIN_PAIRS = 30
EVIDENCE_MARGIN = 0.01
DEFAULT_RESAMPLES = 1000
MIN_RESAMPLES = 100


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
    with open_text(path, "error-pairs file") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
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


def error_pairs(paired: PairedEnsembles) -> ErrorPairs:
    """Held-out error pairs, one per labeled row seen by some test fold.

    A row appearing in several outer test folds is scored by the lowest fold
    index; predictions average that fold's inner models. Mimic errors are on
    the mimic target scale (calibrated log odds when calibration applied,
    raw score otherwise); outcome errors are |probability - outcome|.
    """
    data = paired.data
    X = bin_dataset(data, paired.schema)
    fold_of = np.full(data.n_rows, -1)
    for k in reversed(range(paired.plan.K)):
        fold_of[paired.plan.test[k]] = k
    labeled = data.has_outcome
    use = (fold_of >= 0) & labeled
    targets = mimic_targets(data, paired.calibration)

    mimic_err = np.full(data.n_rows, np.nan)
    outcome_err = np.full(data.n_rows, np.nan)
    for k in range(paired.plan.K):
        rows = np.flatnonzero(use & (fold_of == k))
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


_BLOCK = 16  # resamples counted together: the fastest of 8, 16, 32 and 64 at n = 1,118 to 30,000
_BLOCK_CELLS = 1 << 21  # bound on rows x resamples in one block


class _Discordance:
    """Kendall discordant pairs of many resamples of one ``(a, b)`` sample at once.

    ``y`` holds the dense ``b`` ids of the rows in ``(a, b)``-lexsorted order,
    so rows i < j form a discordant pair exactly when ``y[i] > y[j]``. Counting
    is a bottom-up merge count: level k cuts the rows into blocks of
    ``2w = 2**(k+1)``, and each pair is split across a block's left and right
    halves at exactly one level. Which right-half rows lie below each left-half
    row depends only on the data, so each level stores, once per test, its
    right-half rows ordered by ``y`` (``perm``) and, per left-half row, the
    index in ``perm`` past the right-half rows with a smaller ``y`` (``pos``),
    both int32.
    A resample is a column of row counts in :attr:`counts`, summing to at
    most ``n``. Per level, the discordant pairs of every column then take one
    gather, one prefix sum, one gather at ``pos`` and one product with the
    left-half counts.

    Counts and prefix sums never exceed ``n``, so they are held in the
    smallest unsigned type that holds ``n``, and the prefix sum runs over
    64-bit words that pack several resamples: no lane carries into the next.
    All arithmetic is integer, so the counts are exact.
    """

    def __init__(self, y: np.ndarray, block: int) -> None:
        n = len(y)
        padded_y = np.append(y, n)  # row n holds zero counts and pads short right halves
        self.levels = []
        w = 1
        while w < n:
            nb = (n + w - 1) // (2 * w)  # blocks with a non-empty right half
            left = np.arange(nb)[:, None] * (2 * w) + np.arange(w)
            right = np.minimum(left + w, n)
            right = np.take_along_axis(right, np.argsort(padded_y[right], axis=1), axis=1)
            # One search serves all blocks once each block's ids are offset past the last.
            offset = np.arange(nb)[:, None] * (n + 1)
            pos = np.searchsorted((padded_y[right] + offset).ravel(), (y[left] + offset).ravel())
            self.levels.append((right.ravel().astype(np.int32), pos.astype(np.int32)))
            w *= 2
        lane = np.min_scalar_type(n)
        per_word = 8 // lane.itemsize
        # Rows past n stay zero; with a power of two of them, every level's blocks are whole.
        self.counts = np.zeros((1 << n.bit_length(), -(-block // per_word) * per_word), lane)
        self._sum_dtype = np.min_scalar_type(n * n // 4)  # a level splits at most (n/2)^2 pairs
        rows = max((len(perm) for perm, _ in self.levels), default=0)
        words = self.counts.shape[1] // per_word
        self._gathered = np.empty((rows, words), np.uint64)
        self._prefix = np.zeros((rows + 1, words), np.uint64)

    def count(self) -> np.ndarray:
        """Discordant pairs of each column of :attr:`counts`, rows repeated that many times."""
        counts = self.counts
        words = counts.view(np.uint64)
        total = np.zeros(counts.shape[1], np.uint64)
        w = 1
        for perm, pos in self.levels:
            m = len(perm)
            nb = m // w
            # Indices are in range; "clip" writes straight into out, where "raise" buffers it.
            gathered = np.take(words, perm, axis=0, out=self._gathered[:m], mode="clip")
            np.cumsum(gathered, axis=0, out=self._prefix[1 : m + 1])
            below = self._prefix.take(pos, axis=0).reshape(nb, w, -1)
            below -= self._prefix[0:m:w, None]
            left = counts[: 2 * m].reshape(nb, 2 * w, -1)[:, :w]
            total += np.einsum("bir,bir->r", left, below.view(counts.dtype), dtype=self._sum_dtype)
            w *= 2
        return total


def _ranked(a: np.ndarray, b: np.ndarray, block: int):
    """Dense value ids of each margin and of each ``(a, b)`` pair, and a
    discordance counter over the ``(a, b)``-lexsorted rows."""
    ia = np.unique(a, return_inverse=True)[1]
    ib = np.unique(b, return_inverse=True)[1]
    pair = np.unique(ia * (ib.max() + 1) + ib, return_inverse=True)[1]
    order = np.lexsort((ib, ia))
    return ia, ib, pair, order, _Discordance(ib[order], block)


def _tied_pairs(m: np.ndarray) -> int:
    """Pairs of rows sharing a group, given each group's row count."""
    return int(np.sum(m * (m - 1))) // 2


def _tau_b(dis: int, n: int, ma: np.ndarray, mb: np.ndarray, mab: np.ndarray) -> float:
    """Kendall tau-b from discordant pairs and the row counts of each ``a``
    value, ``b`` value and ``(a, b)`` pair, in ``scipy.stats.kendalltau``'s
    order of operations."""
    tot = n * (n - 1) // 2
    xtie, ytie = _tied_pairs(ma), _tied_pairs(mb)
    tau = (tot - xtie - ytie + _tied_pairs(mab) - 2 * dis) / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return min(max(float(tau), -1.0), 1.0)


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation in ``scipy.stats.pearsonr``'s order of operations:
    centre, scale by the largest deviation, normalise, dot."""
    unit = []
    for v in (a, b):
        dev = v - v.mean()
        top = np.abs(dev).max()
        unit.append(dev / (top * np.linalg.norm(dev / top, axis=-1)))
    return min(max(float(np.dot(*unit)), -1.0), 1.0)


def _block(n: int) -> int:
    """Resamples whose discordant pairs are counted together, for ``n`` rows."""
    return max(1, min(_BLOCK, _BLOCK_CELLS // n))


def _point_estimates(a: np.ndarray, b: np.ndarray, ranked) -> tuple[float, float, float]:
    """Pearson, Spearman and Kendall tau-b of the sample, equal to
    ``scipy.stats.pearsonr``, ``spearmanr`` and ``kendalltau``. ``ranked``
    is ``_ranked(a, b, block)`` for any block."""
    ia, ib, pair, order, discordance = ranked
    ma, mb, mab = np.bincount(ia), np.bincount(ib), np.bincount(pair)
    spearman = np.corrcoef(average_ranks(ia, ma), average_ranks(ib, mb))[1, 0]
    discordance.counts[: len(a), 0] = 1
    kendall = _tau_b(int(discordance.count()[0]), len(a), ma, mb, mab)
    return _pearson(a, b), float(spearman), kendall


def _weighted_pearson(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of rows ``(x, y)`` each repeated ``w`` times."""
    n = w.sum()
    dx = x - (w @ x) / n
    dy = y - (w @ y) / n
    wdx = w * dx
    r = (wdx @ dy) / np.sqrt((wdx @ dx) * ((w * dy) @ dy))
    return min(max(float(r), -1.0), 1.0)


def _bootstrap(a: np.ndarray, b: np.ndarray, resamples: int, seed: int, ranked) -> np.ndarray:
    """Pearson, Spearman and Kendall tau-b of each row resample, one row each.

    A resample is held as the count ``c`` of times each row was drawn, from
    one ``integers(0, n, size=n)`` call per resample, so the draws are those
    of gathering ``a[idx], b[idx]``. Pearson and Spearman are correlations
    weighted by ``c``. Kendall takes discordant pairs for a block of
    resamples at once from :class:`_Discordance` and ties from integer
    counts, so it equals ``stats.kendalltau`` on the gathered rows bit for
    bit. Resamples constant in a margin stay NaN. ``ranked`` is
    ``_ranked(a, b, _block(len(a)))``.
    """
    n = len(a)
    block = _block(n)
    ia, ib, pair, order, discordance = ranked
    rng = np.random.default_rng(seed)
    boots = np.full((resamples, 3), np.nan)
    for start in range(0, resamples, block):
        drawn = [
            np.bincount(rng.integers(0, n, size=n), minlength=n)
            for _ in range(min(block, resamples - start))
        ]
        for k, c in enumerate(drawn):
            discordance.counts[:n, k] = c[order]
        dis = discordance.count()
        for k, c in enumerate(drawn):
            w = c.astype(float)
            ma, mb = np.bincount(ia, weights=w), np.bincount(ib, weights=w)
            if np.count_nonzero(ma) < 2 or np.count_nonzero(mb) < 2:
                continue
            spearman = _weighted_pearson(w, average_ranks(ia, ma), average_ranks(ib, mb))
            tau = _tau_b(int(dis[k]), n, ma, mb, np.bincount(pair, weights=w))
            boots[start + k] = _weighted_pearson(w, a, b), spearman, tau
    return boots


def _verdict(intervals: list[CorrelationInterval]) -> str:
    if all(iv.lower > EVIDENCE_MARGIN for iv in intervals):
        return "evidence"
    if any(iv.lower > 0.0 for iv in intervals):
        return "weak"
    return "none"


def check_resamples(resamples: int) -> None:
    if resamples < MIN_RESAMPLES:
        raise ConfigError(f"resamples must be at least {MIN_RESAMPLES}, got {resamples}")


def correlation_test(
    mimic_error,
    outcome_error,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> CorrelationTest:
    """Correlate the two error series and bootstrap 95% intervals.

    Percentile bootstrap over row resamples; degenerate resamples (zero
    variance in a margin) are dropped. Intervals are widened to include the
    point estimate when a skewed bootstrap distribution would otherwise
    exclude it.
    """
    check_resamples(resamples)
    check_seed(seed)
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

    ranked = _ranked(a, b, _block(n))
    pr, sr, kt = _point_estimates(a, b, ranked)
    boots = _bootstrap(a, b, resamples, seed, ranked)
    intervals = []
    for col, est in zip(boots.T, (pr, sr, kt)):
        vals = col[~np.isnan(col)]
        if len(vals) < resamples // 2:
            raise DegenerateStatisticsError("too many degenerate bootstrap resamples")
        lo, hi = np.percentile(vals, [2.5, 97.5])
        intervals.append(CorrelationInterval(est, min(float(lo), est), max(float(hi), est)))

    return CorrelationTest(
        pearson=intervals[0],
        spearman=intervals[1],
        kendall=intervals[2],
        verdict=_verdict(intervals),
        n_pairs=n,
        resamples=resamples,
    )
