"""Small numeric helpers used throughout the package.

The logistic link is numpy only. ``sigmoid(z)`` is ``1 / (1 + exp(-z))`` and
``log_expit(z)`` is ``min(z, 0) - log1p(exp(-|z|))``, the formulas of
``scipy.special.expit`` and ``log_expit`` (the latter's two branches written
as one). Neither overflows to a wrong value: ``exp(-z)`` is inf below about
-709, where ``sigmoid`` gives 0.0 as scipy does, and ``exp(-|z|)`` is at most
1. Their last bits can still differ from scipy's, because numpy's vectorised
``exp`` and ``log1p`` round differently from the C library's that scipy
calls: ``sigmoid`` by at most 3e-16 relative on about 2% of values,
``log_expit`` by at most 9e-16 absolute on about 5%.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateStatisticsError


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function of an array, in one new buffer."""
    with np.errstate(over="ignore"):
        e = np.exp(-z)
    e += 1.0
    return np.reciprocal(e, out=e)


def log_expit(z: np.ndarray) -> np.ndarray:
    """``log(sigmoid(z))`` without overflow; -0.0 (as scipy) where it rounds to zero."""
    return np.minimum(z, -0.0) - np.log1p(np.exp(-np.abs(z)))


def mean_nll(y: np.ndarray, logits: np.ndarray) -> float:
    """Mean negative Bernoulli log-likelihood (the classification training loss).

    Targets must be 0 or 1. Each row then contributes ``log_expit(F)`` or
    ``log_expit(-F)``, exactly the term of the two-term log-likelihood
    ``y * log_expit(F) + (1 - y) * log_expit(-F)``, with one ``log_expit``
    per row instead of two.
    """
    return -float(np.sum(log_expit(np.where(y == 1, logits, -logits)))) / len(y)


def rmse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((np.asarray(a, float) - np.asarray(b, float)) ** 2)))


def average_ranks(ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Average ranks (1-based, ties sharing the mean of their positions) of rows
    whose values have dense ids ``ids``, when value ``v`` occurs ``counts[v]``
    times. Ranks are integers or halves, so exact, and equal to
    ``scipy.stats.rankdata`` for integer counts."""
    return (np.cumsum(counts) - (counts - 1) / 2)[ids]


def auc(y: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank statistic, ties averaged.

    Raises DegenerateStatisticsError when only one class is present.
    """
    y = np.asarray(y)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise DegenerateStatisticsError("AUC undefined: single outcome class")
    _, inverse, counts = np.unique(np.asarray(scores), return_inverse=True, return_counts=True)
    ranks = average_ranks(inverse, counts)
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def weighted_line_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    """Weighted least-squares line y ~ a*x + b.

    Returns (slope, intercept, weighted RMSE of the residuals). Degenerate x
    (a single distinct value) yields slope 0 and the weighted mean as intercept.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    w = np.asarray(w, float)
    sw = w.sum()
    xm = float(np.dot(w, x) / sw)
    ym = float(np.dot(w, y) / sw)
    sxx = float(np.dot(w, (x - xm) ** 2))
    if sxx <= 0.0:
        slope = 0.0
    else:
        slope = float(np.dot(w, (x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    return slope, intercept, float(np.sqrt(np.dot(w, resid**2) / sw))
