"""Numeric helpers against the formulas they replace."""

import numpy as np
import pytest
from scipy.stats import rankdata

import distillaudit as da
from distillaudit.stats import auc, bernoulli_loglik, mean_nll


def rank_auc(y, scores):
    """The rank-sum AUC with scipy's average ranks."""
    ranks = rankdata(scores)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class TestAuc:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_rankdata_formula_on_tie_heavy_scores(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        y = (rng.random(n) < 0.4).astype(float)
        y[:2] = [0.0, 1.0]
        levels = int(rng.integers(1, 12))
        scores = rng.integers(0, levels, size=n) / 3.0
        if seed % 2:
            scores = scores + rng.normal(size=n) * (rng.random(n) < 0.3)
        assert auc(y, scores) == rank_auc(y, scores)

    def test_perfect_and_constant_scores(self):
        y = np.array([0.0, 0.0, 1.0, 1.0])
        assert auc(y, np.array([0.1, 0.2, 0.3, 0.4])) == 1.0
        assert auc(y, np.full(4, 7.0)) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(da.DegenerateStatisticsError):
            auc(np.ones(5), np.arange(5.0))


def test_mean_nll_equals_bernoulli_loglik_on_binary_targets():
    rng = np.random.default_rng(0)
    y = (rng.random(5000) < 0.3).astype(float)
    extremes = [-800.0, -40.0, -30.0, -1e-300, -0.0, 0.0, 1e-300, 30.0, 40.0, 800.0]
    logits = np.concatenate([rng.normal(scale=3.0, size=4990), extremes])
    assert mean_nll(y, logits) == -bernoulli_loglik(y, logits) / len(y)
