"""Numeric helpers against the formulas they replace."""

import numpy as np
import pytest
from scipy import special
from scipy.stats import rankdata

import distillaudit as da
from distillaudit.stats import auc, log_expit, mean_nll, sigmoid

EDGES = np.array([0.0, -0.0, 709.0, -709.0, 710.0, -710.0, 745.0, -745.0, 800.0, -800.0,
                  np.inf, -np.inf])


def bernoulli_loglik(y, logits):
    """Sum of per-row Bernoulli log-likelihoods at the given logits."""
    return float(np.sum(y * log_expit(logits) + (1.0 - y) * log_expit(-logits)))


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


class TestLinkOracle:
    """The numpy link functions against the scipy.special ones they replace."""

    @pytest.fixture(scope="class")
    def draws(self):
        return np.random.default_rng(20).normal(0.0, 5.0, size=1_000_000)

    def test_sigmoid_matches_expit(self, draws):
        ref = special.expit(draws)
        assert np.max(np.abs(sigmoid(draws) - ref) / ref) <= 4.5e-16

    def test_log_expit_matches_scipy(self, draws):
        assert np.max(np.abs(log_expit(draws) - special.log_expit(draws))) <= 1e-15

    @pytest.mark.parametrize("fn, ref", [(sigmoid, special.expit),
                                         (log_expit, special.log_expit)])
    def test_edges_equal_without_overflow(self, fn, ref):
        z = np.append(EDGES, np.nan)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = fn(z)
        np.testing.assert_array_equal(got, ref(z))  # NaN only where ref has NaN
        assert np.isnan(got[-1])

    @pytest.mark.parametrize("fn", [sigmoid, log_expit])
    def test_input_not_mutated(self, fn):
        z = np.random.default_rng(21).normal(0.0, 5.0, size=1000)
        z[:len(EDGES)] = EDGES
        before = z.copy()
        fn(z)
        np.testing.assert_array_equal(z, before)
