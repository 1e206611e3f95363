"""Synthetic audit datasets with known ground truth.

Every generator returns ``(dataset, truth)`` where ``truth`` records the
constants the generator used, so tests can check recovered structure against
the construction instead of against magic numbers. All randomness flows
through one seeded generator per call; identical arguments give identical
datasets.

The five constructions cover the behaviors the audit is supposed to expose:

* ``gen_linear_score``: deterministic integer-weight score over binary
  features; recovery and fidelity ground truth.
* ``gen_partial_use``: the score uses half the features, the outcome
  depends on all of them; used/unused detection ground truth.
* ``gen_hidden_feature``: the score depends on a feature absent from the
  audit data (or not, for the control); missing-feature test ground truth.
* ``gen_kinked_score``: outcome probability flat then sharply rising in
  the score; calibration ground truth.
* ``gen_interaction``: one strong pairwise interaction plus a weak main
  effect; interaction screening ground truth.
"""

from __future__ import annotations

import numpy as np

from .data import AuditDataset, check_seed
from .errors import ConfigError
from .stats import sigmoid


def _rng(n_rows: int, seed: int) -> np.random.Generator:
    """The one generator of a call that draws ``n_rows`` rows, at least 1,
    from a non-negative ``seed``."""
    if n_rows < 1:
        raise ConfigError(f"n_rows must be at least 1, got {n_rows}")
    check_seed(seed)
    return np.random.default_rng(seed)


def _dataset(features: dict[str, np.ndarray], score: np.ndarray, outcome: np.ndarray) -> AuditDataset:
    return AuditDataset.from_arrays(features, score, outcome.astype(float))


def gen_linear_score(n_rows: int = 50000, seed: int = 0, n_features: int = 40):
    """Deterministic score 3*f00 + 1*f01 + 1*f02 over binary features.

    Features are iid Bernoulli(0.3); all but the first three carry zero
    weight. Outcomes follow a logistic curve in the score, so the score is
    already linear in the log odds and auto-calibration declines.
    """
    if n_features < 3:
        raise ConfigError("need at least 3 features")
    rng = _rng(n_rows, seed)
    names = [f"f{i:02d}" for i in range(n_features)]
    cols = {name: (rng.random(n_rows) < 0.3).astype(float) for name in names}
    weights = {name: 0.0 for name in names}
    weights[names[0]], weights[names[1]], weights[names[2]] = 3.0, 1.0, 1.0
    score = 3.0 * cols[names[0]] + cols[names[1]] + cols[names[2]]
    slope, intercept = 0.8, -1.5
    outcome = rng.random(n_rows) < sigmoid(slope * score + intercept)
    truth = {
        "weights": weights,
        "used": names[:3],
        "outcome_slope": slope,
        "outcome_intercept": intercept,
    }
    return _dataset(cols, score, outcome), truth


def gen_partial_use(
    n_rows: int = 30000,
    seed: int = 0,
    n_features: int = 16,
    n_used: int = 8,
    score_noise: float = 0.25,
):
    """Score built from the first ``n_used`` features, outcome from all.

    Each feature contributes a step b_i * 1[x_i >= threshold_i] with
    |b_i| in [0.6, 1.2]. The outcome log odds sum every step; the score sums
    only the first ``n_used`` (identical coefficients, so the two model
    families agree on used features up to noise) plus Gaussian noise that
    keeps spurious structure from looking certain.
    """
    if not 0 < n_used <= n_features:
        raise ConfigError("n_used must be in [1, n_features]")
    rng = _rng(n_rows, seed)
    names = [f"x{i:02d}" for i in range(n_features)]
    cols = {name: rng.random(n_rows) for name in names}
    thresholds = rng.uniform(0.3, 0.7, size=n_features)
    amplitudes = rng.uniform(0.6, 1.2, size=n_features) * rng.choice((-1.0, 1.0), size=n_features)
    steps = np.stack(
        [(cols[name] >= thr).astype(float) for name, thr in zip(names, thresholds)]
    )
    centered = steps - (1.0 - thresholds)[:, None]
    log_odds = amplitudes @ centered
    score = amplitudes[:n_used] @ centered[:n_used] + rng.normal(0.0, score_noise, size=n_rows)
    outcome = rng.random(n_rows) < sigmoid(log_odds)
    truth = {
        "used": names[:n_used],
        "unused": names[n_used:],
        "thresholds": dict(zip(names, thresholds.tolist())),
        "amplitudes": dict(zip(names, amplitudes.tolist())),
        "score_noise": score_noise,
    }
    return _dataset(cols, score, outcome), truth


def gen_hidden_feature(n_rows: int = 10000, seed: int = 0, strength: float = 1.0, hidden: bool = True):
    """Score and outcome share a signal absent from the audit features.

    Both the score (already on the log-odds scale) and the outcome log odds
    equal x0 + 0.5*x1 - 0.5*x2 plus ``strength`` times a standard normal
    draw. With ``hidden=True`` the draw is shared, so both models' held-out
    errors carry it; with ``hidden=False`` two independent draws of the same
    magnitude replace it: identical marginals, no shared component.
    """
    if strength <= 0.0:
        raise ConfigError("strength must be positive")
    rng = _rng(n_rows, seed)
    x0, x1, x2 = rng.normal(size=(3, n_rows))
    base = x0 + 0.5 * x1 - 0.5 * x2
    z_score = rng.normal(size=n_rows)
    z_outcome = z_score if hidden else rng.normal(size=n_rows)
    score = base + strength * z_score
    outcome = rng.random(n_rows) < sigmoid(base + strength * z_outcome)
    truth = {
        "hidden": hidden,
        "strength": strength,
        "visible_weights": {"x0": 1.0, "x1": 0.5, "x2": -0.5},
    }
    return _dataset({"x0": x0, "x1": x1, "x2": x2}, score, outcome), truth


def gen_kinked_score(n_rows: int = 8000, seed: int = 0, kink: float = 350.0):
    """Outcome probability flat below the kink, rising sharply above it.

    Scores live on a points scale in [300, 500], driven by two uniform
    features. P(outcome) is 0.05 up to the kink, then climbs linearly to
    0.95 at 500, far from linear in the log odds, so auto-calibration
    triggers.
    """
    if not 300.0 < kink < 500.0:
        raise ConfigError("kink must lie inside the score range (300, 500)")
    rng = _rng(n_rows, seed)
    u0 = rng.random(n_rows)
    u1 = rng.random(n_rows)
    score = 300.0 + 200.0 * (0.5 * u0 + 0.5 * u1)
    base = 0.05
    prob = np.where(score < kink, base, base + (0.95 - base) * (score - kink) / (500.0 - kink))
    outcome = rng.random(n_rows) < prob
    truth = {"kink": kink, "base_prob": base, "top_prob": 0.95}
    return _dataset({"u0": u0, "u1": u1}, score, outcome), truth


def gen_interaction(n_rows: int = 6000, seed: int = 0, pair_amplitude: float = 2.0):
    """One strong pairwise interaction between x0 and x1, weak main on x2.

    score = 0.5*x2 + amplitude * 1[x0 > 0] * 1[x1 > 0] + noise, with five
    uniform features on [-1, 1]; x3 and x4 are pure distractors.
    """
    rng = _rng(n_rows, seed)
    names = [f"x{i}" for i in range(5)]
    cols = {name: rng.uniform(-1.0, 1.0, size=n_rows) for name in names}
    inter = (cols["x0"] > 0) & (cols["x1"] > 0)
    score = 0.5 * cols["x2"] + pair_amplitude * inter + rng.normal(0.0, 0.1, size=n_rows)
    outcome = rng.random(n_rows) < sigmoid(score - float(score.mean()))
    truth = {"pair": ("x0", "x1"), "pair_indices": (0, 1), "amplitude": pair_amplitude, "main": "x2"}
    return _dataset(cols, score, outcome), truth


GENERATORS = {
    "linear-score": gen_linear_score,
    "partial-use": gen_partial_use,
    "hidden-feature": gen_hidden_feature,
    "kinked-score": gen_kinked_score,
    "interaction": gen_interaction,
}
