"""Shape comparison with variance estimates from the two-level bag layout.

Every quantity of interest (a shape value, or a mimic-minus-outcome shape
difference) is measured once per (outer, inner) bag, giving a K x L grid of
replicates. Its sampling variance is estimated from the spread of the inner
means across outer folds:

    var_hat = (1/K) * sum_k (mean_l value[k, l] - grand_mean)^2

Pointwise 95% intervals are mean +/- 1.96 * sqrt(var_hat); a bin is flagged
significant when its difference's interval excludes zero. The bands price
bag-to-bag variance only, so the flag is no 5% test: 34-97% of the bins of
features used alike by score and outcome were flagged (ROADMAP item 3).

Mimic and outcome shapes live on a common log-odds scale only when the
scores were calibrated; uncalibrated runs still report differences, flagged
as cross-scale.

Fitted feature pairs are reported as the bag means of their mimic, outcome
and difference grids, with no bands. The pairs were screened once, on bag
(0, 0)'s mimic model, and are read back from that model's surfaces; every
other bag must hold the same pairs. The means are summed one bag at a time,
so the memory :func:`summarize` needs grows with the grid size, not with
K x L times it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distill import BagEnsemble, PairedEnsembles
from .errors import DegenerateStatisticsError

Z_95 = 1.96


def little_bags_variance(values: np.ndarray) -> np.ndarray:
    """Variance estimate from a (K, L, ...) grid of replicated values.

    Mean of squared deviations of the K inner-bag means from the grand mean.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim < 2 or values.shape[0] < 2 or values.shape[1] < 2:
        raise DegenerateStatisticsError("variance estimation needs at least a 2 x 2 bag grid")
    inner = values.mean(axis=1)
    grand = values.mean(axis=(0, 1))
    return np.mean((inner - grand) ** 2, axis=0)


@dataclass
class ContributionCurve:
    """Per-bin shape estimate with pointwise 95% bounds."""

    feature: str
    mean: np.ndarray
    variance: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class DifferenceCurve(ContributionCurve):
    """Per-bin mimic-minus-outcome shape difference with 95% bounds."""

    significant: np.ndarray


def _band(tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Grand mean, little-bags variance and pointwise 95% bounds of a
    (K, L, bins) grid of per-bag values; every band of the audit is set here."""
    mean = tensor.mean(axis=(0, 1))
    var = little_bags_variance(tensor)
    half = Z_95 * np.sqrt(var)
    return mean, var, mean - half, mean + half


def curve(ensemble: BagEnsemble, feature: int) -> ContributionCurve:
    """Ensemble-mean shape of one feature with little-bags 95% bounds."""
    return ContributionCurve(ensemble.schema.names[feature], *_band(ensemble.shape_tensor(feature)))


def difference(paired: PairedEnsembles, feature: int) -> DifferenceCurve:
    """Mimic-minus-outcome shape difference for one feature.

    The variance comes from applying the little-bags formula directly to the
    per-bag differences, which equals Var(mimic) + Var(outcome) minus twice
    their covariance. A bin is significant when its band excludes zero.
    """
    band = _band(paired.mimic.shape_tensor(feature) - paired.outcome.shape_tensor(feature))
    _, _, lower, upper = band
    return DifferenceCurve(paired.schema.names[feature], *band, (lower > 0.0) | (upper < 0.0))


@dataclass
class FeatureComparison:
    """Everything the report needs about one feature."""

    feature: str
    kind: str
    bin_labels: list[str]
    bin_mass: np.ndarray
    mimic: ContributionCurve
    outcome: ContributionCurve
    diff: DifferenceCurve
    discrepancy: float


@dataclass
class SurfaceComparison:
    """Grand-mean pairwise grids for one fitted feature pair."""

    i: int
    j: int
    names: tuple[str, str]
    mimic_mean: np.ndarray
    outcome_mean: np.ndarray
    diff_mean: np.ndarray


@dataclass
class ComparisonSummary:
    """Per-feature comparisons plus a discrepancy ranking."""

    features: list[FeatureComparison]
    surfaces: list[SurfaceComparison]
    ranking: list[tuple[str, float]]
    calibrated: bool

    def feature_named(self, name: str) -> FeatureComparison:
        for fc in self.features:
            if fc.feature == name:
                return fc
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        feats = []
        for fc in self.features:
            feats.append(
                {
                    "feature": fc.feature,
                    "kind": fc.kind,
                    "bins": fc.bin_labels,
                    "bin_mass": fc.bin_mass,
                    "mimic": _curve_json(fc.mimic),
                    "outcome": _curve_json(fc.outcome),
                    "difference": {
                        **_curve_json(fc.diff),
                        "significant": fc.diff.significant,
                    },
                    "discrepancy": fc.discrepancy,
                }
            )
        return {
            "calibrated": self.calibrated,
            "features": feats,
            "surfaces": [
                {
                    "i": sc.i,
                    "j": sc.j,
                    "names": list(sc.names),
                    "mimic_mean": sc.mimic_mean,
                    "outcome_mean": sc.outcome_mean,
                    "difference_mean": sc.diff_mean,
                }
                for sc in self.surfaces
            ],
            "discrepancy_ranking": [{"feature": n, "score": s} for n, s in self.ranking],
        }


def _curve_json(c) -> dict:
    return {"mean": c.mean, "variance": c.variance, "lower": c.lower, "upper": c.upper}


def discrepancy_score(diff: DifferenceCurve, mass: np.ndarray) -> float:
    """Mass-weighted absolute difference over significant bins only.

    Zero when no bin is significant; grows with both the size of the gap and
    the share of rows sitting in the affected bins.
    """
    sig = diff.significant
    return float(np.sum(mass[sig] * np.abs(diff.mean[sig])))


def _surface_means(paired: PairedEnsembles, i: int, j: int) -> list[np.ndarray]:
    """Bag means of one pair's mimic, outcome and mimic-minus-outcome grids.

    The grids are added one bag at a time in (k, l) order to sums that start
    from zero. That is the sum ``mean(axis=(0, 1))`` takes over the stacked
    (K, L, bi, bj) tensor, down to its ``+0.0`` where every bag holds
    ``-0.0``, so the means are bit-equal to it while only a few grids are
    held at once.
    """
    schema = paired.schema
    sums = np.zeros((3, schema.n_bins(i), schema.n_bins(j)))
    for mimic, outcome in zip(paired.mimic.surface_grids(i, j), paired.outcome.surface_grids(i, j)):
        sums[0] += mimic
        sums[1] += outcome
        sums[2] += mimic - outcome
    sums /= paired.plan.K * paired.plan.L
    return list(sums)


def summarize(paired: PairedEnsembles) -> ComparisonSummary:
    """Build every curve, difference, and the discrepancy ranking for a run."""
    schema = paired.schema
    features = []
    for j, spec in enumerate(schema.specs):
        mimic_c = curve(paired.mimic, j)
        outcome_c = curve(paired.outcome, j)
        diff_c = difference(paired, j)
        mass = paired.bin_mass[j]
        features.append(
            FeatureComparison(
                feature=spec.name,
                kind=spec.kind,
                bin_labels=spec.bin_labels(),
                bin_mass=mass,
                mimic=mimic_c,
                outcome=outcome_c,
                diff=diff_c,
                discrepancy=discrepancy_score(diff_c, mass),
            )
        )
    surfaces = [
        SurfaceComparison(s.i, s.j, s.names, *_surface_means(paired, s.i, s.j))
        for s in paired.mimic.models[0][0].surfaces
    ]
    ranking = sorted(
        ((fc.feature, fc.discrepancy) for fc in features),
        key=lambda t: (-t[1], t[0]),
    )
    return ComparisonSummary(features, surfaces, ranking, paired.calibration is not None)
