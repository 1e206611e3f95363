"""Audit black-box risk scores from labeled data alone.

The pipeline distills the score into a transparent additive model, trains a
matching model on ground-truth outcomes over the same data splits, and
compares the two: per-feature contribution curves with little-bags confidence
bands, a calibration map when the score is not already on the log-odds
scale, and a correlation test for score inputs missing from the audit data.
"""

import os
import sys

# numpy's OpenBLAS starts a thread for each extra core at import and splits
# every product longer than 10,000 elements across them, so the --jobs
# processes would contend for the same cores. Pin it to one thread while numpy
# is still unloaded; a value set in the environment wins, and workers inherit it.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    del _var

__version__ = "0.1.0"

from .baseline import (
    LinearBags,
    LinearModel,
    design_matrix,
    linear_fold_metrics,
    train_linear,
    train_linear_bags,
)
from .calibrate import (
    AUTO_LINEARITY_THRESHOLD,
    CalibrationDiagnostics,
    CalibrationMap,
    decide_calibration,
    diagnose,
    fit_calibration,
    pav_fit,
)
from .compare import (
    ComparisonSummary,
    ContributionCurve,
    DifferenceCurve,
    FeatureComparison,
    SurfaceComparison,
    curve,
    difference,
    discrepancy_score,
    little_bags_variance,
    summarize,
)
from .data import (
    AuditDataset,
    BinnedMatrix,
    FeatureSchema,
    FeatureSpec,
    LoadConfig,
    bin_dataset,
    fit_schema,
    load_csv,
)
from .distill import (
    BagEnsemble,
    BagPlan,
    FidelityMetrics,
    PairedEnsembles,
    fidelity,
    fold_fidelity,
    plan_bags,
    train_paired,
    with_interactions,
)
from .errors import (
    AuditError,
    ConfigError,
    DataError,
    DegenerateStatisticsError,
    TrainingError,
)
from .gam import (
    AdditiveModel,
    InteractionSurface,
    PairScore,
    TrainConfig,
    fit_interactions,
    rank_interaction_pairs,
    train_classifier,
    train_regressor,
)
from .missing import (
    CorrelationTest,
    ErrorPairs,
    correlation_test,
    error_pairs,
    load_error_pairs_csv,
)
from .synth import (
    GENERATORS,
    gen_hidden_feature,
    gen_interaction,
    gen_kinked_score,
    gen_linear_score,
    gen_partial_use,
)

__all__ = [
    # baseline
    "LinearBags", "LinearModel", "design_matrix", "linear_fold_metrics", "train_linear",
    "train_linear_bags",
    # calibrate
    "AUTO_LINEARITY_THRESHOLD", "CalibrationDiagnostics", "CalibrationMap", "decide_calibration",
    "diagnose", "fit_calibration", "pav_fit",
    # compare
    "ComparisonSummary", "ContributionCurve", "DifferenceCurve", "FeatureComparison",
    "SurfaceComparison", "curve", "difference", "discrepancy_score", "little_bags_variance",
    "summarize",
    # data
    "AuditDataset", "BinnedMatrix", "FeatureSchema", "FeatureSpec", "LoadConfig", "bin_dataset",
    "fit_schema", "load_csv",
    # distill
    "BagEnsemble", "BagPlan", "FidelityMetrics", "PairedEnsembles", "fidelity", "fold_fidelity",
    "plan_bags", "train_paired", "with_interactions",
    # errors
    "AuditError", "ConfigError", "DataError", "DegenerateStatisticsError", "TrainingError",
    # gam
    "AdditiveModel", "InteractionSurface", "PairScore", "TrainConfig", "fit_interactions",
    "rank_interaction_pairs", "train_classifier", "train_regressor",
    # missing
    "CorrelationTest", "ErrorPairs", "correlation_test", "error_pairs", "load_error_pairs_csv",
    # synth
    "GENERATORS", "gen_hidden_feature", "gen_interaction", "gen_kinked_score", "gen_linear_score",
    "gen_partial_use",
]
