"""Linear and logistic baselines on the raw (un-binned) features.

The additive tree ensembles justify their complexity only if they beat a
plain linear model on the same data splits. So the baseline trains on the
rows :func:`~distillaudit.distill.bag_split` gives each bag, against
:func:`~distillaudit.distill.mimic_targets` and the outcomes, and keeps each
K x L grid in a :class:`~distillaudit.distill.BagEnsemble`, which averages
folds and writes model files as it does for the additive ensembles. Numeric
features enter as-is with missing values imputed by the full-data mean;
categorical features are one-hot encoded over the schema categories, with
missing or unseen values encoded as all-zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .calibrate import CalibrationMap
from .data import NUMERIC, AuditDataset, FeatureSchema, fit_schema
from .distill import BagEnsemble, BagPlan, FidelityMetrics, bag_split, check_bags, fold_fidelity, mimic_targets
from .errors import DataError, TrainingError
from .gam import IDENTITY, LOGISTIC, _checked_targets
from .stats import mean_nll, sigmoid

MAX_IRLS_ITERATIONS = 100
GRADIENT_TOLERANCE = 1e-8
CONDITION_LIMIT = 1e12


def design_matrix(data: AuditDataset, schema: FeatureSchema | None = None) -> tuple[np.ndarray, list[str]]:
    """Dense design matrix (no intercept column) plus column names."""
    schema = schema or fit_schema(data)
    blocks = []
    columns: list[str] = []
    for spec in schema.specs:
        col = data.columns[spec.name]
        if spec.kind == NUMERIC:
            vals = np.asarray(col, dtype=float)
            missing = np.isnan(vals)
            if missing.all():
                raise DataError(f"feature {spec.name!r} has zero non-missing values")
            filled = np.where(missing, vals[~missing].mean(), vals)
            blocks.append(filled[:, None])
            columns.append(spec.name)
        else:
            lookup = {c: i for i, c in enumerate(spec.categories)}
            codes = np.array([lookup.get(v, -1) for v in col])
            blocks.append((codes[:, None] == np.arange(len(spec.categories))).astype(float))
            columns.extend(f"{spec.name}={c}" for c in spec.categories)
    return np.hstack(blocks), columns


@dataclass
class LinearModel:
    """Weights over design-matrix columns with an identity or logistic link."""

    intercept: float
    weights: np.ndarray
    columns: list[str]
    link: str
    l2: float
    metadata: dict = field(default_factory=dict)

    def decision(self, A: np.ndarray) -> np.ndarray:
        return self.intercept + A @ self.weights

    def predict(self, A: np.ndarray) -> np.ndarray:
        z = self.decision(A)
        return sigmoid(z) if self.link == LOGISTIC else z

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "link": self.link,
            "intercept": self.intercept,
            "weights": dict(zip(self.columns, map(float, self.weights))),
            "l2": self.l2,
            "metadata": self.metadata,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LinearModel":
        columns = list(d["weights"])
        weights = np.asarray([d["weights"][c] for c in columns], float)
        return cls(float(d["intercept"]), weights, columns, d["link"], float(d["l2"]), dict(d["metadata"]))


def _ridge(A: np.ndarray, y: np.ndarray, l2: float) -> np.ndarray:
    """Solve least squares with an unpenalized leading intercept column."""
    gram = A.T @ A
    pen = np.full(A.shape[1], l2 * len(y))
    pen[0] = 0.0
    gram += np.diag(pen)
    if l2 == 0.0 and np.linalg.cond(gram) > CONDITION_LIMIT:
        raise TrainingError("design matrix is singular or near-singular; use l2 > 0")
    try:
        return np.linalg.solve(gram, A.T @ y)
    except np.linalg.LinAlgError as exc:
        raise TrainingError(f"linear solve failed: {exc}") from exc


def _irls(A: np.ndarray, y: np.ndarray, l2: float) -> tuple[np.ndarray, list[float]]:
    """Newton iterations on the mean Bernoulli deviance with L2 on non-intercept weights."""
    n, d = A.shape
    w = np.zeros(d)
    mask = np.ones(d)
    mask[0] = 0.0

    def objective(wv: np.ndarray) -> float:
        return mean_nll(y, A @ wv) + 0.5 * l2 * float(np.sum((wv * mask) ** 2))

    trace = [objective(w)]
    for _ in range(MAX_IRLS_ITERATIONS):
        z = A @ w
        p = sigmoid(z)
        grad = A.T @ (p - y) / n + l2 * w * mask
        if np.max(np.abs(grad)) <= GRADIENT_TOLERANCE:
            return w, trace
        h = p * (1.0 - p)
        hess = (A * h[:, None]).T @ A / n + l2 * np.diag(mask)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise TrainingError(f"logistic solve failed: {exc}") from exc
        scale = 1.0
        base = trace[-1]
        for _ in range(30):
            cand = w - scale * step
            val = objective(cand)
            if val <= base:
                break
            scale *= 0.5
        else:
            raise TrainingError("logistic baseline failed to descend; data may be degenerate")
        w = cand
        trace.append(val)
    z = A @ w
    grad = A.T @ (sigmoid(z) - y) / n + l2 * w * mask
    if np.max(np.abs(grad)) <= GRADIENT_TOLERANCE:
        return w, trace
    raise TrainingError("logistic baseline did not converge")


def train_linear(
    A: np.ndarray, targets, link: str, columns: list[str] | None = None, l2: float = 1e-6
) -> LinearModel:
    """Fit a ridge-regularized linear (identity) or logistic model.

    The intercept is never penalized. ``l2 = 0`` is allowed for the identity
    link only when the design is well-conditioned.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DataError("design matrix must be two-dimensional")
    y = _checked_targets(targets, A.shape[0], link == LOGISTIC)
    if l2 < 0.0:
        raise DataError("l2 must be non-negative")
    columns = columns or [f"x{i}" for i in range(A.shape[1])]
    if len(columns) != A.shape[1]:
        raise DataError("one column name per design column required")
    aug = np.hstack([np.ones((A.shape[0], 1)), A])
    metadata: dict = {"n_train": A.shape[0]}
    if link == IDENTITY:
        w = _ridge(aug, y, l2)
    elif link == LOGISTIC:
        if np.ptp(y) == 0.0:
            raise TrainingError("classification targets contain a single class")
        w, trace = _irls(aug, y, l2)
        metadata["nll_trace"] = trace
    else:
        raise DataError(f"unknown link {link!r}")
    return LinearModel(float(w[0]), w[1:], columns, link, l2, metadata)


@dataclass
class LinearBags:
    """The linear baseline over one bag plan: ``mimic`` holds the linear
    (identity-link) models of the mimic targets and ``outcome`` the logistic
    models of the labels, one per bag of ``plan`` each, with ``calibration``
    the map of the mimic targets and ``data`` the table they were trained on.
    ``design`` is the design matrix their ``predict`` reads, with one name
    per column in ``columns``."""

    mimic: BagEnsemble
    outcome: BagEnsemble
    plan: BagPlan
    calibration: CalibrationMap | None
    design: np.ndarray
    columns: list[str]
    data: AuditDataset

    def save_models(self, directory: str | Path) -> list[str]:
        """Write every model as a JSON file; returns their names."""
        names = self.mimic.save_models(directory, "linear_mimic", {})
        return names + self.outcome.save_models(directory, "linear_outcome", {})


def train_linear_bags(
    data: AuditDataset,
    plan: BagPlan,
    calibration: CalibrationMap | None = None,
    schema: FeatureSchema | None = None,
) -> LinearBags:
    """One linear mimic and one logistic outcome model per (outer, inner) bag.

    Each trains on that bag's training rows alone (no early stopping, so
    validation rows stay unused), against the same targets the additive
    ensembles see.
    """
    check_bags(plan, data)
    schema = schema or fit_schema(data)
    A, columns = design_matrix(data, schema)

    def grid(link: str, targets: np.ndarray, labeled: np.ndarray | None) -> BagEnsemble:
        def fit(k: int, l: int) -> LinearModel:
            rows, _ = bag_split(plan, k, l, labeled)
            return train_linear(A[rows], targets[rows], link, columns)

        return BagEnsemble([[fit(k, l) for l in range(plan.L)] for k in range(plan.K)], link, schema)

    mimic = grid(IDENTITY, mimic_targets(data, calibration), None)
    return LinearBags(mimic, grid(LOGISTIC, data.outcome, data.has_outcome), plan, calibration, A, columns, data)


def linear_fold_metrics(bags: LinearBags) -> FidelityMetrics:
    """Fold metrics for trained linear bags on their own table, plan and
    map, averaged like the additive ones."""
    return fold_fidelity("linear", bags, lambda rows: bags.design[rows])
