"""Paired score-mimic and outcome ensembles over bagged data splits.

The audit trains two model families on identical data splits: a regression
ensemble distilling the (optionally calibrated) score, and a classification
ensemble predicting the ground-truth outcome. Sharing splits and model class
makes their shape functions directly comparable bin by bin.

Splits follow a two-level bagging layout: K outer folds each draw a test
subset (15% of rows), and within each outer fold L inner bags repartition
the remaining rows into training (70%) and early-stopping validation (15%).
The K x L grid of models per family feeds the variance estimates in
:mod:`distillaudit.compare`; outer test rows feed fidelity metrics and the
held-out error pairs in :mod:`distillaudit.missing`.

Rows without an outcome label still train the mimic models; outcome models
see only labeled rows, as :func:`bag_split` selects them. Every K x L grid,
the linear baseline's of :mod:`distillaudit.baseline` included, is a
:class:`BagEnsemble` trained on those bag rows and on :func:`mimic_targets`.

Feature pairs are screened once, on bag (0, 0)'s mimic model, and every
model of both families fits the same pairs. The fitted models are the only
record of which pairs those are: :mod:`distillaudit.compare` reads them back
from the models' surfaces. The trained ensembles keep their plan, map and
training config, so the steps after training take the ensembles alone.

Both :func:`train_paired` and :func:`with_interactions` fit their 2 x K x L
models through :class:`TaskPool`, which the CLI's post-training stages use
too. The binned matrix with its schema, the targets, labeled mask, plan,
config and, for pair fits, the main ensembles reach each ``--jobs`` worker
once, through the pool initializer: inherited under ``fork``, pickled once
per worker under ``spawn``. A task names only its family and bag; models
cross the pool without their schema, and the calling process rebuilds each
against the one schema it holds. Each call bins the table into
column-major int32 codes, and each fit gathers its own bag's rows once,
with :meth:`BinnedMatrix.take` as every reader does; only the fit's cell
arrays, which boosting bincounts, are ``intp``. So the memory of the
calling process does not grow with K x L. With
``jobs=1`` the same function runs in-process, and no process-pool module is
loaded. Outcome fits, the slower family, are submitted first.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .calibrate import CalibrationMap
from .data import AuditDataset, BinnedMatrix, FeatureSchema, bin_dataset, dump_json, fit_schema, preformat
from .errors import ConfigError, DataError, DegenerateStatisticsError, TrainingError
from .gam import (
    IDENTITY,
    LOGISTIC,
    AdditiveModel,
    TrainConfig,
    fit_interactions,
    rank_interaction_pairs,
    train_classifier,
    train_regressor,
)
from .stats import auc, rmse

TEST_FRACTION = 0.15
VALID_FRACTION = 0.15
MIN_ROWS = 20


@dataclass(frozen=True, eq=False)
class BagPlan:
    """Row indices (int32) for every (outer, inner) bag, fixed by (n_rows,
    K, L, seed)."""

    n_rows: int
    K: int
    L: int
    seed: int
    test: tuple[np.ndarray, ...]
    train: tuple[tuple[np.ndarray, ...], ...]
    valid: tuple[tuple[np.ndarray, ...], ...]

    def to_json_dict(self) -> dict:
        return {"format_version": 1, **vars(self)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "BagPlan":
        def rows(arrays):
            return tuple(np.asarray(a, np.int32) for a in arrays)

        sizes = (int(d[key]) for key in ("n_rows", "K", "L", "seed"))
        return cls(*sizes, rows(d["test"]), tuple(map(rows, d["train"])), tuple(map(rows, d["valid"])))


# The run-shape and bag rules; cli.run_audit applies them all before it writes a file.
def check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")


def check_bag_grid(K: int, L: int) -> None:
    if K < 2 or L < 2:
        raise ConfigError("K and L must both be at least 2")


def check_pair_count(n_pairs: int, n_features: int) -> None:
    available = n_features * (n_features - 1) // 2
    if n_pairs > available:
        raise ConfigError(f"n_pairs={n_pairs} exceeds the {available} available pairs")


def check_plan_rows(plan: BagPlan, n_rows: int) -> None:
    if plan.n_rows != n_rows:
        raise DataError("bag plan was made for a different number of rows")


def check_bags(plan: BagPlan, data: AuditDataset) -> None:
    """``plan`` was made for ``data``, which has a labeled row, and every bag
    has labeled validation rows and labeled training rows of both classes."""
    check_plan_rows(plan, data.n_rows)
    labeled = data.has_outcome
    if not labeled.any():
        raise DataError("no labeled rows; the outcome ensemble cannot be trained")
    for k in range(plan.K):
        for l in range(plan.L):
            train, valid = bag_split(plan, k, l, labeled)
            if not (len(train) and len(valid)):
                raise TrainingError(f"bag ({k}, {l}) has no labeled rows in its train or validation split")
            if np.ptp(data.outcome[train]) == 0.0:
                raise TrainingError(f"bag ({k}, {l}) has labeled training rows of one outcome class only")


def plan_bags(n_rows: int, K: int = 5, L: int = 5, seed: int = 0) -> BagPlan:
    """Draw the K x L bag layout: 15% test per outer fold, then 70/15
    train/validation per inner bag from the remainder.

    Outer test sets are drawn independently per fold (they may overlap
    across folds; within a fold, test, train, and validation are disjoint).
    All index arrays come back sorted.
    """
    check_bag_grid(K, L)
    if not MIN_ROWS <= n_rows < 2**31:  # row indices are int32
        raise DataError(f"need {MIN_ROWS} to {2**31 - 1} rows to split into bags, got {n_rows}")
    n_test = round(TEST_FRACTION * n_rows)
    n_valid = round(VALID_FRACTION * n_rows)
    rng = np.random.default_rng(seed)
    tests = []
    trains = []
    valids = []
    for _ in range(K):
        test = np.sort(rng.choice(n_rows, size=n_test, replace=False)).astype(np.int32)
        rest = np.setdiff1d(np.arange(n_rows, dtype=np.int32), test, assume_unique=True)
        fold_train = []
        fold_valid = []
        for _ in range(L):
            perm = rng.permutation(len(rest))
            fold_valid.append(np.sort(rest[perm[:n_valid]]))
            fold_train.append(np.sort(rest[perm[n_valid:]]))
        tests.append(test)
        trains.append(tuple(fold_train))
        valids.append(tuple(fold_valid))
    return BagPlan(n_rows, K, L, seed, tuple(tests), tuple(trains), tuple(valids))


def bag_split(
    plan: BagPlan, k: int, l: int, labeled: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Training and validation rows of bag (k, l); with a ``labeled`` mask,
    only the labeled ones."""
    train = plan.train[k][l]
    valid = plan.valid[k][l]
    if labeled is None:
        return train, valid
    return train[labeled[train]], valid[labeled[valid]]


def mimic_targets(data: AuditDataset, calibration: CalibrationMap | None) -> np.ndarray:
    """What every mimic model fits: the raw scores, or their calibrated log odds."""
    return calibration.apply(data.score) if calibration else data.score


@dataclass
class BagEnsemble:
    """K x L grid of models sharing one link and schema: additive models, or
    the baseline's linear ones. Every model has ``predict`` and
    ``to_json_dict``."""

    models: list[list]
    link: str
    schema: FeatureSchema

    def shape_tensor(self, feature: int) -> np.ndarray:
        """Shape values of every model for one feature, shaped (K, L, bins)."""
        return np.stack([[m.shapes[feature] for m in fold] for fold in self.models])

    def surface_grids(self, i: int, j: int):
        """Grid of one fitted pair from every model, in (k, l) order."""
        for fold in self.models:
            for m in fold:
                grid = next((s.values for s in m.surfaces if (s.i, s.j) == (i, j)), None)
                if grid is None:
                    raise DataError(f"pair ({i}, {j}) was not fitted")
                yield grid

    def predict_fold(self, k: int, X) -> np.ndarray:
        """Average prediction of outer fold k's inner models on ``X``, the
        rows their ``predict`` reads: a binned matrix or design-matrix rows."""
        preds = np.stack([m.predict(X) for m in self.models[k]])
        return preds.mean(axis=0)

    def save_models(self, directory: str | Path, name: str, extra: dict) -> list[str]:
        """Write each model, with the fields of ``extra`` added, to a JSON
        file named after ``name`` and its bag; returns the file names."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        names = []
        for k, fold in enumerate(self.models):
            for l, model in enumerate(fold):
                names.append(f"{name}_k{k}_l{l}.json")
                dump_json(directory / names[-1], {**model.to_json_dict(), **extra})
        return names


@dataclass
class PairedEnsembles:
    """The two ensembles of one audit run plus everything they share, their config included."""

    mimic: BagEnsemble
    outcome: BagEnsemble
    plan: BagPlan
    schema: FeatureSchema
    calibration: CalibrationMap | None
    bin_mass: list[np.ndarray]
    config: TrainConfig

    def save_models(self, directory: str | Path) -> list[str]:
        """Write every model, the bag plan, and the schema as JSON files;
        returns their names. The schema, which every model file embeds, is
        formatted once."""
        directory = Path(directory)
        schema = preformat(self.schema.to_json_dict())
        models = self.mimic.save_models(directory, "mimic", {"schema": schema})
        models += self.outcome.save_models(directory, "outcome", {"schema": schema})
        dump_json(directory / "plan.json", self.plan.to_json_dict())
        dump_json(directory / "schema.json", schema)
        return ["plan.json", "schema.json", *models]


@dataclass(frozen=True, eq=False)
class _BagData:
    """What every fit of one audit shares; each worker receives it once."""

    X: BinnedMatrix
    targets: dict[str, np.ndarray]  # link -> targets of every row
    labeled: np.ndarray
    plan: BagPlan
    config: TrainConfig
    mains: dict[str, BagEnsemble] | None = None  # link -> main ensemble that pair fits extend
    pairs: tuple[tuple[int, int], ...] = ()


# Outcome fits take longer than mimic fits (about three times as long on a
# 12,000-row table), so they are dispatched first and no long fit starts last.
_FAMILIES = (LOGISTIC, IDENTITY)


def _without_schema(model: AdditiveModel) -> dict:
    """A model's fields but its schema; ``AdditiveModel(schema=s, **fields)``
    rebuilds it against ``s``."""
    return {name: value for name, value in vars(model).items() if name != "schema"}


def _fit_bag(data: _BagData, link: str, k: int, l: int) -> dict:
    """Fit bag (k, l) of one family: main effects, or the pair grids on top
    of that bag's model in ``data.mains``. Returns the fitted model without
    its schema."""
    train, valid = bag_split(data.plan, k, l, data.labeled if link == LOGISTIC else None)
    rows = np.concatenate([train, valid])
    local_valid = np.arange(len(train), len(rows))
    X = data.X.take(rows)
    y = data.targets[link][rows]
    if data.mains:
        main = data.mains[link].models[k][l]
        model = fit_interactions(main, X, y, data.pairs, data.config, validation=local_valid)
    elif link == IDENTITY:
        model = train_regressor(X, y, data.config, validation=local_valid)
    else:
        model = train_classifier(X, y, data.config, validation=local_valid)
    return _without_schema(model)


_worker_shared = None  # set in pool workers only, by _init_worker


def _init_worker(shared) -> None:
    global _worker_shared
    _worker_shared = shared


def _worker_call(fn, *args):
    return fn(_worker_shared, *args)


class TaskPool:
    """Runs calls ``fn(shared, *args)`` of one step and returns their futures:
    in-process and at once with ``jobs=1`` (an error raises from ``submit``),
    else on ``jobs`` processes that receive ``shared`` once, through the pool
    initializer. ``fn`` must be a module-level function, so that it pickles.
    Leaving the ``with`` block cancels the calls not yet started. ``jobs``
    below 1 is a :class:`ConfigError`."""

    def __init__(self, shared, jobs: int) -> None:
        check_jobs(jobs)
        self.shared = shared
        self._pool = None
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: pools only

            self._pool = ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker, initargs=(shared,))

    def submit(self, fn, *args) -> Future:
        if self._pool is not None:
            return self._pool.submit(_worker_call, fn, *args)
        done = Future()
        done.set_result(fn(self.shared, *args))
        return done

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)


def _fit_grid(data: _BagData, jobs: int) -> dict[str, BagEnsemble]:
    """Fit every bag of both families, in a pool when ``jobs`` > 1; returns
    each family's ensemble, keyed by link.

    Tasks carry only (link, k, l); the shared data reaches each worker once.
    Every model returned refers to ``data.X.schema``.
    """
    plan = data.plan
    tasks = [(link, k, l) for link in _FAMILIES for k in range(plan.K) for l in range(plan.L)]
    with TaskPool(data, jobs) as pool:
        futures = [pool.submit(_fit_bag, *task) for task in tasks]
        grids = {link: [[] for _ in range(plan.K)] for link in _FAMILIES}
        for (link, k, _), f in zip(tasks, futures):  # tasks run through l in order
            grids[link][k].append(AdditiveModel(schema=data.X.schema, **f.result()))
    return {link: BagEnsemble(grid, link, data.X.schema) for link, grid in grids.items()}


def _bag_data(
    data: AuditDataset, X: BinnedMatrix, calibration: CalibrationMap | None, plan: BagPlan, config: TrainConfig
) -> _BagData:
    targets = {IDENTITY: mimic_targets(data, calibration), LOGISTIC: data.outcome}
    return _BagData(X, targets, data.has_outcome, plan, config)


def train_paired(
    data: AuditDataset,
    calibration: CalibrationMap | None = None,
    plan: BagPlan | None = None,
    config: TrainConfig | None = None,
    schema: FeatureSchema | None = None,
    jobs: int = 1,
) -> PairedEnsembles:
    """Train the mimic ensemble on (calibrated) scores and the outcome
    ensemble on labels, over identical bag splits.

    Mimic targets come from :func:`mimic_targets`. Only main effects are
    fitted; :func:`with_interactions` adds the pairwise grids to the result.
    """
    config = config or TrainConfig()
    plan = plan or plan_bags(data.n_rows, seed=config.seed)
    check_bags(plan, data)
    schema = schema or fit_schema(data)
    shared = _bag_data(data, bin_dataset(data, schema), calibration, plan, config)
    mass = [shared.X.bin_mass(j) for j in range(schema.n_features)]
    ensembles = _fit_grid(shared, jobs)
    return PairedEnsembles(ensembles[IDENTITY], ensembles[LOGISTIC], plan, schema, calibration, mass, config)


def with_interactions(paired: PairedEnsembles, data: AuditDataset, jobs: int = 1) -> PairedEnsembles:
    """Extend every model of both ensembles with the same top
    ``paired.config.n_pairs`` feature pairs, boosted with the settings of
    ``paired.config``.

    Pairs are screened once, by :func:`rank_interaction_pairs` on the
    residuals of bag (0, 0)'s mimic model over its training rows, and
    reused everywhere so that all models remain comparable surface by
    surface; every model lists them, in rank order, in its ``surfaces``.
    """
    n_pairs = paired.config.n_pairs
    if n_pairs == 0:
        return paired
    check_pair_count(n_pairs, paired.schema.n_features)
    check_plan_rows(paired.plan, data.n_rows)
    X = bin_dataset(data, paired.schema)
    shared = _bag_data(data, X, paired.calibration, paired.plan, paired.config)
    train00, _ = bag_split(paired.plan, 0, 0)
    ranked = rank_interaction_pairs(paired.mimic.models[0][0], X, shared.targets[IDENTITY], rows=train00)
    pairs = tuple((ps.i, ps.j) for ps in ranked[:n_pairs])
    mains = {IDENTITY: paired.mimic, LOGISTIC: paired.outcome}
    ensembles = _fit_grid(replace(shared, mains=mains, pairs=pairs), jobs)
    return replace(paired, mimic=ensembles[IDENTITY], outcome=ensembles[LOGISTIC])


@dataclass
class FidelityMetrics:
    """Held-out agreement of a model family with what it was trained on."""

    name: str
    score_rmse_mean: float
    score_rmse_std: float
    score_rmse_folds: list[float]
    outcome_auc_mean: float | None
    outcome_auc_std: float | None
    outcome_auc_folds: list[float]
    n_auc_folds_skipped: int

    def to_json_dict(self) -> dict:
        return {
            "model": self.name,
            "score_rmse": {
                "mean": self.score_rmse_mean,
                "std": self.score_rmse_std,
                "folds": self.score_rmse_folds,
            },
            "outcome_auc": {
                "mean": self.outcome_auc_mean,
                "std": self.outcome_auc_std,
                "folds": self.outcome_auc_folds,
                "skipped_folds": self.n_auc_folds_skipped,
            },
        }


def _spread(values: list[float]) -> tuple[float, float]:
    if not values:
        return float("nan"), float("nan")
    if len(values) == 1:
        return values[0], 0.0
    return float(np.mean(values)), float(np.std(values, ddof=1))


def fold_fidelity(name: str, data: AuditDataset, ensembles, gather) -> FidelityMetrics:
    """Evaluate per-fold test RMSE against raw scores and AUC against outcomes.

    ``ensembles`` is a :class:`PairedEnsembles` or the baseline's linear
    bags: its ``mimic`` and ``outcome`` ensembles, trained on its ``plan``
    with its ``calibration`` map, are evaluated on that plan's test folds.
    ``gather(rows)`` returns the input rows their models read. Mimic
    predictions are on the calibrated log-odds scale when a calibration map
    is in use; they are mapped back before the RMSE. Folds whose labeled
    test rows hold a single class, or none, are skipped for AUC and counted.
    """
    check_plan_rows(ensembles.plan, data.n_rows)
    rmses = []
    aucs = []
    skipped = 0
    labeled = data.has_outcome
    for k, test in enumerate(ensembles.plan.test):
        pred = ensembles.mimic.predict_fold(k, gather(test))
        if ensembles.calibration is not None:
            pred = ensembles.calibration.inverse(pred)
        rmses.append(rmse(pred, data.score[test]))
        lab = test[labeled[test]]
        prob = ensembles.outcome.predict_fold(k, gather(lab))
        try:
            aucs.append(auc(data.outcome[lab], prob))
        except DegenerateStatisticsError:
            skipped += 1
    rmse_mean, rmse_std = _spread(rmses)
    auc_mean, auc_std = _spread(aucs) if aucs else (None, None)
    return FidelityMetrics(name, rmse_mean, rmse_std, rmses, auc_mean, auc_std, aucs, skipped)


def fidelity(paired: PairedEnsembles, data: AuditDataset, name: str = "additive") -> FidelityMetrics:
    """Held-out fidelity of the paired ensembles on their outer test folds."""
    return fold_fidelity(name, data, paired, bin_dataset(data, paired.schema).take)
