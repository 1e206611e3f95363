"""Additive models fitted by cyclic gradient boosting of shallow trees.

A model is an intercept plus one lookup table per feature (the shape
function, one value per bin) plus optional lookup grids for selected
feature pairs. Boosting sees each table as a *term*: a flat array of cells,
the cell of every training and validation row, and a tree fitter. A
feature's tree cuts its bins into at most ``leaves`` contiguous segments; a
pair's tree cuts its joint grid into at most ``leaves`` axis-aligned
rectangles. One loop, ``_boost``, serves both: each round it visits every
term, fits the term's tree to the current gradient and adds
``learning_rate`` times the leaf values into the table. It also owns the
entry gate (see :class:`TrainConfig`) and early stopping. Squared error
drives the regression fit; Bernoulli log-likelihood with Newton leaf steps
drives the classification fit. :func:`train_regressor` and
:func:`train_classifier` boost the feature shapes from the intercept;
:func:`fit_interactions` freezes those shapes and boosts pair grids on top.

After boosting every table is mean-centered over its training cell masses
and the removed means are folded into the intercept, so table values read
as signed deviations from the average prediction.

A fitted pair grid is stored as its distinct values plus one small index
per cell (see :class:`InteractionSurface`). A grid is a sum of a few
rectangle-constant updates per round, so it holds few distinct values:
3 to 17 in the 16,641 cells of a 129 x 129 grid after 50 rounds, and at
most 2,472 after 3,000 rounds, in the fits measured. The index then takes
one or two bytes a cell instead of eight, which matters because an audit
keeps each pair's grid in all K x L bags of both families.

Trees, leaf values, and tie-breaks are deterministic: candidate cuts are
scanned in ascending bin order and only a strictly larger gain replaces
the incumbent, so the lowest boundary wins ties. All cuts of a segment are
scored in one vectorised pass over the prefix sums of its gradient and
Hessian sums; a pair's rectangles keep their row and column sums, and a
split's children reuse their parent's along the cut axis, so each visit
sums every grid region once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .data import BinnedMatrix, FeatureSchema, JsonConfig, check_seed
from .errors import ConfigError, DataError, TrainingError
from .stats import mean_nll, sigmoid

IDENTITY = "identity"
LOGISTIC = "logistic"

_MIN_GAIN = 1e-12
_MIN_HESSIAN = 1e-12
_NEWTON_CLIP = 10.0


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    """Hyperparameters for boosted additive model training.

    ``split_significance`` is an entry gate on tree growth: a feature (or
    interaction pair) with an all-zero contribution receives its first update
    only once a split's gain exceeds this multiple of the current noise scale
    (residual variance for squared error, the Newton-gain analog for log
    loss). Under the null a candidate split's gain is roughly chi-square(1)
    on that scale, so the default of 40 rejects gains indistinguishable from
    noise while real structure, whose gain grows with the row count, enters
    in the first pass. Features the audited score never looks at therefore
    keep exactly zero shapes instead of accumulating per-bin noise that
    confidence bands built from largely shared rows cannot price in. Once a
    feature is in the model, refinement is ungated and converges as usual.
    Set 0 to disable.
    """

    section = "train"

    learning_rate: float = 0.01
    max_rounds: int = 5000
    leaves: int = 3
    patience: int = 50
    n_pairs: int = 0
    seed: int = 0
    min_improvement: float = 0.0
    split_significance: float = 40.0

    def __post_init__(self) -> None:
        for ok, rule in (
            (0.0 < self.learning_rate <= 1.0, "learning_rate must be in (0, 1]"),
            (self.max_rounds >= 1, "max_rounds must be at least 1"),
            (self.leaves >= 2, "leaves must be at least 2"),
            (self.patience >= 1, "patience must be at least 1"),
            (self.n_pairs >= 0, "n_pairs must be non-negative"),
            (self.min_improvement >= 0.0, "min_improvement must be non-negative"),
            (self.split_significance >= 0.0, "split_significance must be non-negative"),
        ):
            if not ok:
                raise ConfigError(rule)
        check_seed(self.seed)


class InteractionSurface:
    """Pairwise contribution grid: ``values[b_i, b_j]`` adds to the prediction.

    The grid is stored as its distinct values ``levels``, told apart by bit
    pattern so that ``-0.0`` and ``0.0`` stay distinct, and an ``index`` of
    one level per cell in the smallest unsigned dtype that holds
    ``len(levels) - 1``. ``values`` builds the dense grid on each read and
    returns it read-only.
    """

    def __init__(self, i: int, j: int, names: tuple[str, str], values) -> None:
        self.i, self.j, self.names = i, j, names
        grid = np.asarray(values, dtype=float)
        bits, index = np.unique(grid.ravel().view(np.int64), return_inverse=True)
        self.levels = bits.view(np.float64)
        self.index = index.astype(np.min_scalar_type(len(bits) - 1)).reshape(grid.shape)

    @property
    def values(self) -> np.ndarray:
        grid = self.levels[self.index]
        grid.flags.writeable = False
        return grid


@dataclass
class AdditiveModel:
    """Intercept + per-feature shape lookups + optional pairwise grids."""

    intercept: float
    link: str
    schema: FeatureSchema
    shapes: list[np.ndarray]
    surfaces: list[InteractionSurface] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.link not in (IDENTITY, LOGISTIC):
            raise ConfigError(f"unknown link {self.link!r}")
        if len(self.shapes) != self.schema.n_features:
            raise DataError("one shape per schema feature required")
        for j, h in enumerate(self.shapes):
            if len(h) != self.schema.n_bins(j):
                raise DataError(f"shape {j} has wrong number of bins")

    def decision(self, X: BinnedMatrix) -> np.ndarray:
        """Additive score before the link: intercept + shape and grid lookups."""
        if X.schema != self.schema:
            raise DataError("the matrix was binned under another schema than the model's")
        out = np.full(X.n_rows, self.intercept)
        for j, h in enumerate(self.shapes):
            out += h[X.column(j)]
        for s in self.surfaces:
            out += s.levels[s.index[X.column(s.i), X.column(s.j)]]
        return out

    def predict(self, X: BinnedMatrix) -> np.ndarray:
        z = self.decision(X)
        return sigmoid(z) if self.link == LOGISTIC else z

    def contribution(self, name: str) -> np.ndarray:
        """Copy of the shape values for one feature, missing bin last."""
        return self.shapes[self.schema.index(name)].copy()

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "link": self.link,
            "intercept": self.intercept,
            "schema": self.schema.to_json_dict(),
            "shapes": {name: np.asarray(h, float) for name, h in zip(self.schema.names, self.shapes)},
            "surfaces": [
                {"i": s.i, "j": s.j, "names": list(s.names), "values": s.values}
                for s in self.surfaces
            ],
            "metadata": self.metadata,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "AdditiveModel":
        schema = FeatureSchema.from_json_dict(d["schema"])
        shapes = [np.asarray(d["shapes"][name], float) for name in schema.names]
        surfaces = [
            InteractionSurface(s["i"], s["j"], tuple(s["names"]), s["values"]) for s in d["surfaces"]
        ]
        return cls(float(d["intercept"]), d["link"], schema, shapes, surfaces, dict(d["metadata"]))


def _best_cut(cg: np.ndarray, cd: np.ndarray, lo: int):
    """Best single cut of the segment starting at bin ``lo``, given its prefix
    sums of gradients ``cg`` and Hessians ``cd``: returns (gain, cut) or None.

    Gain is the squared-error reduction S_l^2/D_l + S_r^2/D_r - S^2/D. Cuts
    leaving at most ``_MIN_HESSIAN`` on a side are invalid; ties resolve to
    the lowest cut. Hessians are non-negative, so ``cd`` never decreases, the
    right-hand sums never increase, and the valid cuts form one contiguous
    run whose ends two binary searches find; it is empty when D is at most
    ``_MIN_HESSIAN``.
    """
    n = len(cg) - 1
    if n < 1:
        return None
    total_g = cg[-1]
    total_d = cd[-1]
    dl = cd[:-1]
    dr = total_d - dl
    start = int(dl.searchsorted(_MIN_HESSIAN, side="right"))
    stop = n - int(dr[::-1].searchsorted(_MIN_HESSIAN, side="right"))
    if start >= stop:
        return None
    gl = cg[start:stop]
    gains = gl * gl
    gains /= dl[start:stop]
    gr = total_g - gl
    gr *= gr
    gr /= dr[start:stop]
    gains += gr
    gains -= total_g**2 / total_d
    t = int(gains.argmax())
    return float(gains[t]), lo + start + t + 1


def _segment(g: np.ndarray, d: np.ndarray, lo: int, cd: np.ndarray | None = None):
    """A segment of bins from ``lo``: its gradient and Hessian sums per bin,
    their prefix sums and its best cut. ``cd`` passes the Hessian prefix
    sums when they are known."""
    cg = g.cumsum()
    if cd is None:
        cd = d.cumsum()
    return g, d, cg, cd, _best_cut(cg, cd, lo)


def _split(segment, lo: int, cut: int):
    """The two children of a segment from ``lo`` cut at ``cut``. Prefix sums
    are sequential, so the left child's are a prefix of its parent's."""
    g, d, cg, cd, _ = segment
    k = cut - lo
    return (g[:k], d[:k], cg[:k], cd[:k], _best_cut(cg[:k], cd[:k], lo)), _segment(g[k:], d[k:], cut)


def _best_of(segments):
    """Index and best cut of the segment whose best cut gains most, or (0,
    None); the first such segment wins ties."""
    best_at, best = 0, None
    for si, (*_, cand) in enumerate(segments):
        if cand is not None and (best is None or cand[0] > best[0]):
            best_at, best = si, cand
    return best_at, best


def _best_tree(
    sum_g: np.ndarray, denom: np.ndarray, max_leaves: int, min_gain: float = _MIN_GAIN
) -> list[int]:
    """Greedy partition of the bin axis into at most max_leaves segments.

    Returns segment boundaries [0, c_1, ..., B]; a result of [0, B] means no
    worthwhile split exists. Every accepted split must gain more than
    ``min_gain``. Each segment's best cut is found once.
    """
    bounds = [0, len(sum_g)]
    segments = [_segment(sum_g, denom, 0)]
    for _ in range(max_leaves - 1):
        best_at, best = _best_of(segments)
        if best is None or best[0] <= min_gain:
            break
        cut = best[1]
        bounds.insert(best_at + 1, cut)
        if len(bounds) > max_leaves:
            break
        segments[best_at : best_at + 1] = _split(segments[best_at], bounds[best_at], cut)
    return bounds


def _leaf_value(g: float, d: float, clip: float | None) -> float:
    """A leaf's step from its gradient and Hessian sums: g / d, clipped to
    +-``clip`` when given, and 0 where ``d`` is too small to divide by."""
    if d <= _MIN_HESSIAN:
        return 0.0
    return g / d if clip is None else min(max(g / d, -clip), clip)


def _split_rows(n_rows: int, validation) -> tuple[np.ndarray, np.ndarray | None]:
    all_rows = np.arange(n_rows)
    if validation is None:
        return all_rows, None
    valid_rows = np.asarray(validation, dtype=int)
    if len(valid_rows) and (valid_rows.min() < 0 or valid_rows.max() >= n_rows):
        raise DataError("validation row indices out of range")
    if len(np.unique(valid_rows)) != len(valid_rows):
        raise DataError("validation row indices repeat")
    mask = np.ones(n_rows, dtype=bool)
    mask[valid_rows] = False
    train_rows = all_rows[mask]
    if len(train_rows) == 0:
        raise TrainingError("validation rows cover the whole dataset; nothing left to train on")
    return train_rows, valid_rows


def _fit_rows(X: BinnedMatrix, targets, validation, logistic: bool):
    """A fit's checked targets, training and validation rows, and their codes
    as one contiguous ``intp`` row per feature."""
    y = check_targets(targets, X.n_rows, logistic)
    train_rows, valid_rows = _split_rows(X.n_rows, validation)
    Cv = None if valid_rows is None else X.take(valid_rows).codes.T.astype(np.intp)
    return y, train_rows, valid_rows, X.take(train_rows).codes.T.astype(np.intp), Cv


def _center_shapes(shapes: list[np.ndarray], counts: list[np.ndarray]) -> float:
    """Mean-center each shape over training bin masses; return intercept shift."""
    shift = 0.0
    for h, c in zip(shapes, counts):
        mass = c / c.sum()
        mu = float(mass @ h)
        h -= mu
        shift += mu
    return shift


def check_targets(targets, n_rows: int, logistic: bool) -> np.ndarray:
    """Targets as floats: one per row, finite, and 0 or 1 for a logistic fit."""
    y = np.asarray(targets, dtype=float)
    if len(y) != n_rows:
        raise DataError(f"{len(y)} targets for {n_rows} rows")
    if not np.all(np.isfinite(y)):
        raise DataError("targets contain non-finite values")
    if logistic and not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("classification targets must be 0 or 1")
    return y


class _Term(NamedTuple):
    """One lookup table of a model, flattened: a feature's shape or a pair's grid.

    ``update`` gets the visit's gradient and Hessian sums per cell, the Newton
    clip (None for squared error) and the entry gate: None once the term has
    had an update, else ``split_significance`` times the noise scale.
    """

    train: np.ndarray  # cell of each training row
    valid: np.ndarray | None  # cell of each validation row
    counts: np.ndarray  # training rows per cell
    update: Callable  # (sum_g, denom, clip, gate) -> clipped leaf values, or None


def _segment_update(leaves: int, sum_g, denom, clip, gate):
    """A feature's visit: leaf values of its segment tree, or None. Each split
    of an inactive feature's tree must gain more than ``gate``."""
    bounds = _best_tree(sum_g, denom, leaves, _MIN_GAIN if gate is None else max(_MIN_GAIN, gate))
    if len(bounds) == 2:
        return None
    vals = np.zeros(len(sum_g))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        vals[lo:hi] = _leaf_value(float(sum_g[lo:hi].sum()), float(denom[lo:hi].sum()), clip)
    return vals


def _hessian_margins(DN: np.ndarray):
    """Row and column sums of a pair's Hessian grid, their prefix sums, and its total."""
    rows, cols = DN.sum(axis=1), DN.sum(axis=0)
    return rows, rows.cumsum(), cols, cols.cumsum(), float(DN.sum())


def _rect_update(leaves: int, shape: tuple[int, int], sum_g, denom, clip, gate, margins=None):
    """A pair's visit: leaf values of its rectangle tree, flattened, or None.
    ``margins`` are :func:`_hessian_margins` of ``denom``, summed here unless
    given; a term whose ``denom`` never changes (the identity link's cell
    counts) sums them once."""
    SG, DN = sum_g.reshape(shape), denom.reshape(shape)
    margins = margins or _hessian_margins(DN)
    rects = _best_rect_tree(SG, DN, leaves, margins=margins)
    if len(rects) == 1:
        return None
    sums = [(float(SG[r0:r1, c0:c1].sum()), float(DN[r0:r1, c0:c1].sum())) for r0, r1, c0, c1 in rects]
    # A pure interaction is flat along each axis, so its first cut gains
    # nothing; entry is judged on the whole tree instead, one chi-square
    # budget per accepted split.
    if gate is not None and _rect_tree_gain(SG, sums, margins[4]) <= max(_MIN_GAIN, gate * (len(rects) - 1)):
        return None
    V = np.zeros(shape)
    for (r0, r1, c0, c1), (g, d) in zip(rects, sums):
        V[r0:r1, c0:c1] = _leaf_value(g, d, clip)
    return V.ravel()


def _boost(
    terms: list[_Term], y, F, train_rows, valid_rows, config: TrainConfig, logistic: bool, train_trace=None
):
    """Cyclic boosting of ``terms`` on the targets ``y`` from the decisions
    ``F`` of every row, of which ``train_rows`` train and ``valid_rows``
    validate (None without them).

    Returns the values of each term (those of the best round when validation
    improved), the rounds run, the best round and its validation loss (0 and
    inf otherwise), and the per-round validation losses. Each round's
    training loss is appended to ``train_trace`` unless it is None.
    """
    yt, F_train = y[train_rows], F[train_rows]
    yv = F_valid = None
    if valid_rows is not None:
        yv, F_valid = y[valid_rows], F[valid_rows]
    values = [np.zeros(len(t.counts)) for t in terms]
    active = [False] * len(terms)
    clip = _NEWTON_CLIP if logistic else None
    if not logistic:
        residual = yt - F_train
    valid_trace: list[float] = []
    best_loss = np.inf
    best_values = None
    best_round = 0
    stale = 0
    rounds_run = 0
    # Gradient, Hessian and noise scale of the current F_train; a visit that
    # finds no split leaves them valid, so they are recomputed only after an
    # update, and the noise scale only while some term is inactive.
    grad = hess = noise_scale = None
    for rnd in range(config.max_rounds):
        rounds_run = rnd + 1
        for k, term in enumerate(terms):
            n_cells = len(term.counts)
            if logistic:
                if grad is None:
                    prob = sigmoid(F_train)
                    grad = yt - prob
                    hess = prob * (1.0 - prob)
                sum_g = np.bincount(term.train, weights=grad, minlength=n_cells)
                denom = np.bincount(term.train, weights=hess, minlength=n_cells)
            else:
                sum_g = np.bincount(term.train, weights=residual, minlength=n_cells)
                denom = term.counts
            gate = None
            if not active[k]:
                if noise_scale is None:
                    if logistic:
                        noise_scale = float(grad @ grad) / max(float(hess.sum()), _MIN_HESSIAN)
                    else:
                        noise_scale = float(residual @ residual) / len(residual)
                gate = config.split_significance * noise_scale
            vals = term.update(sum_g, denom, clip, gate)
            if vals is None:
                continue
            active[k] = True
            vals *= config.learning_rate
            values[k] += vals
            step = vals.take(term.train)
            if logistic:
                F_train += step
            else:
                residual -= step
            grad = hess = noise_scale = None
            if F_valid is not None:
                F_valid += vals.take(term.valid)

        if train_trace is not None:
            train_trace.append(mean_nll(yt, F_train) if logistic else float(np.mean(residual**2)))
        if F_valid is None:
            continue
        loss = mean_nll(yv, F_valid) if logistic else float(np.mean((yv - F_valid) ** 2))
        valid_trace.append(loss)
        if loss < best_loss - config.min_improvement:
            best_loss = loss
            best_values = [v.copy() for v in values]
            best_round = rnd + 1
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    if best_values is not None:
        values = best_values
    return values, rounds_run, best_round, best_loss, valid_trace


def _train(X: BinnedMatrix, targets, config: TrainConfig, validation, link: str) -> AdditiveModel:
    logistic = link == LOGISTIC
    y, train_rows, valid_rows, Ct, Cv = _fit_rows(X, targets, validation, logistic)
    schema = X.schema
    yt = y[train_rows]
    metadata: dict = {"link": link, "n_train": len(train_rows)}
    if logistic:
        base = float(yt.mean())
        if base in (0.0, 1.0):
            raise TrainingError("classification targets contain a single class")
        intercept = float(np.log(base / (1.0 - base)))
    else:
        intercept = float(yt.mean())
        if np.ptp(yt) == 0.0:
            metadata["constant_target"] = True
            shapes = [np.zeros(schema.n_bins(j)) for j in range(schema.n_features)]
            return AdditiveModel(intercept, link, schema, shapes, [], metadata)

    update = partial(_segment_update, config.leaves)
    terms = []
    for j in range(schema.n_features):
        counts = np.bincount(Ct[j], minlength=schema.n_bins(j)).astype(float)
        terms.append(_Term(Ct[j], None if Cv is None else Cv[j], counts, update))
    train_trace: list[float] = []
    shapes, rounds_run, best_round, best_loss, valid_trace = _boost(
        terms, y, np.full(X.n_rows, intercept), train_rows, valid_rows, config, logistic, train_trace
    )

    if best_round:
        metadata.update(best_round=best_round, valid_loss=best_loss, valid_loss_trace=valid_trace)
    stopped_early = valid_rows is not None and rounds_run < config.max_rounds
    metadata.update(rounds_run=rounds_run, stopped_early=stopped_early, train_loss_trace=train_trace)

    intercept += _center_shapes(shapes, [t.counts for t in terms])
    return AdditiveModel(intercept, link, schema, shapes, [], metadata)


def train_regressor(
    X: BinnedMatrix, targets, config: TrainConfig | None = None, validation=None
) -> AdditiveModel:
    """Boosted additive regression (identity link, squared error).

    ``validation`` is an optional array of row indices held out for early
    stopping; the remaining rows train the model. Without it the fit runs
    for the full ``max_rounds``.
    """
    return _train(X, targets, config or TrainConfig(), validation, IDENTITY)


def train_classifier(
    X: BinnedMatrix, targets, config: TrainConfig | None = None, validation=None
) -> AdditiveModel:
    """Boosted additive classification (logistic link, Bernoulli likelihood).

    Targets must be 0/1. Each tree fits the gradient of the log-likelihood
    (observed minus predicted probability) with Newton leaf steps.
    """
    return _train(X, targets, config or TrainConfig(), validation, LOGISTIC)


@dataclass(frozen=True)
class PairScore:
    """Interaction screening result for one feature pair."""

    i: int
    j: int
    gain: float


_COARSE_CELLS = 16  # per axis of a screening grid


def _coarse_codes(X: BinnedMatrix) -> tuple[list[np.ndarray], list[int]]:
    """Each feature's codes, coarsened to at most ``_COARSE_CELLS`` bins, and
    its coarse bin count."""
    codes = []
    sizes = []
    for j in range(X.schema.n_features):
        nb = X.schema.n_bins(j)
        col = X.codes[:, j].astype(np.int64)
        if nb > _COARSE_CELLS:
            col = (col * _COARSE_CELLS) // nb
            nb = _COARSE_CELLS
        codes.append(col)
        sizes.append(nb)
    return codes, sizes


def rank_interaction_pairs(
    model: AdditiveModel, X: BinnedMatrix, targets, rows=None
) -> list[PairScore]:
    """Rank all feature pairs by residual structure on a coarse joint grid.

    For each pair, bins are coarsened to at most 16 cells per axis and the
    gain is the explained sum of squares of the per-cell mean model on the
    residuals of ``model``. Sorted descending; ties break on (i, j).
    """
    rows = np.arange(X.n_rows) if rows is None else np.asarray(rows, int)
    sub = X.take(rows)
    resid = np.asarray(targets, float)[rows] - model.predict(sub)
    codes, sizes = _coarse_codes(sub)
    total = float(resid.sum())
    n_total = len(rows)
    scores = []
    p = X.schema.n_features
    for i in range(p):
        for j in range(i + 1, p):
            cell = codes[i] * sizes[j] + codes[j]
            n_cells = sizes[i] * sizes[j]
            n = np.bincount(cell, minlength=n_cells)
            s = np.bincount(cell, weights=resid, minlength=n_cells)
            nz = n > 0
            gain = float(np.sum(s[nz] ** 2 / n[nz]) - total**2 / n_total)
            scores.append(PairScore(i, j, gain))
    return sorted(scores, key=lambda ps: (-ps.gain, ps.i, ps.j))


def _best_rect_tree(
    SG: np.ndarray, DN: np.ndarray, max_leaves: int, min_gain: float = _MIN_GAIN, margins=None
) -> list[tuple[int, int, int, int]]:
    """Greedy axis-aligned rectangle partition of the joint bin grid.

    Each rectangle keeps, for both axes, a segment (see :func:`_segment`) of
    its marginal sums: row sums for cuts between rows, column sums for cuts
    between columns. A split's children slice their parent's marginal along
    the split axis, whose sums cover the same cells and so have the same
    bits; only their marginals across it are summed again. ``margins`` are
    :func:`_hessian_margins` of ``DN``, summed here unless given.
    """
    rects = [(0, SG.shape[0], 0, SG.shape[1])]
    d_rows, cd_rows, d_cols, cd_cols, _ = margins or _hessian_margins(DN)
    # Rectangle ri's row segment is segments[2 * ri], its column segment the next.
    segments = [_segment(SG.sum(axis=1), d_rows, 0, cd_rows), _segment(SG.sum(axis=0), d_cols, 0, cd_cols)]
    for _ in range(max_leaves - 1):
        at, best = _best_of(segments)
        if best is None or best[0] <= min_gain:
            break
        ri, axis = divmod(at, 2)
        cut = best[1]
        r0, r1, c0, c1 = rects[ri]
        if axis == 0:
            children = [(r0, cut, c0, c1), (cut, r1, c0, c1)]
        else:
            children = [(r0, r1, c0, cut), (r0, r1, cut, c1)]
        rects[ri : ri + 1] = children
        if len(rects) == max_leaves:
            break
        halves = _split(segments[at], (r0, c0)[axis], cut)
        child_segments = []
        for (a0, a1, b0, b1), along in zip(children, halves):
            g, d = SG[a0:a1, b0:b1].sum(axis=axis), DN[a0:a1, b0:b1].sum(axis=axis)
            across = _segment(g, d, (b0, a0)[axis])
            child_segments += (along, across) if axis == 0 else (across, along)
        segments[2 * ri : 2 * ri + 2] = child_segments
    return rects


def _rect_tree_gain(SG: np.ndarray, sums, total_d: float) -> float:
    """Squared-error reduction of a rectangle partition over the root fit,
    given the (gradient, Hessian) sums of its rectangles and the grid's
    Hessian total."""
    total_g = float(SG.sum())
    if total_d <= _MIN_HESSIAN:
        return 0.0
    gain = -(total_g**2) / total_d
    for g, d in sums:
        if d > _MIN_HESSIAN:
            gain += g**2 / d
    return gain


def fit_interactions(
    model: AdditiveModel,
    X: BinnedMatrix,
    targets,
    pairs: list[tuple[int, int]],
    config: TrainConfig | None = None,
    validation=None,
) -> AdditiveModel:
    """Add boosted pairwise grids for exactly the feature ``pairs``, (i, j)
    with i < j; :func:`rank_interaction_pairs` screens them.

    Shapes stay frozen; only the pair grids are boosted, against the same
    loss the model was trained with. Returns a new model; the input model is
    untouched, and is returned itself when ``pairs`` is empty.
    """
    if not pairs:
        return model
    config = config or TrainConfig()
    schema = model.schema
    pairs = [(int(i), int(j)) for i, j in pairs]
    for i, j in pairs:
        if not 0 <= i < j < schema.n_features:
            raise ConfigError(f"bad feature pair ({i}, {j})")
    if len(set(pairs)) < len(pairs):
        raise ConfigError("a feature pair is given more than once")
    logistic = model.link == LOGISTIC
    y, train_rows, valid_rows, Ct, Cv = _fit_rows(X, targets, validation, logistic)
    terms = []
    for i, j in pairs:
        bi, bj = schema.n_bins(i), schema.n_bins(j)
        cell = Ct[i] * bj + Ct[j]
        counts = np.bincount(cell, minlength=bi * bj).astype(float)
        valid = None if Cv is None else Cv[i] * bj + Cv[j]
        margins = None if logistic else _hessian_margins(counts.reshape(bi, bj))
        terms.append(_Term(cell, valid, counts, partial(_rect_update, config.leaves, (bi, bj), margins=margins)))
    grids, rounds_run, best_round, best_loss, _ = _boost(
        terms, y, model.decision(X), train_rows, valid_rows, config, logistic
    )

    intercept = model.intercept
    surfaces = []
    for (i, j), term, grid in zip(pairs, terms, grids):
        shape = (schema.n_bins(i), schema.n_bins(j))
        mass = term.counts.reshape(shape)
        mass = mass / mass.sum()
        grid = grid.reshape(shape)
        mu = float(np.sum(mass * grid))
        intercept += mu
        surfaces.append(InteractionSurface(i, j, (schema.names[i], schema.names[j]), grid - mu))

    metadata = dict(model.metadata)
    metadata["interaction_pairs"] = [[i, j] for i, j in pairs]
    metadata["interaction_rounds_run"] = rounds_run
    if valid_rows is not None:
        metadata.update(interaction_best_round=best_round, interaction_valid_loss=best_loss)
    return AdditiveModel(
        intercept,
        model.link,
        schema,
        [h.copy() for h in model.shapes],
        list(model.surfaces) + surfaces,
        metadata,
    )
