"""Audit dataset ingestion, feature schemas, and quantile binning.

The dataset model is deliberately small: named feature columns (numeric or
categorical), one real-valued score column, and one binary outcome column
that may be blank on individual rows (score-only rows, legal and used only
for mimic training). Every downstream model consumes the bin indices
produced here, so the binning rules are the contract that keeps the mimic
and outcome models comparable:

* numeric features are cut at quantile edges, at most ``max_bins`` value
  bins, half-open intervals ``[edge_i, edge_{i+1})`` with the outermost
  bins unbounded (out-of-range values clamp to them);
* categorical features get one bin per observed category;
* every feature reserves a dedicated trailing bin for missing values, and
  unseen categories map to it.

Schema fitting and binning are pure functions of their inputs; the
resulting objects are immutable and safe to share across threads.

The sections of a ``--config`` file fill :class:`LoadConfig` and
:class:`~distillaudit.gam.TrainConfig` through :meth:`JsonConfig.from_dict`,
the one check of their keys and value types.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from collections import Counter
from contextlib import contextmanager
from itertools import islice
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import AuditError, ConfigError, DataError

NUMERIC = "numeric"
CATEGORICAL = "categorical"

_DEFAULT_MISSING_MARKERS = ("", "na", "nan", "null", "none")


def _float_text(v: float) -> str:
    return float.__repr__(v) if math.isfinite(v) else "null"


def _scalar_text(v):
    """JSON text of a scalar, or None when ``v`` is a container."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _float_text(v)
    if isinstance(v, np.integer):
        return int.__repr__(int(v))
    if isinstance(v, np.floating):
        return _float_text(float(v))
    return None


def _array_texts(a: np.ndarray) -> list[str]:
    """Texts of a numeric array's items, flat in C order. Floats are formatted
    once per distinct bit pattern (so ``-0.0`` stays apart from ``0.0``):
    a pair grid holds a handful of distinct values among 16,641 cells."""
    if a.dtype.kind == "f":
        bits, inverse = np.unique(np.ascontiguousarray(a, np.float64).view(np.int64), return_inverse=True)
        texts = np.array([_float_text(v) for v in bits.view(np.float64).tolist()], dtype=object)
        return texts[inverse.ravel()].tolist()
    if a.dtype.kind == "b":
        return ["true" if v else "false" for v in a.ravel().tolist()]
    return list(map(int.__repr__, a.ravel().tolist()))


class _Formatted(list):
    """A flat list of scalars that carries its items' JSON texts."""

    def __init__(self, items: list, texts: list[str]) -> None:
        super().__init__(items)
        self.texts = texts


def preformat(obj):
    """``obj`` with each flat list of scalars formatted once, for
    :func:`dump_json` to write into many documents; to any other reader
    the lists are unchanged."""
    if isinstance(obj, dict):
        return {k: preformat(v) for k, v in obj.items()}
    if isinstance(obj, list):
        texts = list(map(_scalar_text, obj))
        return _Formatted(obj, texts) if None not in texts else [preformat(v) for v in obj]
    return obj


def _write_nested(write, texts: list[str], shape: tuple[int, ...], nl: str) -> None:
    """Write the flat ``texts`` as nested arrays of ``shape``, indented from ``nl``."""
    if not shape[0]:
        write("[]")
        return
    inner = nl + "  "
    if len(shape) == 1:
        write("[" + inner + ("," + inner).join(texts) + nl + "]")
        return
    step = len(texts) // shape[0]
    write("[")
    for r in range(shape[0]):
        write(("," + inner) if r else inner)
        _write_nested(write, texts[r * step : (r + 1) * step], shape[1:], inner)
    write(nl + "]")


def _write_json(write, obj, nl: str) -> None:
    """Write ``obj`` as indented JSON; ``nl`` is a newline plus the current indent."""
    text = _scalar_text(obj)
    if text is not None:
        write(text)
        return
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        items = {str(k): v for k, v in obj.items()}
        write("{")
        for n, key in enumerate(sorted(items)):
            write(("," if n else "") + inner + encode_basestring_ascii(key) + ": ")
            _write_json(write, items[key], inner)
        write(nl + "}")
    elif isinstance(obj, np.ndarray):
        if obj.ndim and obj.dtype.kind in "biuf":
            _write_nested(write, _array_texts(obj), obj.shape, nl)
        else:
            _write_json(write, obj.tolist(), nl)
    elif isinstance(obj, (list, tuple)):
        texts = obj.texts if isinstance(obj, _Formatted) else list(map(_scalar_text, obj))
        if None not in texts:
            _write_nested(write, texts, (len(texts),), nl)
            return
        write("[")
        for n, v in enumerate(obj):
            write(("," if n else "") + inner)
            _write_json(write, v, inner)
        write(nl + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_json(path: str | Path, obj) -> None:
    """Write byte-stable JSON: keys sorted, two-space indent, floats via
    ``float.__repr__``, non-finite floats as null, strings ASCII-escaped, and
    a trailing newline. The text is the one ``json.dump(..., sort_keys=True,
    indent=2)`` writes for the same data with numpy scalars unwrapped, NaN and
    infinity replaced by null and ndarrays as nested lists (``tolist``).

    The writer streams: it formats each flat run of numbers (a list of
    scalars or the last axis of an ndarray) in one join and writes it, so
    no document, such as the bag plan's row lists, exists as one string.
    ``json.dump`` with ``indent`` runs Python's pure-Python encoder, which
    took most of the time an audit spends saving its models.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_json(fh.write, obj, "\n")
        fh.write("\n")


def load_json(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@contextmanager
def open_text(path: str | Path, what: str, error: type[AuditError] = DataError):
    """``path`` opened as UTF-8 text for :mod:`csv` or :mod:`json`, a leading
    byte order mark skipped. A file that is missing, cannot be opened (a
    directory, say) or does not decode raises ``error`` naming it as ``what``."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError as exc:
        raise error(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{what} is not UTF-8 text: {path} ({exc.reason} at byte {exc.start})") from None


def _fits(value, hint) -> bool:
    """Whether a JSON value has a config field's type: any finite number for
    a float, an array for a tuple, and no ``true`` or ``false`` for a number."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return any(_fits(value, a) for a in args)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if isinstance(value, bool):
        return False
    if hint is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, origin or hint)


class JsonConfig:
    """A frozen dataclass that the ``section`` of a ``--config`` file fills."""

    @classmethod
    def from_dict(cls, d: dict):
        """The config of the JSON object ``d``, whose keys must name fields and
        hold their annotated types; a :class:`ConfigError` names a key that fails."""
        fields, hints = cls.__dataclass_fields__, get_type_hints(cls)
        for key, value in d.items():
            if key not in fields:
                raise ConfigError(f"unknown {cls.section} config key {key!r}")
            if not _fits(value, hints[key]):
                raise ConfigError(f"{key} must be of type {fields[key].type}, got {json.dumps(value, default=repr)}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


@dataclass(frozen=True)
class LoadConfig(JsonConfig):
    """How to read a delimited text file into an :class:`AuditDataset`, and how finely to bin it."""

    section = "load"

    score_column: str = "score"
    outcome_column: str = "outcome"
    delimiter: str = ","
    feature_types: dict[str, str] = field(default_factory=dict)
    feature_columns: tuple[str, ...] | None = None
    missing_markers: tuple[str, ...] = _DEFAULT_MISSING_MARKERS
    max_bins: int = 256

    def __post_init__(self) -> None:
        object.__setattr__(self, "missing_markers", tuple(m.lower() for m in self.missing_markers))
        for name, kind in self.feature_types.items():
            if kind not in (NUMERIC, CATEGORICAL):
                raise ConfigError(f"feature type for {name!r} must be numeric or categorical, got {kind!r}")
        _check_max_bins(self.max_bins)
        if len(self.delimiter) != 1 or self.delimiter in '"\r\n':
            raise ConfigError(f"delimiter must be one character, not a quote or a line break; got {self.delimiter!r}")
        if self.score_column == self.outcome_column:
            raise ConfigError(f"score_column and outcome_column are both {self.score_column!r}")
        if self.feature_columns is not None:
            if repeated := _repeated(self.feature_columns):
                raise ConfigError(f"feature_columns names a column more than once: {repeated}")
            if roles := sorted({self.score_column, self.outcome_column} & set(self.feature_columns)):
                raise ConfigError(f"feature_columns names the score or outcome column: {roles}")


def _check_max_bins(max_bins: int) -> None:
    if max_bins < 2:
        raise ConfigError("max_bins must be at least 2")


def check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


def _repeated(names) -> list[str]:
    """The names that occur more than once, sorted."""
    return sorted(n for n, count in Counter(names).items() if count > 1)


@dataclass
class AuditDataset:
    """Rows of features plus a score column and an optional binary outcome.

    ``outcome`` is float with NaN marking score-only rows. Numeric feature
    columns use NaN for missing values; categorical columns use None.
    """

    feature_names: tuple[str, ...]
    feature_kinds: tuple[str, ...]
    columns: dict[str, np.ndarray]
    score: np.ndarray
    outcome: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.score = np.asarray(self.score, dtype=float)
        self.outcome = np.asarray(self.outcome, dtype=float)
        t = len(self.score)
        if t < 1:
            raise DataError("dataset must contain at least one row")
        if len(self.outcome) != t:
            raise DataError("score and outcome lengths differ")
        if not np.all(np.isfinite(self.score)):
            raise DataError("score column contains non-finite values")
        present = ~np.isnan(self.outcome)
        if not np.all(np.isin(self.outcome[present], (0.0, 1.0))):
            raise DataError("non-binary outcome value")
        if len(self.feature_names) != len(self.feature_kinds):
            raise DataError("feature names and kinds differ in length")
        for name in self.feature_names:
            if name not in self.columns:
                raise DataError(f"missing feature column {name!r}")
            if len(self.columns[name]) != t:
                raise DataError(f"feature column {name!r} has wrong length")

    @property
    def n_rows(self) -> int:
        return len(self.score)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def has_outcome(self) -> np.ndarray:
        """Boolean mask of rows carrying a ground-truth outcome."""
        return ~np.isnan(self.outcome)

    @property
    def n_score_only(self) -> int:
        return int(np.sum(~self.has_outcome))

    @classmethod
    def from_arrays(
        cls,
        features: dict[str, np.ndarray],
        score: np.ndarray,
        outcome: np.ndarray,
        kinds: dict[str, str] | None = None,
    ) -> "AuditDataset":
        """Build a dataset from in-memory arrays, inferring kinds from dtype."""
        names = tuple(features)
        kinds = kinds or {}
        resolved = []
        columns = {}
        for name in names:
            col = np.asarray(features[name])
            kind = kinds.get(name)
            if kind is None:
                kind = NUMERIC if np.issubdtype(col.dtype, np.number) else CATEGORICAL
            if kind == NUMERIC:
                col = col.astype(float)
            else:
                col = np.array([None if v is None else str(v) for v in col], dtype=object)
            resolved.append(kind)
            columns[name] = col
        return cls(names, tuple(resolved), columns, np.asarray(score), np.asarray(outcome))

    def to_csv(self, path: str | Path) -> None:
        """Write the dataset as CSV with blank cells for missing values."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(self.feature_names) + ["score", "outcome"])
            cols = [self.columns[n] for n in self.feature_names]
            kinds = self.feature_kinds
            for t in range(self.n_rows):
                row = []
                for kind, col in zip(kinds, cols):
                    v = col[t]
                    if kind == NUMERIC:
                        row.append("" if np.isnan(v) else repr(float(v)))
                    else:
                        row.append("" if v is None else v)
                row.append(repr(float(self.score[t])))
                o = self.outcome[t]
                row.append("" if np.isnan(o) else str(int(o)))
                writer.writerow(row)


def _is_missing(cell: str, markers: tuple[str, ...]) -> bool:
    return cell.strip().lower() in markers


def _accepted_rows(reader, width: int, score_i: int, outcome_i: int, markers: tuple[str, ...]):
    """Yield ``(cells, score, outcome)`` for each row that ``load_csv`` keeps
    and None for each row it rejects: a row of the wrong width, or one whose
    score cell is missing, does not parse or is not finite. Blank lines yield
    nothing. A parseable outcome other than 0 or 1 raises."""
    for r in reader:
        if not r:
            continue
        try:
            s = math.nan if len(r) != width or _is_missing(r[score_i], markers) else float(r[score_i])
        except ValueError:
            s = math.nan
        if not math.isfinite(s):
            yield None
            continue
        o_cell = r[outcome_i]
        if _is_missing(o_cell, markers):
            o = math.nan
        else:
            try:
                o = float(o_cell)
            except ValueError:
                raise DataError(f"non-binary outcome value {o_cell!r}") from None
            if o not in (0.0, 1.0):
                raise DataError(f"non-binary outcome value {o_cell!r}")
        yield r, s, o


def load_csv(path: str | Path, config: LoadConfig | None = None) -> AuditDataset:
    """Read a delimited text file with a header row into an :class:`AuditDataset`.

    Rows whose score cell does not parse as a finite number are dropped and
    counted in ``meta["rejected_rows"]``. Rows with a blank outcome cell are
    retained and flagged score-only. A parseable but non-binary outcome is an
    error, as is a missing score or outcome column.

    Cells are parsed as the file is read, so memory grows with the final
    columns rather than with the text: score, outcome, numeric columns and
    undeclared columns that have parsed so far fill float64 storage, and only
    categorical columns keep their stripped text. An undeclared column turns
    categorical at its first cell that does not parse as a float; the text of
    its earlier rows is then read again from the file, for that column only.
    A declared numeric column with such a cell is an error, raised once the
    whole file has been read.
    """
    config = config or LoadConfig()
    with open_text(path, "data file") as fh:
        reader = csv.reader(fh, delimiter=config.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file") from None
        header = [h.strip() for h in header]
        if repeated := _repeated(header):
            raise DataError(f"header names a column more than once: {repeated}")

        if config.score_column not in header:
            raise DataError(f"missing score column {config.score_column!r}")
        if config.outcome_column not in header:
            raise DataError(f"missing outcome column {config.outcome_column!r}")
        if config.feature_columns is not None:
            missing = [c for c in config.feature_columns if c not in header]
            if missing:
                raise ConfigError(f"feature columns not in file: {missing}")
            feature_names = tuple(config.feature_columns)
        else:
            feature_names = tuple(
                h for h in header if h not in (config.score_column, config.outcome_column)
            )
        for name in config.feature_types:
            if name not in feature_names:
                raise ConfigError(f"type override for unknown feature {name!r}")

        col_idx = {h: i for i, h in enumerate(header)}
        markers = config.missing_markers
        layout = (len(header), col_idx[config.score_column], col_idx[config.outcome_column], markers)
        cells_at = [col_idx[name] for name in feature_names]
        declared = [config.feature_types.get(name) for name in feature_names]
        # Per feature: its storage, how a present cell is stored and what a missing one stores
        stores = [[] if kind == CATEGORICAL else array("d") for kind in declared]
        parsers = [str if kind == CATEGORICAL else float for kind in declared]
        blanks = [None if kind == CATEGORICAL else math.nan for kind in declared]
        flipped: dict[int, int] = {}  # undeclared feature -> rows accepted before it turned categorical
        unparsed: dict[int, str] = {}  # declared numeric feature -> its first cell that does not parse
        scores, outcomes = array("d"), array("d")
        rejected = 0
        for row in _accepted_rows(reader, *layout):
            if row is None:
                rejected += 1
                continue
            r, s, o = row
            scores.append(s)
            outcomes.append(o)
            for f, i in enumerate(cells_at):
                c = r[i].strip()
                if c.lower() in markers:
                    stores[f].append(blanks[f])
                    continue
                try:
                    stores[f].append(parsers[f](c))
                except ValueError:
                    if declared[f] is None:
                        flipped[f] = len(stores[f])
                        stores[f], parsers[f], blanks[f] = [c], str, None
                    else:
                        unparsed.setdefault(f, c)
                        stores[f].append(math.nan)

    if not scores:
        raise DataError("no usable rows (every row was rejected or the file had none)")
    if unparsed:
        f = min(unparsed)
        name, c = feature_names[f], unparsed[f]
        raise DataError(f"feature {name!r} declared numeric but value {c!r} does not parse")
    earlier = _leading_texts(path, config.delimiter, layout, {cells_at[f]: n for f, n in flipped.items()})
    kinds = tuple(CATEGORICAL if isinstance(store, list) else NUMERIC for store in stores)
    columns = {
        name: np.frombuffer(store) if kind == NUMERIC else np.array(earlier.get(i, []) + store, dtype=object)
        for name, kind, store, i in zip(feature_names, kinds, stores, cells_at)
    }
    ds = AuditDataset(feature_names, kinds, columns, np.frombuffer(scores), np.frombuffer(outcomes))
    ds.meta["rejected_rows"] = rejected
    ds.meta["source"] = str(path)
    return ds


def _leading_texts(path: str | Path, delimiter: str, layout: tuple, counts: dict[int, int]) -> dict[int, list]:
    """Stripped text, or None where missing, of the first ``counts[i]`` rows
    that ``load_csv`` accepts, for each file column ``i``."""
    texts: dict[int, list] = {i: [] for i in counts}
    if not any(counts.values()):
        return texts
    with open_text(path, "data file") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        next(reader)
        kept = (row[0] for row in _accepted_rows(reader, *layout) if row is not None)
        for n, r in enumerate(islice(kept, max(counts.values()))):
            for i, count in counts.items():
                if n < count:
                    texts[i].append(None if _is_missing(r[i], layout[-1]) else r[i].strip())
    return texts


@dataclass(frozen=True)
class FeatureSpec:
    """Binning rule for one feature.

    Numeric: ``edges`` are strictly increasing interior cut points; value
    bins are ``(-inf, e0), [e0, e1), ..., [e_last, inf)``. Categorical:
    ``categories`` is the sorted list of observed categories, one bin each.
    The last bin index is always the missing-value bin.
    """

    name: str
    kind: str
    edges: tuple[float, ...] | None = None
    categories: tuple[str, ...] | None = None

    @property
    def n_value_bins(self) -> int:
        if self.kind == NUMERIC:
            return len(self.edges) + 1
        return len(self.categories)

    @property
    def n_bins(self) -> int:
        return self.n_value_bins + 1

    @property
    def missing_bin(self) -> int:
        return self.n_value_bins

    def bin_labels(self) -> list[str]:
        """Human-readable label per bin, missing bin last."""
        if self.kind == CATEGORICAL:
            return list(self.categories) + ["(missing)"]
        e = self.edges
        if not e:
            labels = ["(all)"]
        else:
            labels = [f"<{e[0]:g}"]
            labels += [f"[{a:g},{b:g})" for a, b in zip(e[:-1], e[1:])]
            labels.append(f">={e[-1]:g}")
        return labels + ["(missing)"]


@dataclass(frozen=True)
class FeatureSchema:
    """Immutable per-feature binning rules shared by all models in a run."""

    specs: tuple[FeatureSpec, ...]
    max_bins: int

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    @property
    def n_features(self) -> int:
        return len(self.specs)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError as exc:
            raise DataError(f"feature {name!r} absent from schema") from exc

    def n_bins(self, feature: int) -> int:
        return self.specs[feature].n_bins

    def to_json_dict(self) -> dict:
        specs = []
        for s in self.specs:
            d: dict = {"name": s.name, "kind": s.kind}
            if s.kind == NUMERIC:
                d["edges"] = list(s.edges)
            else:
                d["categories"] = list(s.categories)
            specs.append(d)
        return {"format_version": 1, "max_bins": self.max_bins, "features": specs}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FeatureSchema":
        specs = []
        for s in d["features"]:
            if s["kind"] == NUMERIC:
                specs.append(FeatureSpec(s["name"], NUMERIC, edges=tuple(s["edges"])))
            else:
                specs.append(FeatureSpec(s["name"], CATEGORICAL, categories=tuple(s["categories"])))
        return cls(tuple(specs), int(d["max_bins"]))


def fit_schema(data: AuditDataset, max_bins: int = 256) -> FeatureSchema:
    """Fit quantile bin edges (numeric) and category lists (categorical).

    A pure function of ``data`` and ``max_bins``: repeated calls yield
    identical schemas. Features with fewer distinct values than ``max_bins``
    get one bin per distinct value.
    """
    _check_max_bins(max_bins)
    specs = []
    for name, kind in zip(data.feature_names, data.feature_kinds):
        col = data.columns[name]
        vals = col[~np.isnan(col)] if kind == NUMERIC else sorted({v for v in col if v is not None})
        if len(vals) == 0:
            raise DataError(f"feature {name!r} has zero non-missing values")
        if kind == NUMERIC:
            distinct = np.unique(vals)
            if len(distinct) <= max_bins:
                edges = distinct[1:]
            else:
                qs = np.arange(1, max_bins) / max_bins
                edges = np.unique(np.quantile(vals, qs))
                edges = edges[edges > distinct[0]]
            specs.append(FeatureSpec(name, NUMERIC, edges=tuple(float(e) for e in edges)))
        else:
            specs.append(FeatureSpec(name, CATEGORICAL, categories=tuple(vals)))
    return FeatureSchema(tuple(specs), max_bins)


@dataclass(frozen=True)
class BinnedMatrix:
    """T x p matrix of bin indices under a fixed schema, stored column by
    column as int32; every reader gathers rows with :meth:`take`."""

    codes: np.ndarray
    schema: FeatureSchema

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    def column(self, feature: int) -> np.ndarray:
        return self.codes[:, feature]

    def take(self, rows: np.ndarray) -> "BinnedMatrix":
        """The given rows, stored column by column."""
        return BinnedMatrix(self.codes.T.take(rows, axis=1).T, self.schema)

    def bin_mass(self, feature: int) -> np.ndarray:
        """Fraction of rows per bin."""
        counts = np.bincount(self.column(feature), minlength=self.schema.n_bins(feature)).astype(float)
        return counts / counts.sum()


def bin_dataset(data: AuditDataset, schema: FeatureSchema) -> BinnedMatrix:
    """Map every feature value to its bin index under ``schema``, into
    column-major int32 codes.

    Total on finite inputs: out-of-range numeric values clamp to the extreme
    bins, unseen categories and missing values map to the missing bin. A
    feature whose kind differs from its spec's is a :class:`DataError`.
    """
    if set(data.feature_names) != set(schema.names):
        extra = set(data.feature_names) - set(schema.names)
        if extra:
            raise DataError(f"features absent from schema: {sorted(extra)}")
        raise DataError(f"schema features absent from data: {sorted(set(schema.names) - set(data.feature_names))}")
    kinds = dict(zip(data.feature_names, data.feature_kinds))
    codes = np.zeros((data.n_rows, schema.n_features), dtype=np.int32, order="F")
    for j, spec in enumerate(schema.specs):
        col = data.columns[spec.name]
        if kinds[spec.name] != spec.kind:
            raise DataError(f"feature {spec.name!r} kind differs between data and schema")
        if spec.kind == NUMERIC:
            missing = np.isnan(col)
            c = np.searchsorted(np.asarray(spec.edges), col, side="right")
            c[missing] = spec.missing_bin
            codes[:, j] = c
        else:
            lookup = {cat: i for i, cat in enumerate(spec.categories)}
            mb = spec.missing_bin
            codes[:, j] = [mb if v is None else lookup.get(v, mb) for v in col]
    return BinnedMatrix(codes, schema)
