"""Dataset ingestion, schema fitting, and binning.

The binning oracle is independent of the implementation: with interior cut
points e_1 < ... < e_m and half-open intervals [e_i, e_{i+1}), a value's bin
index equals the number of cut points less than or equal to it.
"""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distillaudit as da
from distillaudit.data import CATEGORICAL, NUMERIC, dump_json, load_json


def bin_index_oracle(value: float, edges) -> int:
    return sum(1 for e in edges if value >= e)


def make_numeric_dataset(values, score=None, outcome=None, name="x"):
    values = np.asarray(values, dtype=float)
    n = len(values)
    score = np.zeros(n) if score is None else np.asarray(score, float)
    outcome = np.zeros(n) if outcome is None else np.asarray(outcome, float)
    return da.AuditDataset.from_arrays({name: values}, score, outcome)


class TestSchema:
    def test_few_distinct_values_get_one_bin_each(self):
        ds = make_numeric_dataset([1.0, 1.0, 2.0, 2.0])
        schema = da.fit_schema(ds, max_bins=256)
        spec = schema.specs[0]
        assert spec.edges == (2.0,)
        assert spec.n_value_bins == 2
        assert spec.n_bins == 3
        assert spec.missing_bin == 2

    def test_quantile_edges_when_distinct_exceed_max_bins(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=5000)
        ds = make_numeric_dataset(vals)
        schema = da.fit_schema(ds, max_bins=8)
        edges = np.asarray(schema.specs[0].edges)
        assert len(edges) <= 7
        assert np.all(np.diff(edges) > 0)
        assert np.all(edges > vals.min())
        expected = np.unique(np.quantile(vals, np.arange(1, 8) / 8))
        np.testing.assert_allclose(edges, expected[expected > vals.min()])

    def test_duplicate_quantiles_are_merged(self):
        vals = np.array([0.0] * 900 + [1.0] * 50 + [2.0] * 50)
        ds = make_numeric_dataset(vals)
        schema = da.fit_schema(ds, max_bins=256)
        assert schema.specs[0].edges == (1.0, 2.0)

    def test_heavy_mass_on_minimum_cannot_create_empty_first_bin(self):
        vals = np.concatenate([np.zeros(5000), np.linspace(0, 1, 5000)])
        ds = make_numeric_dataset(vals)
        schema = da.fit_schema(ds, max_bins=4)
        assert all(e > 0.0 for e in schema.specs[0].edges)

    def test_categorical_categories_sorted(self):
        col = np.array(["b", "a", "c", "a", None], dtype=object)
        ds = da.AuditDataset.from_arrays({"g": col}, np.zeros(5), np.zeros(5), kinds={"g": CATEGORICAL})
        schema = da.fit_schema(ds)
        spec = schema.specs[0]
        assert spec.categories == ("a", "b", "c")
        assert spec.missing_bin == 3

    def test_all_missing_feature_rejected(self):
        ds = make_numeric_dataset([np.nan, np.nan])
        with pytest.raises(da.DataError):
            da.fit_schema(ds)

    def test_max_bins_floor(self):
        ds = make_numeric_dataset([1.0, 2.0])
        with pytest.raises(da.ConfigError):
            da.fit_schema(ds, max_bins=1)

    def test_schema_is_pure_function_of_inputs(self):
        rng = np.random.default_rng(3)
        ds = make_numeric_dataset(rng.normal(size=1000))
        a = da.fit_schema(ds, max_bins=16).to_json_dict()
        b = da.fit_schema(ds, max_bins=16).to_json_dict()
        assert a == b

    def test_json_round_trip(self, tmp_path):
        ds = da.AuditDataset.from_arrays(
            {"x": np.arange(500, dtype=float), "g": np.array(["u", "v"] * 250, dtype=object)},
            np.zeros(500),
            np.zeros(500),
        )
        schema = da.fit_schema(ds, max_bins=10)
        path = tmp_path / "schema.json"
        dump_json(path, schema.to_json_dict())
        loaded = da.FeatureSchema.from_json_dict(load_json(path))
        assert loaded == schema


class TestBinning:
    def test_matches_count_oracle_on_every_edge_case(self):
        edges = (0.0, 1.5, 3.0)
        spec = da.FeatureSpec("x", NUMERIC, edges=edges)
        schema = da.FeatureSchema((spec,), max_bins=256)
        probes = [-10.0, -1e-9, 0.0, 1e-9, 1.4999, 1.5, 2.0, 3.0 - 1e-9, 3.0, 3.1, 100.0]
        ds = make_numeric_dataset(probes)
        X = da.bin_dataset(ds, schema)
        for v, got in zip(probes, X.column(0)):
            assert got == bin_index_oracle(v, edges), f"value {v}"

    def test_missing_goes_to_last_bin(self):
        ds = make_numeric_dataset([1.0, np.nan, 2.0])
        schema = da.fit_schema(ds)
        X = da.bin_dataset(ds, schema)
        assert X.column(0)[1] == schema.specs[0].missing_bin

    def test_unseen_category_goes_to_missing_bin(self):
        train = da.AuditDataset.from_arrays(
            {"g": np.array(["a", "b"], dtype=object)}, np.zeros(2), np.zeros(2)
        )
        schema = da.fit_schema(train)
        fresh = da.AuditDataset.from_arrays(
            {"g": np.array(["zzz", None, "a"], dtype=object)}, np.zeros(3), np.zeros(3)
        )
        X = da.bin_dataset(fresh, schema)
        mb = schema.specs[0].missing_bin
        assert list(X.column(0)) == [mb, mb, 0]

    def test_feature_set_mismatch_rejected(self):
        ds = make_numeric_dataset([1.0, 2.0])
        schema = da.fit_schema(ds)
        other = make_numeric_dataset([1.0, 2.0], name="y")
        with pytest.raises(da.DataError):
            da.bin_dataset(other, schema)

    def test_codes_and_taken_rows_are_column_major_int32(self):
        ds = da.gen_partial_use(n_rows=50, seed=0, n_features=3, n_used=1)[0]
        X = da.bin_dataset(ds, da.fit_schema(ds, max_bins=8))
        rows = np.array([7, 2, 2, 40], dtype=np.int32)
        for codes in (X.codes, X.take(rows).codes):
            assert codes.dtype == np.int32
            assert codes.flags.f_contiguous
        np.testing.assert_array_equal(X.take(rows).codes, X.codes[rows])

    def test_categorical_spec_over_numeric_column_rejected(self):
        spec = da.FeatureSpec("x", CATEGORICAL, categories=("a", "b"))
        schema = da.FeatureSchema((spec,), max_bins=256)
        with pytest.raises(da.DataError, match="kind differs"):
            da.bin_dataset(make_numeric_dataset([1.0, 2.0, 3.0]), schema)

    def test_bin_mass_sums_to_one(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=400)
        vals[:40] = np.nan
        ds = make_numeric_dataset(vals)
        schema = da.fit_schema(ds, max_bins=8)
        X = da.bin_dataset(ds, schema)
        mass = X.bin_mass(0)
        assert mass.shape == (schema.n_bins(0),)
        assert abs(mass.sum() - 1.0) < 1e-12
        assert abs(mass[-1] - 0.1) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=40, unique=True),
        st.lists(st.floats(-60, 60, allow_nan=False), min_size=1, max_size=30),
    )
    def test_property_bin_equals_edge_count(self, pool, probes):
        edges = tuple(sorted(pool))[1:]
        spec = da.FeatureSpec("x", NUMERIC, edges=edges)
        schema = da.FeatureSchema((spec,), max_bins=256)
        ds = make_numeric_dataset(probes)
        X = da.bin_dataset(ds, schema)
        for v, got in zip(probes, X.column(0)):
            assert got == bin_index_oracle(v, edges)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=5, max_size=200))
    def test_property_binning_monotone_in_value(self, values):
        ds = make_numeric_dataset(values)
        schema = da.fit_schema(ds, max_bins=6)
        X = da.bin_dataset(ds, schema)
        order = np.argsort(np.asarray(values))
        codes = X.column(0)[order]
        assert np.all(np.diff(codes) >= 0)


class TestLoader:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_basic_load_with_inference(self, tmp_path):
        path = self.write(tmp_path, "x,g,score,outcome\n1.5,a,10,1\n2.5,b,20,0\n,c,30,\n")
        ds = da.load_csv(path)
        assert ds.feature_names == ("x", "g")
        assert ds.feature_kinds == (NUMERIC, CATEGORICAL)
        assert np.isnan(ds.columns["x"][2])
        assert ds.n_score_only == 1
        assert ds.meta["rejected_rows"] == 0

    def test_unparseable_score_rows_dropped_and_counted(self, tmp_path):
        path = self.write(tmp_path, "x,score,outcome\n1,10,1\n2,oops,0\n3,,1\n4,40,0\n")
        ds = da.load_csv(path)
        assert ds.n_rows == 2
        assert ds.meta["rejected_rows"] == 2

    def test_non_binary_outcome_is_an_error(self, tmp_path):
        path = self.write(tmp_path, "x,score,outcome\n1,10,2\n")
        with pytest.raises(da.DataError, match="non-binary"):
            da.load_csv(path)

    def test_missing_score_column(self, tmp_path):
        path = self.write(tmp_path, "x,outcome\n1,1\n")
        with pytest.raises(da.DataError, match="score"):
            da.load_csv(path)

    def test_missing_outcome_column(self, tmp_path):
        path = self.write(tmp_path, "x,score\n1,10\n")
        with pytest.raises(da.DataError, match="outcome"):
            da.load_csv(path)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(da.DataError, match="empty"):
            da.load_csv(path)

    def test_file_not_found(self, tmp_path):
        with pytest.raises(da.DataError, match="not found"):
            da.load_csv(tmp_path / "nope.csv")

    def test_column_name_overrides(self, tmp_path):
        path = self.write(tmp_path, "x,points,label\n1,10,1\n2,20,0\n")
        cfg = da.LoadConfig(score_column="points", outcome_column="label")
        ds = da.load_csv(path, cfg)
        assert list(ds.score) == [10.0, 20.0]

    def test_type_override_forces_categorical(self, tmp_path):
        path = self.write(tmp_path, "x,score,outcome\n1,10,1\n2,20,0\n")
        cfg = da.LoadConfig(feature_types={"x": CATEGORICAL})
        ds = da.load_csv(path, cfg)
        assert ds.feature_kinds == (CATEGORICAL,)

    def test_declared_numeric_with_text_value_is_an_error(self, tmp_path):
        path = self.write(tmp_path, "x,score,outcome\nabc,10,1\n")
        cfg = da.LoadConfig(feature_types={"x": NUMERIC})
        with pytest.raises(da.DataError, match="numeric"):
            da.load_csv(path, cfg)

    def test_repeated_header_name_is_an_error(self, tmp_path):
        path = self.write(tmp_path, "x,x,score,outcome\n1,2,10,1\n3,4,20,0\n")
        with pytest.raises(da.DataError, match=r"more than once: \['x'\]"):
            da.load_csv(path)

    @pytest.mark.parametrize("fields, message", [
        ({"feature_columns": ("x", "score")}, r"score or outcome column: \['score'\]"),
        ({"feature_columns": ("outcome",)}, r"score or outcome column: \['outcome'\]"),
        ({"feature_columns": ("x", "y", "x")}, r"more than once: \['x'\]"),
        ({"outcome_column": "score"}, "both 'score'"),
    ], ids=["score-as-feature", "outcome-as-feature", "repeated-feature", "score-is-outcome"])
    def test_one_column_one_role(self, fields, message):
        with pytest.raises(da.ConfigError, match=message):
            da.LoadConfig(**fields)

    @pytest.mark.parametrize("delimiter", [";;", "", "\n", '"'], ids=["two", "none", "newline", "quote"])
    def test_delimiter_is_one_character_not_a_quote_or_line_break(self, delimiter):
        with pytest.raises(da.ConfigError, match="delimiter must be one character"):
            da.LoadConfig(delimiter=delimiter)

    def test_byte_order_mark_is_not_data(self, tmp_path):
        text = "score,x,outcome\n10,1.5,1\n20,2.5,0\n"
        plain = da.load_csv(self.write(tmp_path, text))
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
        marked = da.load_csv(tmp_path / "bom.csv")
        assert marked.feature_names == plain.feature_names == ("x",)
        np.testing.assert_array_equal(marked.score, plain.score)
        np.testing.assert_array_equal(marked.columns["x"], plain.columns["x"])

    def test_unknown_config_key_rejected(self):
        with pytest.raises(da.ConfigError, match="unknown"):
            da.LoadConfig.from_dict({"score_column": "s", "bogus": 1})

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=50)
        vals[3] = np.nan
        cats = np.array([None if i == 5 else f"c{i % 3}" for i in range(50)], dtype=object)
        outcome = (rng.random(50) < 0.5).astype(float)
        outcome[7] = np.nan
        ds = da.AuditDataset.from_arrays(
            {"x": vals, "g": cats}, rng.normal(size=50), outcome, kinds={"g": CATEGORICAL}
        )
        path = tmp_path / "round.csv"
        ds.to_csv(path)
        back = da.load_csv(path)
        assert back.feature_kinds == ds.feature_kinds
        np.testing.assert_allclose(back.score, ds.score)
        np.testing.assert_array_equal(np.isnan(back.outcome), np.isnan(ds.outcome))
        np.testing.assert_allclose(back.columns["x"], ds.columns["x"], equal_nan=True)
        assert list(back.columns["g"]) == list(ds.columns["g"])


class TestDatasetValidation:
    def test_non_finite_score_rejected(self):
        with pytest.raises(da.DataError):
            da.AuditDataset.from_arrays({"x": np.zeros(2)}, np.array([1.0, np.inf]), np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(da.DataError):
            da.AuditDataset.from_arrays({"x": np.zeros(3)}, np.zeros(2), np.zeros(2))

    def test_non_binary_outcome_rejected(self):
        with pytest.raises(da.DataError):
            da.AuditDataset.from_arrays({"x": np.zeros(2)}, np.zeros(2), np.array([0.0, 0.5]))


def _reference_is_missing(cell, markers):
    return cell.strip().lower() in markers


def reference_load_csv(path, config=None):
    """The former ``load_csv``: every accepted cell kept as a stripped string,
    each column typed only once the whole file has been read."""
    config = config or da.LoadConfig()
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError as exc:
        raise da.DataError(f"data file not found: {path}") from exc
    with fh:
        reader = csv.reader(fh, delimiter=config.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise da.DataError("empty file") from None
        header = [h.strip() for h in header]

        if config.score_column not in header:
            raise da.DataError(f"missing score column {config.score_column!r}")
        if config.outcome_column not in header:
            raise da.DataError(f"missing outcome column {config.outcome_column!r}")
        if config.feature_columns is not None:
            missing = [c for c in config.feature_columns if c not in header]
            if missing:
                raise da.ConfigError(f"feature columns not in file: {missing}")
            feature_names = tuple(config.feature_columns)
        else:
            feature_names = tuple(
                h for h in header if h not in (config.score_column, config.outcome_column)
            )
        for name in config.feature_types:
            if name not in feature_names:
                raise da.ConfigError(f"type override for unknown feature {name!r}")

        col_idx = {h: i for i, h in enumerate(header)}
        markers = config.missing_markers
        score_i = col_idx[config.score_column]
        outcome_i = col_idx[config.outcome_column]
        feature_cells = [(name, col_idx[name]) for name in feature_names]

        scores = []
        outcomes = []
        raw_features = {n: [] for n in feature_names}
        rejected = 0
        for r in reader:
            if not r:
                continue
            if len(r) != len(header):
                rejected += 1
                continue
            cell = r[score_i]
            if _reference_is_missing(cell, markers):
                rejected += 1
                continue
            try:
                s = float(cell)
            except ValueError:
                rejected += 1
                continue
            if not np.isfinite(s):
                rejected += 1
                continue
            o_cell = r[outcome_i]
            if _reference_is_missing(o_cell, markers):
                o = float("nan")
            else:
                try:
                    o = float(o_cell)
                except ValueError:
                    raise da.DataError(f"non-binary outcome value {o_cell!r}") from None
                if o not in (0.0, 1.0):
                    raise da.DataError(f"non-binary outcome value {o_cell!r}")
            scores.append(s)
            outcomes.append(o)
            for name, i in feature_cells:
                c = r[i]
                raw_features[name].append(None if _reference_is_missing(c, markers) else c.strip())

    if not scores:
        raise da.DataError("no usable rows (every row was rejected or the file had none)")

    columns = {}
    kinds = []
    for name in feature_names:
        cells = raw_features[name]
        kind = config.feature_types.get(name)
        if kind is None:
            kind = NUMERIC
            for c in cells:
                if c is None:
                    continue
                try:
                    float(c)
                except ValueError:
                    kind = CATEGORICAL
                    break
        if kind == NUMERIC:
            vals = np.full(len(cells), np.nan)
            for i, c in enumerate(cells):
                if c is None:
                    continue
                try:
                    vals[i] = float(c)
                except ValueError:
                    raise da.DataError(
                        f"feature {name!r} declared numeric but value {c!r} does not parse"
                    ) from None
            columns[name] = vals
        else:
            columns[name] = np.array(cells, dtype=object)
        kinds.append(kind)

    ds = da.AuditDataset(feature_names, tuple(kinds), columns, np.array(scores), np.array(outcomes))
    ds.meta["rejected_rows"] = rejected
    ds.meta["source"] = str(path)
    return ds


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64).tolist()


def load_outcome(load, path, config):
    """What ``load`` returns for a file, reduced to comparable parts: each
    float column by its bit patterns, each object column by its items and
    their types; or the type and message of what it raised."""
    try:
        ds = load(path, config)
    except Exception as exc:  # noqa: BLE001 - the oracle compares whatever is raised
        return ("raised", type(exc), str(exc))
    columns = {}
    for name, col in ds.columns.items():
        if col.dtype == object:
            columns[name] = ("object", [(type(v), v) for v in col.tolist()])
        else:
            columns[name] = (col.dtype.str, _bits(col))
    return (
        "loaded",
        ds.feature_names,
        ds.feature_kinds,
        columns,
        _bits(ds.score),
        _bits(ds.outcome),
        ds.score.dtype.str,
        ds.outcome.dtype.str,
        ds.meta,
    )


LOADER_CASES = {
    "late flips": (
        "x,y,z,score,outcome\n"
        "1,5,7,1,0\n"
        " 2 ,6,8,2,1\n"
        "1.50,7,9,3,\n"
        "A,8,10,4,1\n"
        "3,9,B,5,0\n",
        {},
    ),
    "flip after rejected rows": (
        "x,score,outcome\n"
        "1,oops,0\n"
        " 2 ,1,1\n"
        "3,,0\n"
        "1.50,2,1\n"
        "4,5\n"
        "A,3,0\n"
        " 5 ,4,1\n",
        {},
    ),
    "flip on the first accepted row": ("x,score,outcome\nA,1,0\n2,2,1\n,3,0\n", {}),
    "flip on the last row only": (
        "x,y,score,outcome\n" + "".join(f"{i}.5,{i},{i},0\n" for i in range(9)) + "9,last,9,1\n",
        {},
    ),
    "missing markers mixed case and padded": (
        "x,g,score,outcome\n"
        " NA ,a,1,0\n"
        "NaN, None ,2,1\n"
        "Null,NULL,3, na \n"
        " ,b,4,NONE\n"
        "2.5,,5,0\n"
        "7, c ,nan,1\n"
        "8,d, NULL ,0\n",
        {},
    ),
    "custom markers": (
        "x,y,score,outcome\n?,,1,0\n2,3,2,?\n,4,3,1\nna,5,?,0\n",
        {"missing_markers": ("?",)},
    ),
    "blank lines and short and long rows": (
        "x,score,outcome\n\n1,1,0\n2,2\n\n3,3,1,extra\n4,4,1\n\n",
        {},
    ),
    "blank unparseable and non-finite scores": (
        "x,score,outcome\n"
        "1,,0\n2,abc,1\n3,inf,0\n4,-inf,1\n5,1e999,0\n6, 7 ,1\n7,-0,0\n8,1_000,1\n9,0x10,0\n10,nan,1\n",
        {},
    ),
    "non-finite scores with nan not a marker": (
        "x,score,outcome\n1,nan,0\n2,NaN,1\n3,3,0\n",
        {"missing_markers": ("",)},
    ),
    "feature text that floats read": (
        "x,y,score,outcome\n1_000,inf,1,0\n +3 ,-Infinity,2,1\n1e999,nan,3,0\n-0,-0.0,4,1\n",
        {},
    ),
    "outcome forms": ("x,score,outcome\n1,1,1.0\n2,2,-0\n3,3, 0 \n4,4,1e0\n", {}),
    "declared numeric that does not parse": (
        "x,y,score,outcome\n1,2,1,0\nbad,3,2,1\n3,worse,3,0\n4,5,4,1\n",
        {"feature_types": {"x": NUMERIC, "y": NUMERIC}},
    ),
    "declared numeric failing in a later feature first": (
        "x,y,score,outcome\n1,oops,1,0\nlate,3,2,1\n",
        {"feature_types": {"x": NUMERIC, "y": NUMERIC}},
    ),
    "declared numeric failure then a bad outcome": (
        "x,score,outcome\nbad,1,0\n2,2,3\n",
        {"feature_types": {"x": NUMERIC}},
    ),
    "declared numeric failure on a rejected row only": (
        "x,score,outcome\nbad,,0\n2,2,1\n",
        {"feature_types": {"x": NUMERIC}},
    ),
    "declared categorical numbers": (
        "x,y,score,outcome\n1,1.50,1,0\n 2 ,2,2,1\n,NA,3,0\n1.0,-0,4,1\n",
        {"feature_types": {"x": CATEGORICAL, "y": CATEGORICAL}},
    ),
    "bad outcome": ("x,score,outcome\n1,1,0\n2,2,yes\n", {}),
    "outcome out of range": ("x,score,outcome\n1,1,0\n2,2,0.5\n", {}),
    "no usable rows": ("x,score,outcome\n1,,0\n2,bad,1\n\n", {}),
    "header only": ("x,score,outcome\n", {}),
    "empty file": ("", {}),
    "missing score column": ("x,outcome\n1,0\n", {}),
    "feature columns subset with semicolons": (
        "a;b;s;o\n1;x;1;0\n2;y;2;1\n",
        {"delimiter": ";", "score_column": "s", "outcome_column": "o", "feature_columns": ("b",)},
    ),
    "feature column not in file": ("x,score,outcome\n1,1,0\n", {"feature_columns": ("nope",)}),
    "type override for unknown feature": ("x,score,outcome\n1,1,0\n", {"feature_types": {"nope": NUMERIC}}),
    "quoted cells": ('x,g,score,outcome\n"1,5",a,1,0\n2,"b ""q""",2,1\n', {}),
}

_TOKENS = ["1", " 2 ", "1.50", "-0", "3e2", "A", " b ", "", " ", "NA", "nan", "None", "inf", "x1", "0.0", "7"]
_SCORES = ["1", "2.5", "", "oops", "inf", " 3 ", "-0", "NA"]
_OUTCOMES = ["0", "1", "", " 1 ", "1.0", "na"]


def random_loader_case(seed):
    """A seeded small table whose columns are mostly numbers, with a chance
    of text, markers and rejected rows at any row, and declared kinds."""
    rng = np.random.default_rng(seed)
    n_cols = int(rng.integers(1, 4))
    names = [f"f{j}" for j in range(n_cols)]
    lines = [",".join(names + ["score", "outcome"])]
    for _ in range(int(rng.integers(0, 12))):
        draw = rng.random()
        if draw < 0.05:
            lines.append("")
            continue
        cells = [_TOKENS[rng.integers(0, 5 if rng.random() < 0.8 else len(_TOKENS))] for _ in names]
        score_pool = 2 if rng.random() < 0.8 else len(_SCORES)
        cells.append(_SCORES[rng.integers(0, score_pool)])
        cells.append(_OUTCOMES[rng.integers(0, len(_OUTCOMES))])
        if draw > 0.95:
            cells.pop()
        lines.append(",".join(cells))
    kinds = {}
    for name in names:
        pick = rng.random()
        if pick < 0.2:
            kinds[name] = NUMERIC
        elif pick < 0.35:
            kinds[name] = CATEGORICAL
    return "\n".join(lines) + "\n", {"feature_types": kinds}


class TestLoaderOracle:
    """``load_csv`` against the former string-holding loader."""

    def check(self, tmp_path, text, config):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        cfg = da.LoadConfig(**config)
        got = load_outcome(da.load_csv, path, cfg)
        assert got == load_outcome(reference_load_csv, path, cfg)
        return got

    @pytest.mark.parametrize("name", list(LOADER_CASES))
    def test_case(self, tmp_path, name):
        self.check(tmp_path, *LOADER_CASES[name])

    def test_random_tables(self, tmp_path):
        outcomes = [self.check(tmp_path, *random_loader_case(seed))[0] for seed in range(300)]
        # the corpus reaches both sides
        assert 50 < outcomes.count("loaded") < 250

    def test_late_flip_keeps_the_earlier_text(self, tmp_path):
        got = self.check(tmp_path, *LOADER_CASES["late flips"])
        assert got[3]["x"] == ("object", [(str, "1"), (str, "2"), (str, "1.50"), (str, "A"), (str, "3")])
        assert got[2] == (CATEGORICAL, NUMERIC, CATEGORICAL)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.csv"
        got = load_outcome(da.load_csv, path, None)
        assert got == load_outcome(reference_load_csv, path, None)
        assert got[:2] == ("raised", da.DataError)

    def test_generated_table(self, tmp_path):
        ds, _ = da.gen_partial_use(n_rows=500, seed=4, n_features=4, n_used=2)
        ds.to_csv(tmp_path / "data.csv")
        path = tmp_path / "data.csv"
        assert load_outcome(da.load_csv, path, None) == load_outcome(reference_load_csv, path, None)


def test_load_csv_peak_memory_per_cell(tmp_path):
    """``load_csv`` holds float columns as it reads: its traced peak stays
    within 16 bytes per accepted cell, against about 77 for keeping every
    cell as a string first."""
    ds, _ = da.gen_partial_use(n_rows=6000, seed=2, n_features=8, n_used=4)
    path = tmp_path / "data.csv"
    ds.to_csv(path)
    tracemalloc.start()
    try:
        loaded = da.load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = loaded.n_rows * (loaded.n_features + 2)
    assert peak / cells < 16
