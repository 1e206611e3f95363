"""Dataset ingestion, schema fitting, and binning.

The binning oracle is independent of the implementation: with interior cut
points e_1 < ... < e_m and half-open intervals [e_i, e_{i+1}), a value's bin
index equals the number of cut points less than or equal to it.
"""

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
