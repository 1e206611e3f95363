"""Report serialization and SVG rendering."""

import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import distillaudit as da
from distillaudit.data import dump_json
from distillaudit.report import (
    _safe_name,
    data_fingerprint,
    write_curve_csv,
)
from distillaudit.svg import MIMIC_COLOR, OUTCOME_COLOR, heatmap_chart, scatter_chart, shape_chart


@pytest.fixture
def json_text(tmp_path):
    """The text ``dump_json`` writes for an object."""

    def text(obj):
        path = tmp_path / "out.json"
        dump_json(path, obj)
        return path.read_text(encoding="utf-8")

    return text


class TestJsonText:
    def test_sorted_keys_and_trailing_newline(self, json_text):
        out = json_text({"b": 1, "a": 2})
        assert out.index('"a"') < out.index('"b"')
        assert out.endswith("\n")

    def test_numpy_scalars_unwrapped(self, json_text):
        blob = json.loads(json_text({"x": np.float64(1.5), "n": np.int32(3), "b": np.bool_(True)}))
        assert blob == {"x": 1.5, "n": 3, "b": True}

    def test_non_finite_values_become_null(self, json_text):
        blob = json.loads(json_text({"a": float("nan"), "b": np.inf, "c": [1.0, -np.inf], "d": [1e308, 1e308]}))
        assert blob == {"a": None, "b": None, "c": [1.0, None], "d": [1e308, 1e308]}

    def test_identical_input_identical_bytes(self, json_text):
        payload = {"z": [1, 2, {"k": 0.1}], "a": "text"}
        assert json_text(payload) == json_text(json.loads(json.dumps(payload)))


class TestFingerprint:
    def test_stable_and_sensitive(self):
        ds, _ = da.gen_linear_score(n_rows=200, seed=0, n_features=4)
        again, _ = da.gen_linear_score(n_rows=200, seed=0, n_features=4)
        assert data_fingerprint(ds) == data_fingerprint(again)
        bumped = da.AuditDataset.from_arrays(
            {n: ds.columns[n] for n in ds.feature_names},
            score=ds.score + 1e-9,
            outcome=ds.outcome,
        )
        assert data_fingerprint(ds) != data_fingerprint(bumped)


class TestNames:
    def test_safe_name_strips_awkward_characters(self):
        assert _safe_name(3, "age >= 40?") == "03_age____40_"
        assert _safe_name(0, "plain") == "00_plain"


def comparison(tmp_path):
    ds, _ = da.gen_kinked_score(n_rows=800, seed=0)
    plan = da.plan_bags(ds.n_rows, K=2, L=2, seed=0)
    schema = da.fit_schema(ds, max_bins=12)
    paired = da.train_paired(
        ds, plan=plan, config=da.TrainConfig(learning_rate=0.15, max_rounds=80, seed=0),
        schema=schema,
    )
    return da.summarize(paired)


class TestCurveCsv:
    def test_round_trips_floats_exactly(self, tmp_path):
        summary = comparison(tmp_path)
        fc = summary.features[0]
        path = tmp_path / "curve.csv"
        write_curve_csv(path, fc)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(fc.bin_labels)
        for t, row in enumerate(rows):
            assert float(row["mimic_mean"]) == fc.mimic.mean[t]
            assert float(row["diff_upper"]) == fc.diff.upper[t]
            assert row["significant"] in ("true", "false")


class TestSvg:
    def test_shape_chart_is_valid_xml_with_both_series(self, tmp_path):
        path = tmp_path / "chart.svg"
        bins = ["a", "b", "c"]
        mass = np.array([0.5, 0.3, 0.2])
        series = [
            ("mimic", MIMIC_COLOR, np.array([0.1, 0.2, 0.3]),
             np.array([0.0, 0.1, 0.2]), np.array([0.2, 0.3, 0.4])),
            ("outcome", OUTCOME_COLOR, np.array([0.1, 0.1, 0.1]),
             np.array([0.0, 0.0, 0.0]), np.array([0.2, 0.2, 0.2])),
        ]
        shape_chart(path, "demo", bins, mass, series)
        text = path.read_text()
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert MIMIC_COLOR in text and OUTCOME_COLOR in text
        assert "stroke-dasharray" in text

    def test_scatter_and_heatmap_parse(self, tmp_path):
        sp = tmp_path / "scatter.svg"
        scatter_chart(sp, "s", np.arange(10.0), np.arange(10.0) ** 2, "x", "y",
                      line=(1.0, 0.0))
        ET.fromstring(sp.read_text())
        hp = tmp_path / "heat.svg"
        heatmap_chart(hp, "h", np.arange(12.0).reshape(3, 4) - 5.0, "a", "b")
        ET.fromstring(hp.read_text())

    def test_coordinates_fixed_precision(self, tmp_path):
        path = tmp_path / "chart.svg"
        scatter_chart(path, "p", np.array([0.123456789]), np.array([0.987654321]), "x", "y")
        for token in ("cx", "cy"):
            seg = path.read_text().split(f'{token}="')[1].split('"')[0]
            assert len(seg.split(".")[-1]) <= 2
