"""Report serialization and SVG rendering."""

import csv
import json
import math
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import distillaudit as da
from distillaudit import cli, distill, report, svg
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


_JSON_SCALARS = {int, str, bool, type(None)}


def reference_clean(obj):
    """The former ``data._clean``: numpy scalars unwrapped, NaN/inf to None."""
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {str(k): reference_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        if kinds <= _JSON_SCALARS or (kinds == {float} and math.isfinite(sum(obj))):
            return obj
        return [reference_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return reference_clean(obj.tolist())
    if isinstance(obj, np.floating):
        return reference_clean(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def reference_dump(path, obj):
    """The former ``dump_json``: ``reference_clean`` then ``json.dump``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(reference_clean(obj), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, -1e-310, 1e16, 1e-7, 0.1, 1 / 3, 1e308,
                  float("nan"), float("inf"), float("-inf")]
RNG = np.random.default_rng(4)

WRITER_CORPUS = {
    "float scalars": {f"v{i:02d}": v for i, v in enumerate(SPECIAL_FLOATS)},
    "top-level nan": float("nan"),
    "top-level -0.0": np.float64(-0.0),
    "top-level string": "text",
    "top-level none": None,
    "float list": SPECIAL_FLOATS,
    "finite float list": [0.5, -0.0, 1e16, 5e-324],
    "overflowing sum": [1e308, 1e308],
    "float array": np.array(SPECIAL_FLOATS),
    "float grid": np.array(SPECIAL_FLOATS[:12]).reshape(3, 4),
    "float32 array": np.array([0.1, -0.0, 1e-40, np.nan, np.inf], np.float32),
    "non-contiguous grid": RNG.normal(size=(5, 4)).round(1).T,
    "3-d array": np.arange(24.0).reshape(2, 3, 4) - 7.5,
    "random grid": RNG.normal(size=(129, 129)),
    "few-valued grid": RNG.integers(-3, 4, size=(129, 129)) * 0.1,
    "numpy scalars": [np.float64(0.1), np.float32(0.1), np.float16(-0.0), np.int64(-3), np.int8(7),
                      np.uint64(2**64 - 1), np.bool_(True), np.bool_(False), np.float64(np.nan)],
    "int arrays": {"i64": np.arange(-3, 9).reshape(3, 4), "u8": np.arange(5, dtype=np.uint8), "big": 10**30},
    "bool array": np.array([[True, False], [False, True]]),
    "0-d arrays": [np.array(2.5), np.array(np.nan), np.array(3), np.array(True)],
    "object and string arrays": [np.array(["a", None, 1.5], dtype=object), np.array(["x", "y"])],
    "tuples": (1, 2.5, "x", (3, (4.0,)), [np.arange(2)]),
    "mixed list": [1, "a", None, True],
    "empties": {"d": {}, "l": [], "t": (), "a0": np.zeros(0), "a20": np.zeros((2, 0)), "a03": np.zeros((0, 3))},
    "empty dict": {},
    "empty list": [],
    "strings": {"é": "naïve ☃ 𝄞", "ctl": "tab\there\nnew\x00\x1f\x7f \"quote\" back\\slash"},
    "odd keys": {3: "int key", 2.5: "float key", None: "none key", "b": 1, "a": [{"z": 1, "y": [[]]}]},
    "lists of containers": [[1.5, [2, {"k": np.ones(2)}]], {"x": [None]}, np.eye(2)],
}


class TestWriterOracle:
    """``dump_json`` writes exactly what ``reference_dump`` wrote."""

    @pytest.mark.parametrize("name", list(WRITER_CORPUS))
    def test_corpus(self, tmp_path, name):
        obj = WRITER_CORPUS[name]
        dump_json(tmp_path / "got.json", obj)
        reference_dump(tmp_path / "want.json", obj)
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            dump_json(tmp_path / "x.json", {"a": object()})

    def test_every_audit_file(self, tmp_path, monkeypatch):
        """Each JSON file and pair heatmap of a small audit with one pair,
        checked against the reference writers on the same objects."""
        checked = []

        def checked_dump(path, obj):
            dump_json(path, obj)
            reference_dump(tmp_path / "want.json", obj)
            assert Path(path).read_bytes() == (tmp_path / "want.json").read_bytes(), path
            checked.append(Path(path))

        def checked_heatmap(path, *args):
            heatmap_chart(path, *args)
            reference_heatmap_chart(tmp_path / "want.svg", *args)
            assert Path(path).read_bytes() == (tmp_path / "want.svg").read_bytes(), path
            checked.append(Path(path))

        for module in (cli, distill, report):
            monkeypatch.setattr(module, "dump_json", checked_dump)
        monkeypatch.setattr(svg, "heatmap_chart", checked_heatmap)
        data = tmp_path / "inter.csv"
        assert cli.main(["gen-synthetic", "--kind", "interaction", "--rows", "600", "--out", str(data)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"load": {"max_bins": 32}, "train": {"learning_rate": 0.15, "max_rounds": 60}}))
        out = tmp_path / "out"
        code = cli.main(["audit", "--data", str(data), "--config", str(cfg), "--K", "2", "--L", "2",
                         "--pairs", "1", "--out", str(out)])
        assert code == 0
        written = {p for p in out.rglob("*") if p.is_file()}
        expected = {p for p in written if p.suffix == ".json" or p.name.startswith("surface_")}
        assert sorted(checked) == sorted(expected)
        assert sum(p.name.startswith("surface_") for p in checked) == 3


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

    def test_numeric_tables_keep_their_fingerprint(self):
        # the benchmark's stored references record fingerprints of numeric tables
        ds = da.AuditDataset(("x",), ("numeric",), {"x": np.array([0.5, np.nan])}, np.array([1.0, 2.0]),
                             np.array([0.0, np.nan]))
        assert data_fingerprint(ds) == "38c3f666a7c005f808e4b4c620a1ad87e696dd139fd65dbf8cbdff8c06b74a9c"

    @pytest.mark.parametrize("left, right", [
        (["a\x1fb", "c"], ["a", "b\x1fc"]),
        ([None, "x"], ["\x00", "x"]),
        (["ab", "c"], ["a", "bc"]),
    ])
    def test_categorical_values_do_not_run_together(self, left, right):
        def table(values):
            return da.AuditDataset(("colour",), ("categorical",), {"colour": np.array(values, dtype=object)},
                                   np.zeros(2), np.zeros(2))

        assert data_fingerprint(table(left)) != data_fingerprint(table(right))


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


def reference_heatmap_chart(path, title, grid, x_name, y_name):
    """The former nested-loop ``heatmap_chart``."""
    grid = np.asarray(grid, float)
    rows, cols = grid.shape
    scale = float(np.max(np.abs(grid))) or 1.0
    canvas = svg._Canvas(0.0, float(cols), 0.0, float(rows))
    cell_w = (svg.WIDTH - svg.MARGIN_LEFT - svg.MARGIN_RIGHT) / cols
    cell_h = (svg.HEIGHT - svg.MARGIN_TOP - svg.MARGIN_BOTTOM) / rows
    for r in range(rows):
        for c in range(cols):
            v = grid[r, c] / scale
            if v >= 0:
                red, green, blue = 255, int(round(255 * (1 - v))), int(round(255 * (1 - v)))
            else:
                red, green, blue = int(round(255 * (1 + v))), int(round(255 * (1 + v))), 255
            fill = f"#{red:02x}{green:02x}{blue:02x}"
            canvas.rect(svg.MARGIN_LEFT + c * cell_w, svg.HEIGHT - svg.MARGIN_BOTTOM - (r + 1) * cell_h,
                        cell_w, cell_h, fill)
    canvas.frame(title, x_name, y_name)
    canvas.text(svg.WIDTH - svg.MARGIN_RIGHT, svg.MARGIN_TOP - 16, f"|max| = {scale:.4f}", anchor="end")
    svg._write(path, canvas.render())


def _half_shades():
    """Cells whose shade 255 * (1 - |v|) lands exactly on .5, against a 1.0 cell."""
    halves = [1.0]
    for k in range(255):
        v = 1 - (k + 0.5) / 255
        if 255 * (1 - v) == k + 0.5:
            halves += [v, -v]
    return np.array(halves)


HEATMAP_GRIDS = {
    "zeros": np.zeros((4, 5)),
    "negative zeros": np.full((3, 2), -0.0),
    "one cell": np.array([[0.7]]),
    "one negative cell": np.array([[-2.0]]),
    "signed zeros": np.array([[-0.0, 0.0, 1.0], [0.5, -0.0, -0.25]]),
    "half shades": _half_shades().reshape(1, -1),
    "random 129 x 129": np.random.default_rng(9).normal(size=(129, 129)),
    "random 257 x 40": np.random.default_rng(10).normal(size=(257, 40)),
}


class TestHeatmapOracle:
    @pytest.mark.parametrize("name", list(HEATMAP_GRIDS))
    def test_bytes_equal(self, tmp_path, name):
        args = ("pair a x b (diff)", HEATMAP_GRIDS[name], "b", "a")
        heatmap_chart(tmp_path / "got.svg", *args)
        reference_heatmap_chart(tmp_path / "want.svg", *args)
        assert (tmp_path / "got.svg").read_bytes() == (tmp_path / "want.svg").read_bytes()

    def test_half_shades_present(self):
        v = HEATMAP_GRIDS["half shades"]
        shade = 255 * (1 - np.abs(v))
        assert np.count_nonzero(shade % 1 == 0.5) >= 10

    def test_traced_peak_well_below_the_document(self, tmp_path):
        """Rows are written as they are formatted: a 257 x 257 heatmap's traced
        peak stays under a twentieth of its file, where a document of 66,049 rect
        strings held at once took about four times the file."""
        grid = np.random.default_rng(3).normal(size=(257, 257))
        path = tmp_path / "big.svg"
        tracemalloc.start()
        try:
            heatmap_chart(path, "pair a x b (diff)", grid, "b", "a")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 20

    def test_non_finite_grid_rejected(self, tmp_path):
        grid = np.array([[0.5, np.nan]])
        with pytest.raises(ValueError):
            reference_heatmap_chart(tmp_path / "want.svg", "t", grid, "b", "a")
        with pytest.raises(ValueError):
            heatmap_chart(tmp_path / "got.svg", "t", grid, "b", "a")
