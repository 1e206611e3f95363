"""Command-line interface: subcommands, artifacts, exit codes."""

import csv
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distillaudit as da
from distillaudit import cli
from distillaudit.data import dump_json
from distillaudit.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DEGENERATE,
    EXIT_TRAINING,
    main,
)


def run(argv):
    return main(argv)


# prints the sorted names of the loaded scipy modules: "[]" when there are none
PRINT_SCIPY_MODULES = (
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
)


def run_fresh(code):
    """Standard output of ``code`` run in a new interpreter that imports this package."""
    src = str(Path(da.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def write_kinked(tmp_path, rows=2500, seed=0):
    path = tmp_path / "kinked.csv"
    assert run(["gen-synthetic", "--kind", "kinked-score", "--rows", str(rows),
                "--seed", str(seed), "--out", str(path)]) == 0
    return path


def small_train_config(tmp_path, max_bins=16, **train):
    cfg = {"load": {"max_bins": max_bins},
           "train": {"learning_rate": 0.15, "max_rounds": 150, **train}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def without_values(data, name):
    """``data`` with every value of the numeric feature ``name`` missing."""
    columns = {**data.columns, name: np.full(data.n_rows, np.nan)}
    return da.AuditDataset(data.feature_names, data.feature_kinds, columns, data.score, data.outcome)


class TestGenSynthetic:
    def test_writes_loadable_csv_and_truth(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        truth_out = tmp_path / "truth.json"
        code = run(["gen-synthetic", "--kind", "linear-score", "--rows", "500",
                    "--out", str(out), "--truth-out", str(truth_out)])
        assert code == 0
        assert "wrote 500 rows" in capsys.readouterr().out
        data = da.load_csv(out)
        assert data.n_rows == 500
        assert data.meta["rejected_rows"] == 0
        truth = json.loads(truth_out.read_text())
        assert truth["weights"]["f00"] == 3.0

    def test_control_flag_breaks_hidden_link(self, tmp_path):
        hid = tmp_path / "hid.csv"
        ctl = tmp_path / "ctl.csv"
        run(["gen-synthetic", "--kind", "hidden-feature", "--rows", "400", "--out", str(hid)])
        run(["gen-synthetic", "--kind", "hidden-feature", "--rows", "400", "--control",
             "--out", str(ctl)])
        a = da.load_csv(hid)
        b = da.load_csv(ctl)
        np.testing.assert_array_equal(a.score, b.score)
        assert not np.array_equal(a.outcome, b.outcome)

    def test_control_flag_rejected_for_other_kinds(self, tmp_path, capsys):
        out = tmp_path / "lin.csv"
        code = run(["gen-synthetic", "--kind", "linear-score", "--control", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "error[generate]: --control" in capsys.readouterr().err
        assert not out.exists()

    def test_no_rows_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "none.csv"
        assert run(["gen-synthetic", "--kind", "interaction", "--rows", "0", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error[generate]: n_rows must be at least 1, got 0\n"
        assert not out.exists()

    def test_unknown_kind_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["gen-synthetic", "--kind", "no-such", "--out", str(tmp_path / "x.csv")])


class TestCalibrate:
    def test_kinked_scores_get_calibrated(self, tmp_path, capsys):
        data = write_kinked(tmp_path)
        out = tmp_path / "cal"
        assert run(["calibrate", "--data", str(data), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "calibration: calibrated" in stdout
        blob = json.loads((out / "calibration.json").read_text())
        assert blob["decision"]["applied"] is True
        assert blob["decision"]["mode"] == "auto"
        assert (out / "calibration_diagnostics.csv").exists()
        assert (out / "run_meta.json").exists()

    def test_logit_linear_scores_left_alone(self, tmp_path, capsys):
        data = tmp_path / "lin.csv"
        run(["gen-synthetic", "--kind", "linear-score", "--rows", "4000", "--out", str(data)])
        out = tmp_path / "cal"
        assert run(["calibrate", "--data", str(data), "--out", str(out)]) == 0
        assert "not calibrated" in capsys.readouterr().out
        blob = json.loads((out / "calibration.json").read_text())
        assert blob["decision"]["applied"] is False

    def test_forcing_off_on_kinked_scores_records_warning(self, tmp_path, capsys):
        data = write_kinked(tmp_path)
        out = tmp_path / "cal"
        assert run(["calibrate", "--data", str(data), "--calibration", "off",
                    "--out", str(out)]) == 0
        captured = capsys.readouterr()
        blob = json.loads((out / "calibration.json").read_text())
        assert blob["decision"]["applied"] is False
        assert "warning" in blob
        assert "warning" in captured.err.lower()

    def test_seed_is_a_usage_error(self, tmp_path, capsys):
        """calibrate draws nothing at random, so it takes no --seed."""
        data = write_kinked(tmp_path, rows=600)
        with pytest.raises(SystemExit) as exc:
            run(["calibrate", "--data", str(data), "--seed", "1", "--out", str(tmp_path / "cal")])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "cal").exists()


@pytest.fixture(scope="module")
def audit_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("audit")
    data = tmp_path / "data.csv"
    run(["gen-synthetic", "--kind", "partial-use", "--rows", "900",
         "--seed", "1", "--out", str(data)])
    cfg = small_train_config(tmp_path)
    out = tmp_path / "out"
    code = run(["audit", "--data", str(data), "--config", str(cfg),
                "--K", "2", "--L", "2", "--seed", "1", "--out", str(out)])
    return code, out


class TestAudit:

    def test_exit_zero_and_report_written(self, audit_run):
        code, out = audit_run
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["run"]["n_rows"] == 900
        names = {f["model"] for f in report["fidelity"]}
        assert names == {"additive", "linear"}
        assert "discrepancy_ranking" in report["comparison"]
        assert "verdict" in report["missing_feature_test"] or "skipped" in report["missing_feature_test"]

    def test_artifact_tree_complete(self, audit_run):
        _, out = audit_run
        report = json.loads((out / "report.json").read_text())
        for group in report["artifacts"].values():
            for rel in group:
                assert (out / rel).exists(), rel
        assert any((out / "models").glob("mimic_k*.json"))
        assert any((out / "models").glob("linear_mimic_k*.json"))
        assert any((out / "curves").glob("*.csv"))
        assert any((out / "plots").glob("*.svg"))

    def test_run_meta_records_every_stage(self, audit_run):
        _, out = audit_run
        stages = json.loads((out / "run_meta.json").read_text())["stages"]
        assert [s["name"] for s in stages] == [
            "startup", "config", "load", "calibrate",
            "train", "baseline", "compare", "missing-test", "report",
        ]
        for s in stages:
            assert list(s) == ["max_rss_mib", "name", "seconds"]
            assert s["seconds"] >= 0.0
        peaks = [s["max_rss_mib"] for s in stages]
        assert peaks[0] > 0.0 and peaks == sorted(peaks)

    def test_run_meta_duration_is_finish_minus_start(self, audit_run):
        _, out = audit_run
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["duration_seconds"] == meta["finished_unix"] - meta["started_unix"]

    def test_every_report_section_has_a_readme_row(self, audit_run):
        """README's "Audit outputs" table names each top-level key of
        report.json and each leaf under ``run``, with ``run.config.train`` as
        one row for the TrainConfig fields; no row names a key the report lacks."""
        _, out = audit_run
        report = json.loads((out / "report.json").read_text())
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Audit outputs\n", 1)[1].split("\n## ", 1)[0]
        rows = {line.split("`")[1] for line in section.splitlines() if line.startswith("| `")}

        def leaves(prefix, node):
            if prefix == "run.config.train" or not isinstance(node, dict):
                return {prefix}
            return set().union(*(leaves(f"{prefix}.{key}", value) for key, value in node.items()))

        assert set(report["run"]["config"]["train"]) == set(da.TrainConfig.__dataclass_fields__)
        assert rows == set(report) | leaves("run", report["run"])

    def test_curve_csv_parses(self, audit_run):
        _, out = audit_run
        path = sorted((out / "curves").glob("*.csv"))[0]
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {"bin", "mass", "mimic_mean", "outcome_mean", "diff_lower"} <= set(rows[0])
        float(rows[0]["mimic_mean"])

    def test_interactions_add_surface_artifacts(self, tmp_path):
        data = tmp_path / "inter.csv"
        run(["gen-synthetic", "--kind", "interaction", "--rows", "800",
             "--out", str(data)])
        cfg = small_train_config(tmp_path)
        out = tmp_path / "out"
        code = run(["audit", "--data", str(data), "--config", str(cfg), "--K", "2",
                    "--L", "2", "--pairs", "1", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        names = {f["model"] for f in report["fidelity"]}
        assert "additive_interactions" in names
        assert len(report["comparison"]["surfaces"]) == 1
        assert any("surface" in p for p in report["artifacts"]["plots"])

    def test_pairs_zero_overrides_the_config(self, tmp_path):
        data = tmp_path / "inter.csv"
        run(["gen-synthetic", "--kind", "interaction", "--rows", "800", "--out", str(data)])
        cfg = small_train_config(tmp_path, n_pairs=1)
        out = tmp_path / "out"
        assert run(["audit", "--data", str(data), "--config", str(cfg), "--K", "2",
                    "--L", "2", "--pairs", "0", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["run"]["config"]["train"]["n_pairs"] == 0
        assert report["comparison"]["surfaces"] == []
        assert not any("surface" in p for p in report["artifacts"]["plots"])

    def test_skipped_missing_test_is_printed(self, tmp_path, capsys):
        data, _ = da.gen_partial_use(n_rows=300, seed=3, n_features=4, n_used=2)
        outcome = np.where(np.random.default_rng(0).random(300) < 0.35, data.outcome, np.nan)
        path = tmp_path / "data.csv"
        da.AuditDataset(data.feature_names, data.feature_kinds, data.columns, data.score, outcome).to_csv(path)
        out = tmp_path / "out"
        assert run(["audit", "--data", str(path), "--K", "2", "--L", "2", "--out", str(out)]) == 0
        reason = "need at least 30 error pairs, got 21"
        assert f"missing-feature test: skipped ({reason})" in capsys.readouterr().out.splitlines()
        assert json.loads((out / "report.json").read_text())["missing_feature_test"]["skipped"] == reason
        assert (out / "error_pairs.csv").is_file()

    def test_repeat_run_is_byte_identical(self, tmp_path):
        data = tmp_path / "data.csv"
        run(["gen-synthetic", "--kind", "kinked-score", "--rows", "700", "--out", str(data)])
        cfg = small_train_config(tmp_path)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run(["audit", "--data", str(data), "--config", str(cfg), "--K", "2",
                        "--L", "2", "--seed", "3", "--out", str(out)]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]


def tree_bytes(root):
    """Every file under ``root`` but run_meta.json, by relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file() and p.name != "run_meta.json"
    }


class TestJobs:
    """``--jobs`` moves training and the post-training stages onto worker
    processes; it changes neither the bytes written nor the stage an error
    is reported from."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_jobs_do_not_change_output_bytes(self, tmp_path, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        data = tmp_path / "data.csv"
        run(["gen-synthetic", "--kind", "partial-use", "--rows", "700", "--seed", "4", "--out", str(data)])
        cfg = small_train_config(tmp_path)
        code = f"""
import multiprocessing
from distillaudit.cli import main
if __name__ == "__main__":
    multiprocessing.set_start_method({method!r}, force=True)
    for jobs in ("1", "2"):
        assert main(["audit", "--data", {str(data)!r}, "--config", {str(cfg)!r}, "--K", "2", "--L", "3",
                     "--seed", "4", "--jobs", jobs, "--out", {str(tmp_path)!r} + "/jobs" + jobs]) == 0
    print(multiprocessing.get_start_method())
"""
        assert run_fresh(code).splitlines()[-1] == method
        serial = tree_bytes(tmp_path / "jobs1")
        assert any(name.startswith("models/linear_") for name in serial)
        assert tree_bytes(tmp_path / "jobs2") == serial

    def test_pooled_pair_audit_pickles_no_schema(self, tmp_path, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the shared inputs only when forked")

        def refuse(self, protocol):
            raise AssertionError("a FeatureSchema was pickled")

        monkeypatch.setattr(da.FeatureSchema, "__reduce_ex__", refuse)
        data = tmp_path / "data.csv"
        run(["gen-synthetic", "--kind", "partial-use", "--rows", "400", "--out", str(data)])
        assert run(["audit", "--data", str(data), "--config", str(small_train_config(tmp_path, max_rounds=40)),
                    "--K", "2", "--L", "2", "--pairs", "1", "--jobs", "2", "--out", str(tmp_path / "out")]) == 0

    def test_baseline_error_keeps_its_stage_on_workers(self, tmp_path, monkeypatch, capsys):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched baseline only when forked")

        def failing_baseline(*args, **kwargs):
            raise da.TrainingError("logistic baseline did not converge")

        monkeypatch.setattr(cli, "train_linear_bags", failing_baseline)
        data = tmp_path / "data.csv"
        run(["gen-synthetic", "--kind", "partial-use", "--rows", "400", "--out", str(data)])
        code = run(["audit", "--data", str(data), "--config", str(small_train_config(tmp_path)),
                    "--K", "2", "--L", "2", "--jobs", "2", "--out", str(tmp_path / "out")])
        assert code == EXIT_TRAINING
        assert "error[baseline]: logistic baseline did not converge" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_degenerate_missing_test_is_skipped_on_workers(self, tmp_path):
        data = tmp_path / "data.csv"
        run(["gen-synthetic", "--kind", "partial-use", "--rows", "100", "--out", str(data)])
        out = tmp_path / "out"
        assert run(["audit", "--data", str(data), "--K", "2", "--L", "2", "--jobs", "2", "--out", str(out)]) == 0
        missing = json.loads((out / "report.json").read_text())["missing_feature_test"]
        assert missing["skipped"].startswith("need at least 30 error pairs")


    def test_categorical_and_constant_features(self, tmp_path):
        data, _ = da.gen_partial_use(n_rows=1500, seed=1, n_features=4, n_used=2)
        rng = np.random.default_rng(0)
        colour = rng.choice(np.array(["red", "green", "blue"], dtype=object), 1500)
        colour[rng.random(1500) < 0.05] = None
        table = da.AuditDataset(
            data.feature_names + ("colour", "const"), data.feature_kinds + ("categorical", "numeric"),
            {**data.columns, "colour": colour, "const": np.full(1500, 2.0)}, data.score, data.outcome,
        )
        path = tmp_path / "data.csv"
        table.to_csv(path)
        cfg = small_train_config(tmp_path)
        for jobs in ("1", "2"):
            assert run(["audit", "--data", str(path), "--config", str(cfg), "--K", "3", "--L", "2",
                        "--jobs", jobs, "--out", str(tmp_path / f"jobs{jobs}")]) == 0
        out = tmp_path / "jobs1"
        report = json.loads((out / "report.json").read_text())
        bins = {f["feature"]: f["bins"] for f in report["comparison"]["features"]}
        expected = {"colour": ["blue", "green", "red", "(missing)"], "const": ["(all)", "(missing)"]}
        for j, (name, labels) in enumerate(expected.items(), start=4):
            assert bins[name] == labels
            with open(out / "curves" / f"{j:02d}_{name}.csv", newline="") as fh:
                assert [row["bin"] for row in csv.DictReader(fh)] == labels
            assert f"plots/{j:02d}_{name}.svg" in report["artifacts"]["plots"]
        assert (out / "plots" / "04_colour.svg").is_file()
        assert tree_bytes(tmp_path / "jobs2") == tree_bytes(out)


class TestRunAudit:
    """The pipeline function behind ``audit``, called as library code."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matches_the_audit_subcommand(self, tmp_path, jobs):
        data = tmp_path / "data.csv"
        run(["gen-synthetic", "--kind", "kinked-score", "--rows", "700", "--seed", "2", "--out", str(data)])
        cfg = small_train_config(tmp_path, max_rounds=60)
        assert run(["audit", "--data", str(data), "--config", str(cfg), "--K", "2", "--L", "2", "--seed", "2",
                    "--pairs", "1", "--jobs", str(jobs), "--out", str(tmp_path / "cli")]) == 0

        load_cfg = da.LoadConfig(max_bins=16)
        train_cfg = da.TrainConfig(learning_rate=0.15, max_rounds=60, n_pairs=1, seed=2)
        result = cli.run_audit(da.load_csv(str(data), load_cfg), tmp_path / "lib", load_cfg, train_cfg,
                               K=2, L=2, jobs=jobs)
        assert not (tmp_path / "lib" / "run_meta.json").exists()
        assert tree_bytes(tmp_path / "lib") == tree_bytes(tmp_path / "cli")

        report = json.loads((tmp_path / "cli" / "report.json").read_text())
        dump_json(tmp_path / "returned.json", {
            "decision": result.decision,
            "fidelity": [fm.to_json_dict() for fm in result.fidelities],
            "missing_feature_test": result.missing,
        })
        returned = json.loads((tmp_path / "returned.json").read_text())
        assert returned["decision"] == report["calibration"]["decision"]
        assert returned["fidelity"] == report["fidelity"]
        assert returned["missing_feature_test"] == report["missing_feature_test"]
        assert returned["decision"]["applied"] is True
        assert [n for n, _ in result.summary.ranking] == [
            r["feature"] for r in report["comparison"]["discrepancy_ranking"]
        ]
        assert len(result.final.mimic.models[0][0].surfaces) == 1

    @pytest.mark.parametrize("K, n_pairs, match", [
        (1, 0, "K and L must both be at least 2"),
        (2, 11, "n_pairs=11 exceeds the 10 available pairs"),
    ])
    def test_run_shape_is_checked_before_any_file(self, tmp_path, K, n_pairs, match):
        load_cfg = da.LoadConfig(max_bins=8)
        data, _ = da.gen_interaction(n_rows=300, seed=0)
        with pytest.raises(da.ConfigError, match=match):
            cli.run_audit(data, tmp_path / "lib", load_cfg, da.TrainConfig(max_rounds=5, n_pairs=n_pairs), K=K, L=2)
        assert not (tmp_path / "lib").exists()

    def test_feature_with_no_value_is_checked_before_any_file(self, tmp_path):
        data = without_values(da.gen_partial_use(n_rows=600, seed=0)[0], "x00")
        with pytest.raises(da.DataError, match="feature 'x00' has zero non-missing values"):
            cli.run_audit(data, tmp_path / "lib", da.LoadConfig(max_bins=8), da.TrainConfig(max_rounds=5), K=2, L=2)
        assert not (tmp_path / "lib").exists()

    def test_jobs_below_one_is_a_config_error(self, tmp_path):
        load_cfg = da.LoadConfig(max_bins=8)
        data, _ = da.gen_partial_use(n_rows=300, seed=0)
        with pytest.raises(da.ConfigError, match="jobs must be at least 1"):
            cli.run_audit(data, tmp_path / "lib", load_cfg, da.TrainConfig(max_rounds=5), K=2, L=2, jobs=0)
        assert not (tmp_path / "lib").exists()


class TestExitCodes:
    def test_missing_data_file(self, tmp_path, capsys):
        code = run(["calibrate", "--data", str(tmp_path / "absent.csv"),
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "error[load]" in capsys.readouterr().err

    def test_bad_config_json(self, tmp_path, capsys):
        data = write_kinked(tmp_path, rows=600)
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code = run(["calibrate", "--data", str(data), "--config", str(cfg),
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "error[config]" in capsys.readouterr().err

    def test_config_is_a_directory(self, tmp_path, capsys):
        data = write_kinked(tmp_path, rows=600)
        code = run(["calibrate", "--data", str(data), "--config", str(tmp_path),
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "error[config]: cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["calibrate", "test-missing"])
    @pytest.mark.parametrize("bad", ["directory", "latin-1"])
    def test_unreadable_data_file(self, tmp_path, capsys, command, bad):
        path = tmp_path / "in"
        if bad == "directory":
            path.mkdir()
        else:
            path.write_bytes("fold,mimic_abs_error,outcome_abs_error,caf\xe9\n".encode("latin-1"))
        code = run([command, "--data", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error[load]: ")
        assert ("cannot read" if bad == "directory" else "is not UTF-8 text") in err

    def test_out_under_a_regular_file(self, tmp_path, capsys):
        data = write_kinked(tmp_path, rows=600)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run(["audit", "--data", str(data), "--K", "2", "--L", "2",
                    "--out", str(blocker / "o")])
        assert code == 1
        assert "error[calibrate]: [Errno" in capsys.readouterr().err

    def test_unknown_config_section(self, tmp_path, capsys):
        data = write_kinked(tmp_path, rows=600)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"loda": {"max_bins": 8}}))
        assert run(["calibrate", "--data", str(data), "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "error[config]: unknown config sections: ['loda']" in capsys.readouterr().err

    def test_config_section_not_an_object(self, tmp_path, capsys):
        data = write_kinked(tmp_path, rows=600)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"load": [8]}))
        assert run(["calibrate", "--data", str(data), "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "error[config]: config sections load and train must be JSON objects" in capsys.readouterr().err

    def test_seed_in_train_section(self, tmp_path, capsys):
        data = write_kinked(tmp_path, rows=600)
        cfg = small_train_config(tmp_path, seed=7)
        code = run(["audit", "--data", str(data), "--config", str(cfg), "--K", "2", "--L", "2",
                    "--seed", "0", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "error[config]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("load", "feature_types", ["x1"]),
        ("load", "max_bins", "64"),
        ("load", "max_bins", 64.5),
        ("load", "max_bins", 1),
        ("train", "learning_rate", "0.1"),
        ("load", "missing_markers", 5),
        ("load", "feature_columns", "x1"),
        ("train", "max_rounds", 2.5),
        ("train", "n_pairs", True),
        ("load", "delimiter", ";;"),
    ])
    def test_wrong_config_value(self, tmp_path, capsys, section, key, value):
        data = write_kinked(tmp_path, rows=600)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        code = run(["audit", "--data", str(data), "--config", str(cfg), "--K", "2", "--L", "2",
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error[config]: {key} must be ")
        assert not (tmp_path / "o").exists()

    def test_missing_score_column(self, tmp_path, capsys):
        path = tmp_path / "noscore.csv"
        path.write_text("a,outcome\n1,0\n2,1\n")
        code = run(["calibrate", "--data", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA

    def test_score_col_override_fixes_it(self, tmp_path):
        path = tmp_path / "renamed.csv"
        rows = ["points,outcome"] + [f"{300 + i},{i % 2}" for i in range(200)]
        path.write_text("\n".join(rows) + "\n")
        assert run(["calibrate", "--data", str(path), "--score-col", "points",
                    "--out", str(tmp_path / "o")]) == 0

    def test_too_few_error_pairs_is_degenerate(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        lines = ["fold,mimic_abs_error,outcome_abs_error"]
        lines += [f"0,{i / 10},{i / 7}" for i in range(10)]
        path.write_text("\n".join(lines) + "\n")
        code = run(["test-missing", "--data", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_DEGENERATE
        assert "error[missing-test]" in capsys.readouterr().err

    def test_audit_k_too_small(self, tmp_path, capsys):
        data = write_kinked(tmp_path, rows=600)
        code = run(["audit", "--data", str(data), "--K", "1", "--L", "2",
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("rows, flags, code, tag", [
        (600, ["--K", "1"], EXIT_CONFIG, "config"),
        (600, ["--L", "1"], EXIT_CONFIG, "config"),
        (600, ["--pairs", "11"], EXIT_CONFIG, "load"),
        (19, [], EXIT_DATA, "load"),
    ])
    def test_run_shape_stops_before_any_file(self, tmp_path, capsys, rows, flags, code, tag):
        data = tmp_path / "inter.csv"
        assert run(["gen-synthetic", "--kind", "interaction", "--rows", str(rows), "--out", str(data)]) == 0
        assert run(["audit", "--data", str(data), "--out", str(tmp_path / "o"), *flags]) == code
        assert capsys.readouterr().err.startswith(f"error[{tag}]: ")
        assert not (tmp_path / "o").exists()

    def test_feature_with_no_value_stops_before_any_file(self, tmp_path, capsys):
        data = tmp_path / "empty_x00.csv"
        without_values(da.gen_partial_use(n_rows=600, seed=0)[0], "x00").to_csv(data)
        assert run(["audit", "--data", str(data), "--K", "2", "--L", "2", "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert capsys.readouterr().err == "error[load]: feature 'x00' has zero non-missing values\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("header, load, flags, code, tag", [
        ("u0,u0,score,outcome", {}, [], EXIT_DATA, "load"),
        ("u0,u1,score,outcome", {"feature_columns": ["u0", "score"]}, [], EXIT_CONFIG, "config"),
        ("u0,u1,score,outcome", {}, ["--outcome-col", "score"], EXIT_CONFIG, "config"),
    ], ids=["repeated-header", "score-as-feature", "score-is-outcome"])
    def test_column_with_two_roles_stops_before_any_file(self, tmp_path, capsys, header, load, flags, code, tag):
        data = write_kinked(tmp_path, rows=600)
        lines = data.read_text().splitlines(keepends=True)
        assert lines[0] == "u0,u1,score,outcome\n"
        data.write_text(header + "\n" + "".join(lines[1:]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"load": load}))
        argv = ["audit", "--data", str(data), "--config", str(cfg), "--K", "2", "--L", "2", *flags]
        assert run([*argv, "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err.startswith(f"error[{tag}]: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_audit_jobs_below_one(self, tmp_path, capsys, jobs):
        data = write_kinked(tmp_path, rows=600)
        code = run(["audit", "--data", str(data), "--jobs", jobs, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "error[config]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, tag", [
        (["audit", "--data", "DATA", "--K", "2", "--L", "2"], "config"),
        (["test-missing", "--data", "DATA"], "config"),
        (["gen-synthetic", "--kind", "kinked-score", "--rows", "600"], "generate"),
    ], ids=["audit", "test-missing", "gen-synthetic"])
    def test_negative_seed_stops_before_any_file(self, tmp_path, capsys, argv, tag):
        data = str(write_kinked(tmp_path, rows=600))
        argv = [data if a == "DATA" else a for a in argv]
        assert run([*argv, "--seed", "-1", "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error[{tag}]: seed must be non-negative, got -1\n"
        assert not (tmp_path / "o").exists()

    def test_config_with_a_byte_order_mark_reads_like_its_plain_twin(self, tmp_path):
        text = json.dumps({"load": {"max_bins": 8}, "train": {"max_rounds": 3}})
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert cli._read_config_file(str(marked)) == cli._read_config_file(str(plain))

    def test_too_few_resamples(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        lines = ["fold,mimic_abs_error,outcome_abs_error"]
        lines += [f"0,{i / 10},{(i * 7) % 11 / 7}" for i in range(60)]
        path.write_text("\n".join(lines) + "\n")
        code = run(["test-missing", "--data", str(path), "--resamples", "50", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error[config]: resamples must be at least 100, got 50\n"
        assert not (tmp_path / "o").exists()


class TestTestMissing:
    def test_identical_columns_give_unit_estimates(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        rng = np.random.default_rng(0)
        e = rng.exponential(size=100)
        lines = ["fold,mimic_abs_error,outcome_abs_error"]
        lines += [f"0,{float(v)!r},{float(v)!r}" for v in e]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = run(["test-missing", "--data", str(path), "--resamples", "200",
                    "--out", str(out)])
        assert code == 0
        blob = json.loads((out / "missing_test.json").read_text())
        assert blob["pearson"]["estimate"] == pytest.approx(1.0)
        assert blob["verdict"] == "evidence"
        assert "verdict: evidence" in capsys.readouterr().out

    def test_audit_error_pairs_feed_back_in(self, tmp_path):
        data = tmp_path / "data.csv"
        run(["gen-synthetic", "--kind", "hidden-feature", "--rows", "800", "--out", str(data)])
        cfg = small_train_config(tmp_path)
        out = tmp_path / "audit"
        assert run(["audit", "--data", str(data), "--config", str(cfg), "--K", "2",
                    "--L", "2", "--out", str(out)]) == 0
        second = tmp_path / "retest"
        assert run(["test-missing", "--data", str(out / "error_pairs.csv"),
                    "--resamples", "200", "--out", str(second)]) == 0
        assert (second / "missing_test.json").exists()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert da.__version__ in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            run([])

    def test_cli_import_leaves_scipy_unloaded(self):
        code = f"import sys, distillaudit.cli; {PRINT_SCIPY_MODULES}"
        assert run_fresh(code) == "[]"

    def test_audit_and_missing_test_leave_scipy_unloaded(self, tmp_path):
        data = tmp_path / "data.csv"
        run(["gen-synthetic", "--kind", "hidden-feature", "--rows", "600", "--out", str(data)])
        cfg = small_train_config(tmp_path)
        out = tmp_path / "audit"
        code = f"""
import sys
from distillaudit.cli import main
assert main(["audit", "--data", {str(data)!r}, "--config", {str(cfg)!r}, "--K", "2", "--L", "2",
             "--out", {str(out)!r}]) == 0
assert main(["test-missing", "--data", {str(out / "error_pairs.csv")!r}, "--resamples", "200",
             "--out", {str(tmp_path / "retest")!r}]) == 0
{PRINT_SCIPY_MODULES}
"""
        assert run_fresh(code).splitlines()[-1] == "[]"

    def test_serial_audit_leaves_multiprocessing_unloaded(self, tmp_path):
        data = tmp_path / "data.csv"
        run(["gen-synthetic", "--kind", "partial-use", "--rows", "400", "--out", str(data)])
        code = f"""
import sys
from distillaudit.cli import main
print("multiprocessing" in sys.modules)
assert main(["audit", "--data", {str(data)!r}, "--config", {str(small_train_config(tmp_path))!r},
             "--K", "2", "--L", "2", "--jobs", "1", "--out", {str(tmp_path / "out")!r}]) == 0
print("multiprocessing" in sys.modules)
"""
        lines = run_fresh(code).splitlines()
        assert [lines[0], lines[-1]] == ["False", "False"]
