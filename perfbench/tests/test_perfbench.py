"""The benchmark's own checks, at a smoke size of a few hundred rows.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SMOKE_ROWS = 400


def _audit(cwd: Path, args: list[str], traced_dir: str | None = None) -> None:
    head = [sys.executable, "-m", "distillaudit.cli"] if traced_dir is None else [
        sys.executable, str(BENCH / "spans.py"), traced_dir,
    ]
    subprocess.run([*head, "audit", *args], cwd=cwd, env=run.audit_env(), check=True, capture_output=True)


@pytest.fixture(scope="module")
def large_inputs(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("large")
    write_inputs(WORKLOADS["large-serial"], 3, d, rows=SMOKE_ROWS)
    return d


@pytest.fixture(scope="module")
def serial_report(large_inputs) -> bytes:
    _audit(large_inputs, WORKLOADS["large-serial"].audit_args(3, "serial"))
    return (large_inputs / "serial" / "report.json").read_bytes()


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_printed_with_unit(trace, capsys):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in declared[section]}
    code = run.main(["--workload", "large-jobs2", "--seed", "2", "--seconds", "1", "--trace", str(trace),
                     "--rows", str(SMOKE_ROWS)])
    out = capsys.readouterr().out
    assert code == 0
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    table = out.splitlines()[:-1]
    for name, unit in expected.items():
        assert any(line.split()[:2] == [name, unit] for line in table), name
    if not trace:
        assert any(line.split()[:3] == ["failed_frac", "ratio", "0"] for line in table)


def test_declared_metrics_match_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(layers.METRICS)
    declared_names = [w["name"] for w in declared["workloads"]]
    assert declared_names == [name for name in WORKLOADS if name in declared_names]


def test_gate_passes_identical_and_last_digit_drift(serial_report):
    ref = gate.signature(serial_report)
    assert gate.compare(ref, gate.signature(serial_report)) == []
    report = json.loads(serial_report)
    est = report["missing_feature_test"]["pearson"]["estimate"]
    report["missing_feature_test"]["pearson"]["estimate"] = est * (1 + 1e-14)
    drifted = gate.signature(json.dumps(report, indent=2, sort_keys=True).encode())
    assert gate.compare(ref, drifted) == []


def _tampered(raw: bytes, edit) -> dict:
    report = json.loads(raw)
    edit(report)
    return gate.signature(json.dumps(report, indent=2, sort_keys=True).encode())


def _change_verdict(r):
    test = r["missing_feature_test"]
    test["verdict"] = "none" if test["verdict"] == "evidence" else "evidence"


def _swap_ranking(r):
    rk = r["comparison"]["discrepancy_ranking"]
    rk[0], rk[-1] = rk[-1], rk[0]


def _flip_flag(r):
    flags = r["comparison"]["features"][0]["difference"]["significant"]
    flags[0] = not flags[0]


def _flip_calibration(r):
    decision = r["calibration"]["decision"]
    decision["applied"] = not decision["applied"]


def _drop_artifact(r):
    r["artifacts"]["plots"].pop()


def _nudge_curve(r):
    mean = r["comparison"]["features"][1]["mimic"]["mean"]
    mean[3] = mean[3] * (1 + 1e-6) + 1e-6


def _nudge_fidelity(r):
    r["fidelity"][0]["score_rmse"]["mean"] *= 1 + 1e-6


@pytest.mark.parametrize(
    "edit, expect",
    [
        (_change_verdict, "missing-feature verdict changed"),
        (_swap_ranking, "ranking order changed"),
        (_flip_flag, "significance flags changed"),
        (_flip_calibration, "calibration decision changed"),
        (_drop_artifact, "artifact list changed"),
        (_nudge_curve, "curve/grid floats in chunk"),
        (_nudge_fidelity, "float /fidelity/0/score_rmse/mean"),
    ],
)
def test_gate_fails_a_tampered_report(serial_report, edit, expect):
    problems = gate.compare(gate.signature(serial_report), _tampered(serial_report, edit))
    assert problems and any(expect in p for p in problems), problems


def test_data_path_is_normalised(serial_report):
    moved = serial_report.replace(b'"data": "input.csv"', b'"data": "elsewhere/input.csv"', 1)
    assert moved != serial_report
    assert gate.signature(moved)["sha256"] == gate.signature(serial_report)["sha256"]


def test_wrappers_restore_originals_and_keep_bytes(large_inputs, serial_report, monkeypatch):
    from distillaudit import cli, distill, missing

    modules = (cli, distill, missing)
    before = [dict(vars(m)) for m in modules]
    stage_at = cli._Stage.at
    monkeypatch.chdir(large_inputs)
    tracer = spans.Tracer(large_inputs / "trace-inproc").install()
    try:
        assert cli.load_csv is not before[0]["load_csv"]
        assert distill.train_regressor is not before[1]["train_regressor"]
        assert cli.main(["audit", *WORKLOADS["large-serial"].audit_args(3, "inproc")]) == 0
    finally:
        tracer.uninstall()
    for mod, snapshot in zip(modules, before):
        assert all(vars(mod)[k] is v for k, v in snapshot.items())
    assert cli._Stage.at is stage_at
    assert (large_inputs / "inproc" / "report.json").read_bytes() == serial_report
    names = {s[0] for s in tracer.spans}
    assert {"data.load_csv", "distill.train_paired", "gam.train_regressor", "missing.correlation_test"} <= names
    assert [m[0] for m in tracer.marks][:3] == ["config", "load", "calibrate"]


def test_traced_pool_run_records_worker_spans_and_matches_serial(large_inputs, serial_report):
    args = WORKLOADS["large-jobs2"].audit_args(3, "jobs2")
    _audit(large_inputs, args, traced_dir="trace-jobs2")
    assert (large_inputs / "jobs2" / "report.json").read_bytes() == serial_report
    record = spans.read_trace(large_inputs / "trace-jobs2")
    main_pid = {s[3] for s in record["spans"] if s[0] == "distill.train_paired"}
    fits = [s for s in record["spans"] if s[0] in ("gam.train_regressor", "gam.train_classifier")]
    assert len(fits) == 50 and not {s[3] for s in fits} & main_pid
    m = layers.layer_metrics(record, record["finished"] - record["started"], 1.0, 2, large_inputs / "jobs2")
    assert m["data.bin_dataset.calls"] == 3
    assert m["gam.rounds.mimic"] > 0 and m["gam.rounds.outcome"] > 0
    assert 0.0 < m["distill.pool_busy_frac"] <= 1.0
    assert m["report.files_written"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-serial", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
