"""The files an audit writes: curve CSVs, plots, serialized models, and
``report.json``, whose sections :func:`distillaudit.cli.run_audit` assembles
next to the values they hold.

A run directory is evidence: every number in ``report.json`` traces back to
a serialized model under ``models/`` plus the input data, and the JSON is
byte-stable: keys sorted, floats via Python's repr, no timestamps (wall
clock facts live in ``run_meta.json``, which is excluded from determinism
guarantees).

Every JSON file is written by ``data.dump_json``, a streaming writer that
takes ndarrays as they are, formats each run of numbers in one join and
each distinct float once, and writes the bytes ``json.dump(...,
sort_keys=True, indent=2)`` would. Models and the comparison hand it their
arrays without copying them into lists. The pair heatmaps compute their
shades with numpy and format each row and column coordinate once.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

from . import svg
from .calibrate import CalibrationDiagnostics
from .compare import ComparisonSummary, FeatureComparison
from .data import AuditDataset, dump_json
from .distill import PairedEnsembles


def data_fingerprint(data: AuditDataset) -> str:
    """SHA-256 over the dataset's canonical bytes (names, kinds, values)."""
    h = hashlib.sha256()
    for name, kind in zip(data.feature_names, data.feature_kinds):
        h.update(name.encode())
        h.update(kind.encode())
        col = data.columns[name]
        if kind == "numeric":
            h.update(np.ascontiguousarray(col, dtype=np.float64).tobytes())
        else:
            for v in col:  # 0xfe marks a missing value, 0xff ends each; UTF-8 emits neither byte
                h.update(b"\xfe" if v is None else v.encode())
                h.update(b"\xff")
    h.update(np.ascontiguousarray(data.score, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(data.outcome, dtype=np.float64).tobytes())
    return h.hexdigest()


def _safe_name(index: int, name: str) -> str:
    return f"{index:02d}_" + re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def write_curve_csv(path: str | Path, fc: FeatureComparison) -> None:
    columns = [("mass", fc.bin_mass)] + [
        (f"{tag}_{part}", getattr(c, part))
        for tag, c in (("mimic", fc.mimic), ("outcome", fc.outcome), ("diff", fc.diff))
        for part in ("mean", "lower", "upper")
    ]
    rows = [",".join(["bin", *(name for name, _ in columns), "significant"])]
    for b, label in enumerate(fc.bin_labels):
        cells = ['"' + label.replace('"', '""') + '"', *(repr(float(col[b])) for _, col in columns)]
        rows.append(",".join([*cells, str(bool(fc.diff.significant[b])).lower()]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def write_calibration_plots(
    plots_dir: str | Path,
    raw: CalibrationDiagnostics,
    applied: CalibrationDiagnostics | None = None,
) -> None:
    """Empirical log-odds scatter against raw and (optionally) calibrated scores."""
    plots_dir = Path(plots_dir)
    plots_dir.mkdir(parents=True, exist_ok=True)
    for tag, diag, score, axis in (
        ("raw", raw, "raw score", "raw score"),
        ("applied", applied, "calibrated score", "calibrated score (log odds)"),
    ):
        if diag is not None:
            svg.scatter_chart(
                plots_dir / f"calibration_{tag}.svg",
                f"empirical log odds vs {score}",
                diag.levels,
                diag.logit_prob,
                axis,
                "log odds",
                line=(diag.logit_slope, diag.logit_intercept),
            )


def write_comparison_artifacts(out_dir: str | Path, summary: ComparisonSummary) -> dict[str, list[str]]:
    """Write per-feature curve CSVs and plots plus surface heatmaps.

    Returns the relative paths written, grouped by kind.
    """
    out_dir = Path(out_dir)
    curves_dir = out_dir / "curves"
    plots_dir = out_dir / "plots"
    curves_dir.mkdir(parents=True, exist_ok=True)
    plots_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, list[str]] = {"curves": [], "plots": []}
    for j, fc in enumerate(summary.features):
        base = _safe_name(j, fc.feature)
        write_curve_csv(curves_dir / f"{base}.csv", fc)
        written["curves"].append(f"curves/{base}.csv")
        svg.shape_chart(
            plots_dir / f"{base}.svg",
            f"feature: {fc.feature}",
            fc.bin_labels,
            fc.bin_mass,
            [
                ("mimic", svg.MIMIC_COLOR, fc.mimic.mean, fc.mimic.lower, fc.mimic.upper),
                ("outcome", svg.OUTCOME_COLOR, fc.outcome.mean, fc.outcome.lower, fc.outcome.upper),
            ],
        )
        written["plots"].append(f"plots/{base}.svg")
    for sc in summary.surfaces:
        base = f"surface_{sc.i:02d}_{sc.j:02d}"
        for tag, grid in (("mimic", sc.mimic_mean), ("outcome", sc.outcome_mean), ("diff", sc.diff_mean)):
            name = f"{base}_{tag}.svg"
            svg.heatmap_chart(
                plots_dir / name,
                f"pair {sc.names[0]} x {sc.names[1]} ({tag})",
                grid,
                sc.names[1],
                sc.names[0],
            )
            written["plots"].append(f"plots/{name}")
    return written


def write_report(out_dir: str | Path, report: dict) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    dump_json(path, report)
    return path


def save_all_models(out_dir: str | Path, paired: PairedEnsembles) -> list[str]:
    """Write the paired ensembles' files under ``models/``; returns their names."""
    return paired.save_models(Path(out_dir) / "models")
