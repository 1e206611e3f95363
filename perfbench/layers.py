"""Per-layer metrics of one traced audit, computed from its spans."""

from __future__ import annotations

from pathlib import Path

STAGES = ("load", "calibrate", "plan", "train", "baseline", "compare", "missing-test", "report")
TIMED = (
    "data.load_csv",
    "data.fit_schema",
    "data.bin_dataset",
    "calibrate.diagnose",
    "calibrate.fit_calibration",
    "distill.plan_bags",
    "distill.train_paired",
    "distill.with_interactions",
    "distill.fidelity",
    "gam.train_regressor",
    "gam.train_classifier",
    "gam.fit_interactions",
    "gam.rank_interaction_pairs",
    "baseline.train_linear_bags",
    "baseline.linear_fold_metrics",
    "compare.summarize",
    "missing.error_pairs",
    "missing.correlation_test",
    "report.save_all_models",
    "report.write_comparison_artifacts",
    "report.write_report",
    "report.write_calibration_plots",
)
MODEL_FITS = ("gam.train_regressor", "gam.train_classifier", "gam.fit_interactions")

# (name, unit) of every per-layer metric, in the order they are printed.
METRICS = (
    [(f"cli.stage.{s}.s", "s") for s in STAGES]
    + [("cli.glue_s", "s")]
    + [m for f in TIMED for m in ((f"{f}.s", "s"), (f"{f}.calls", "count"))]
    + [
        ("distill.train_paired.self_s", "s"),
        ("distill.pool_busy_frac", "ratio"),
        ("gam.rounds.mimic", "count"),
        ("gam.rounds.outcome", "count"),
        ("gam.rounds.interactions", "count"),
        ("gam.max_rounds_hit", "count"),
        ("gam.useful_round_frac", "ratio"),
        ("gam.mimic.row_visits_per_s", "1/s"),
        ("gam.outcome.row_visits_per_s", "1/s"),
        ("gam.mimic.visits_per_s", "1/s"),
        ("missing.n_pairs", "count"),
        ("missing.resamples_per_s", "1/s"),
        ("report.bytes_written", "B"),
        ("report.files_written", "count"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def tree_size(out_dir: Path) -> tuple[int, int]:
    """(files, bytes) under an audit's output directory."""
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def layer_metrics(record: dict, wall_s: float, untraced_s: float, jobs: int, out_dir: Path) -> dict[str, float]:
    """Every metric of :data:`METRICS` for one traced audit.

    ``record`` is :func:`spans.read_trace`'s result, ``wall_s`` the traced
    process's launch-to-exit time and ``untraced_s`` the untraced median.
    """
    spans = [
        {"name": s[0], "id": s[1], "parent": s[2], "start": s[4], "end": s[5], "dur": s[5] - s[4], **s[6]}
        for s in record["spans"]
    ]
    by_name: dict[str, list[dict]] = {}
    children: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def total(name: str) -> float:
        return sum(s["dur"] for s in by_name.get(name, ()))

    out: dict[str, float] = {}
    marks = sorted(record["marks"], key=lambda m: m[1])
    bounds = [m[1] for m in marks[1:]] + [record["finished"]]
    stage_s = dict.fromkeys(STAGES, 0.0)
    for (name, start), end in zip(marks, bounds):
        if name in stage_s:
            stage_s[name] += end - start
    for name in STAGES:
        out[f"cli.stage.{name}.s"] = stage_s[name]
    out["cli.glue_s"] = wall_s - sum(stage_s.values())
    for name in TIMED:
        out[f"{name}.s"] = total(name)
        out[f"{name}.calls"] = len(by_name.get(name, ()))

    train_paired = by_name.get("distill.train_paired", [])
    self_s = 0.0
    busy = 0.0
    for tp in train_paired:
        kids = children.get(tp["id"], [])
        self_s += tp["dur"] - _union_length(
            [(max(k["start"], tp["start"]), min(k["end"], tp["end"])) for k in kids if k["end"] > k["start"]]
        )
        busy += sum(k["dur"] for k in kids if k["name"].startswith("gam."))
    out["distill.train_paired.self_s"] = self_s
    out["distill.pool_busy_frac"] = _ratio(busy, jobs * total("distill.train_paired"))

    fits = [s for name in MODEL_FITS for s in by_name.get(name, ())]
    main_fits = [s for s in fits if s["name"] != "gam.fit_interactions"]
    out["gam.rounds.mimic"] = sum(s["rounds"] for s in by_name.get("gam.train_regressor", ()))
    out["gam.rounds.outcome"] = sum(s["rounds"] for s in by_name.get("gam.train_classifier", ()))
    out["gam.rounds.interactions"] = sum(s["rounds"] for s in by_name.get("gam.fit_interactions", ()))
    out["gam.max_rounds_hit"] = sum(1 for s in fits if s["rounds"] == s["max_rounds"])
    out["gam.useful_round_frac"] = _ratio(
        sum(s["rounds"] if s["best_round"] is None else s["best_round"] for s in main_fits),
        sum(s["rounds"] for s in main_fits),
    )
    for family, name in (("mimic", "gam.train_regressor"), ("outcome", "gam.train_classifier")):
        group = by_name.get(name, ())
        out[f"gam.{family}.row_visits_per_s"] = _ratio(
            sum(s["rounds"] * s["n_train"] * s["n_features"] for s in group), total(name)
        )
    out["gam.mimic.visits_per_s"] = _ratio(
        sum(s["rounds"] * s["n_features"] for s in by_name.get("gam.train_regressor", ())),
        total("gam.train_regressor"),
    )
    out["missing.n_pairs"] = sum(s.get("n_pairs", 0) for s in by_name.get("missing.error_pairs", ()))
    out["missing.resamples_per_s"] = _ratio(
        sum(s.get("resamples", 0) for s in by_name.get("missing.correlation_test", ())),
        total("missing.correlation_test"),
    )
    out["report.files_written"], out["report.bytes_written"] = tree_size(out_dir)
    out["trace.overhead_frac"] = wall_s / untraced_s - 1.0
    return out
