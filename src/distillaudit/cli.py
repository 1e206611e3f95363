"""Command-line interface: calibrate, audit, test-missing, gen-synthetic.

Each subcommand maps onto library calls; failures surface as stage-tagged
messages on stderr with stable exit codes (2 config, 3 data, 4 training,
5 degenerate statistics, 1 any other error, such as an output that cannot
be written). A missing, unreadable or non-UTF-8 input is a data error, or a
config error for ``--config``. The config file and the flags are checked in
the ``config`` stage, before any file is read or written; the rules that
need the table (row count, bag labels, ``--pairs`` against its feature
pairs, a feature column with no value) stop the ``load`` stage, before the
audit writes a file.

The audit itself is :func:`run_audit`, shared by the ``audit`` subcommand,
the demos and library code (the package root does not import this module).
It writes artifacts as stages complete, so a failed run keeps everything
produced before the failure. After training, the baseline, the
missing-feature test and the model files run as tasks on the ``jobs``
workers, concurrently with the rest; their errors are raised in stage order
(baseline, missing-test, report), so the tag and exit code are those of a
serial run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import NamedTuple

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__
from .baseline import linear_fold_metrics, train_linear_bags
from .calibrate import CALIBRATION_MODES, decide_calibration, diagnose, fit_calibration
from .data import AuditDataset, LoadConfig, check_seed, dump_json, fit_schema, load_csv, load_json
from .distill import (
    FidelityMetrics,
    PairedEnsembles,
    TaskPool,
    check_bag_grid,
    check_bags,
    check_jobs,
    check_pair_count,
    fidelity,
    plan_bags,
    train_paired,
    with_interactions,
)
from .errors import AuditError, ConfigError, DataError, DegenerateStatisticsError, TrainingError
from .gam import TrainConfig
from .missing import DEFAULT_RESAMPLES, check_resamples, correlation_test, error_pairs, load_error_pairs_csv
from .compare import ComparisonSummary, summarize
from .report import (
    data_fingerprint,
    save_all_models,
    write_calibration_plots,
    write_comparison_artifacts,
    write_report,
)
from .synth import GENERATORS

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4
EXIT_DEGENERATE = 5
_EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    DataError: EXIT_DATA,
    TrainingError: EXIT_TRAINING,
    DegenerateStatisticsError: EXIT_DEGENERATE,
}


def _max_rss_mib() -> float | None:
    """This process's peak resident set so far, or None where it is unknown."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)  # bytes there, KiB elsewhere


class _Stage:
    """The pipeline stage an error belongs to, and the time and peak memory
    of every stage so far. Entering a stage again adds to its seconds; its
    peak is the largest at the end of its visits, of the process that did
    the work: the main process, or the worker of a task it waited for.
    ``started_unix`` is when the command started, for ``run_meta.json``."""

    def __init__(self) -> None:
        self.started_unix = time.time()
        self.name = "startup"
        self.started = time.perf_counter()
        self.finished: dict[str, dict] = {}
        self.task_peak = None

    def at(self, name: str) -> None:
        self.close()
        self.name = name

    def close(self) -> list[dict]:
        """End the current stage; returns every stage ended, by first entry."""
        now = time.perf_counter()
        peak = _max_rss_mib() if self.task_peak is None else self.task_peak
        entry = self.finished.setdefault(self.name, {"name": self.name, "seconds": 0.0, "max_rss_mib": peak})
        entry["seconds"] += now - self.started
        if peak is not None:
            entry["max_rss_mib"] = max(entry["max_rss_mib"], peak)
        self.started = now
        self.task_peak = None
        return list(self.finished.values())

    def wait(self, name: str, future):
        """The result of a :func:`_measured` task, waited for in its stage
        ``name``, which tags its error; then back to the current stage."""
        working = self.name
        self.at(name)
        result, self.task_peak = future.result()
        self.at(working)
        return result


def _read_config_file(path: str | None) -> tuple[dict, dict]:
    """Split a --config JSON file into its ``load`` and ``train`` sections,
    the only keys it may hold; each is optional."""
    if path is None:
        return {}, {}
    d = load_json(path, "config file", ConfigError)
    if not isinstance(d, dict):
        raise ConfigError("config file must contain a JSON object")
    extra = set(d) - {"load", "train"}
    if extra:
        raise ConfigError(f"unknown config sections: {sorted(extra)}")
    sections = d.get("load", {}), d.get("train", {})
    if not all(isinstance(section, dict) for section in sections):
        raise ConfigError("config sections load and train must be JSON objects")
    return dict(sections[0]), dict(sections[1])


def _load_dataset(args, stage: _Stage):
    stage.at("config")
    if args.command == "audit":
        check_jobs(args.jobs)
        check_bag_grid(args.K, args.L)
    load_dict, train_dict = _read_config_file(args.config)
    if "seed" in train_dict:
        raise ConfigError("the train section takes no seed; audit --seed sets it")
    if args.score_col is not None:
        load_dict["score_column"] = args.score_col
    if args.outcome_col is not None:
        load_dict["outcome_column"] = args.outcome_col
    load_cfg = LoadConfig.from_dict(load_dict)
    train_dict["seed"] = getattr(args, "seed", 0)
    if getattr(args, "pairs", None) is not None:
        train_dict["n_pairs"] = args.pairs
    train_cfg = TrainConfig.from_dict(train_dict)
    stage.at("load")
    data = load_csv(args.data, load_cfg)
    return data, load_cfg, train_cfg


def _calibration_stage(data, mode: str, out_dir: Path, stage: _Stage):
    """Shared by calibrate and audit: diagnose, decide, fit, write artifacts."""
    stage.at("calibrate")
    diag_raw = diagnose(data.score, data.outcome)
    decision = decide_calibration(diag_raw, mode)
    cmap = diag_applied = warning = None
    if decision["applied"]:
        cmap = fit_calibration(data.score, data.outcome)
        diag_applied = diagnose(cmap.apply(data.score), data.outcome)
    elif mode == "off" and diag_raw.logit_rmse > decision["threshold"]:
        warning = (
            f"calibration forced off, but log-odds linearity RMSE {diag_raw.logit_rmse:.4f} "
            f"exceeds threshold {decision['threshold']}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "decision": decision,
        "warning": warning,
        "diagnostics_raw": diag_raw.to_json_dict(),
        "diagnostics_applied": diag_applied.to_json_dict() if diag_applied else None,
        "map": cmap.to_json_dict() if cmap else None,
    }
    dump_json(out_dir / "calibration.json", record)
    diag_raw.to_csv(out_dir / "calibration_diagnostics.csv")
    write_calibration_plots(out_dir / "plots", diag_raw, diag_applied)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    return decision, diag_raw, cmap


def cmd_calibrate(args, stage: _Stage) -> int:
    data, _, _ = _load_dataset(args, stage)
    out_dir = Path(args.out)
    decision, _, cmap = _calibration_stage(data, args.calibration, out_dir, stage)
    _write_run_meta(out_dir, stage)
    applied = "calibrated" if decision["applied"] else "not calibrated"
    print(f"calibration: {applied} ({decision['reason']})")
    if cmap is not None:
        print(f"map: {len(cmap.breakpoints)} breakpoints -> {out_dir / 'calibration.json'}")
    return 0


def cmd_audit(args, stage: _Stage) -> int:
    data, load_cfg, train_cfg = _load_dataset(args, stage)
    out_dir = Path(args.out)
    result = run_audit(
        data, out_dir, load_cfg, train_cfg,
        calibration=args.calibration, K=args.K, L=args.L, jobs=args.jobs, stage=stage,
    )
    _write_run_meta(out_dir, stage, jobs=args.jobs)

    for fm in result.fidelities:
        auc_txt = "n/a" if fm.outcome_auc_mean is None else f"{fm.outcome_auc_mean:.4f}"
        print(f"{fm.name}: score RMSE {fm.score_rmse_mean:.4f}, outcome AUC {auc_txt}")
    verdict = result.missing.get("verdict") or f"skipped ({result.missing['skipped']})"
    print(f"missing-feature test: {verdict}")
    top = result.summary.ranking[0] if result.summary.ranking else None
    if top and top[1] > 0:
        print(f"largest discrepancy: {top[0]} ({top[1]:.4f})")
    print(f"report: {out_dir / 'report.json'}")
    return 0


class AuditResult(NamedTuple):
    """What :func:`run_audit` found, as its ``report.json`` records it."""

    decision: dict
    final: PairedEnsembles
    summary: ComparisonSummary
    fidelities: list[FidelityMetrics]
    missing: dict


def run_audit(
    data: AuditDataset,
    out_dir: str | Path,
    load_config: LoadConfig,
    train_config: TrainConfig,
    *,
    calibration: str = "auto",
    K: int = 5,
    L: int = 5,
    jobs: int = 1,
    stage: _Stage | None = None,
) -> AuditResult:
    """The ``audit`` subcommand on a loaded table: calibrate, distill the
    score and fit the outcome on one bag plan, compare the two families and
    test for a missing feature, writing every file of the audit's ``--out``
    tree but ``run_meta.json`` under ``out_dir``.

    ``load_config`` gives the bin count and the column names the report
    echoes; ``train_config.seed`` seeds the bag plan and the missing-feature
    bootstrap. ``calibration``, ``K``, ``L`` and ``jobs`` are the flags of
    the same names. ``stage``, when given, times each stage and names the
    stage an error is raised in. The run-shape rules (``jobs``, ``K`` and
    ``L``, the row count and ``n_pairs``), the bag rules of
    :func:`~distillaudit.distill.check_bags` and the feature rules of
    :func:`~distillaudit.data.fit_schema` raise before ``out_dir`` is made.
    """
    check_jobs(jobs)
    plan = plan_bags(data.n_rows, K=K, L=L, seed=train_config.seed)
    check_bags(plan, data)
    check_pair_count(train_config.n_pairs, data.n_features)
    schema = fit_schema(data, load_config.max_bins)
    stage = stage or _Stage()
    out_dir = Path(out_dir)
    decision, diag_raw, cmap = _calibration_stage(data, calibration, out_dir, stage)

    stage.at("train")
    paired = train_paired(data, cmap, plan, train_config, schema, jobs=jobs)
    fidelities = [fidelity(paired, name="additive")]
    final = paired
    if train_config.n_pairs > 0:
        final = with_interactions(paired, jobs=jobs)
        fidelities.append(fidelity(final, name="additive_interactions"))

    # The baseline, the missing-feature test and the model files need only
    # the trained ensembles, so they run on the workers while this process
    # compares the ensembles and writes the curves and plots. With jobs=1
    # each task runs when submitted, in the serial order.
    stage.at("baseline")
    with TaskPool(final, jobs) as pool:
        baseline = pool.submit(_measured, _baseline_task, out_dir)

        stage.at("compare")
        summary = summarize(final)

        stage.at("missing-test")
        missing = pool.submit(_measured, _missing_test_task, out_dir)

        stage.at("report")
        models = pool.submit(_measured, _models_task, out_dir)
        artifacts = write_comparison_artifacts(out_dir, summary)

        linear_fidelity, linear_models = stage.wait("baseline", baseline)
        fidelities.append(linear_fidelity)
        missing_json = stage.wait("missing-test", missing)
        gam_models = stage.wait("report", models)

    artifacts["models"] = [f"models/{n}" for n in sorted(gam_models + linear_models)]
    artifacts["calibration"] = ["calibration.json", "calibration_diagnostics.csv"]
    artifacts["error_pairs"] = ["error_pairs.csv"]
    report = {
        "format_version": 1,
        "run": {
            "config": {
                "data": data.meta.get("source"),
                "calibration": calibration,
                "K": K,
                "L": L,
                "seed": train_config.seed,
                "max_bins": load_config.max_bins,
                "score_column": load_config.score_column,
                "outcome_column": load_config.outcome_column,
                "train": vars(train_config),
            },
            "data_fingerprint": data_fingerprint(data),
            "n_rows": data.n_rows,
            "n_features": data.n_features,
            "n_score_only_rows": data.n_score_only,
            "rejected_rows": data.meta.get("rejected_rows", 0),
        },
        "calibration": {"decision": decision, "diagnostics": diag_raw.to_json_dict()},
        "fidelity": [fm.to_json_dict() for fm in fidelities],
        "comparison": summary.to_json_dict(),
        "missing_feature_test": missing_json,
        "artifacts": artifacts,
    }
    write_report(out_dir, report)
    return AuditResult(decision, final, summary, fidelities, missing_json)


def _measured(final: PairedEnsembles, task, out_dir: Path):
    """``task``'s result and the peak resident set of the process that ran it."""
    return task(final, out_dir), _max_rss_mib()


def _baseline_task(final: PairedEnsembles, out_dir: Path):
    """Linear bags over the audit's plan: their fold metrics and model file names."""
    bags = train_linear_bags(final.data, final.plan, final.calibration, final.schema)
    return linear_fold_metrics(bags), bags.save_models(out_dir / "models")


def _missing_test_task(final: PairedEnsembles, out_dir: Path) -> dict:
    """The report's missing-feature section: the test of the held-out error
    pairs, or why it was skipped. The pairs go to error_pairs.csv."""
    pairs = error_pairs(final)
    try:
        missing_json = correlation_test(pairs.mimic_error, pairs.outcome_error, seed=final.plan.seed).to_json_dict()
    except DegenerateStatisticsError as exc:
        missing_json = {"skipped": str(exc)}
    missing_json["n_excluded_never_held_out"] = pairs.n_excluded_never_held_out
    missing_json["n_excluded_score_only"] = pairs.n_excluded_score_only
    pairs.to_csv(out_dir / "error_pairs.csv")
    return missing_json


def _models_task(final: PairedEnsembles, out_dir: Path) -> list[str]:
    # A cli function, not save_all_models itself: a tracer that wraps the
    # names cli imports would hand the pool a wrapper that does not pickle.
    return save_all_models(out_dir, final)


def cmd_test_missing(args, stage: _Stage) -> int:
    stage.at("config")
    check_resamples(args.resamples)
    check_seed(args.seed)
    stage.at("load")
    pairs = load_error_pairs_csv(args.data)
    stage.at("missing-test")
    result = correlation_test(
        pairs.mimic_error, pairs.outcome_error, resamples=args.resamples, seed=args.seed
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_json(out_dir / "missing_test.json", result.to_json_dict())
    _write_run_meta(out_dir, stage)
    for name, iv in (("pearson", result.pearson), ("spearman", result.spearman), ("kendall", result.kendall)):
        print(f"{name}: {iv.estimate:.4f} [{iv.lower:.4f}, {iv.upper:.4f}]")
    print(f"verdict: {result.verdict}")
    return 0


def cmd_gen_synthetic(args, stage: _Stage) -> int:
    stage.at("generate")
    gen = GENERATORS[args.kind]
    kwargs: dict = {"seed": args.seed}
    if args.rows is not None:
        kwargs["n_rows"] = args.rows
    if args.control:
        if args.kind != "hidden-feature":
            raise ConfigError(f"--control applies to --kind hidden-feature only, not {args.kind}")
        kwargs["hidden"] = False
    data, truth = gen(**kwargs)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data.to_csv(out)
    if args.truth_out:
        dump_json(args.truth_out, truth)
    print(f"wrote {data.n_rows} rows to {out}")
    return 0


def _write_run_meta(out_dir: Path, stage: _Stage, **extra) -> None:
    """Write run_meta.json: when the run ran and, per stage, its wall seconds
    and the process's peak resident set at its end (``max_rss_mib``), so the
    first stage that reaches the final value is the one that set the peak."""
    finished_unix = time.time()
    meta = {
        "package_version": __version__,
        "started_unix": stage.started_unix,
        "finished_unix": finished_unix,
        "duration_seconds": finished_unix - stage.started_unix,
        "stages": stage.close(),
    }
    meta.update(extra)
    dump_json(out_dir / "run_meta.json", meta)


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input CSV with features, score, and outcome")
    p.add_argument("--config", default=None, help="JSON config file (load/train sections)")
    p.add_argument("--score-col", default=None, help="score column name (default: score)")
    p.add_argument("--outcome-col", default=None, help="outcome column name (default: outcome)")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distillaudit",
        description="Audit black-box risk scores by distilling them into transparent additive models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calibrate", help="fit and diagnose the score-to-probability map")
    _add_dataset_flags(p_cal)
    p_cal.add_argument("--calibration", choices=CALIBRATION_MODES, default="auto")
    p_cal.set_defaults(func=cmd_calibrate)

    p_audit = sub.add_parser("audit", help="run the full distillation audit")
    _add_dataset_flags(p_audit)
    p_audit.add_argument("--calibration", choices=CALIBRATION_MODES, default="auto")
    p_audit.add_argument("--seed", type=int, default=0, help="seed for the bag plan and the missing-feature bootstrap")
    p_audit.add_argument("--K", type=int, default=5, help="outer folds")
    p_audit.add_argument("--L", type=int, default=5, help="inner bags per fold")
    p_audit.add_argument("--pairs", type=int, default=None, help="pairwise grids to fit (default: train.n_pairs or 0)")
    p_audit.add_argument("--jobs", type=int, default=1, help="parallel training processes")
    p_audit.set_defaults(func=cmd_audit)

    p_miss = sub.add_parser("test-missing", help="correlation test on a CSV of error pairs")
    p_miss.add_argument("--data", required=True, help="CSV with fold, mimic_abs_error, outcome_abs_error")
    p_miss.add_argument("--resamples", type=int, default=DEFAULT_RESAMPLES)
    p_miss.add_argument("--seed", type=int, default=0)
    p_miss.add_argument("--out", required=True, help="output directory")
    p_miss.set_defaults(func=cmd_test_missing)

    p_gen = sub.add_parser("gen-synthetic", help="write a synthetic audit dataset")
    p_gen.add_argument("--kind", choices=sorted(GENERATORS), required=True)
    p_gen.add_argument("--rows", type=int, default=None, help="rows (default: generator-specific)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--control", action="store_true", help="hidden-feature kind: break the hidden link")
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.add_argument("--truth-out", default=None, help="optional JSON path for generator constants")
    p_gen.set_defaults(func=cmd_gen_synthetic)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    stage = _Stage()
    try:
        return args.func(args, stage)
    except (AuditError, OSError) as exc:  # an OSError here failed to write an output
        print(f"error[{stage.name}]: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls)), 1)


if __name__ == "__main__":
    sys.exit(main())
