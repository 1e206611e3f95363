"""Seeded audit workloads: how each input table, config and command line is made.

Every workload runs ``python -m distillaudit.cli audit`` with ``--K 5 --L 5
--calibration auto`` on a table drawn from :mod:`distillaudit.synth` with the
benchmark's seed. The program sees only the CSV and the ``--config`` file
written here. Workloads that share a ``family`` share their table, config and
audit seed, so their reports must be byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DATA_FILE = "input.csv"
CONFIG_FILE = "config.json"

LARGE_CONFIG = {"load": {"max_bins": 64}, "train": {"learning_rate": 0.1, "max_rounds": 40}}
SMALL_CONFIG = {"load": {"max_bins": 128}, "train": {"max_rounds": 50}}


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    generator: str
    rows: int
    config: dict
    jobs: int = 1
    pairs: int = 0
    why: str = ""

    def audit_args(self, seed: int, out_dir: str) -> list[str]:
        """CLI arguments after ``audit``, relative to the run directory."""
        args = [
            "--data", DATA_FILE,
            "--config", CONFIG_FILE,
            "--K", "5",
            "--L", "5",
            "--calibration", "auto",
            "--jobs", str(self.jobs),
            "--seed", str(seed),
            "--out", out_dir,
        ]
        if self.pairs:
            args += ["--pairs", str(self.pairs)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "large-serial",
            family="large",
            generator="gen_partial_use",
            rows=12000,
            config=LARGE_CONFIG,
            jobs=1,
            why="12k rows x 16 features, serial: per-row throughput of gam boosting and the missing bootstrap",
        ),
        Workload(
            "large-jobs2",
            family="large",
            generator="gen_partial_use",
            rows=12000,
            config=LARGE_CONFIG,
            jobs=2,
            why="same table with --jobs 2: distill's ProcessPoolExecutor dispatch, two training processes sharing 2 cores",
        ),
        Workload(
            "small-pairs-default",
            family="small",
            generator="gen_interaction",
            rows=2000,
            config=SMALL_CONFIG,
            pairs=1,
            why="2k rows x 5 features, lr 0.01, 128 bins, 1 pair: per-round overhead, 129x129 pair grids, calibration map, artifacts",
        ),
    )
}


def write_inputs(workload: Workload, seed: int, run_dir: Path, rows: int | None = None) -> None:
    """Write the workload's CSV and config into ``run_dir``.

    ``rows`` overrides the table size (the benchmark's own tests use a smoke
    size); the same seed and size always give the same bytes.
    """
    from distillaudit import synth

    data, _ = getattr(synth, workload.generator)(n_rows=rows or workload.rows, seed=seed)
    data.to_csv(run_dir / DATA_FILE)
    (run_dir / CONFIG_FILE).write_text(json.dumps(workload.config, sort_keys=True) + "\n", encoding="utf-8")
