"""Benchmark of ``distillaudit audit``: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload large-serial --seed 1 --seconds 40 --trace 0

It writes the workload's input table and config from the seed, then measures
for ``--seconds`` seconds in a closed loop with one caller: first a few
``setup_s`` launches (a fresh ``python -m distillaudit.cli --version``), then
one real CLI audit at a time, each followed by one more set-up launch, while
the next audit is expected to finish in time (at least one runs). Every audit is checked against the stored reference
report for its workload family and seed (see ``gate.py``).

With ``--trace 0`` it prints ``audit_s``, ``audit_cpu_s`` (user + sys of the
audit's process tree, from ``wait4``), ``peak_rss_mb`` (the largest resident
set in that tree), ``setup_s`` and ``failed_frac``. With ``--trace 1`` it
alternates untraced and traced audits (``spans.py``) and prints the
per-layer metrics of ``layers.py``. The last line is one JSON object.

Audits run with the BLAS and OpenMP thread variables removed from their
environment, so the program picks its own defaults as in a user's shell.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "OMP_THREAD_LIMIT",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NUMEXPR_MAX_THREADS",
)
SETUP_REPEATS = 3  # set-up launches before the first audit; one more follows each audit
HARD_LIMIT_S = 170.0
END_TO_END = (
    ("audit_s", "s"),
    ("audit_cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

# Reports the environment audits see: library versions, the BLAS library and
# its effective thread count, and the multiprocessing start method.
PROBE = r"""
import ctypes, json, multiprocessing, os, platform
import numpy, scipy, scipy.stats
import distillaudit.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = {}
for path in sorted({l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l.lower() and l.split()[-1].startswith("/")}):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads[os.path.basename(path)] = fn()
            break
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "distillaudit": distillaudit.__version__,
    "distillaudit_path": os.path.dirname(distillaudit.__file__),
    "blas": "%s %s" % (blas.get("name"), blas.get("version")),
    "openblas_threads": threads,
    "start_method": multiprocessing.get_start_method(),
}))
"""


def audit_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], cwd: Path, limit: float, stderr_path: Path) -> dict:
    """Run one process tree to exit; wall time and ``wait4`` resource usage."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=audit_env(), stdout=subprocess.DEVNULL, stderr=err, start_new_session=True
        )
        timer = threading.Timer(limit, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # pool workers orphaned by a crash
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def high_percentile(values: list[float]) -> tuple[str, float | None]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "-", None
    return f"p{100 * (n - 10) // n}", sorted(values)[n - 11]


class Run:
    """One benchmark invocation: inputs, the audit loop and the gate."""

    def __init__(self, workload, seed: int, seconds: float, rows: int | None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.launched = self.started = time.perf_counter()
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        refs_path = HERE / "refs" / f"{workload.family}.json"
        refs = json.loads(refs_path.read_text(encoding="utf-8")) if rows is None and refs_path.is_file() else {}
        self.reference = refs.get(str(seed))
        self.reference_kind = "stored" if self.reference else "first audit of this run"
        self.n_audits = 0
        self.n_identical = 0
        self.failures: list[str] = []

    def limit(self) -> float:
        return max(5.0, HARD_LIMIT_S - (time.perf_counter() - self.launched))

    def setup_times(self, n: int) -> list[float]:
        argv = [sys.executable, "-m", "distillaudit.cli", "--version"]
        times = []
        for _ in range(n):
            r = run_process(argv, self.dir, self.limit(), self.dir / "setup.err")
            if r["returncode"] != 0:
                self.failures.append(f"setup run exited {r['returncode']}")
            times.append(r["wall_s"])
        return times

    def audit(self, untraced_s: float | None = None) -> dict:
        """One audit process, gated; its output tree is removed afterwards.

        With ``untraced_s`` (the untraced median) the audit runs under
        ``spans.py`` and its per-layer metrics are returned under "layers".
        """
        self.n_audits += 1
        out = f"out-{self.n_audits}"
        trace_dir = f"trace-{self.n_audits}"
        cli = self.workload.audit_args(self.seed, out)
        if untraced_s is None:
            argv = [sys.executable, "-m", "distillaudit.cli", "audit", *cli]
        else:
            argv = [sys.executable, str(HERE / "spans.py"), trace_dir, "audit", *cli]
        r = run_process(argv, self.dir, self.limit(), self.dir / "audit.err")
        r["ok"] = r["returncode"] == 0
        if not r["ok"]:
            err = (self.dir / "audit.err").read_text(errors="replace").strip().splitlines()[-3:]
            self.failures.append(f"audit {self.n_audits} exited {r['returncode']}: {' | '.join(err)}")
        else:
            got = gate.signature((self.dir / out / "report.json").read_bytes())
            if self.reference is None:
                self.reference = got
            problems = gate.compare(self.reference, got)
            if problems:
                r["ok"] = False
                self.failures.extend(f"audit {self.n_audits}: {p}" for p in problems[:10])
            self.n_identical += got["sha256"] == self.reference["sha256"]
        if untraced_s is not None and r["ok"]:
            record = spans.read_trace(self.dir / trace_dir)
            r["layers"] = layers.layer_metrics(record, r["wall_s"], untraced_s, self.workload.jobs, self.dir / out)
        shutil.rmtree(self.dir / out, ignore_errors=True)
        shutil.rmtree(self.dir / trace_dir, ignore_errors=True)
        return r


def measure(run: Run, trace: bool) -> tuple[list[float], list[dict], list[dict]]:
    """Set-up times, then untraced (and, with ``trace``, traced) audits until time is up.

    Untraced runs launch one more set-up process after each audit, so that
    ``setup_s`` samples the whole run, not only its first seconds.
    """
    setup = run.setup_times(SETUP_REPEATS)
    plain, traced = [], []
    while True:
        plain.append(run.audit())
        next_cost = statistics.median(r["wall_s"] for r in plain)
        if trace:
            traced.append(run.audit(untraced_s=next_cost))
            next_cost += statistics.median(r["wall_s"] for r in traced)
        else:
            setup += run.setup_times(1)
            next_cost += statistics.median(setup)
        if time.perf_counter() - run.started + next_cost > run.seconds:
            return setup, plain, traced


def _fmt(v: float | None) -> str:
    return "-" if v is None else f"{v:.6g}"


def report_end_to_end(setup: list[float], plain: list[dict]) -> dict:
    columns = {
        "audit_s": [r["wall_s"] for r in plain],
        "audit_cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_s": setup,
    }
    print(f"{'metric':<14}{'unit':<7}{'median':>12}{'high pct':>10}{'value':>12}{'n':>5}")
    metrics = {}
    for name, unit in END_TO_END:
        values = columns[name]
        label, hi = high_percentile(values)
        med = statistics.median(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name:<14}{unit:<7}{_fmt(med):>12}{label:>10}{_fmt(hi):>12}{len(values):>5}")
    failed = sum(not r["ok"] for r in plain)
    print(f"{'failed_frac':<14}{'ratio':<7}{_fmt(failed / len(plain)):>12}{'-':>10}{'-':>12}{len(plain):>5}")
    for name, _ in END_TO_END:
        print(f"samples {name}: {' '.join(_fmt(v) for v in columns[name])}")
    return metrics


def report_layers(traced: list[dict]) -> dict:
    good = [t["layers"] for t in traced if "layers" in t]
    metrics = {}
    for name, unit in layers.METRICS:
        values = [g[name] for g in good] or [0.0]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name:<42}{unit:<7}{_fmt(metrics[name]['value']):>14}  n={len(good)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=None, help="override the table size (smoke tests; no stored reference)")
    args = parser.parse_args(argv)

    if not (SRC / "distillaudit" / "cli.py").is_file():
        print(f"error: no distillaudit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds, args.rows)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        write_inputs(workload, args.seed, run.dir, args.rows)
        probe = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=run.dir, env=audit_env(), capture_output=True, text=True, timeout=120
        )
        if probe.returncode != 0:
            print(probe.stderr, file=sys.stderr)
            return 2
        env = json.loads(probe.stdout)
        if Path(env["distillaudit_path"]).resolve() != (SRC / "distillaudit").resolve():
            print(f"error: audits import distillaudit from {env['distillaudit_path']}", file=sys.stderr)
            return 2
        env["nproc"] = len(os.sched_getaffinity(0))
        env["thread_vars"] = {k: "unset" for k in THREAD_VARS}
        env["thread_vars_in_caller"] = {k: os.environ[k] for k in THREAD_VARS if k in os.environ}
        run.started = time.perf_counter()
        setup, plain, traced = measure(run, bool(args.trace))
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    audits = plain + traced
    failed = sum(not r["ok"] for r in audits)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    family = [w.name for w in WORKLOADS.values() if w.family == workload.family]
    print(f"gate reference: {run.reference_kind}, shared by {', '.join(family)}")
    print(f"gate passed {len(audits) - failed}/{len(audits)}, byte-identical {run.n_identical}/{len(audits)}")
    for f in run.failures:
        print(f"FAIL {f}")
    metrics = report_layers(traced) if args.trace else report_end_to_end(setup, plain)
    result = {"correct": not run.failures, "attempted": len(audits), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
