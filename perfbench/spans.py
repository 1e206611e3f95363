"""Spans around the calls into distillaudit's layers, recorded from outside.

:func:`install` replaces every public function that ``distillaudit.cli``,
``distillaudit.distill`` and ``distillaudit.missing`` import from another
package module with a wrapper that records one span per call: name
(``<module>.<function>``), id, parent id, process id, start, end, and counts
read from the call's arguments and result. It also marks each
``cli._Stage.at`` stage change. :meth:`Tracer.uninstall` puts the original
functions back. No file under ``src/`` is touched.

Spans of the audit process are kept in memory and written when it ends.
``ProcessPoolExecutor`` workers are forked, so they inherit the wrappers and
the open parent span; they append each span to their own file at once,
because pool workers exit without running ``atexit`` hooks.

Run as a script, it is a traced ``distillaudit`` command line::

    python perfbench/spans.py TRACE_DIR audit --data ... --out ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

TRACED_MODULES = ("distillaudit.cli", "distillaudit.distill", "distillaudit.missing")
MAIN_FILE = "main.json"


def _counts(name: str, bound: inspect.BoundArguments, result) -> dict:
    """Work counts of one call, from its arguments and the model it returned."""
    if name in ("gam.train_regressor", "gam.train_classifier", "gam.fit_interactions"):
        X = bound.arguments["X"]
        config = bound.arguments.get("config")
        validation = bound.arguments.get("validation")
        meta = result.metadata
        prefix = "interaction_" if name == "gam.fit_interactions" else ""
        return {
            "rounds": meta.get(f"{prefix}rounds_run", 0),
            "best_round": meta.get(f"{prefix}best_round"),
            "max_rounds": None if config is None else config.max_rounds,
            "n_train": X.n_rows - (0 if validation is None else len(validation)),
            "n_features": X.codes.shape[1],
        }
    if name == "missing.error_pairs":
        return {"n_pairs": result.n_pairs}
    if name == "missing.correlation_test":
        return {"resamples": result.resamples}
    return {}


class Tracer:
    """Wrappers, the open-span stack and the recorded spans of one process."""

    def __init__(self, trace_dir: str | Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.main_pid = os.getpid()
        self.spans: list[list] = []
        self.marks: list[list] = []
        self._stack: list[str] = []
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []

    def _record(self, span: list) -> None:
        if os.getpid() == self.main_pid:
            self.spans.append(span)
        else:
            with open(self.trace_dir / f"worker-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(span) + "\n")

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = f"{os.getpid()}:{self._next_id}"
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counts = _counts(name, sig.bind(*args, **kwargs), result) if ok else {"error": True}
                self._record([name, span_id, parent, os.getpid(), start, end, counts])

        return traced

    def install(self) -> "Tracer":
        seen = {}
        for mod_name in TRACED_MODULES:
            mod = importlib.import_module(mod_name)
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("distillaudit.")
                    or obj.__module__ == mod_name
                ):
                    continue
                if obj not in seen:
                    seen[obj] = self._wrap(obj)
                self._originals.append((mod, attr, obj))
                setattr(mod, attr, seen[obj])
        stage_cls = importlib.import_module("distillaudit.cli")._Stage
        original_at = stage_cls.at

        def at(stage, name):
            self.marks.append([name, time.perf_counter()])
            return original_at(stage, name)

        self._originals.append((stage_cls, "at", original_at))
        stage_cls.at = at
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def dump(self, started: float, finished: float) -> None:
        record = {"started": started, "finished": finished, "spans": self.spans, "marks": self.marks}
        (self.trace_dir / MAIN_FILE).write_text(json.dumps(record), encoding="utf-8")


def read_trace(trace_dir: str | Path) -> dict:
    """The main record with every worker's spans appended to ``spans``."""
    trace_dir = Path(trace_dir)
    record = json.loads((trace_dir / MAIN_FILE).read_text(encoding="utf-8"))
    for path in sorted(trace_dir.glob("worker-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            record["spans"].extend(json.loads(line) for line in fh if line.strip())
    return record


def main(argv: list[str]) -> int:
    trace_dir = Path(argv[0])
    trace_dir.mkdir(parents=True, exist_ok=True)
    from distillaudit import cli

    tracer = Tracer(trace_dir).install()
    started = time.perf_counter()
    try:
        return cli.main(argv[1:])
    finally:
        finished = time.perf_counter()
        tracer.uninstall()
        tracer.dump(started, finished)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
