"""Record the gate's reference signatures: one serial audit per family and seed.

Run from the root of a source checkout, on a commit whose reports are known
good::

    python3 perfbench/make_refs.py --family large --seeds 0 19

The signatures are merged into ``perfbench/refs/<family>.json``. Re-record
them only in a change that means to alter the audit's output, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from gate import signature
from workloads import WORKLOADS, write_inputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", required=True, choices=sorted({w.family for w in WORKLOADS.values()}))
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    workload = next(w for w in WORKLOADS.values() if w.family == args.family and w.jobs == 1)
    path = run.HERE / "refs" / f"{args.family}.json"
    refs = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    work = run.WORK / f"refs-{args.family}"
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        work.mkdir(parents=True, exist_ok=True)
        try:
            write_inputs(workload, seed, work)
            argv = [sys.executable, "-m", "distillaudit.cli", "audit", *workload.audit_args(seed, "out")]
            r = run.run_process(argv, work, run.HARD_LIMIT_S, work / "audit.err")
            if r["returncode"] != 0:
                print((work / "audit.err").read_text(errors="replace"), file=sys.stderr)
                return 1
            refs[str(seed)] = signature((work / "out" / "report.json").read_bytes())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        ordered = sorted(refs.items(), key=lambda kv: int(kv[0]))
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in ordered]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"{args.family} seed {seed}: {r['wall_s']:.1f} s, sha256 {refs[str(seed)]['sha256'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
