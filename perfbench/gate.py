"""Correctness gate: compare an audit's report.json with a stored reference.

A reference is a compact signature of one report, so that one can be kept
for every workload family and seed:

- the SHA-256 of the report bytes, with ``run.config.data`` (the input path
  the report echoes) normalised, for exact byte identity;
- the facts an audit reader acts on: the missing-feature verdict, the
  calibration decision, the discrepancy ranking order, every feature's
  significance flags and the artifact list;
- a digest of every other non-float value;
- every float outside the per-bin curves and pair grids, by path;
- the curves and grids (``comparison.features`` and ``comparison.surfaces``)
  as ``N_CHUNKS`` contiguous chunks of their floats in document order, each
  stored as (sum, sum of absolute values).

A run passes when every fact and digest is equal and every float or chunk
sum is within ``RTOL`` of the reference, relative to its magnitude. Byte
identity is reported on its own: last-digit drift, for instance from another
BLAS thread count, passes the gate but is not byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math

RTOL = 1e-9
ATOL = 1e-12
N_CHUNKS = 64
DATA_PLACEHOLDER = "<data>"
BULK_SECTIONS = ("features", "surfaces")


def normalised_bytes(raw: bytes) -> bytes:
    """Report bytes with the echoed input path replaced by a placeholder."""
    report = json.loads(raw)
    path = report["run"]["config"]["data"]
    needle = b'"data": ' + json.dumps(path).encode()
    return raw.replace(needle, b'"data": ' + json.dumps(DATA_PLACEHOLDER).encode(), 1)


def _walk(obj, path: str):
    """Yield (path, leaf) in the order the report serialises them."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _walk(obj[key], f"{path}/{key}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _walk(v, f"{path}/{i}")
    else:
        yield path, obj


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def signature(raw: bytes) -> dict:
    """Compact reference for one report.json's bytes."""
    norm = normalised_bytes(raw)
    report = json.loads(norm)
    comparison = report["comparison"]
    missing = report.get("missing_feature_test") or {}
    discrete = []
    scalars = {}
    bulk = []
    for path, leaf in _walk(report, ""):
        if isinstance(leaf, float):
            if path.startswith(tuple(f"/comparison/{s}/" for s in BULK_SECTIONS)):
                bulk.append(leaf)
            else:
                scalars[path] = leaf
        else:
            discrete.append([path, leaf])
    size = math.ceil(len(bulk) / N_CHUNKS) if bulk else 1
    chunks = [bulk[i : i + size] for i in range(0, len(bulk), size)]
    return {
        "sha256": hashlib.sha256(norm).hexdigest(),
        "facts": {
            "verdict": missing.get("verdict", "skipped"),
            "calibration_applied": report["calibration"]["decision"]["applied"],
            "ranking": [r["feature"] for r in comparison["discrepancy_ranking"]],
            "significant": {
                f["feature"]: "".join("1" if b else "0" for b in f["difference"]["significant"])
                for f in comparison["features"]
            },
            "artifacts_sha256": _sha(report["artifacts"]),
            "n_artifacts": sum(len(v) for v in report["artifacts"].values()),
        },
        "discrete_sha256": _sha(discrete),
        "scalars": scalars,
        "n_bulk": len(bulk),
        "bulk_chunks": [[math.fsum(c), math.fsum(abs(v) for v in c)] for c in chunks],
    }


def _close(got: float, ref: float, scale: float) -> bool:
    return abs(got - ref) <= RTOL * abs(scale) + ATOL


def compare(ref: dict, got: dict) -> list[str]:
    """Every way ``got`` fails the reference; empty when it passes."""
    problems = []
    for key, label in (
        ("verdict", "missing-feature verdict"),
        ("calibration_applied", "calibration decision"),
        ("ranking", "discrepancy ranking order"),
        ("significant", "significance flags"),
        ("artifacts_sha256", "artifact list"),
        ("n_artifacts", "artifact count"),
    ):
        if got["facts"][key] != ref["facts"][key]:
            problems.append(f"{label} changed: {got['facts'][key]!r} != {ref['facts'][key]!r}"[:300])
    if got["discrete_sha256"] != ref["discrete_sha256"]:
        problems.append("a non-float value of the report changed")
    if got["scalars"].keys() != ref["scalars"].keys():
        problems.append("the set of float fields changed")
    for path in sorted(ref["scalars"].keys() & got["scalars"].keys()):
        a, b = got["scalars"][path], ref["scalars"][path]
        if not _close(a, b, b):
            problems.append(f"float {path} = {a!r}, reference {b!r}")
    if got["n_bulk"] != ref["n_bulk"] or len(got["bulk_chunks"]) != len(ref["bulk_chunks"]):
        problems.append(f"curve/grid float count changed: {got['n_bulk']} != {ref['n_bulk']}")
    else:
        for i, ((s, a), (rs, ra)) in enumerate(zip(got["bulk_chunks"], ref["bulk_chunks"])):
            if not (_close(s, rs, ra) and _close(a, ra, ra)):
                problems.append(f"curve/grid floats in chunk {i} of {len(ref['bulk_chunks'])} moved")
    return problems
