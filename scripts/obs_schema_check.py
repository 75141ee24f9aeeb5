#!/usr/bin/env python3
"""Validate secflow observability exports (results/OBS_*.json).

Checks a metrics document against the secflow-obs/1 schema: required
top-level keys, the full counter and gauge catalogs (zeros included —
the document shape is stable by contract), and well-formed span and
worker entries. If the sibling chrome trace (<stem>.trace.json) exists
it is validated too.

Extra modes used by the CI gate:

  --compare A B          assert files A and B are byte-identical
                         (stdout must not change when --obs is on)
  --require-stages       assert the metrics document contains a span
                         for every one of the ten flow stages

Usage:
  scripts/obs_schema_check.py results/OBS_fig6_smoke.json [--require-stages]
  scripts/obs_schema_check.py --compare run_a.out run_b.out
"""

import json
import sys
from pathlib import Path

SCHEMA = "secflow-obs/1"

COUNTERS = [
    "sim.windows", "sim.events", "sim.evals", "sim.rises",
    "sim.bitslice.batches", "sim.bitslice.lanes", "sim.bitslice.events",
    "sim.bitslice.evals", "sim.bitslice.rises",
    "dpa.traces", "dpa.guesses",
    "dpa.stream.blocks", "dpa.stream.traces", "dpa.stream.checkpoints",
    "dpa.stream.folds",
    "place.moves", "place.accepted", "place.restarts",
    "route.nets", "route.ripups", "route.iterations",
    "extract.nets", "extract.couplings",
    "substitute.gates", "decompose.rails",
    "lec.outputs", "lec.cell_memo_hits", "lec.ite_cache_hits",
    "lec.random_rounds",
    "exec.regions", "exec.chunks", "exec.items",
    "serve.jobs", "serve.cache.hit", "serve.cache.miss", "serve.cache.evict",
]

GAUGES = [
    "sim.wheel_peak", "sim.bitslice.wheel_peak",
    "exec.region_peak_items", "dpa.stream.classes_peak",
    "lec.bdd_peak_nodes",
    "serve.queue_peak",
]

STAGES = [
    "parse", "synth", "substitute", "place", "route",
    "decompose", "extract", "lec", "railcheck", "sim",
]


def fail(msg):
    print(f"obs_schema_check: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_uint(doc, key, ctx):
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        fail(f"{ctx}: `{key}` must be a non-negative integer, got {v!r}")
    return v


def check_metrics(path, require_stages):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        fail(f"{path}: unreadable or invalid JSON: {e}")

    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    if not isinstance(doc.get("exp"), str) or not doc["exp"]:
        fail(f"{path}: `exp` must be a non-empty string")
    check_uint(doc, "threads", path)
    check_uint(doc, "wall_ns", path)

    for section, catalog in [("counters", COUNTERS), ("gauges", GAUGES)]:
        block = doc.get(section)
        if not isinstance(block, dict):
            fail(f"{path}: `{section}` must be an object")
        missing = [k for k in catalog if k not in block]
        if missing:
            fail(f"{path}: `{section}` missing catalog entries: {missing}")
        extra = [k for k in block if k not in catalog]
        if extra:
            fail(f"{path}: `{section}` has uncataloged entries: {extra}")
        for k in catalog:
            check_uint(block, k, f"{path}: {section}")

    spans = doc.get("spans")
    if not isinstance(spans, list):
        fail(f"{path}: `spans` must be an array")
    for s in spans:
        if not isinstance(s.get("path"), str) or not s["path"]:
            fail(f"{path}: span entry without a path: {s!r}")
        check_uint(s, "count", f"{path}: span {s.get('path')}")
        check_uint(s, "total_ns", f"{path}: span {s.get('path')}")

    workers = doc.get("workers")
    if not isinstance(workers, list):
        fail(f"{path}: `workers` must be an array")
    for w in workers:
        for k in ["region", "worker", "busy_ns", "chunks", "items"]:
            check_uint(w, k, f"{path}: worker entry")

    if require_stages:
        leaves = {s["path"].rsplit("/", 1)[-1] for s in spans}
        missing = [st for st in STAGES if st not in leaves]
        if missing:
            fail(f"{path}: missing flow-stage spans: {missing}")

    trace = Path(path).with_name(Path(path).stem + ".trace.json")
    if trace.exists():
        check_trace(trace)
    print(f"obs_schema_check: OK: {path} "
          f"({len(spans)} span paths, {len(workers)} worker records)")


def check_trace(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        fail(f"{path}: unreadable or invalid JSON: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: `traceEvents` must be an array")
    for e in events:
        if e.get("ph") != "X":
            fail(f"{path}: unexpected event phase {e.get('ph')!r}")
        for k in ["name", "cat"]:
            if not isinstance(e.get(k), str):
                fail(f"{path}: event `{k}` must be a string: {e!r}")
        for k in ["ts", "dur"]:
            if not isinstance(e.get(k), (int, float)) or e[k] < 0:
                fail(f"{path}: event `{k}` must be non-negative: {e!r}")
    if doc.get("otherData", {}).get("schema") != SCHEMA:
        fail(f"{path}: otherData.schema must be {SCHEMA!r}")
    print(f"obs_schema_check: OK: {path} ({len(events)} trace events)")


def compare(a, b):
    da, db = Path(a).read_bytes(), Path(b).read_bytes()
    if da != db:
        fail(f"{a} and {b} differ ({len(da)} vs {len(db)} bytes): "
             "stdout must be byte-identical with and without --obs")
    print(f"obs_schema_check: OK: {a} == {b} ({len(da)} bytes)")


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "--compare":
        if len(argv) != 3:
            fail("--compare takes exactly two files")
        compare(argv[1], argv[2])
        return 0
    require_stages = "--require-stages" in argv
    paths = [a for a in argv if not a.startswith("--")]
    if not paths:
        fail("no metrics files given")
    for p in paths:
        check_metrics(p, require_stages)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
