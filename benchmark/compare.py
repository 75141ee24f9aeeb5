#!/usr/bin/env python3
"""Compare two sets of secbench result files against BENCHMARK.json.

A result file is the standard output of one run:

    cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \\
        --workload fig6_des --seed 3 > benchmark/out/parent/fig6_des-3.jsonl

Usage:

    compare.py PARENT CHANGE        # may the change land?
    compare.py --self-check A B     # do two sets of one commit agree?

PARENT, CHANGE, A and B are directories of `*.jsonl` result files (or
single files). Runs are paired by workload and seed. For every
end-to-end metric and workload the script prints both medians, the
parent's quartile spread and a verdict:

* gain: the change wins at least 9 of 10 pairs (ties count for neither,
  at least 10 pairs) and the medians differ by more than the parent's
  quartile spread;
* regression: the change's median is worse than the parent's by more
  than the metric's bound;
* unresolved: the parent's spread is wider than the bound, so "within
  bound" would say nothing, unless every change run beats every parent
  run;
* within bound: none of the above.

A changed `output_digest` for the same workload and seed, or a higher
share of failed operations, is flagged as well. The exit status is 1
when anything is flagged, 0 otherwise. Per-layer metrics (traced runs)
have no bound and are listed for information.

`--self-check` applies the benchmark's own acceptance rule to two sets
of runs of the same code: every spread within its bound (`setup_s`
exempt), medians within the bound of each other, identical digests and
no failed operation.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    return e2e, layer


def parse_run(path):
    """One run: its metadata, metric values, digest and result line."""
    meta, metrics, digest, result = None, {}, None, None
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    for line in lines:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "meta" in obj:
            meta = obj["meta"]
        elif "output_digest" in obj:
            digest = obj["output_digest"]
        elif "name" in obj and "value" in obj:
            metrics[obj["name"]] = obj["value"]
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if meta is None or result is None or "correct" not in result:
        raise ValueError(f"{path}: not a secbench result file")
    return {
        "path": path,
        "workload": meta["workload"],
        "seed": meta["seed"],
        "trace": bool(meta["trace"]),
        "metrics": metrics,
        "digest": digest,
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def load_set(target):
    paths = []
    if os.path.isdir(target):
        for name in sorted(os.listdir(target)):
            if name.endswith(".jsonl"):
                paths.append(os.path.join(target, name))
    else:
        paths.append(target)
    if not paths:
        raise SystemExit(f"error: no result files in {target}")
    return [parse_run(p) for p in paths]


def spread(values):
    """Quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def better(a, b, direction):
    """True if value b is strictly better than value a."""
    return b < a if direction == "lower" else b > a


def worse_share(med_a, med_b, direction):
    """How much worse b is than a, as a share of a (negative = better)."""
    if med_a == 0:
        return 0.0
    d = (med_b - med_a) / med_a
    return d if direction == "lower" else -d


def index(runs, trace):
    by = {}
    for r in runs:
        if r["trace"] == trace:
            by.setdefault(r["workload"], {})[r["seed"]] = r
    return by


def failed_frac(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def digest_flags(a_by, b_by):
    flags = []
    for w in sorted(set(a_by) & set(b_by)):
        for seed in sorted(set(a_by[w]) & set(b_by[w])):
            da, db = a_by[w][seed]["digest"], b_by[w][seed]["digest"]
            if da != db:
                flags.append(f"{w} seed {seed}: output_digest {da} -> {db}")
    return flags


def compare(parent, change, e2e, layer):
    pa, ch = index(parent, False), index(change, False)
    flagged = digest_flags(index(parent, True), index(change, True)) + digest_flags(pa, ch)
    print(f"{'workload':<11} {'metric':<12} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'spread':>7} {'bound':>6} {'wins':>7}  verdict")
    for w in sorted(set(pa) & set(ch)):
        seeds = sorted(set(pa[w]) & set(ch[w]))
        for name, m in e2e.items():
            pairs = [(pa[w][s]["metrics"].get(name), ch[w][s]["metrics"].get(name)) for s in seeds]
            pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
            if not pairs:
                continue
            a = [p[0] for p in pairs]
            b = [p[1] for p in pairs]
            med_a, med_b = statistics.median(a), statistics.median(b)
            wins = sum(better(x, y, m["better"]) for x, y in pairs)
            worse = worse_share(med_a, med_b, m["better"])
            all_better = all(better(x, y, m["better"]) for x in a for y in b)
            if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                    and abs(med_b - med_a) > iqr(a) and worse < 0):
                verdict = "gain"
            elif spread(a) > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                flagged.append(f"{w} {name}: {100 * worse:+.1f} % worse (bound {100 * m['bound']:.0f} %)")
            else:
                verdict = "within bound"
            print(f"{w:<11} {name:<12} {med_a:>12.6g} {med_b:>12.6g} "
                  f"{100 * (med_b - med_a) / med_a if med_a else 0:>+7.1f}% "
                  f"{100 * spread(a):>6.1f}% {100 * m['bound']:>5.0f}% "
                  f"{wins:>3}/{len(pairs):<3}  {verdict}")
        fa = failed_frac(pa[w].values())
        fb = failed_frac(ch[w].values())
        if fb > fa:
            flagged.append(f"{w}: failed_frac {fa:.4f} -> {fb:.4f}")
    la, lb = index(parent, True), index(change, True)
    for w in sorted(set(la) & set(lb)):
        print(f"\nper-layer, {w} (traced runs; no bound)")
        for name, m in layer.items():
            a = [r["metrics"][name] for r in la[w].values() if name in r["metrics"]]
            b = [r["metrics"][name] for r in lb[w].values() if name in r["metrics"]]
            if a and b:
                print(f"  {name:<28} {statistics.median(a):>14.6g} {statistics.median(b):>14.6g}"
                      f"  ({m['unit']}, {m['better']} is better)")
    return flagged


def self_check(a_runs, b_runs, e2e):
    a_by, b_by = index(a_runs, False), index(b_runs, False)
    problems = digest_flags(a_by, b_by) + digest_flags(index(a_runs, True), index(b_runs, True))
    for r in a_runs + b_runs:
        if r["failed"]:
            problems.append(f"{r['path']}: {r['failed']} failed operations")
    print(f"{'workload':<11} {'metric':<12} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'bound':>6}  spread/bound")
    for w in sorted(set(a_by) | set(b_by)):
        if w not in a_by or w not in b_by:
            problems.append(f"{w}: runs in one set only")
            continue
        for name, m in e2e.items():
            a = [r["metrics"][name] for r in a_by[w].values() if name in r["metrics"]]
            b = [r["metrics"][name] for r in b_by[w].values() if name in r["metrics"]]
            if not a or not b:
                problems.append(f"{w} {name}: missing")
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            sa, sb = spread(a), spread(b)
            print(f"{w:<11} {name:<12} {med_a:>12.6g} {med_b:>12.6g} {100 * sa:>8.1f}% "
                  f"{100 * sb:>8.1f}% {100 * m['bound']:>5.0f}%  {max(sa, sb) / m['bound']:.2f}")
            if name != "setup_s":
                for label, s in (("A", sa), ("B", sb)):
                    if s > m["bound"]:
                        problems.append(f"{w} {name}: spread of set {label} {100 * s:.1f} % exceeds the bound")
            for x, y in ((med_a, med_b), (med_b, med_a)):
                worse = worse_share(x, y, m["better"])
                if worse > m["bound"]:
                    problems.append(f"{w} {name}: medians differ by {100 * worse:.1f} % (bound {100 * m['bound']:.0f} %)")
                    break
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("first", help="parent set (or set A with --self-check)")
    p.add_argument("second", help="change set (or set B with --self-check)")
    p.add_argument("--self-check", action="store_true", help="two sets of the same commit")
    p.add_argument("--bench", default=os.path.join(HERE, "..", "BENCHMARK.json"),
                   help="benchmark definition (default: ../BENCHMARK.json)")
    args = p.parse_args()
    e2e, layer = load_spec(args.bench)
    a, b = load_set(args.first), load_set(args.second)
    if args.self_check:
        flagged = self_check(a, b, e2e)
    else:
        flagged = compare(a, b, e2e, layer)
    if flagged:
        print("\nflagged:")
        for f in flagged:
            print(f"  {f}")
        return 1
    print("\nnothing flagged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
