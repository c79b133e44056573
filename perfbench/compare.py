#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is a record run.py saved under .bench_build/results/. Every record
of both sets must have been made on the same kind of build and machine for
the same workload, run length and trace mode (run.COMPARABLE); otherwise the
comparison is refused with exit code 2. Revision and seed may differ: they
are what is being compared.

For each metric it prints both medians, the base set's spread (quartile
distance over median) and the change in the metric's "better" direction,
judged against the bound in BENCHMARK.json. Exit code 1 when a metric got
worse by more than its bound.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def check_stamps(records):
    ref = records[0]["stamp"]
    for r in records[1:]:
        diff = [k for k in run.COMPARABLE if r["stamp"].get(k) != ref.get(k)]
        if diff:
            return "stamps differ in %s: %s vs %s" % (
                ", ".join(diff), {k: ref.get(k) for k in diff},
                {k: r["stamp"].get(k) for k in diff})
    return None


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)
    why = check_stamps(base + new)
    if why:
        print("compare: refusing to compare: " + why, file=sys.stderr)
        sys.exit(2)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    print("workload %s, %d base and %d new runs" % (
        base[0]["stamp"]["workload"], len(base), len(new)))
    print("%-34s %12s %12s %8s %9s %6s  %s" % (
        "metric", "base median", "new median", "spread", "change", "bound", "verdict"))
    regressed = False
    for name in base[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        mb, mn = statistics.median(b), statistics.median(n)
        # Positive change = better.
        change = (mn - mb) / mb if mb else 0.0
        if better[name] == "lower":
            change = -change
        bound, s = bounds.get(name), spread(b)
        if bound is None:
            verdict = ""
        elif s > bound:
            verdict = "unresolved (spread above bound)"
        elif change < -bound:
            verdict = "WORSE beyond bound"
            regressed = True
        else:
            verdict = "within bound" if change <= 0 else "better"
        print("%-34s %12.6g %12.6g %8.3f %+9.3f %6s  %s" % (
            name, mb, mn, s, change, "" if bound is None else bound, verdict))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
